//! `uarch-sweep`: Fig. 7/8 cells. Each drawn (program, run-time) pair
//! is six `sweep_param_spec` cells sharing one capture through
//! `shared_trace_cache`: one capture, 36 OooCore replays.

use std::path::PathBuf;

use qoa_core::harness::{
    shared_trace_cache, sweep_param_cell, sweep_param_spec, Harness, HarnessOptions,
};
use qoa_core::sweeps::{sweep_trace, SweepParam};
use qoa_core::ExecutorOptions;
use qoa_uarch::UarchConfig;
use qoa_workloads::Scale;

use crate::layers::{calibrate, capture_traced, Counts, CELL};
use crate::reference::{self, points_digest, sweep_digest, sweep_runtime, SweepRef};
use crate::round::{drain, file_len, timed, CellLog, Round, Workload};
use crate::spans::Tracer;

/// Replays per pair: the values of all six parameters.
fn replays() -> u64 {
    SweepParam::ALL
        .iter()
        .map(|p| p.values().len() as u64)
        .sum()
}

/// Replayed micro-ops one round simulates (36 replays per captured op):
/// a third of the eligible pairs' op counts.
pub const BUDGET: u64 = 200_000_000;
/// Largest pair (replayed micro-ops) a draw may hold.
pub const PAIR_CAP: u64 = 100_000_000;
/// Pairs per size stratum.
pub const STRATUM: usize = 2;

/// The eligible pairs and the current draw.
pub struct Sweep {
    table: Vec<SweepRef>,
    costs: Vec<u64>,
    pairs: Vec<(SweepRef, String)>,
    dir: PathBuf,
}

impl Sweep {
    /// The eligible pool; journals go under `dir`.
    pub fn setup(dir: PathBuf) -> Sweep {
        let mut table = reference::sweep();
        table.retain(|r| r.uops * replays() <= PAIR_CAP);
        let costs = table.iter().map(|r| r.uops * replays()).collect();
        Sweep {
            table,
            costs,
            pairs: Vec::new(),
            dir,
        }
    }
}

impl Workload for Sweep {
    fn costs(&self) -> &[u64] {
        &self.costs
    }

    fn sizing(&self) -> (u64, usize) {
        (BUDGET, STRATUM)
    }

    fn select(&mut self, picks: &[usize]) {
        self.pairs = picks
            .iter()
            .map(|&i| {
                let r = self.table[i].clone();
                let source = r.workload.source(Scale::Tiny);
                (r, source)
            })
            .collect();
    }

    fn describe(&self) -> Vec<String> {
        self.pairs
            .iter()
            .map(|(r, s)| {
                format!(
                    "{} {:?}: {} uops x {} replays, {} source bytes",
                    r.workload.name,
                    r.runtime,
                    r.uops,
                    replays(),
                    s.len()
                )
            })
            .collect()
    }

    fn round(&self) -> Round {
        let mut opts = HarnessOptions::new("uarch-sweep", "hostbench tiny");
        opts.journal_dir = self.dir.clone();
        opts.fresh = true;
        let mut h = Harness::open(opts).expect("open the sweep journal");
        let base = UarchConfig::skylake();
        let log = CellLog::default();
        let mut specs = Vec::new();
        for (r, _) in &self.pairs {
            let cache = shared_trace_cache();
            let rt = sweep_runtime(r.runtime);
            for param in SweepParam::ALL {
                specs.push(timed(
                    sweep_param_spec(r.workload, Scale::Tiny, &rt, &base, param, &cache, None),
                    r.uops * param.values().len() as u64,
                    &log,
                ));
            }
        }
        let stats = h.prewarm(specs, &ExecutorOptions::new(1));
        let mut problems = Vec::new();
        for (r, _) in &self.pairs {
            let rt = sweep_runtime(r.runtime);
            for (k, param) in SweepParam::ALL.into_iter().enumerate() {
                let name = format!("{} {:?} {param:?}", r.workload.name, r.runtime);
                match sweep_param_cell(
                    &mut h,
                    r.workload,
                    Scale::Tiny,
                    &rt,
                    &base,
                    param,
                    &mut None,
                ) {
                    Some(points) => {
                        let d = points_digest(
                            points
                                .iter()
                                .map(|p| (p.value, p.cpi, p.interp_cpi, p.gc_cpi, p.jit_cpi)),
                        );
                        if d != r.digests[k] {
                            problems
                                .push(format!("{name}: sweep points differ from the reference"));
                        }
                    }
                    None => problems.push(format!("{name}: cell failed or shed")),
                }
            }
        }
        Round {
            cells: drain(&log),
            attempted: (self.pairs.len() * SweepParam::ALL.len()) as u64,
            problems,
            retries: stats.retries,
            journal_bytes: file_len(&self.dir.join("uarch-sweep.journal.jsonl")),
        }
    }

    fn traced(&self, t: &mut Tracer, counts: &mut Counts) -> Vec<String> {
        let base = UarchConfig::skylake();
        let mut problems = Vec::new();
        for (i, (r, source)) in self.pairs.iter().enumerate() {
            let rt = sweep_runtime(r.runtime);
            let cal = calibrate(t, source, &rt);
            t.set_cell(i as u32);
            let cell = t.begin(CELL);
            let (run, _) = capture_traced(t, counts, source, &rt, &cal);
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    t.end(cell);
                    problems.push(format!("{} {:?}: {e}", r.workload.name, r.runtime));
                    continue;
                }
            };
            for (k, param) in SweepParam::ALL.into_iter().enumerate() {
                let (points, _) = t.time("ooo.replay", || sweep_trace(&run.trace, param, &base));
                for p in &points {
                    counts.ooo_uops += p.stats.instructions;
                    counts.ooo_replays += 1;
                    counts.ooo_cycles += p.stats.cycles;
                    counts.add_sim(&p.stats);
                }
                if sweep_digest(&points) != r.digests[k] {
                    problems.push(format!(
                        "{} {:?} {param:?}: traced sweep points differ from the reference",
                        r.workload.name, r.runtime
                    ));
                }
            }
            t.end(cell);
        }
        problems
    }

    fn traced_cells(&self) -> u64 {
        self.pairs.len() as u64
    }
}
