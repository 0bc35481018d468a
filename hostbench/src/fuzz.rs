//! `fuzz-oracle`: `run_sweep` over drawn batches of generated programs,
//! each program through the six-tier differential oracle. Traces are
//! captured for comparison, not replay.

use std::path::PathBuf;

use qoa_chaos::FaultPlan;
use qoa_core::runtime::{CapturedRun, RuntimeConfig};
use qoa_core::{capture_chaos, fault_kinds_for, oracle_check, ChaosOptions, QoaError};
use qoa_fuzz::oracle::ORACLE_FUEL;
use qoa_fuzz::{generate_source, program_seed, run_sweep, GenConfig, SweepOptions};
use qoa_model::RuntimeKind;
use qoa_uarch::UarchConfig;

use crate::layers::{calibrate, capture_traced, Counts, CELL};
use crate::reference::{self, FuzzRef};
use crate::round::{file_len, CellTime, Round, Workload};
use crate::spans::Tracer;

/// Baseline micro-ops one round runs through the oracle: about 40% of
/// the recorded pool.
pub const BUDGET: u64 = 12_000_000;
/// Batches per size stratum.
pub const STRATUM: usize = 3;

/// The recorded batches and the current draw.
pub struct Fuzz {
    table: Vec<FuzzRef>,
    costs: Vec<u64>,
    batches: Vec<FuzzRef>,
    dir: PathBuf,
}

impl Fuzz {
    /// The recorded pool; journals go under `dir`.
    pub fn setup(dir: PathBuf) -> Fuzz {
        let table = reference::fuzz();
        let costs = table.iter().map(|r| r.uops).collect();
        Fuzz {
            table,
            costs,
            batches: Vec::new(),
            dir,
        }
    }

    fn options(&self, r: &FuzzRef) -> SweepOptions {
        let mut opts = SweepOptions::new(r.seed);
        opts.count = r.count;
        opts.jobs = 1;
        opts.fresh = true;
        opts.journal_dir = self.dir.join(format!("batch-{}", r.batch));
        opts.artifacts_dir = opts.journal_dir.clone();
        opts
    }
}

/// A tier's guest-visible outcome, as the oracle compares it.
type Outcome = Result<(Option<String>, Vec<String>), String>;

fn outcome(run: &Result<CapturedRun, QoaError>) -> Outcome {
    match run {
        Ok(r) => Ok((r.result.clone(), r.output.clone())),
        Err(e) => Err(format!("{}: {e}", e.kind())),
    }
}

fn is_fuel(o: &Outcome) -> bool {
    matches!(o, Err(e) if e.starts_with("fuel"))
}

fn fueled(rt: RuntimeConfig) -> RuntimeConfig {
    let mut rt = rt;
    rt.max_steps = ORACLE_FUEL;
    rt
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Agree,
    Inconclusive,
    Diverge(&'static str),
}

/// One program through the six tiers as one traced cell, mirroring
/// `qoa_fuzz::differential`.
fn traced_program(t: &mut Tracer, counts: &mut Counts, seed: u64, cell: u32) -> Verdict {
    let cfg = GenConfig::default();
    let source = generate_source(seed, &cfg);
    let checked = fueled(RuntimeConfig::new(RuntimeKind::CPython).with_check_elision(false));
    let elided = fueled(RuntimeConfig::new(RuntimeKind::CPython));
    let tiers = [
        ("interp-checked", checked),
        ("interp-elided", elided),
        ("opt1", elided.with_opt_level(1)),
        ("opt2", elided.with_opt_level(2)),
        ("jit", fueled(RuntimeConfig::new(RuntimeKind::PyPyJit))),
    ];
    let cals: Vec<_> = tiers
        .iter()
        .map(|(_, rt)| calibrate(t, &source, rt))
        .collect();

    t.set_cell(cell);
    let root = t.begin(CELL);
    let _ = t.time("fuzz.gen", || generate_source(seed, &cfg));
    let mut runs = Vec::new();
    let mut elided_store = 0;
    for (k, (name, rt)) in tiers.iter().enumerate() {
        let (run, id) = capture_traced(t, counts, &source, rt, &cals[k]);
        if *name == "interp-elided" {
            elided_store = t.dur(id).saturating_sub(cals[k].total());
        }
        let baseline_fuel = k == 0 && is_fuel(&outcome(&run));
        runs.push((*name, run));
        if baseline_fuel {
            break;
        }
    }
    let verdict = if runs.len() < tiers.len() {
        Verdict::Inconclusive
    } else {
        let elided_run = runs[1].1.as_ref().ok();
        let horizon = elided_run.map_or(1024, |r| r.vm.bytecodes.max(1));
        let plan = FaultPlan::seeded(seed, horizon, 6, fault_kinds_for(RuntimeKind::CPython));
        let opts = ChaosOptions::new(plan).with_checkpoint_every((horizon / 4).max(64));
        let (chaos, id) = t.time("chaos.capture", || capture_chaos(&source, &elided, &opts));
        let mut parts = cals[1].parts.clone();
        parts.push(("trace.capture", elided_store));
        t.derive(id, &parts);
        let chaos = chaos.map(|(run, out)| {
            counts.faults += out.faults_injected_total();
            run
        });
        t.time("fuzz.oracle", || {
            let baseline = outcome(&runs[0].1);
            let chaos_outcome = outcome(&chaos);
            let all = runs[1..]
                .iter()
                .map(|(n, r)| (*n, outcome(r)))
                .chain([("chaos", chaos_outcome)]);
            let all: Vec<_> = all.collect();
            if all.iter().any(|(_, o)| is_fuel(o)) {
                return Verdict::Inconclusive;
            }
            if let Some((tier, _)) = all.iter().find(|(_, o)| *o != baseline) {
                return Verdict::Diverge(tier);
            }
            match (elided_run, &chaos) {
                (Some(twin), Ok(c)) if oracle_check(twin, c, &UarchConfig::skylake()).is_some() => {
                    Verdict::Diverge("chaos")
                }
                _ => Verdict::Agree,
            }
        })
        .0
    };
    t.end(root);
    verdict
}

impl Workload for Fuzz {
    fn costs(&self) -> &[u64] {
        &self.costs
    }

    fn sizing(&self) -> (u64, usize) {
        (BUDGET, STRATUM)
    }

    fn select(&mut self, picks: &[usize]) {
        self.batches = picks.iter().map(|&i| self.table[i].clone()).collect();
    }

    fn describe(&self) -> Vec<String> {
        self.batches
            .iter()
            .map(|r| {
                format!(
                    "batch {} (sweep seed {:#018x}): {} programs, {} baseline uops",
                    r.batch, r.seed, r.count, r.uops
                )
            })
            .collect()
    }

    fn round(&self) -> Round {
        let mut round = Round::default();
        for r in &self.batches {
            let opts = self.options(r);
            let start = std::time::Instant::now();
            let summary = run_sweep(&opts);
            round.cells.push(CellTime {
                ms: start.elapsed().as_secs_f64() * 1e3,
                uops: r.uops,
            });
            round.attempted += 1;
            match summary {
                Ok(s) => {
                    round.journal_bytes += file_len(&s.journal_path);
                    let got = (s.programs, s.agreed, s.inconclusive, s.divergences.len());
                    if got != (r.count, r.agreed, r.inconclusive, 0) {
                        round.problems.push(format!(
                            "batch {}: programs/agreed/inconclusive/divergences {got:?}, reference ({}, {}, {}, 0)",
                            r.batch, r.count, r.agreed, r.inconclusive
                        ));
                    }
                }
                Err(e) => round.problems.push(format!("batch {}: {e}", r.batch)),
            }
        }
        round
    }

    fn traced(&self, t: &mut Tracer, counts: &mut Counts) -> Vec<String> {
        let mut problems = Vec::new();
        let mut cell = 0;
        for r in &self.batches {
            let (mut agreed, mut inconclusive) = (0, 0);
            for index in 0..r.count {
                match traced_program(t, counts, program_seed(r.seed, index), cell) {
                    Verdict::Agree => agreed += 1,
                    Verdict::Inconclusive => inconclusive += 1,
                    Verdict::Diverge(tier) => problems.push(format!(
                        "batch {} program {index}: tier {tier} diverged in the traced pass",
                        r.batch
                    )),
                }
                cell += 1;
            }
            counts.inconclusive += inconclusive;
            if (agreed, inconclusive) != (r.agreed, r.inconclusive) {
                problems.push(format!(
                    "batch {}: traced pass agreed/inconclusive ({agreed}, {inconclusive}), reference ({}, {})",
                    r.batch, r.agreed, r.inconclusive
                ));
            }
        }
        problems
    }

    fn traced_cells(&self) -> u64 {
        self.batches.iter().map(|r| r.count).sum()
    }
}
