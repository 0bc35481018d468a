//! `attribution`: Fig. 4/5 cells. Each drawn Python-suite program runs
//! under CPython and PyPy-JIT as one `breakdown_spec` cell: one capture,
//! one SimpleCore replay.

use std::path::PathBuf;

use qoa_core::harness::{breakdown_cell, breakdown_spec, Harness, HarnessOptions};
use qoa_core::runtime::{run_with_sink, RuntimeConfig};
use qoa_core::ExecutorOptions;
use qoa_uarch::{SimpleCore, UarchConfig};
use qoa_workloads::Scale;

use crate::layers::{calibrate, capture_traced, Counts, CELL};
use crate::reference::{self, AttributionRef};
use crate::round::{drain, file_len, timed, CellLog, Round, Workload};
use crate::spans::Tracer;

/// Micro-ops one round captures (both run-times of every drawn program):
/// half of the eligible programs' op counts.
pub const BUDGET: u64 = 60_000_000;
/// Largest program (both run-times) a draw may hold.
pub const PROGRAM_CAP: u64 = 12_000_000;
/// Programs per size stratum.
pub const STRATUM: usize = 3;

/// The eligible programs and the current draw.
pub struct Attribution {
    programs: Vec<Vec<AttributionRef>>,
    costs: Vec<u64>,
    cells: Vec<(AttributionRef, String)>,
    dir: PathBuf,
}

impl Attribution {
    /// The eligible pool; journals go under `dir`.
    pub fn setup(dir: PathBuf) -> Attribution {
        let table = reference::attribution();
        let mut programs: Vec<Vec<AttributionRef>> = Vec::new();
        for r in table {
            match programs
                .iter_mut()
                .find(|p| p[0].workload.name == r.workload.name)
            {
                Some(p) => p.push(r),
                None => programs.push(vec![r]),
            }
        }
        programs.retain(|p| p.iter().map(|r| r.uops).sum::<u64>() <= PROGRAM_CAP);
        let costs: Vec<u64> = programs
            .iter()
            .map(|p| p.iter().map(|r| r.uops).sum())
            .collect();
        Attribution {
            programs,
            costs,
            cells: Vec::new(),
            dir,
        }
    }
}

impl Workload for Attribution {
    fn costs(&self) -> &[u64] {
        &self.costs
    }

    fn sizing(&self) -> (u64, usize) {
        (BUDGET, STRATUM)
    }

    fn select(&mut self, picks: &[usize]) {
        self.cells = picks
            .iter()
            .flat_map(|&i| self.programs[i].clone())
            .map(|r| {
                let source = r.workload.source(Scale::Tiny);
                (r, source)
            })
            .collect();
    }

    fn describe(&self) -> Vec<String> {
        self.cells
            .iter()
            .map(|(r, s)| {
                format!(
                    "{} {:?}: {} uops, {} source bytes",
                    r.workload.name,
                    r.runtime,
                    r.uops,
                    s.len()
                )
            })
            .collect()
    }

    fn round(&self) -> Round {
        let mut opts = HarnessOptions::new("attribution", "hostbench tiny");
        opts.journal_dir = self.dir.clone();
        opts.fresh = true;
        let mut h = Harness::open(opts).expect("open the attribution journal");
        let uarch = UarchConfig::skylake();
        let log = CellLog::default();
        let specs = self
            .cells
            .iter()
            .map(|(r, _)| {
                let rt = RuntimeConfig::new(r.runtime);
                timed(
                    breakdown_spec(r.workload, Scale::Tiny, &rt, &uarch, None),
                    r.uops,
                    &log,
                )
            })
            .collect();
        let stats = h.prewarm(specs, &ExecutorOptions::new(1));
        let mut problems = Vec::new();
        for (r, _) in &self.cells {
            let rt = RuntimeConfig::new(r.runtime);
            match breakdown_cell(&mut h, r.workload, Scale::Tiny, &rt, &uarch) {
                Some(b) if b.cycles == r.cycles && b.instructions == r.instructions => {}
                Some(b) => problems.push(format!(
                    "{} {:?}: {} cycles / {} instructions, reference {} / {}",
                    r.workload.name, r.runtime, b.cycles, b.instructions, r.cycles, r.instructions
                )),
                None => problems.push(format!(
                    "{} {:?}: cell failed or shed",
                    r.workload.name, r.runtime
                )),
            }
        }
        Round {
            cells: drain(&log),
            attempted: self.cells.len() as u64,
            problems,
            retries: stats.retries,
            journal_bytes: file_len(&self.dir.join("attribution.journal.jsonl")),
        }
    }

    fn traced(&self, t: &mut Tracer, counts: &mut Counts) -> Vec<String> {
        let uarch = UarchConfig::skylake();
        let mut problems = Vec::new();
        for (i, (r, source)) in self.cells.iter().enumerate() {
            let rt = RuntimeConfig::new(r.runtime);
            let cal = calibrate(t, source, &rt);
            t.set_cell(i as u32);
            let cell = t.begin(CELL);
            let (run, _) = capture_traced(t, counts, source, &rt, &cal);
            let stats = run.map(|run| {
                t.time("simple.replay", || run.trace.simulate_simple(&uarch))
                    .0
            });
            t.end(cell);
            let name = format!("{} {:?}", r.workload.name, r.runtime);
            let stats = match stats {
                Ok(s) => s,
                Err(e) => {
                    problems.push(format!("{name}: {e}"));
                    continue;
                }
            };
            counts.simple_uops += stats.instructions;
            counts.simple_cycles += stats.cycles;
            counts.add_sim(&stats);
            if (stats.cycles, stats.instructions) != (r.cycles, r.instructions) {
                problems.push(format!(
                    "{name}: traced pass gives {} cycles, reference {}",
                    stats.cycles, r.cycles
                ));
            }
            // An independent streamed run: the VM drives the simple core
            // directly, with no trace in between.
            let (streamed, _) = t.time("bench.check", || {
                run_with_sink(source, &rt, SimpleCore::new(&uarch)).map(|(core, ..)| core.finish())
            });
            match streamed {
                Ok(s) if s == stats => {}
                Ok(s) => problems.push(format!(
                    "{name}: streamed run gives {} cycles, replay {}",
                    s.cycles, stats.cycles
                )),
                Err(e) => problems.push(format!("{name}: streamed run failed: {e}")),
            }
        }
        problems
    }

    fn traced_cells(&self) -> u64 {
        self.cells.len() as u64
    }
}
