//! The recorded reference tables: deterministic op counts that size the
//! draws, and the simulated outputs every drawn cell must reproduce.
//!
//! The tables are compiled into the binary from `hostbench/reference/`
//! and regenerated with `--record <dir>` (see the README). Recording
//! takes its own path through the library (direct `capture` plus
//! `simulate_simple` / `sweep_trace`, one `run_sweep` per fuzz batch),
//! so a timed cell that reproduces the table also agrees with an
//! independent computation.

use std::fmt::Write as _;
use std::path::Path;

use qoa_core::runtime::{capture, RuntimeConfig};
use qoa_core::sweeps::{sweep_trace, SweepParam, SweepPoint, SCALED_DEFAULT_NURSERY};
use qoa_fuzz::{run_sweep, SweepOptions};
use qoa_model::{Phase, RuntimeKind};
use qoa_uarch::UarchConfig;
use qoa_workloads::{by_name, python_suite, Scale, Workload, FIG8_BENCHMARKS};

/// Runtimes of the attribution workload (Fig. 4/5).
pub const ATTRIBUTION_RUNTIMES: [RuntimeKind; 2] = [RuntimeKind::CPython, RuntimeKind::PyPyJit];
/// Runtimes of the sweep workload (Fig. 7/8).
pub const SWEEP_RUNTIMES: [RuntimeKind; 3] = [
    RuntimeKind::CPython,
    RuntimeKind::PyPyNoJit,
    RuntimeKind::PyPyJit,
];
/// Fuzz batches in the recorded pool.
pub const FUZZ_BATCHES: u64 = 64;
/// Generated programs per fuzz batch.
pub const FUZZ_BATCH_PROGRAMS: u64 = 4;

const ATTRIBUTION_TSV: &str = include_str!("../reference/attribution.tsv");
const SWEEP_TSV: &str = include_str!("../reference/sweep.tsv");
const FUZZ_TSV: &str = include_str!("../reference/fuzz.tsv");

/// One attribution cell: a Python-suite program under one runtime.
#[derive(Debug, Clone)]
pub struct AttributionRef {
    /// The workload.
    pub workload: &'static Workload,
    /// The runtime.
    pub runtime: RuntimeKind,
    /// Micro-ops captured (the draw's op count).
    pub uops: u64,
    /// Simple-core cycles.
    pub cycles: u64,
    /// Simple-core instructions.
    pub instructions: u64,
}

/// One sweep pair: a Fig. 8 program under one runtime, all six params.
#[derive(Debug, Clone)]
pub struct SweepRef {
    /// The workload.
    pub workload: &'static Workload,
    /// The runtime.
    pub runtime: RuntimeKind,
    /// Micro-ops captured.
    pub uops: u64,
    /// [`points_digest`] per parameter, in [`SweepParam::ALL`] order.
    pub digests: [u64; 6],
}

/// One fuzz batch: a `run_sweep` over generated programs.
#[derive(Debug, Clone)]
pub struct FuzzRef {
    /// Batch index in the pool.
    pub batch: u64,
    /// The batch's sweep seed.
    pub seed: u64,
    /// Programs in the batch.
    pub count: u64,
    /// Programs on which all six tiers agreed.
    pub agreed: u64,
    /// Programs abandoned on the oracle's fuel ceiling.
    pub inconclusive: u64,
    /// Micro-ops of the checked-interpreter baseline over the batch
    /// (the draw's op count; 0 for a program that stops on an error).
    pub uops: u64,
}

/// The sweep seed of fuzz batch `batch`.
pub fn fuzz_batch_seed(batch: u64) -> u64 {
    qoa_fuzz::program_seed(0x5EED_F022_0000_0000, batch)
}

/// The runtime configuration of a sweep pair.
pub fn sweep_runtime(kind: RuntimeKind) -> RuntimeConfig {
    RuntimeConfig::new(kind).with_nursery(SCALED_DEFAULT_NURSERY)
}

/// FNV-1a digest of sweep points `(value, cpi, interp, gc, jit)`, the
/// five numbers a Fig. 7/8 cell journals per value, in value order.
pub fn points_digest(points: impl IntoIterator<Item = (u64, f64, f64, f64, f64)>) -> u64 {
    let mut text = String::new();
    for (v, cpi, interp, gc, jit) in points {
        let _ = writeln!(text, "{v} {cpi} {interp} {gc} {jit}");
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// [`points_digest`] of freshly replayed sweep points, with the phase
/// CPIs combined the way a sweep cell journals them.
pub fn sweep_digest(points: &[SweepPoint]) -> u64 {
    points_digest(points.iter().map(|p| {
        (
            p.value,
            p.cpi,
            p.phase_cpi[Phase::Interpreter],
            p.phase_cpi[Phase::GcMinor] + p.phase_cpi[Phase::GcMajor],
            p.phase_cpi[Phase::JitCode],
        )
    }))
}

fn runtime_named(name: &str) -> RuntimeKind {
    match name {
        "CPython" => RuntimeKind::CPython,
        "PyPyNoJit" => RuntimeKind::PyPyNoJit,
        "PyPyJit" => RuntimeKind::PyPyJit,
        other => panic!("reference table names unknown runtime {other}"),
    }
}

fn rows(tsv: &str) -> impl Iterator<Item = Vec<&str>> {
    tsv.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split('\t').collect())
}

fn num(field: &str) -> u64 {
    field
        .parse()
        .unwrap_or_else(|_| panic!("reference table field {field:?} is not a count"))
}

fn workload(name: &str) -> &'static Workload {
    by_name(name).unwrap_or_else(|| panic!("reference table names unknown workload {name}"))
}

/// The attribution table.
pub fn attribution() -> Vec<AttributionRef> {
    rows(ATTRIBUTION_TSV)
        .map(|f| AttributionRef {
            workload: workload(f[0]),
            runtime: runtime_named(f[1]),
            uops: num(f[2]),
            cycles: num(f[3]),
            instructions: num(f[4]),
        })
        .collect()
}

/// The sweep table.
pub fn sweep() -> Vec<SweepRef> {
    rows(SWEEP_TSV)
        .map(|f| SweepRef {
            workload: workload(f[0]),
            runtime: runtime_named(f[1]),
            uops: num(f[2]),
            digests: std::array::from_fn(|i| {
                u64::from_str_radix(f[3 + i], 16).expect("reference digest is hex")
            }),
        })
        .collect()
}

/// The fuzz table.
pub fn fuzz() -> Vec<FuzzRef> {
    rows(FUZZ_TSV)
        .map(|f| FuzzRef {
            batch: num(f[0]),
            seed: u64::from_str_radix(f[1], 16).expect("reference seed is hex"),
            count: num(f[2]),
            agreed: num(f[3]),
            inconclusive: num(f[4]),
            uops: num(f[5]),
        })
        .collect()
}

/// Recomputes all three tables into `dir`.
///
/// # Panics
///
/// When a pool cell fails to run or a table cannot be written: the
/// reference must cover every cell a draw can pick.
pub fn record(dir: &Path, scratch: &Path) {
    std::fs::create_dir_all(dir).expect("create the reference directory");
    let uarch = UarchConfig::skylake();

    let mut t = String::from("# program\truntime\tuops\tcycles\tinstructions\n");
    for w in python_suite() {
        for kind in ATTRIBUTION_RUNTIMES {
            let run = capture(&w.source(Scale::Tiny), &RuntimeConfig::new(kind))
                .unwrap_or_else(|e| panic!("{} {kind:?}: {e}", w.name));
            let s = run.trace.simulate_simple(&uarch);
            let _ = writeln!(
                t,
                "{}\t{kind:?}\t{}\t{}\t{}",
                w.name,
                run.trace.len(),
                s.cycles,
                s.instructions
            );
            eprintln!(
                "recorded attribution {} {kind:?}: {} uops",
                w.name,
                run.trace.len()
            );
        }
    }
    std::fs::write(dir.join("attribution.tsv"), t).expect("write attribution.tsv");

    let mut t = String::from("# program\truntime\tuops\tdigest per SweepParam::ALL\n");
    for name in FIG8_BENCHMARKS {
        let w = workload(name);
        for kind in SWEEP_RUNTIMES {
            let run = capture(&w.source(Scale::Tiny), &sweep_runtime(kind))
                .unwrap_or_else(|e| panic!("{name} {kind:?}: {e}"));
            let _ = write!(t, "{name}\t{kind:?}\t{}", run.trace.len());
            for param in SweepParam::ALL {
                let d = sweep_digest(&sweep_trace(&run.trace, param, &uarch));
                let _ = write!(t, "\t{d:016x}");
            }
            t.push('\n');
            eprintln!("recorded sweep {name} {kind:?}: {} uops", run.trace.len());
        }
    }
    std::fs::write(dir.join("sweep.tsv"), t).expect("write sweep.tsv");

    let mut t = String::from("# batch\tseed\tcount\tagreed\tinconclusive\tuops\n");
    let gen = qoa_fuzz::GenConfig::default();
    for batch in 0..FUZZ_BATCHES {
        let seed = fuzz_batch_seed(batch);
        let mut opts = SweepOptions::new(seed);
        opts.count = FUZZ_BATCH_PROGRAMS;
        opts.fresh = true;
        opts.journal_dir = scratch.join(format!("record-fuzz-{batch}"));
        opts.artifacts_dir = opts.journal_dir.clone();
        let summary = run_sweep(&opts).expect("fuzz batch journals");
        assert!(summary.divergences.is_empty(), "batch {batch} diverged");
        let mut baseline = RuntimeConfig::new(RuntimeKind::CPython).with_check_elision(false);
        baseline.max_steps = qoa_fuzz::oracle::ORACLE_FUEL;
        let uops: usize = (0..FUZZ_BATCH_PROGRAMS)
            .map(|i| {
                let source = qoa_fuzz::generate_source(qoa_fuzz::program_seed(seed, i), &gen);
                capture(&source, &baseline).map_or(0, |run| run.trace.len())
            })
            .sum();
        let _ = writeln!(
            t,
            "{batch}\t{seed:016x}\t{}\t{}\t{}\t{uops}",
            summary.programs, summary.agreed, summary.inconclusive
        );
        eprintln!(
            "recorded fuzz batch {batch}: {} agreed, {} inconclusive, {uops} uops",
            summary.agreed, summary.inconclusive
        );
    }
    std::fs::write(dir.join("fuzz.tsv"), t).expect("write fuzz.tsv");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_cover_every_pool_cell() {
        let attribution = attribution();
        assert_eq!(
            attribution.len(),
            python_suite().len() * ATTRIBUTION_RUNTIMES.len()
        );
        assert!(attribution
            .iter()
            .all(|r| r.uops > 0 && r.cycles > 0 && r.instructions == r.uops));
        let sweep = sweep();
        assert_eq!(sweep.len(), FIG8_BENCHMARKS.len() * SWEEP_RUNTIMES.len());
        let fuzz = fuzz();
        assert_eq!(fuzz.len() as u64, FUZZ_BATCHES);
        for (k, r) in fuzz.iter().enumerate() {
            assert_eq!(
                (r.batch, r.seed, r.count),
                (k as u64, fuzz_batch_seed(k as u64), FUZZ_BATCH_PROGRAMS)
            );
            assert_eq!(r.agreed + r.inconclusive, r.count);
        }
    }

    #[test]
    fn digest_sees_every_point_and_digit() {
        let a = [(2, 1.5, 0.5, 0.25, 0.0), (4, 1.25, 0.5, 0.25, 0.0)];
        let mut b = a;
        b[1].1 = 1.250_000_000_000_000_2;
        assert_eq!(points_digest(a), points_digest(a));
        assert_ne!(points_digest(a), points_digest(b));
        assert_ne!(points_digest(a), points_digest(a[..1].to_vec()));
    }
}
