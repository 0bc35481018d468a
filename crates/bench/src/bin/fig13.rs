//! Fig. 13: garbage-collection time as a percentage of execution time,
//! per benchmark, PyPy without and with JIT (paper: the average GC share
//! grows ~4.6x — from 3% to 14% — when the JIT removes mutator work).

use qoa_bench::{cell_chaos, cli, emit, harness, limit, prewarm, NA};
use qoa_core::harness::{run_cell, CellChaos};
use qoa_core::journal::{CellKey, CellMetrics, Metric};
use qoa_core::report::{pct, Table};
use qoa_core::runtime::RuntimeConfig;
use qoa_core::{QoaError, SupervisedCell};
// Fig. 13 uses a smaller scaled nursery so collections are frequent
// enough to measure on laptop-scale workload instances.
const FIG13_NURSERY: u64 = 256 << 10;
use qoa_model::RuntimeKind;
use qoa_uarch::{OooCore, UarchConfig};
use qoa_workloads::{Scale, Workload};
use std::time::Instant;

/// One Fig. 13 cell: the run streams straight into the OOO core.
fn measure(
    w: &Workload,
    scale: Scale,
    kind: RuntimeKind,
    uarch: &UarchConfig,
    deadline: Option<Instant>,
    chaos: Option<CellChaos>,
    key: &CellKey,
) -> Result<CellMetrics, QoaError> {
    let rt = RuntimeConfig::new(kind).with_nursery(FIG13_NURSERY).with_deadline(deadline);
    let (core, ..) = run_cell(&w.source(scale), &rt, chaos, key, OooCore::new(uarch))?;
    let mut m = CellMetrics::new();
    m.insert("gc_share".into(), Metric::Num(core.finish().gc_share()));
    Ok(m)
}

fn main() {
    let cli = cli();
    let mut h = harness(&cli, "fig13");
    let suite = limit(&cli, qoa_workloads::python_suite());
    let uarch = UarchConfig::skylake();
    let chaos = cell_chaos(&cli);
    let mut specs = Vec::new();
    for &w in &suite {
        for kind in [RuntimeKind::PyPyNoJit, RuntimeKind::PyPyJit] {
            let key = CellKey::new(
                w.name,
                format!("{kind:?}"),
                "nursery",
                FIG13_NURSERY.to_string(),
            );
            let mkey = key.clone();
            let uarch = uarch.clone();
            let scale = cli.scale;
            specs.push(SupervisedCell::new(key, move |deadline| {
                measure(w, scale, kind, &uarch, deadline, chaos, &mkey)
            }));
        }
    }
    prewarm(&cli, &mut h, specs);
    let mut t = Table::new(
        "Fig. 13: GC time as % of execution time (PyPy)",
        &["benchmark", "w/o JIT", "w/ JIT"],
    );
    let mut sums = [0.0f64; 2];
    let mut counts = [0usize; 2];
    for w in &suite {
        eprintln!("running {}...", w.name);
        let mut shares: [Option<f64>; 2] = [None, None];
        for (i, kind) in [RuntimeKind::PyPyNoJit, RuntimeKind::PyPyJit].iter().enumerate() {
            let key = CellKey::new(
                w.name,
                format!("{kind:?}"),
                "nursery",
                FIG13_NURSERY.to_string(),
            );
            let mkey = key.clone();
            let metrics = h.cell(key, |deadline| {
                measure(w, cli.scale, *kind, &uarch, deadline, None, &mkey)
            });
            shares[i] = metrics.and_then(|m| m.get("gc_share")?.as_f64());
            if let Some(s) = shares[i] {
                sums[i] += s;
                counts[i] += 1;
            }
        }
        t.row(vec![
            w.name.to_string(),
            shares[0].map_or(NA.into(), pct),
            shares[1].map_or(NA.into(), pct),
        ]);
    }
    let avg = |i: usize| (counts[i] > 0).then(|| sums[i] / counts[i] as f64);
    t.row(vec![
        "AVG".into(),
        avg(0).map_or(NA.into(), pct),
        avg(1).map_or(NA.into(), pct),
    ]);
    emit(&cli, &t);
    if let (Some(nojit), Some(jit)) = (avg(0), avg(1)) {
        println!(
            "GC share grows {:.1}x with JIT [paper: 4.6x, 3% -> 14%]",
            jit / nojit.max(1e-9)
        );
    }
    std::process::exit(h.finish());
}
