//! Fig. 8: per-benchmark CPI bars under the microarchitecture sweeps,
//! for PyPy with JIT on the paper's eight-benchmark subset.
//!
//! Each benchmark runs once, streamed into an OOO fan-out with a lane per
//! sweep point of all six parameters; no trace is stored.

use qoa_bench::{cell_chaos, cli, emit, harness, prewarm, sweep_subset, NA};
use qoa_core::harness::{sweep_param_cell, sweep_specs, SweepCellPoint};
use qoa_core::report::{f3, Table};
use qoa_core::runtime::RuntimeConfig;
use qoa_core::sweeps::{SweepParam, SCALED_DEFAULT_NURSERY};
use qoa_model::RuntimeKind;
use qoa_uarch::UarchConfig;
use qoa_workloads::FIG8_BENCHMARKS;

fn main() {
    let cli = cli();
    let mut h = harness(&cli, "fig08");
    let suite = sweep_subset(&cli, qoa_workloads::python_suite(), &FIG8_BENCHMARKS);
    let rt = RuntimeConfig::new(RuntimeKind::PyPyJit).with_nursery(SCALED_DEFAULT_NURSERY);
    let base = UarchConfig::skylake();
    let pairs: Vec<_> = suite.iter().map(|&w| (w, rt)).collect();
    prewarm(&cli, &mut h, sweep_specs(&pairs, cli.scale, &base, cell_chaos(&cli)));

    // swept[workload][param] — one run of a benchmark yields all six
    // parameters' cells through the pair slot.
    let mut swept: Vec<(&str, Vec<Option<Vec<SweepCellPoint>>>)> = Vec::new();
    for w in &suite {
        eprintln!("sweeping {}...", w.name);
        let mut pair_slot = None;
        let per_param = SweepParam::ALL
            .iter()
            .map(|&param| {
                sweep_param_cell(&mut h, w, cli.scale, &rt, &base, param, &mut pair_slot)
            })
            .collect();
        swept.push((w.name, per_param));
    }

    for (pi, &param) in SweepParam::ALL.iter().enumerate() {
        let values = param.values();
        let mut cols: Vec<String> = vec!["benchmark".into()];
        cols.extend(values.iter().map(|&v| param.format_value(v)));
        let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            format!("Fig. 8: per-benchmark CPI (PyPy w/ JIT) vs {}", param.label()),
            &col_refs,
        );
        for (name, per_param) in &swept {
            let mut row = vec![name.to_string()];
            match &per_param[pi] {
                Some(pts) => row.extend(pts.iter().map(|p| f3(p.cpi))),
                None => row.extend(values.iter().map(|_| NA.to_string())),
            }
            t.row(row);
        }
        emit(&cli, &t);
    }
    std::process::exit(h.finish());
}
