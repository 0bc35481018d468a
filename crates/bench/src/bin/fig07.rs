//! Fig. 7: CPI under microarchitecture parameter sweeps — average lines
//! for CPython, PyPy w/o JIT and PyPy w/ JIT, with the PyPy execution
//! additionally split into bytecode-interpreter / GC / JIT-code phases.
//!
//! Each (benchmark, run-time) pair runs once, streamed into an OOO
//! fan-out with a lane per sweep point of all six parameters; no trace is
//! stored. Defaults to the paper's Fig. 8 benchmark subset; pass `--all`
//! for the full 48.

use qoa_bench::{cell_chaos, cli, emit, harness, prewarm, sweep_subset, Cli, NA};
use qoa_core::harness::{sweep_param_cell, sweep_specs};
use qoa_core::report::{f3, Table};
use qoa_core::runtime::RuntimeConfig;
use qoa_core::sweeps::{SweepParam, SCALED_DEFAULT_NURSERY};
use qoa_model::RuntimeKind;
use qoa_uarch::UarchConfig;
use qoa_workloads::FIG8_BENCHMARKS;

/// Per-(parameter, runtime) accumulated series.
struct Series {
    avg: Vec<f64>,
    interp: Vec<f64>,
    gc: Vec<f64>,
    jit: Vec<f64>,
    count: usize,
}

impl Series {
    fn new(len: usize) -> Self {
        Series {
            avg: vec![0.0; len],
            interp: vec![0.0; len],
            gc: vec![0.0; len],
            jit: vec![0.0; len],
            count: 0,
        }
    }
}

fn main() {
    let cli: Cli = cli();
    let mut h = harness(&cli, "fig07");
    let suite = sweep_subset(&cli, qoa_workloads::python_suite(), &FIG8_BENCHMARKS);
    let runtimes = [RuntimeKind::CPython, RuntimeKind::PyPyNoJit, RuntimeKind::PyPyJit];
    let base = UarchConfig::skylake();

    let pairs: Vec<_> = runtimes
        .iter()
        .flat_map(|&kind| {
            let rt = RuntimeConfig::new(kind).with_nursery(SCALED_DEFAULT_NURSERY);
            suite.iter().map(move |&w| (w, rt))
        })
        .collect();
    prewarm(&cli, &mut h, sweep_specs(&pairs, cli.scale, &base, cell_chaos(&cli)));

    // series[param][runtime]; one run of a (benchmark, runtime) pair
    // yields all six parameters' cells through the pair slot.
    let mut series: Vec<Vec<Series>> = SweepParam::ALL
        .iter()
        .map(|p| runtimes.iter().map(|_| Series::new(p.values().len())).collect())
        .collect();
    for (ri, &kind) in runtimes.iter().enumerate() {
        let rt = RuntimeConfig::new(kind).with_nursery(SCALED_DEFAULT_NURSERY);
        for w in &suite {
            eprintln!("sweeping {} on {kind}...", w.name);
            let mut pair_slot = None;
            for (pi, &param) in SweepParam::ALL.iter().enumerate() {
                let Some(pts) =
                    sweep_param_cell(&mut h, w, cli.scale, &rt, &base, param, &mut pair_slot)
                else {
                    continue;
                };
                let s = &mut series[pi][ri];
                for (i, p) in pts.iter().enumerate() {
                    s.avg[i] += p.cpi;
                    s.interp[i] += p.interp_cpi;
                    s.gc[i] += p.gc_cpi;
                    s.jit[i] += p.jit_cpi;
                }
                s.count += 1;
            }
        }
    }

    for (pi, &param) in SweepParam::ALL.iter().enumerate() {
        let values = param.values();
        let mut cols: Vec<String> = vec!["series".into()];
        cols.extend(values.iter().map(|&v| param.format_value(v)));
        let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(format!("Fig. 7: CPI vs {}", param.label()), &col_refs);
        for (ri, &kind) in runtimes.iter().enumerate() {
            let s = &series[pi][ri];
            let render = |sums: &[f64]| -> Vec<String> {
                sums.iter()
                    .map(|v| if s.count == 0 { NA.into() } else { f3(v / s.count as f64) })
                    .collect()
            };
            let mut row = vec![kind.label().to_string()];
            row.extend(render(&s.avg));
            t.row(row);
            if kind == RuntimeKind::PyPyJit {
                for (label, sums) in [
                    ("  Bytecode Interpreter", &s.interp),
                    ("  Garbage Collection", &s.gc),
                    ("  JIT Compiled Code", &s.jit),
                ] {
                    let mut row = vec![label.to_string()];
                    row.extend(render(sums));
                    t.row(row);
                }
            }
        }
        emit(&cli, &t);
    }
    std::process::exit(h.finish());
}
