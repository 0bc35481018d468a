//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **JIT pipeline stages** — interpreter-only vs. traces-without-bridges
//!    vs. the full pipeline: quantifies how much of the JIT's win comes
//!    from bridge compilation on branchy code (Fig. 2's "additional steps"
//!    discussion).
//! 2. **BTB capacity** — the paper finds indirect calls are ~11.9% of the
//!    C-function-call overhead and that BTB-focused prior work cannot
//!    remove the rest; this ablation removes/boosts the BTB and reports
//!    both the CPI delta and the instruction-level indirect-call share.
//! 3. **Nursery policy** — static half-of-LLC vs. maximum vs. best-per-app
//!    (the Fig. 17 policy comparison as a single table).

use qoa_bench::{cell_chaos, cli, emit, harness, prewarm, Cli, NA};
use qoa_core::harness::{best_nursery_cell, nursery_cells, nursery_spec, run_cell, Harness};
use qoa_core::journal::{CellKey, CellMetrics, Metric};
use qoa_core::report::{f2, f3, pct, Table};
use qoa_core::runtime::{capture, RuntimeConfig};
use qoa_core::sweeps::{format_bytes, NURSERY_SIZES_SCALED};
use qoa_core::SupervisedCell;
use qoa_jit::JitConfig;
use qoa_model::{Category, OpKind, RuntimeKind};
use qoa_uarch::{TraceBuffer, UarchConfig};
use qoa_workloads::by_name;

fn main() {
    let cli = cli();
    let mut h = harness(&cli, "ablation");
    prewarm_cells(&cli, &mut h);
    jit_stage_ablation(&cli, &mut h);
    btb_ablation(&cli, &mut h);
    nursery_policy_ablation(&cli, &mut h);
    std::process::exit(h.finish());
}

/// Runs every ablation cell through the supervised executor up front; the
/// per-study render loops below then answer from the journal.
fn prewarm_cells(cli: &Cli, h: &mut Harness) {
    let chaos = cell_chaos(cli);
    let scale = cli.scale;
    let mut specs = Vec::new();

    // Ablation 1: JIT pipeline stages. The PyPyVm is driven directly, so
    // these cells run without fault injection.
    let base = JitConfig { nursery_size: 512 << 10, ..JitConfig::default() };
    let stages = [
        ("interp-only", JitConfig { enabled: false, ..base }),
        ("no-bridges", JitConfig { bridge_threshold: u32::MAX, ..base }),
        ("full", base),
    ];
    for name in ["eparse", "go", "richards", "fannkuch"] {
        let w = by_name(name).expect("workload");
        for (tag, cfg) in stages {
            let key = CellKey::new(name, "PyPyJit", "jit-stage", tag);
            specs.push(SupervisedCell::new(key, move |deadline| {
                let uarch = UarchConfig::skylake();
                let cfg = JitConfig { deadline, ..cfg };
                let code = qoa_frontend::compile(&w.source(scale))?;
                let mut vm = qoa_jit::PyPyVm::new(cfg, qoa_uarch::TraceBuffer::new());
                vm.load_program(&code);
                vm.run()?;
                let (trace, _) = vm.vm.finish();
                let cycles = trace.simulate_ooo(&uarch).cycles;
                let mut m = CellMetrics::new();
                m.insert("cycles".into(), Metric::Int(cycles as i64));
                Ok(m)
            }));
        }
    }

    // Ablation 2: BTB capacity.
    for name in ["richards", "deltablue", "nbody"] {
        let w = by_name(name).expect("workload");
        let key = CellKey::new(name, "CPython", "btb", "ablation");
        let mkey = key.clone();
        specs.push(SupervisedCell::new(key, move |deadline| {
            let rt = RuntimeConfig::new(RuntimeKind::CPython).with_deadline(deadline);
            let (trace, ..) = run_cell(&w.source(scale), &rt, chaos, &mkey, TraceBuffer::new())?;
            let mut ccall_ops = 0u64;
            let mut ccall_indirect = 0u64;
            for op in trace.ops() {
                if op.category == Category::CFunctionCall {
                    ccall_ops += 1;
                    if matches!(op.kind, OpKind::Call { indirect: true, .. } | OpKind::Ret) {
                        ccall_indirect += 1;
                    }
                }
            }
            let mut cfg_tiny = UarchConfig::skylake();
            cfg_tiny.branch.btb_entries = 16;
            let mut cfg_huge = UarchConfig::skylake();
            cfg_huge.branch.btb_entries = 1 << 16;
            let mut m = CellMetrics::new();
            m.insert("cpi_tiny".into(), Metric::Num(trace.simulate_ooo(&cfg_tiny).cpi()));
            m.insert(
                "cpi_base".into(),
                Metric::Num(trace.simulate_ooo(&UarchConfig::skylake()).cpi()),
            );
            m.insert("cpi_huge".into(), Metric::Num(trace.simulate_ooo(&cfg_huge).cpi()));
            m.insert(
                "indirect_share".into(),
                Metric::Num(ccall_indirect as f64 / ccall_ops.max(1) as f64),
            );
            Ok(m)
        }));
    }

    // Ablation 3: nursery policy.
    let rt = RuntimeConfig::new(RuntimeKind::PyPyJit);
    let uarch = UarchConfig::skylake();
    for name in ["spitfire", "unpack_seq", "html5lib", "telco"] {
        let w = by_name(name).expect("workload");
        for &n in NURSERY_SIZES_SCALED.iter() {
            specs.push(nursery_spec(w, scale, &rt, &uarch, n, "", chaos));
        }
    }

    prewarm(cli, h, specs);
}

fn jit_stage_ablation(cli: &Cli, h: &mut Harness) {
    let mut t = Table::new(
        "Ablation 1: JIT pipeline stages (cycles, OOO core)",
        &["benchmark", "interp-only", "traces only", "traces+bridges", "full speedup"],
    );
    let uarch = UarchConfig::skylake();
    for name in ["eparse", "go", "richards", "fannkuch"] {
        let w = by_name(name).expect("workload");
        let src = w.source(cli.scale);
        let mut stage = |tag: &str, cfg: JitConfig| -> Option<u64> {
            let key = CellKey::new(name, "PyPyJit", "jit-stage", tag);
            let metrics = h.cell(key, |deadline| {
                let cfg = JitConfig { deadline, ..cfg };
                let code = qoa_frontend::compile(&src)?;
                let mut vm = qoa_jit::PyPyVm::new(cfg, qoa_uarch::TraceBuffer::new());
                vm.load_program(&code);
                vm.run()?;
                let (trace, _) = vm.vm.finish();
                let cycles = trace.simulate_ooo(&uarch).cycles;
                let mut m = CellMetrics::new();
                m.insert("cycles".into(), Metric::Int(cycles as i64));
                Ok(m)
            })?;
            Some(metrics.get("cycles")?.as_i64()? as u64)
        };
        let base = JitConfig { nursery_size: 512 << 10, ..JitConfig::default() };
        let interp = stage("interp-only", JitConfig { enabled: false, ..base });
        let no_bridges = stage("no-bridges", JitConfig { bridge_threshold: u32::MAX, ..base });
        let full = stage("full", base);
        let cell = |v: Option<u64>| v.map_or(NA.into(), |c| c.to_string());
        let speedup = match (interp, full) {
            (Some(i), Some(f)) => format!("{}x", f2(i as f64 / f.max(1) as f64)),
            _ => NA.into(),
        };
        t.row(vec![name.to_string(), cell(interp), cell(no_bridges), cell(full), speedup]);
    }
    emit(cli, &t);
}

fn btb_ablation(cli: &Cli, h: &mut Harness) {
    let mut t = Table::new(
        "Ablation 2: BTB capacity on the CPython interpreter",
        &["benchmark", "CPI tiny BTB", "CPI baseline", "CPI huge BTB", "indirect share of C-call ops"],
    );
    for name in ["richards", "deltablue", "nbody"] {
        let w = by_name(name).expect("workload");
        let key = CellKey::new(name, "CPython", "btb", "ablation");
        let metrics = h.cell(key, |deadline| {
            let rt = RuntimeConfig::new(RuntimeKind::CPython).with_deadline(deadline);
            let run = capture(&w.source(cli.scale), &rt)?;
            // Instruction-level share: indirect call/branch ops within the
            // C-function-call category (paper: 11.9% average).
            let mut ccall_ops = 0u64;
            let mut ccall_indirect = 0u64;
            for op in run.trace.ops() {
                if op.category == Category::CFunctionCall {
                    ccall_ops += 1;
                    if matches!(op.kind, OpKind::Call { indirect: true, .. } | OpKind::Ret) {
                        ccall_indirect += 1;
                    }
                }
            }
            let mut cfg_tiny = UarchConfig::skylake();
            cfg_tiny.branch.btb_entries = 16;
            let mut cfg_huge = UarchConfig::skylake();
            cfg_huge.branch.btb_entries = 1 << 16;
            let mut m = CellMetrics::new();
            m.insert("cpi_tiny".into(), Metric::Num(run.trace.simulate_ooo(&cfg_tiny).cpi()));
            m.insert(
                "cpi_base".into(),
                Metric::Num(run.trace.simulate_ooo(&UarchConfig::skylake()).cpi()),
            );
            m.insert("cpi_huge".into(), Metric::Num(run.trace.simulate_ooo(&cfg_huge).cpi()));
            m.insert(
                "indirect_share".into(),
                Metric::Num(ccall_indirect as f64 / ccall_ops.max(1) as f64),
            );
            Ok(m)
        });
        let get = |n: &str| metrics.as_ref().and_then(|m| m.get(n)?.as_f64());
        t.row(vec![
            name.to_string(),
            get("cpi_tiny").map_or(NA.into(), f3),
            get("cpi_base").map_or(NA.into(), f3),
            get("cpi_huge").map_or(NA.into(), f3),
            get("indirect_share").map_or(NA.into(), pct),
        ]);
    }
    emit(cli, &t);
}

fn nursery_policy_ablation(cli: &Cli, h: &mut Harness) {
    let mut t = Table::new(
        "Ablation 3: nursery policy (cycles normalized to the 1MB static policy)",
        &["benchmark", "half-LLC (1MB)", "maximum", "best-per-app", "best size"],
    );
    let uarch = UarchConfig::skylake();
    let rt = RuntimeConfig::new(RuntimeKind::PyPyJit);
    for name in ["spitfire", "unpack_seq", "html5lib", "telco"] {
        let w = by_name(name).expect("workload");
        let pts = nursery_cells(h, w, cli.scale, &rt, &uarch, &NURSERY_SIZES_SCALED);
        let baseline = pts
            .iter()
            .flatten()
            .find(|p| p.nursery == (1 << 20))
            .map(|p| p.cycles as f64);
        let (Some(baseline), Some(max), Some(best)) =
            (baseline, pts.last().cloned().flatten(), best_nursery_cell(&pts))
        else {
            t.row(vec![name.to_string(), NA.into(), NA.into(), NA.into(), NA.into()]);
            continue;
        };
        t.row(vec![
            name.to_string(),
            "1.000".into(),
            f3(max.cycles as f64 / baseline),
            f3(best.cycles as f64 / baseline),
            format_bytes(best.nursery),
        ]);
    }
    emit(cli, &t);
}
