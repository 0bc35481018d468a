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

use std::time::Instant;

use qoa_bench::{cell_chaos, cli, emit, harness, prewarm, Cli, NA};
use qoa_core::harness::{
    best_nursery_cell, nursery_cells, nursery_spec, run_cell, CellChaos, Harness,
};
use qoa_core::journal::{CellKey, CellMetrics, Metric};
use qoa_core::report::{f2, f3, pct, Table};
use qoa_core::runtime::RuntimeConfig;
use qoa_core::sweeps::{format_bytes, NURSERY_SIZES_SCALED};
use qoa_core::{QoaError, SupervisedCell};
use qoa_jit::JitConfig;
use qoa_model::{Category, MicroOp, OpKind, OpSink, RuntimeKind};
use qoa_uarch::{OooCore, OooFanout, UarchConfig};
use qoa_workloads::{by_name, Scale, Workload};

/// Ablation 1 workloads.
const JIT_STAGE_WORKLOADS: [&str; 4] = ["eparse", "go", "richards", "fannkuch"];
/// Ablation 2 workloads.
const BTB_WORKLOADS: [&str; 3] = ["richards", "deltablue", "nbody"];

fn main() {
    let cli = cli();
    let mut h = harness(&cli, "ablation");
    prewarm_cells(&cli, &mut h);
    jit_stage_ablation(&cli, &mut h);
    btb_ablation(&cli, &mut h);
    nursery_policy_ablation(&cli, &mut h);
    std::process::exit(h.finish());
}

/// The three JIT pipelines of ablation 1: interpreter only, traces
/// without bridges, and the full pipeline.
fn jit_stages() -> [(&'static str, JitConfig); 3] {
    let base = JitConfig { nursery_size: 512 << 10, ..JitConfig::default() };
    [
        ("interp-only", JitConfig { enabled: false, ..base }),
        ("no-bridges", JitConfig { bridge_threshold: u32::MAX, ..base }),
        ("full", base),
    ]
}

/// Ablation 1 cell: OOO cycles of `w` under one JIT pipeline, streamed
/// straight into the core. The PyPyVm is driven directly, so these cells
/// run without fault injection.
fn jit_stage_cell(
    w: &Workload,
    scale: Scale,
    cfg: JitConfig,
    deadline: Option<Instant>,
) -> Result<CellMetrics, QoaError> {
    let cfg = JitConfig { deadline, ..cfg };
    let code = qoa_frontend::compile(&w.source(scale))?;
    let mut vm = qoa_jit::PyPyVm::new(cfg, OooCore::new(&UarchConfig::skylake()));
    vm.load_program(&code);
    vm.run()?;
    let (core, _) = vm.vm.finish();
    let cycles = core.finish().cycles;
    let mut m = CellMetrics::new();
    m.insert("cycles".into(), Metric::Int(cycles as i64));
    Ok(m)
}

/// Counts the C-function-call ops of a stream and the indirect control
/// transfers among them.
#[derive(Debug, Clone, Default)]
struct IndirectShare {
    ccall_ops: u64,
    ccall_indirect: u64,
}

impl OpSink for IndirectShare {
    fn op(&mut self, op: MicroOp) {
        if op.category == Category::CFunctionCall {
            self.ccall_ops += 1;
            if matches!(op.kind, OpKind::Call { indirect: true, .. } | OpKind::Ret) {
                self.ccall_indirect += 1;
            }
        }
    }
}

/// Ablation 2 cell: one CPython run streamed into the indirect-share
/// counter and a fan-out of the tiny, baseline and huge BTB.
fn btb_cell(
    w: &Workload,
    scale: Scale,
    chaos: Option<CellChaos>,
    key: &CellKey,
    deadline: Option<Instant>,
) -> Result<CellMetrics, QoaError> {
    let rt = RuntimeConfig::new(RuntimeKind::CPython).with_deadline(deadline);
    let btb = |entries| {
        let mut cfg = UarchConfig::skylake();
        cfg.branch.btb_entries = entries;
        cfg
    };
    let fan = OooFanout::new(&[btb(16), UarchConfig::skylake(), btb(1 << 16)]);
    let ((share, fan), ..) =
        run_cell(&w.source(scale), &rt, chaos, key, (IndirectShare::default(), fan))?;
    let mut m = CellMetrics::new();
    for (name, s) in ["cpi_tiny", "cpi_base", "cpi_huge"].into_iter().zip(fan.finish()) {
        m.insert(name.into(), Metric::Num(s.cpi()));
    }
    // Instruction-level share: indirect call/branch ops within the
    // C-function-call category (paper: 11.9% average).
    m.insert(
        "indirect_share".into(),
        Metric::Num(share.ccall_indirect as f64 / share.ccall_ops.max(1) as f64),
    );
    Ok(m)
}

/// Runs every ablation cell through the supervised executor up front; the
/// per-study render loops below then answer from the journal.
fn prewarm_cells(cli: &Cli, h: &mut Harness) {
    let chaos = cell_chaos(cli);
    let scale = cli.scale;
    let mut specs = Vec::new();

    // Ablation 1: JIT pipeline stages.
    for name in JIT_STAGE_WORKLOADS {
        let w = by_name(name).expect("workload");
        for (tag, cfg) in jit_stages() {
            let key = CellKey::new(name, "PyPyJit", "jit-stage", tag);
            specs.push(SupervisedCell::new(key, move |deadline| {
                jit_stage_cell(w, scale, cfg, deadline)
            }));
        }
    }

    // Ablation 2: BTB capacity.
    for name in BTB_WORKLOADS {
        let w = by_name(name).expect("workload");
        let key = CellKey::new(name, "CPython", "btb", "ablation");
        let mkey = key.clone();
        specs.push(SupervisedCell::new(key, move |deadline| {
            btb_cell(w, scale, chaos, &mkey, deadline)
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
    for name in JIT_STAGE_WORKLOADS {
        let w = by_name(name).expect("workload");
        let [interp, no_bridges, full] = jit_stages().map(|(tag, cfg)| {
            let key = CellKey::new(name, "PyPyJit", "jit-stage", tag);
            let metrics = h.cell(key, |deadline| jit_stage_cell(w, cli.scale, cfg, deadline))?;
            Some(metrics.get("cycles")?.as_i64()? as u64)
        });
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
    let chaos = cell_chaos(cli);
    for name in BTB_WORKLOADS {
        let w = by_name(name).expect("workload");
        let key = CellKey::new(name, "CPython", "btb", "ablation");
        let mkey = key.clone();
        let metrics = h.cell(key, |deadline| btb_cell(w, cli.scale, chaos, &mkey, deadline));
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
