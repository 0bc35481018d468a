//! The N-way differential oracle over the execution-tier matrix.
//!
//! Every program is run under six configurations:
//!
//! | tier            | runtime | checks  | opt | notes                        |
//! |-----------------|---------|---------|-----|------------------------------|
//! | `interp-checked`| CPython | dynamic | 0   | the semantic baseline        |
//! | `interp-elided` | CPython | elided  | 0   | verifier-backed guard elision|
//! | `opt1`          | CPython | elided  | 1   | fold + DCE                   |
//! | `opt2`          | CPython | elided  | 2   | + promotion + fusion         |
//! | `jit`           | PyPyJit | elided  | 0   | tracing JIT tiers            |
//! | `chaos`         | CPython | elided  | 0   | seeded faults + recovery     |
//!
//! Agreement demands identical guest-visible outcomes against the
//! checked-interpreter baseline: the rendered `result` global, the
//! printed output, and — when a tier fails — the same typed error. The
//! chaos tier is additionally held to the strict PR-4 oracle against its
//! fault-free twin (`interp-elided`): every [`ExecutionStats`] counter of
//! a simple core fed by each run, byte for byte. `instructions` counts
//! micro-ops, so this covers the trace length. Cross-tier
//! *ExecutionStats* equality is deliberately **not** demanded — guard
//! elision, the optimizer, and the JIT legitimately change the micro-op
//! stream; what they may never change is what the program computes.
//!
//! No tier keeps a trace. The twin and the chaos tier stream their
//! micro-ops straight into a [`SimpleCore`], so a chaos checkpoint
//! clones a fixed-size core rather than a growing trace; every other
//! tier runs into a `NullSink`. The source is compiled once per
//! program, and each distinct `(opt level, check elision)` pair is
//! prepared once: `interp-elided`, `jit` and `chaos` share one opt-0
//! verification, and only a planted `opt2` program compiles separately.
//! A compile or verify failure becomes the failure of every tier that
//! uses that stage, with the error identity each tier would have
//! reported compiling on its own.
//!
//! Fuel exhaustion in any tier makes the verdict [`Inconclusive`] rather
//! than a divergence: optimized tiers execute different bytecode counts,
//! so a program straddling the fuel limit would otherwise produce false
//! positives. Generated programs terminate by construction and sit far
//! under the fuel ceiling; only shrinker candidates that break a loop
//! counter ever hit this.
//!
//! [`Inconclusive`]: FuzzVerdict::Inconclusive
//! [`ExecutionStats`]: qoa_uarch::ExecutionStats

use qoa_chaos::FaultPlan;
use qoa_core::{
    fault_kinds_for, run_isolated, stats_divergence, ChaosOptions, Prepared, RunFailure,
    RuntimeConfig, SinkRun,
};
use qoa_frontend::ast::{Expr, ExprKind, Module, Stmt, StmtKind};
use qoa_frontend::render::render_module;
use qoa_frontend::CodeObject;
use qoa_model::{NullSink, OpSink, RuntimeKind};
use qoa_uarch::{ExecutionStats, SimpleCore, UarchConfig};
use std::rc::Rc;

/// The six tier labels, in evaluation order.
pub const TIER_NAMES: [&str; 6] =
    ["interp-checked", "interp-elided", "opt1", "opt2", "jit", "chaos"];

/// Execution fuel for oracle runs. Generated programs are bounded far
/// below this; a candidate that hits it (a shrinker mutation that broke
/// a loop counter) is judged inconclusive, never divergent.
pub const ORACLE_FUEL: u64 = 5_000_000;

/// A deliberately planted semantics bug, applied to the program text a
/// single tier executes — modeling a miscompile in that tier. Used by CI
/// mutation tests to prove the oracle catches and the shrinker minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugPlant {
    /// Swap the operands of every binary `-`: `a - b` → `b - a`.
    /// Semantically visible whenever the operands differ; invisible to
    /// parsing, compilation, and the verifier.
    SwapSubOperands,
}

impl BugPlant {
    /// Parses the `--plant-bug` CLI spelling.
    pub fn parse(s: &str) -> Option<BugPlant> {
        match s {
            "swap-sub" => Some(BugPlant::SwapSubOperands),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            BugPlant::SwapSubOperands => "swap-sub",
        }
    }
}

/// Applies `plant` to `source`, returning the mutated program text. The
/// mutation is AST-level, so the planted program always re-parses.
/// Returns `None` when the program has no applicable site (the planted
/// tier then runs the original program and trivially agrees).
pub fn plant_bug(source: &str, plant: BugPlant) -> Option<String> {
    let mut module = qoa_frontend::parse(source).ok()?;
    let mutated = match plant {
        BugPlant::SwapSubOperands => {
            let mut count = 0usize;
            for stmt in &mut module.body {
                swap_subs_stmt(stmt, &mut count);
            }
            count
        }
    };
    if mutated == 0 {
        return None;
    }
    Some(render_module(&module))
}

fn swap_subs_stmt(stmt: &mut Stmt, count: &mut usize) {
    match &mut stmt.kind {
        StmtKind::Expr(e) | StmtKind::Return(Some(e)) | StmtKind::Assign(_, e) => {
            swap_subs_expr(e, count);
        }
        StmtKind::AugAssign(_, _, e) => swap_subs_expr(e, count),
        StmtKind::If { cond, then, orelse } => {
            swap_subs_expr(cond, count);
            for s in then.iter_mut().chain(orelse.iter_mut()) {
                swap_subs_stmt(s, count);
            }
        }
        StmtKind::While { cond, body } => {
            swap_subs_expr(cond, count);
            for s in body {
                swap_subs_stmt(s, count);
            }
        }
        StmtKind::For { iter, body, .. } => {
            swap_subs_expr(iter, count);
            for s in body {
                swap_subs_stmt(s, count);
            }
        }
        StmtKind::DelIndex(a, b) => {
            swap_subs_expr(a, count);
            swap_subs_expr(b, count);
        }
        StmtKind::FuncDef(f) => {
            for s in &mut f.body {
                swap_subs_stmt(s, count);
            }
        }
        StmtKind::ClassDef(c) => {
            for s in &mut c.body {
                swap_subs_stmt(s, count);
            }
        }
        _ => {}
    }
}

fn swap_subs_expr(expr: &mut Expr, count: &mut usize) {
    // Recurse first so nested subtractions are swapped too.
    match &mut expr.kind {
        ExprKind::Bin(_, a, b)
        | ExprKind::Cmp(_, a, b)
        | ExprKind::And(a, b)
        | ExprKind::Or(a, b) => {
            swap_subs_expr(a, count);
            swap_subs_expr(b, count);
        }
        ExprKind::Unary(_, e) | ExprKind::Attr(e, _) => swap_subs_expr(e, count),
        ExprKind::Index(a, b) => {
            swap_subs_expr(a, count);
            swap_subs_expr(b, count);
        }
        ExprKind::Slice { obj, lo, hi } => {
            swap_subs_expr(obj, count);
            if let Some(lo) = lo {
                swap_subs_expr(lo, count);
            }
            if let Some(hi) = hi {
                swap_subs_expr(hi, count);
            }
        }
        ExprKind::Call { func, args } => {
            swap_subs_expr(func, count);
            for a in args {
                swap_subs_expr(a, count);
            }
        }
        ExprKind::List(xs) | ExprKind::Tuple(xs) => {
            for x in xs {
                swap_subs_expr(x, count);
            }
        }
        ExprKind::Dict(kvs) => {
            for (k, v) in kvs {
                swap_subs_expr(k, count);
                swap_subs_expr(v, count);
            }
        }
        _ => {}
    }
    if let ExprKind::Bin(op, a, b) = &mut expr.kind {
        if *op == qoa_frontend::ast::BinOp::Sub {
            std::mem::swap(a, b);
            *count += 1;
        }
    }
}

/// One divergence between a tier and the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The tier that disagreed.
    pub tier: String,
    /// What differed (results, output, error identity, or — for the
    /// chaos tier — the strict byte-identity oracle).
    pub detail: String,
}

/// The oracle's verdict on one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuzzVerdict {
    /// All six tiers agreed on the guest-visible outcome.
    Agree {
        /// The rendered `result` global (shared by every tier).
        result: Option<String>,
        /// Baseline bytecodes executed — a deterministic size metric.
        bytecodes: u64,
    },
    /// A tier hit the fuel ceiling; no semantic conclusion is drawn.
    Inconclusive,
    /// A tier disagreed with the checked-interpreter baseline.
    Diverge(Divergence),
}

impl FuzzVerdict {
    /// True for [`FuzzVerdict::Diverge`].
    pub fn diverged(&self) -> bool {
        matches!(self, FuzzVerdict::Diverge(_))
    }
}

/// A tier's guest-visible outcome: success carries `(result, output)`,
/// failure carries the typed error identity.
type TierOutcome = Result<(Option<String>, Vec<String>), String>;

/// A stage's product, or the error identity of the tiers it fails.
type Staged<T> = Result<T, String>;

fn failure_identity(failure: RunFailure) -> String {
    format!("{}: {}", failure.error.kind(), failure.error)
}

/// The run-time configurations of the tiers; `chaos` runs under
/// `elided`.
struct Configs {
    checked: RuntimeConfig,
    elided: RuntimeConfig,
    opt1: RuntimeConfig,
    opt2: RuntimeConfig,
    jit: RuntimeConfig,
}

impl Configs {
    fn new() -> Configs {
        let fueled = |rt: RuntimeConfig| RuntimeConfig { max_steps: ORACLE_FUEL, ..rt };
        let elided = fueled(RuntimeConfig::new(RuntimeKind::CPython));
        Configs {
            checked: fueled(RuntimeConfig::new(RuntimeKind::CPython).with_check_elision(false)),
            elided,
            opt1: elided.with_opt_level(1),
            opt2: elided.with_opt_level(2),
            jit: fueled(RuntimeConfig::new(RuntimeKind::PyPyJit)),
        }
    }
}

/// Parses and compiles `source`, once for every tier that runs it.
fn compile(source: &str) -> Staged<Rc<CodeObject>> {
    run_isolated(|| Ok(qoa_frontend::compile(source)?)).map_err(failure_identity)
}

/// Prepares compiled code for `rt`'s opt level and check elision. A
/// compile failure passes through as the failure of the tiers it feeds.
fn prepare(compiled: &Staged<Rc<CodeObject>>, rt: &RuntimeConfig) -> Staged<Prepared> {
    let code = Rc::clone(compiled.as_ref().map_err(Clone::clone)?);
    run_isolated(|| Prepared::new(code, rt)).map_err(failure_identity)
}

/// Runs a prepared tier under `rt` into `sink`.
fn run_tier<S: OpSink>(
    prepared: &Staged<Prepared>,
    rt: &RuntimeConfig,
    sink: S,
) -> Staged<SinkRun<S>> {
    let prepared = prepared.as_ref().map_err(Clone::clone)?;
    run_isolated(|| prepared.run(rt, sink)).map_err(failure_identity)
}

/// Runs a tier judged on its guest-visible outcome alone: the micro-ops
/// go to a [`NullSink`].
fn outcome_tier(prepared: &Staged<Prepared>, rt: &RuntimeConfig) -> TierOutcome {
    run_tier(prepared, rt, NullSink).map(|(_, _, _, output, result)| (result, output))
}

/// The core model the strict chaos check streams both runs into.
fn strict_core() -> SimpleCore {
    SimpleCore::new(&UarchConfig::skylake())
}

/// The fault-free `interp-elided` run, as the chaos tier's twin: its
/// bytecode count sets the fault horizon, and its core statistics are
/// what the recovered chaos run must reproduce.
struct Twin {
    bytecodes: u64,
    stats: ExecutionStats,
}

/// Runs the `interp-elided` tier streamed into a simple core.
fn twin_tier(prepared: &Staged<Prepared>, rt: &RuntimeConfig) -> (TierOutcome, Option<Twin>) {
    match run_tier(prepared, rt, strict_core()) {
        Ok((core, vm, _, output, result)) => {
            let twin = Twin { bytecodes: vm.bytecodes, stats: core.finish() };
            (Ok((result, output)), Some(twin))
        }
        Err(e) => (Err(e), None),
    }
}

/// The chaos tier's fault plan and checkpoint cadence, for a fault-free
/// twin that executes `horizon` bytecodes: six seeded interpreter
/// faults over the run, a checkpoint every quarter of it.
pub fn chaos_options(chaos_seed: u64, horizon: u64) -> ChaosOptions {
    let plan = FaultPlan::seeded(chaos_seed, horizon, 6, fault_kinds_for(RuntimeKind::CPython));
    ChaosOptions::new(plan).with_checkpoint_every((horizon / 4).max(64))
}

/// Runs the chaos tier: seeded interpreter faults with snapshot
/// recovery, streamed into a simple core, the horizon taken from the
/// fault-free twin so faults land mid-run.
fn chaos_tier(
    prepared: &Staged<Prepared>,
    rt: &RuntimeConfig,
    twin: Option<&Twin>,
    chaos_seed: u64,
) -> (TierOutcome, Option<ExecutionStats>) {
    let opts = chaos_options(chaos_seed, twin.map_or(1024, |t| t.bytecodes.max(1)));
    let run = prepared.as_ref().map_err(Clone::clone).and_then(|prepared| {
        run_isolated(|| prepared.run_chaos(rt, &opts, strict_core())).map_err(failure_identity)
    });
    match run {
        Ok(((core, _, _, output, result), _outcome)) => {
            (Ok((result, output)), Some(core.finish()))
        }
        Err(e) => (Err(e), None),
    }
}

/// The strict chaos check: the recovered run's core statistics against
/// its fault-free twin's. The guest result and output are compared tier
/// by tier against the baseline, so only the statistics remain.
fn strict_divergence(twin: Option<&Twin>, chaos: Option<&ExecutionStats>) -> Option<String> {
    match (twin, chaos) {
        (Some(twin), Some(chaos)) => stats_divergence(&twin.stats, chaos),
        _ => None,
    }
}

fn describe(outcome: &TierOutcome) -> String {
    match outcome {
        Ok((result, output)) => {
            format!("result={result:?} output_lines={}", output.len())
        }
        Err(e) => format!("error[{e}]"),
    }
}

fn is_fuel(outcome: &TierOutcome) -> bool {
    matches!(outcome, Err(e) if e.starts_with("fuel"))
}

/// The code the `opt2` tier compiles: the planted program when `plant`
/// applies, else the shared compile.
fn opt2_compile(
    source: &str,
    compiled: Staged<Rc<CodeObject>>,
    plant: Option<BugPlant>,
) -> Staged<Rc<CodeObject>> {
    match plant.and_then(|p| plant_bug(source, p)) {
        Some(planted) => compile(&planted),
        None => compiled,
    }
}

/// Runs the full six-tier differential oracle on `source`.
///
/// `chaos_seed` seeds the chaos tier's fault plan. When `plant` is set,
/// the planted program text is what the `opt2` tier executes — modeling
/// a miscompile confined to that tier.
pub fn differential(source: &str, chaos_seed: u64, plant: Option<BugPlant>) -> FuzzVerdict {
    let rt = Configs::new();
    let compiled = compile(source);

    // Baseline: the checked interpreter.
    let baseline = outcome_tier(&prepare(&compiled, &rt.checked), &rt.checked);
    if is_fuel(&baseline) {
        return FuzzVerdict::Inconclusive;
    }

    // One opt-0 verification serves `interp-elided`, `jit` and `chaos`;
    // the fault-free elided run doubles as the chaos tier's strict twin.
    let elided = prepare(&compiled, &rt.elided);
    let (elided_outcome, twin) = twin_tier(&elided, &rt.elided);
    let (chaos, chaos_stats) = chaos_tier(&elided, &rt.elided, twin.as_ref(), chaos_seed);
    let opt1 = prepare(&compiled, &rt.opt1);
    let opt2 = prepare(&opt2_compile(source, compiled, plant), &rt.opt2);
    let tiers: [(&'static str, TierOutcome); 5] = [
        ("interp-elided", elided_outcome),
        ("opt1", outcome_tier(&opt1, &rt.opt1)),
        ("opt2", outcome_tier(&opt2, &rt.opt2)),
        ("jit", outcome_tier(&elided, &rt.jit)),
        ("chaos", chaos),
    ];

    if tiers.iter().any(|(_, o)| is_fuel(o)) {
        return FuzzVerdict::Inconclusive;
    }

    for (tier, outcome) in &tiers {
        if *outcome != baseline {
            return FuzzVerdict::Diverge(Divergence {
                tier: (*tier).to_string(),
                detail: format!(
                    "baseline {} vs {}",
                    describe(&baseline),
                    describe(outcome)
                ),
            });
        }
    }
    if let Some(div) = strict_divergence(twin.as_ref(), chaos_stats.as_ref()) {
        return FuzzVerdict::Diverge(Divergence {
            tier: "chaos".to_string(),
            detail: format!("strict oracle vs interp-elided: {div}"),
        });
    }

    let bytecodes = twin.map_or(0, |t| t.bytecodes);
    let result = match baseline {
        Ok((result, _)) => result,
        Err(_) => None,
    };
    FuzzVerdict::Agree { result, bytecodes }
}

/// Fast single-tier divergence check: runs the checked-interpreter
/// baseline plus only the named tier, instead of the full six-way
/// matrix. This is the shrinker's predicate — a shrink explores
/// thousands of candidates, and the tier that diverged is already
/// known, so re-running the other four tiers per candidate would
/// multiply the wall-clock cost for no information. Fuel exhaustion in
/// either run yields `false`: inconclusive candidates never count as
/// still-failing. An unknown tier name falls back to the full oracle.
pub fn tier_diverges(source: &str, tier: &str, chaos_seed: u64, plant: Option<BugPlant>) -> bool {
    let rt = Configs::new();
    let compiled = compile(source);
    let baseline = outcome_tier(&prepare(&compiled, &rt.checked), &rt.checked);
    if is_fuel(&baseline) {
        return false;
    }

    let outcome = match tier {
        // The baseline cannot diverge from itself.
        "interp-checked" => return false,
        "interp-elided" => outcome_tier(&prepare(&compiled, &rt.elided), &rt.elided),
        "opt1" => outcome_tier(&prepare(&compiled, &rt.opt1), &rt.opt1),
        "opt2" => {
            let opt2 = prepare(&opt2_compile(source, compiled, plant), &rt.opt2);
            outcome_tier(&opt2, &rt.opt2)
        }
        "jit" => outcome_tier(&prepare(&compiled, &rt.jit), &rt.jit),
        "chaos" => {
            // The chaos tier needs its fault-free elided twin for the
            // fault horizon and the strict check.
            let elided = prepare(&compiled, &rt.elided);
            let (twin_outcome, twin) = twin_tier(&elided, &rt.elided);
            if is_fuel(&twin_outcome) {
                return false;
            }
            let (outcome, stats) = chaos_tier(&elided, &rt.elided, twin.as_ref(), chaos_seed);
            if is_fuel(&outcome) {
                return false;
            }
            return outcome != baseline
                || strict_divergence(twin.as_ref(), stats.as_ref()).is_some();
        }
        _ => return differential(source, chaos_seed, plant).diverged(),
    };
    !is_fuel(&outcome) && outcome != baseline
}

/// Validates that `source` parses, compiles, and verifies — the
/// precondition for any oracle run or shrink candidate.
pub fn valid_program(source: &str) -> bool {
    match qoa_frontend::compile(source) {
        Ok(code) => qoa_analysis::verify_code(&code).is_ok(),
        Err(_) => false,
    }
}

/// Parses a module or returns `None` (shrinker helper).
pub fn parse_module(source: &str) -> Option<Module> {
    qoa_frontend::parse(source).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_source, GenConfig};

    #[test]
    fn generated_programs_agree_across_tiers() {
        let cfg = GenConfig::default();
        for seed in 0..8u64 {
            let src = generate_source(seed, &cfg);
            let verdict = differential(&src, seed.wrapping_mul(101), None);
            match verdict {
                FuzzVerdict::Agree { result, .. } => {
                    assert!(result.is_some(), "seed {seed}: no result global\n{src}");
                }
                other => panic!("seed {seed}: {other:?}\n{src}"),
            }
        }
    }

    #[test]
    fn planted_sub_swap_is_caught() {
        let src = "a = 10\nb = 3\nresult = a - b\n";
        let verdict = differential(src, 1, Some(BugPlant::SwapSubOperands));
        match verdict {
            FuzzVerdict::Diverge(d) => assert_eq!(d.tier, "opt2", "{d:?}"),
            other => panic!("planted bug not caught: {other:?}"),
        }
    }

    #[test]
    fn plant_returns_none_without_a_site() {
        assert!(plant_bug("x = 1 + 2\n", BugPlant::SwapSubOperands).is_none());
        let planted =
            plant_bug("x = 5 - 2\n", BugPlant::SwapSubOperands).expect("has a sub site");
        assert!(planted.contains("2 - 5"), "{planted}");
    }

    #[test]
    fn compile_errors_fail_every_tier_alike() {
        // One shared compile: its error is every tier's outcome, so the
        // tiers agree on it, exactly as when each tier compiled alone.
        let src = "x = (1 +\nresult = x\n";
        assert!(qoa_frontend::compile(src).is_err());
        match differential(src, 5, Some(BugPlant::SwapSubOperands)) {
            FuzzVerdict::Agree { result, bytecodes } => assert_eq!((result, bytecodes), (None, 0)),
            other => panic!("identical compile errors should agree: {other:?}"),
        }
        for tier in TIER_NAMES {
            assert!(!tier_diverges(src, tier, 5, None), "{tier}");
        }
    }

    #[test]
    fn guest_errors_must_match_not_diverge() {
        // Division by zero fails identically everywhere: agreement, with
        // the error as the shared outcome.
        let src = "x = 1\nresult = x // 0\n";
        match differential(src, 3, None) {
            FuzzVerdict::Agree { result, .. } => assert_eq!(result, None),
            other => panic!("identical guest errors should agree: {other:?}"),
        }
    }
}
