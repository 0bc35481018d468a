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
//! fault-free twin (`interp-elided`): identical micro-op trace length and
//! every [`ExecutionStats`] counter, byte for byte. Cross-tier
//! *ExecutionStats* equality is deliberately **not** demanded — guard
//! elision, the optimizer, and the JIT legitimately change the micro-op
//! stream; what they may never change is what the program computes. So
//! only the `chaos` tier and its twin keep their traces; every other
//! tier runs into a `NullSink`.
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
    capture, capture_chaos, fault_kinds_for, oracle_check, run_isolated, run_with_sink,
    CapturedRun, ChaosOptions, RunFailure, RuntimeConfig,
};
use qoa_frontend::ast::{Expr, ExprKind, Module, Stmt, StmtKind};
use qoa_frontend::render::render_module;
use qoa_model::{NullSink, RuntimeKind};
use qoa_uarch::UarchConfig;

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

fn failure_identity(failure: RunFailure) -> String {
    format!("{}: {}", failure.error.kind(), failure.error)
}

fn outcome_of(run: Result<CapturedRun, String>) -> (TierOutcome, Option<CapturedRun>) {
    match run {
        Ok(r) => {
            let summary = (r.result.clone(), r.output.clone());
            (Ok(summary), Some(r))
        }
        Err(e) => (Err(e), None),
    }
}

/// Runs a tier whose trace the strict oracle compares.
fn capture_tier(source: &str, rt: &RuntimeConfig) -> (TierOutcome, Option<CapturedRun>) {
    outcome_of(run_isolated(|| capture(source, rt)).map_err(failure_identity))
}

/// Runs a tier judged on its guest-visible outcome alone: the micro-ops
/// go to a [`NullSink`], so no trace is stored.
fn outcome_tier(source: &str, rt: &RuntimeConfig) -> TierOutcome {
    run_isolated(|| run_with_sink(source, rt, NullSink))
        .map(|(_, _, _, output, result)| (result, output))
        .map_err(failure_identity)
}

/// Runs the chaos tier: seeded interpreter faults with snapshot
/// recovery, the horizon taken from the fault-free twin so faults land
/// mid-run.
fn chaos_tier(
    source: &str,
    rt: &RuntimeConfig,
    twin: Option<&CapturedRun>,
    chaos_seed: u64,
) -> (TierOutcome, Option<CapturedRun>) {
    let horizon = twin.map_or(1024, |r| r.vm.bytecodes.max(1));
    let plan = FaultPlan::seeded(chaos_seed, horizon, 6, fault_kinds_for(RuntimeKind::CPython));
    let opts = ChaosOptions::new(plan).with_checkpoint_every((horizon / 4).max(64));
    let run = run_isolated(|| capture_chaos(source, rt, &opts));
    outcome_of(run.map(|(run, _outcome)| run).map_err(failure_identity))
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

/// Runs the full six-tier differential oracle on `source`.
///
/// `chaos_seed` seeds the chaos tier's fault plan. When `plant` is set,
/// the planted program text is what the `opt2` tier executes — modeling
/// a miscompile confined to that tier.
pub fn differential(source: &str, chaos_seed: u64, plant: Option<BugPlant>) -> FuzzVerdict {
    let mut rt_checked = RuntimeConfig::new(RuntimeKind::CPython).with_check_elision(false);
    rt_checked.max_steps = ORACLE_FUEL;
    let mut rt_elided = RuntimeConfig::new(RuntimeKind::CPython);
    rt_elided.max_steps = ORACLE_FUEL;
    let rt_opt1 = rt_elided.with_opt_level(1);
    let rt_opt2 = rt_elided.with_opt_level(2);
    let mut rt_jit = RuntimeConfig::new(RuntimeKind::PyPyJit);
    rt_jit.max_steps = ORACLE_FUEL;

    // Baseline: the checked interpreter.
    let baseline = outcome_tier(source, &rt_checked);
    if is_fuel(&baseline) {
        return FuzzVerdict::Inconclusive;
    }

    // The fault-free elided run doubles as the chaos tier's strict twin.
    let (elided, elided_run) = capture_tier(source, &rt_elided);

    let planted_source = plant.and_then(|p| plant_bug(source, p));
    let opt2_source: &str = planted_source.as_deref().unwrap_or(source);

    let (chaos, chaos_run) = chaos_tier(source, &rt_elided, elided_run.as_ref(), chaos_seed);
    let tiers: [(&'static str, TierOutcome); 5] = [
        ("interp-elided", elided),
        ("opt1", outcome_tier(source, &rt_opt1)),
        ("opt2", outcome_tier(opt2_source, &rt_opt2)),
        ("jit", outcome_tier(source, &rt_jit)),
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
    // The chaos tier must additionally be byte-identical to its
    // fault-free twin: trace length and every ExecutionStats counter.
    if let (Some(twin), Some(chaos_run)) = (&elided_run, &chaos_run) {
        if let Some(div) = oracle_check(twin, chaos_run, &UarchConfig::skylake()) {
            return FuzzVerdict::Diverge(Divergence {
                tier: "chaos".to_string(),
                detail: format!("strict oracle vs interp-elided: {div}"),
            });
        }
    }

    let bytecodes = elided_run.as_ref().map_or(0, |r| r.vm.bytecodes);
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
    let mut rt_checked = RuntimeConfig::new(RuntimeKind::CPython).with_check_elision(false);
    rt_checked.max_steps = ORACLE_FUEL;
    let mut rt_elided = RuntimeConfig::new(RuntimeKind::CPython);
    rt_elided.max_steps = ORACLE_FUEL;

    let baseline = outcome_tier(source, &rt_checked);
    if is_fuel(&baseline) {
        return false;
    }

    let outcome = match tier {
        // The baseline cannot diverge from itself.
        "interp-checked" => return false,
        "interp-elided" => outcome_tier(source, &rt_elided),
        "opt1" => outcome_tier(source, &rt_elided.with_opt_level(1)),
        "opt2" => {
            let planted = plant.and_then(|p| plant_bug(source, p));
            let opt2_source: &str = planted.as_deref().unwrap_or(source);
            outcome_tier(opt2_source, &rt_elided.with_opt_level(2))
        }
        "jit" => {
            let mut rt_jit = RuntimeConfig::new(RuntimeKind::PyPyJit);
            rt_jit.max_steps = ORACLE_FUEL;
            outcome_tier(source, &rt_jit)
        }
        "chaos" => {
            // The chaos tier needs its fault-free elided twin for the
            // fault horizon and the strict oracle.
            let (twin_outcome, twin_run) = capture_tier(source, &rt_elided);
            if is_fuel(&twin_outcome) {
                return false;
            }
            let (outcome, run) = chaos_tier(source, &rt_elided, twin_run.as_ref(), chaos_seed);
            if is_fuel(&outcome) {
                return false;
            }
            if outcome != baseline {
                return true;
            }
            if let (Some(twin), Some(chaos_run)) = (&twin_run, &run) {
                return oracle_check(twin, chaos_run, &UarchConfig::skylake()).is_some();
            }
            return false;
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
