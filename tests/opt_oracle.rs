//! The semantics-preservation oracle for the static optimization
//! pipeline.
//!
//! The optimizer's contract is that opt levels are *observationally
//! indistinguishable* to the guest: across every workload of both suites
//! (85 programs), the rendered `result` global, the captured `print`
//! output, and any raised error must be byte-identical at every opt
//! level — including when a seeded chaos plan injects and recovers
//! faults mid-run. Cycle counts, step counts, and dispatch statistics
//! legitimately differ between levels; that difference *is* the measured
//! win, and it is reported by `fig04-static --opt`, not hidden here.

use qoa::chaos::FaultPlan;
use qoa::core::runtime::{run_with_sink, RuntimeConfig};
use qoa::core::{fault_kinds_for, run_chaos_with_sink, ChaosOptions};
use qoa::model::{NullSink, RuntimeKind};
use qoa::workloads::{Scale, Workload};

/// What the guest can observe from one run: the `result` global, stdout,
/// or the error that stopped the program.
#[derive(Debug, PartialEq, Eq)]
enum Observed {
    Ok { result: Option<String>, output: Vec<String> },
    Err(String),
}

fn observe(w: &Workload, level: u8) -> Observed {
    let rt = RuntimeConfig::new(RuntimeKind::CPython).with_opt_level(level);
    match run_with_sink(&w.source(Scale::Tiny), &rt, NullSink) {
        Ok((_, _, _, output, result)) => Observed::Ok { result, output },
        Err(e) => Observed::Err(e.to_string()),
    }
}

fn assert_suite_invariant(suite: &[Workload]) {
    for w in suite {
        let base = observe(w, 0);
        if let Observed::Ok { result, .. } = &base {
            assert!(
                result.is_some(),
                "{}: workload must bind a `result` global",
                w.name
            );
        }
        for level in 1..=qoa::analysis::MAX_OPT_LEVEL {
            let opt = observe(w, level);
            assert_eq!(
                opt, base,
                "{}: opt level {level} changed guest-observable behavior",
                w.name
            );
        }
    }
}

#[test]
fn python_suite_is_byte_identical_across_opt_levels() {
    assert_suite_invariant(qoa::workloads::python_suite());
}

#[test]
fn jetstream_suite_is_byte_identical_across_opt_levels() {
    assert_suite_invariant(qoa::workloads::jetstream_suite());
}

/// The composition the acceptance gate names: optimized code under a
/// seeded chaos plan (injected-then-recovered faults) must still match
/// the plain, unoptimized, fault-free baseline byte for byte.
#[test]
fn optimized_chaos_runs_match_unoptimized_baselines() {
    let kinds = fault_kinds_for(RuntimeKind::CPython);
    for (name, seed) in [("go", 7u64), ("richards", 11), ("float", 13)] {
        let w = qoa::workloads::by_name(name).expect("workload");
        let src = w.source(Scale::Tiny);
        let (_, _, _, baseline_output, baseline_result) =
            run_with_sink(&src, &RuntimeConfig::new(RuntimeKind::CPython), NullSink)
                .expect("baseline runs");
        let rt = RuntimeConfig::new(RuntimeKind::CPython)
            .with_opt_level(qoa::analysis::MAX_OPT_LEVEL);
        let plan = FaultPlan::seeded(seed, 20_000, 3, kinds);
        let ((_, _, _, output, result), outcome) =
            run_chaos_with_sink(&src, &rt, &ChaosOptions::new(plan), NullSink)
                .expect("chaos run recovers");
        assert!(
            outcome.faults_injected_total() > 0,
            "{name}: seeded plan injected nothing — composition untested"
        );
        assert_eq!(result, baseline_result, "{name}: result diverged under opt+chaos");
        assert_eq!(output, baseline_output, "{name}: output diverged under opt+chaos");
    }
}

/// Every code object the optimizer emits must re-verify, across the
/// whole corpus — the "failure is a hard error" half of the contract,
/// exercised here simply by `optimize` succeeding (it re-verifies
/// internally and surfaces any failure as `OptError::Reverify`).
#[test]
fn every_optimized_workload_reverifies() {
    for w in qoa::workloads::python_suite().iter().chain(qoa::workloads::jetstream_suite()) {
        let code = qoa::frontend::compile(&w.source(Scale::Tiny)).expect("compiles");
        let (v, report) = qoa::analysis::optimize(&code, qoa::analysis::MAX_OPT_LEVEL)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        // The token is minted only by the verifier, so its existence is
        // the proof; spot-check the tree anyway to keep the invariant
        // honest against future refactors of `optimize`.
        qoa::analysis::verify(v.get()).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let _ = report;
    }
}
