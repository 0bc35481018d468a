//! Bounded memory for the fuzz oracle.
//!
//! The six-tier oracle keeps no trace: its strict chaos check streams the
//! fault-free twin and the chaos tier into fixed-size simple cores, so a
//! chaos checkpoint copies a core rather than a trace that grows by one
//! `MicroOp` per op. A counting global allocator (`tests/common`) tracks
//! live heap bytes while `differential` runs once on a generated program
//! whose captured trace would be several times the budget; the peak must
//! stay under it. This test is a binary of its own so that no other
//! test's allocations reach the counter.

mod common;

use qoa_core::{run_with_sink, RuntimeConfig};
use qoa_fuzz::oracle::ORACLE_FUEL;
use qoa_fuzz::{differential, generate_source, program_seed, FuzzVerdict, GenConfig};
use qoa_model::{CountingSink, MicroOp, RuntimeKind};

#[global_allocator]
static ALLOC: common::Counting = common::Counting;

/// Peak live heap one oracle run may add: the VMs, two simple cores and
/// a snapshot. The trace of the program below would be ~28 MB.
const BUDGET: usize = 4 << 20;

#[test]
fn fuzz_oracle_stays_under_a_fixed_heap_budget() {
    // gen-00001 of sweep seed 7: about 0.9 M micro-ops in the elided tier.
    let seed = program_seed(7, 1);
    let src = generate_source(seed, &GenConfig::default());

    let (verdict, peak) = common::peak_during(|| differential(&src, seed, None));
    assert!(matches!(verdict, FuzzVerdict::Agree { .. }), "{verdict:?}");

    let mut rt = RuntimeConfig::new(RuntimeKind::CPython);
    rt.max_steps = ORACLE_FUEL;
    let (ops, ..) = run_with_sink(&src, &rt, CountingSink::default()).expect("the program runs");
    let trace_bytes = ops.total() as usize * std::mem::size_of::<MicroOp>();
    assert!(
        trace_bytes >= 4 * BUDGET,
        "the program is too small to show the bound: a {trace_bytes}-byte trace vs a \
         {BUDGET}-byte budget"
    );
    assert!(
        peak < BUDGET,
        "the oracle peaked at {peak} live heap bytes, budget {BUDGET} (a captured trace \
         would need {trace_bytes})"
    );
}
