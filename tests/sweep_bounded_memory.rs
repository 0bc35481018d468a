//! Bounded memory for µarch sweep cells.
//!
//! The six sweep cells of a (workload, run-time) pair share one guest
//! run, streamed into a fan-out of 36 OOO lanes of fixed size, and keep
//! only each cell's metrics — not a trace that grows by one `MicroOp` per
//! op. A counting global allocator (`tests/common`) tracks live heap
//! bytes while one pair's six `sweep_param_spec` cells run on a program
//! whose captured trace would be several times the budget; the peak must
//! stay under it. This test is a binary of its own so that no other
//! test's allocations reach the counter.

mod common;

use qoa_core::sweeps::{SweepParam, SCALED_DEFAULT_NURSERY};
use qoa_core::{run_with_sink, shared_trace_cache, sweep_param_spec, RuntimeConfig};
use qoa_model::{CountingSink, MicroOp, RuntimeKind};
use qoa_uarch::UarchConfig;
use qoa_workloads::{by_name, Scale};

#[global_allocator]
static ALLOC: common::Counting = common::Counting;

/// Peak live heap one pair's six sweep cells may add. The pair below
/// peaks near 6.2 MB, mostly the 13 distinct LLCs' tags; its trace
/// would be ~23 MB, and the capture-and-replay path peaked at ~38 MB.
const BUDGET: usize = 8 << 20;

#[test]
fn sweep_pair_stays_under_a_fixed_heap_budget() {
    // go under CPython: about 0.7 M micro-ops at tiny scale.
    let w = by_name("go").expect("workload");
    let rt = RuntimeConfig::new(RuntimeKind::CPython).with_nursery(SCALED_DEFAULT_NURSERY);
    let base = UarchConfig::skylake();
    let slot = shared_trace_cache();
    let specs = SweepParam::ALL
        .map(|param| sweep_param_spec(w, Scale::Tiny, &rt, &base, param, &slot, None));

    let ((), peak) = common::peak_during(|| {
        for mut spec in specs {
            (spec.job)(None).expect("the cell runs");
        }
    });

    let (ops, ..) =
        run_with_sink(&w.source(Scale::Tiny), &rt, CountingSink::default()).expect("the pair runs");
    let trace_bytes = ops.total() as usize * std::mem::size_of::<MicroOp>();
    assert!(
        trace_bytes >= 2 * BUDGET,
        "the workload is too small to show the bound: a {trace_bytes}-byte trace vs a \
         {BUDGET}-byte budget"
    );
    assert!(
        peak < BUDGET,
        "the pair's sweep cells peaked at {peak} live heap bytes, budget {BUDGET} (a captured \
         trace would need {trace_bytes})"
    );
}
