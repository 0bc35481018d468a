//! Bounded memory for streamed cells.
//!
//! An attribution cell streams its micro-ops into a fixed-size core
//! model instead of a trace that grows by one `MicroOp` per op. A counting
//! global allocator (`tests/common`) tracks live heap bytes while one
//! `breakdown_spec` cell runs on a program whose captured trace would be
//! several times the budget; the peak must stay under it. This test is a
//! binary of its own so that no other test's allocations reach the
//! counter.

mod common;

use qoa_core::{breakdown_spec, RuntimeConfig};
use qoa_model::{MicroOp, RuntimeKind};
use qoa_uarch::UarchConfig;
use qoa_workloads::{by_name, Scale};

#[global_allocator]
static ALLOC: common::Counting = common::Counting;

/// Peak live heap one streamed attribution cell may add. The cell below
/// peaks near 0.8 MB (cache tags plus the VM); its trace would be ~63 MB.
const BUDGET: usize = 4 << 20;

#[test]
fn streamed_attribution_cell_stays_under_a_fixed_heap_budget() {
    // richards under CPython: about 2 M micro-ops at tiny scale.
    let w = by_name("richards").expect("workload");
    let rt = RuntimeConfig::new(RuntimeKind::CPython);
    let mut spec = breakdown_spec(w, Scale::Tiny, &rt, &UarchConfig::skylake(), None);

    let (metrics, peak) = common::peak_during(|| (spec.job)(None).expect("the cell runs"));

    let instructions = metrics["instructions"].as_i64().expect("instruction count") as usize;
    let trace_bytes = instructions * std::mem::size_of::<MicroOp>();
    assert!(
        trace_bytes >= 4 * BUDGET,
        "the workload is too small to show the bound: a {trace_bytes}-byte trace vs a \
         {BUDGET}-byte budget"
    );
    assert!(
        peak < BUDGET,
        "streamed cell peaked at {peak} live heap bytes, budget {BUDGET} (a captured trace \
         would need {trace_bytes})"
    );
}
