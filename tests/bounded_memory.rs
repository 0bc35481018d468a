//! Bounded memory for streamed cells.
//!
//! An attribution cell streams its micro-ops into a fixed-size core
//! model instead of a trace that grows by one `MicroOp` per op. A counting
//! global allocator tracks live heap bytes while one `breakdown_spec` cell
//! runs on a program whose captured trace would be several times the
//! budget; the peak must stay under it. The count is of allocator calls,
//! not wall time or RSS, so it is deterministic. This test is a binary of
//! its own so that no other test's allocations reach the counter.

use qoa_core::{breakdown_spec, RuntimeConfig};
use qoa_model::{MicroOp, RuntimeKind};
use qoa_uarch::UarchConfig;
use qoa_workloads::{by_name, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes, and their high-water mark since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live heap one streamed attribution cell may add. The cell below
/// peaks near 0.8 MB (cache tags plus the VM); its trace would be ~63 MB.
const BUDGET: usize = 4 << 20;

#[test]
fn streamed_attribution_cell_stays_under_a_fixed_heap_budget() {
    // richards under CPython: about 2 M micro-ops at tiny scale.
    let w = by_name("richards").expect("workload");
    let rt = RuntimeConfig::new(RuntimeKind::CPython);
    let mut spec = breakdown_spec(w, Scale::Tiny, &rt, &UarchConfig::skylake(), None);

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let metrics = (spec.job)(None).expect("the cell runs");
    let peak = PEAK.load(Ordering::Relaxed) - base;

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
