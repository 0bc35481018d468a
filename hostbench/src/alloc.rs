//! Host memory accounting: a counting global allocator plus the kernel's
//! resident-set high-water mark.
//!
//! The allocator wraps [`System`] and keeps three process-wide counters:
//! bytes ever allocated (a `realloc` counts its new size, since it may
//! copy), bytes currently live, and the peak of live bytes since the
//! last [`reset_peak_live`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The benchmark binary's global allocator.
pub struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let bytes = bytes as u64;
    ALLOCATED.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK_LIVE.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics that publish no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract, see the impl comment.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract, see the impl comment.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract, see the impl comment.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded contract, see the impl comment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size);
        }
        p
    }
}

/// A reading of the allocator counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocSnapshot {
    /// Bytes ever allocated.
    pub allocated: u64,
    /// Bytes live now.
    pub live: u64,
    /// Peak live bytes since the last [`reset_peak_live`].
    pub peak_live: u64,
}

/// Reads the allocator counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocated: ALLOCATED.load(Relaxed),
        live: LIVE.load(Relaxed),
        peak_live: PEAK_LIVE.load(Relaxed),
    }
}

/// Restarts the live-bytes peak from the current live bytes.
pub fn reset_peak_live() {
    PEAK_LIVE.store(LIVE.load(Relaxed), Relaxed);
}

/// Resets the kernel's resident-set high-water mark (`VmHWM`) to the
/// current RSS, so the next [`vm_hwm_bytes`] covers only what follows.
pub fn reset_vm_hwm() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The kernel's resident-set high-water mark, in bytes.
pub fn vm_hwm_bytes() -> std::io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}
