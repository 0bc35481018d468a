//! The traced pass's per-layer accounting.
//!
//! Each cell is re-run stage by stage through public entry points. The
//! VM (or JIT) and the front stages run *inside* `capture`, so their
//! share of a capture is calibrated outside the cell: the front stages
//! are timed standalone (`parse`, `compile_module`, `verify` or
//! `optimize`), then `run_with_sink(.., NullSink)` gives front + VM
//! without trace storage. Inside the cell, the capture span gets derived
//! children of those lengths, and its self time is trace storage
//! (capture − the NullSink run).

use std::collections::BTreeMap;
use std::time::Instant;

use qoa_core::runtime::{capture, run_with_sink, CapturedRun, RuntimeConfig};
use qoa_core::QoaError;
use qoa_model::{NullSink, RuntimeKind};
use qoa_uarch::ExecutionStats;

use crate::alloc;
use crate::spans::{layer_self_times, self_times, Span, Tracer};

/// Span names of work done outside any cell (calibration, cross-checks).
pub const OUTSIDE_CELLS: [&str; 2] = ["bench.calibrate", "bench.check"];
/// The root span of each traced cell.
pub const CELL: &str = "bench.cell";

/// Exact counts gathered by the traced pass.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Micro-ops captured under CPython.
    pub vm_uops: u64,
    /// Micro-ops captured under the PyPy run-times.
    pub jit_uops: u64,
    /// Bytecodes executed, every run-time.
    pub bytecodes: u64,
    /// JIT main traces compiled.
    pub jit_traces: u64,
    /// JIT deoptimizations.
    pub jit_deopts: u64,
    /// Minor collections.
    pub minor_gcs: u64,
    /// Major collections.
    pub major_gcs: u64,
    /// Source bytes through the front end.
    pub source_bytes: u64,
    /// Bytes allocated by captures beyond their NullSink twins.
    pub trace_alloc: i64,
    /// Largest live-bytes rise during one capture.
    pub trace_peak: u64,
    /// Micro-ops replayed through the simple core.
    pub simple_uops: u64,
    /// Simple-core cycles.
    pub simple_cycles: u64,
    /// Micro-ops replayed through the OOO core (all replays).
    pub ooo_uops: u64,
    /// OOO replays.
    pub ooo_replays: u64,
    /// OOO cycles over all replays.
    pub ooo_cycles: u64,
    /// LLC misses over every simulation.
    pub llc_misses: u64,
    /// Branch mispredicts (direction + target) over every simulation.
    pub mispredicts: u64,
    /// DRAM bytes over every simulation.
    pub dram_bytes: u64,
    /// Chaos faults injected.
    pub faults: u64,
    /// Fuzz programs the oracle left inconclusive.
    pub inconclusive: u64,
}

impl Counts {
    /// Adds one simulation's cache, branch and DRAM counters.
    pub fn add_sim(&mut self, s: &ExecutionStats) {
        self.llc_misses += s.llc.misses;
        self.mispredicts += s.branch.direction_mispredicts + s.branch.target_mispredicts;
        self.dram_bytes += s.dram_bytes;
    }

    fn add_run(&mut self, rt: &RuntimeConfig, run: &CapturedRun) {
        let uops = run.trace.len() as u64;
        if rt.kind == RuntimeKind::CPython {
            self.vm_uops += uops;
        } else {
            self.jit_uops += uops;
        }
        self.bytecodes += run.vm.bytecodes;
        self.jit_traces += run.jit.traces_compiled;
        self.jit_deopts += run.jit.deopts;
        self.minor_gcs += run.vm.gc.minor_collections;
        self.major_gcs += run.vm.gc.major_collections;
    }
}

/// The calibrated stage split of one `(source, runtime)` capture.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Derived child spans of the capture: front stages, then execution.
    pub parts: Vec<(&'static str, u64)>,
    /// Bytes the NullSink run allocated.
    pub null_alloc: u64,
}

impl Calibration {
    /// Front stages plus execution, ns.
    pub fn total(&self) -> u64 {
        self.parts.iter().map(|p| p.1).sum()
    }
}

fn exec_span(rt: &RuntimeConfig) -> &'static str {
    if rt.kind == RuntimeKind::CPython {
        "vm.exec"
    } else {
        "jit.exec"
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Calibrates the stage split of `source` under `rt`, outside any cell.
pub fn calibrate(t: &mut Tracer, source: &str, rt: &RuntimeConfig) -> Calibration {
    let id = t.begin("bench.calibrate");
    let mut parts = Vec::new();
    let t0 = Instant::now();
    if let Ok(module) = qoa_frontend::parse(source) {
        parts.push(("frontend.parse", ns_since(t0)));
        let t1 = Instant::now();
        if let Ok(code) = qoa_frontend::compile_module(&module) {
            parts.push(("frontend.compile", ns_since(t1)));
            let t2 = Instant::now();
            if rt.opt_level > 0 {
                let _ = qoa_analysis::optimize(&code, rt.opt_level);
                parts.push(("analysis.optimize", ns_since(t2)));
            } else if rt.elide_checks {
                let _ = qoa_analysis::verify(&code);
                parts.push(("analysis.verify", ns_since(t2)));
            }
        }
    }
    let front: u64 = parts.iter().map(|p| p.1).sum();
    let before = alloc::snapshot().allocated;
    let t3 = Instant::now();
    let _ = run_with_sink(source, rt, NullSink);
    let null_ns = ns_since(t3);
    let null_alloc = alloc::snapshot().allocated - before;
    parts.push((exec_span(rt), null_ns.saturating_sub(front)));
    t.end(id);
    Calibration { parts, null_alloc }
}

/// `capture` as a `trace.capture` span with its calibrated children;
/// returns the run and the span index.
pub fn capture_traced(
    t: &mut Tracer,
    counts: &mut Counts,
    source: &str,
    rt: &RuntimeConfig,
    cal: &Calibration,
) -> (Result<CapturedRun, QoaError>, usize) {
    let before = alloc::snapshot();
    alloc::reset_peak_live();
    let (run, id) = t.time("trace.capture", || capture(source, rt));
    let after = alloc::snapshot();
    t.derive(id, &cal.parts);
    counts.source_bytes += source.len() as u64;
    counts.trace_alloc += (after.allocated - before.allocated) as i64 - cal.null_alloc as i64;
    counts.trace_peak = counts
        .trace_peak
        .max(after.peak_live.saturating_sub(before.live));
    if let Ok(r) = &run {
        counts.add_run(rt, r);
    }
    (run, id)
}

/// Self time per layer over the spans inside cells, ns.
pub fn cell_layers(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    layer_self_times(spans, |s| !OUTSIDE_CELLS.contains(&s.name))
}

/// Cells whose layer self times, the cell root's own glue excluded, sum
/// to less than 90% of the cell's wall, as `(cell, attributed share)`.
pub fn uncovered_cells(spans: &[Span]) -> Vec<(u32, f64)> {
    let selfs = self_times(spans);
    spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == CELL && s.dur() > 0)
        .map(|(s, &glue)| (s.cell, 1.0 - glue as f64 / s.dur() as f64))
        .filter(|&(_, share)| share < 0.9)
        .collect()
}

/// Self time of spans with `name` inside cells, ms.
pub fn self_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name == name)
        .fold(0.0, |acc, (_, t)| acc + t as f64 / 1e6)
}

/// Wall of spans with `name`, ms.
pub fn wall_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + s.dur() as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, cell: u32, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            cell,
            derived: false,
        }
    }

    #[test]
    fn cells_with_unattributed_wall_are_flagged() {
        let spans = vec![
            span(CELL, 0, 0, 100, None),
            span("trace.capture", 0, 0, 95, Some(0)),
            span(CELL, 1, 100, 200, None),
            span("simple.replay", 1, 100, 150, Some(2)),
            span("bench.calibrate", 1, 200, 900, None),
        ];
        assert_eq!(uncovered_cells(&spans), vec![(1, 0.5)]);
        let layers = cell_layers(&spans);
        assert_eq!(layers["bench"], 5 + 50);
        assert_eq!(layers["trace"], 95);
        assert_eq!(self_ms(&spans, "simple.replay"), 50.0 / 1e6);
        assert_eq!(wall_ms(&spans, CELL), 200.0 / 1e6);
    }
}
