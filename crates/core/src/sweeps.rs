//! Parameter sweeps: the §V methodology.
//!
//! Microarchitecture sweeps (Fig. 7–9) run each (workload, run-time) pair
//! once, streaming its micro-ops into a fan-out of the out-of-order model
//! with one lane per hardware configuration of all six parameters
//! (`pair_configs`) — timing never feeds back into run-time behaviour,
//! and no trace is stored, exactly as with Pin + ZSim online.
//! [`sweep_trace`] replays a captured trace through one parameter's lanes.
//! Nursery sweeps (Fig. 10–17) re-*execute* the program per nursery size,
//! because the nursery changes GC behaviour itself; each such run streams
//! straight into the OOO core, with no trace in between.

use crate::error::QoaError;
use crate::runtime::{run_with_sink, RuntimeConfig};
use qoa_model::{Phase, PhaseMap, RuntimeKind};
use qoa_uarch::{ExecutionStats, OooCore, TraceBuffer, UarchConfig};
use qoa_workloads::{Scale, Workload};

/// One sweepable microarchitecture parameter with the paper's value grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepParam {
    /// Fig. 7(a): issue width 2–32.
    IssueWidth,
    /// Fig. 7(b): branch-table scale 0.5×–8×.
    BranchScale,
    /// Fig. 7(c): LLC size 256 kB – 16 MB.
    CacheSize,
    /// Fig. 7(d): line size 64 B – 4096 B.
    LineSize,
    /// Fig. 7(e): memory latency 50–400 cycles.
    MemLatency,
    /// Fig. 7(f): memory bandwidth 200–25600 MB/s.
    MemBandwidth,
}

impl SweepParam {
    /// All six parameters, in the paper's panel order.
    pub const ALL: [SweepParam; 6] = [
        SweepParam::IssueWidth,
        SweepParam::BranchScale,
        SweepParam::CacheSize,
        SweepParam::LineSize,
        SweepParam::MemLatency,
        SweepParam::MemBandwidth,
    ];

    /// The paper's sweep values for this parameter (as raw u64 points;
    /// `BranchScale` values are fixed-point halves: 1 ⇒ 0.5×).
    pub fn values(self) -> Vec<u64> {
        match self {
            SweepParam::IssueWidth => vec![2, 4, 8, 16, 32],
            SweepParam::BranchScale => vec![1, 2, 4, 8, 16], // halves: 0.5x..8x
            SweepParam::CacheSize => vec![
                256 << 10,
                512 << 10,
                1 << 20,
                2 << 20,
                4 << 20,
                8 << 20,
                16 << 20,
            ],
            SweepParam::LineSize => vec![64, 128, 256, 512, 1024, 2048, 4096],
            SweepParam::MemLatency => vec![50, 100, 200, 400],
            SweepParam::MemBandwidth => {
                vec![200, 400, 800, 1600, 3200, 6400, 12800, 25600]
            }
        }
    }

    /// Applies a sweep value to the baseline configuration.
    pub fn apply(self, base: &UarchConfig, value: u64) -> UarchConfig {
        let base = base.clone();
        match self {
            SweepParam::IssueWidth => base.with_issue_width(value as usize),
            SweepParam::BranchScale => base.with_branch_scale(value as f64 / 2.0),
            SweepParam::CacheSize => base.with_llc_size(value),
            SweepParam::LineSize => base.with_line_size(value),
            SweepParam::MemLatency => base.with_mem_latency(value),
            SweepParam::MemBandwidth => base.with_mem_bandwidth(value),
        }
    }

    /// The configurations of this parameter's sweep: `base` with each
    /// of [`SweepParam::values`] applied, in order.
    pub fn configs(self, base: &UarchConfig) -> Vec<UarchConfig> {
        self.values().into_iter().map(|value| self.apply(base, value)).collect()
    }

    /// Axis label matching the paper's panels.
    pub fn label(self) -> &'static str {
        match self {
            SweepParam::IssueWidth => "Issue Width",
            SweepParam::BranchScale => "Branch Table Size (Relative to Baseline)",
            SweepParam::CacheSize => "Cache Size",
            SweepParam::LineSize => "Cache Line Size (B)",
            SweepParam::MemLatency => "Memory Latency (CPU Cycles)",
            SweepParam::MemBandwidth => "Memory Bandwidth (MBps)",
        }
    }

    /// Human-readable rendering of one sweep value.
    pub fn format_value(self, value: u64) -> String {
        match self {
            SweepParam::BranchScale => format!("{}x", value as f64 / 2.0),
            SweepParam::CacheSize => format_bytes(value),
            _ => value.to_string(),
        }
    }
}

/// Renders a byte count the way the paper labels its axes.
pub fn format_bytes(b: u64) -> String {
    if b >= 1 << 20 && b.is_multiple_of(1 << 20) {
        format!("{}MB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}kB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// CPI measured at one sweep point, with the per-phase split used by the
/// paper's Fig. 7 PyPy lines.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The raw sweep value.
    pub value: u64,
    /// Overall CPI.
    pub cpi: f64,
    /// CPI contribution per execution phase (cycles_phase / instructions).
    pub phase_cpi: PhaseMap<f64>,
    /// Full execution statistics, for deeper inspection.
    pub stats: ExecutionStats,
}

/// Replays one captured trace across a parameter sweep (OOO core): one
/// pass drives a lane per sweep value (see [`qoa_uarch::OooFanout`]).
pub fn sweep_trace(trace: &TraceBuffer, param: SweepParam, base: &UarchConfig) -> Vec<SweepPoint> {
    sweep_points(param, trace.simulate_ooo_fanout(&param.configs(base)))
}

/// Every configuration of a (workload, run-time) pair's sweep: each
/// parameter's [`SweepParam::configs`], in [`SweepParam::ALL`] order
/// (36 in all).
pub(crate) fn pair_configs(base: &UarchConfig) -> Vec<UarchConfig> {
    SweepParam::ALL.iter().flat_map(|p| p.configs(base)).collect()
}

/// Pairs `param`'s sweep values, in order, with the statistics of their
/// fan-out lanes. Takes exactly as many statistics as there are values,
/// so the lanes of a [`pair_configs`] fan-out split parameter by
/// parameter through one `by_ref` iterator.
pub(crate) fn sweep_points(
    param: SweepParam,
    lanes: impl IntoIterator<Item = ExecutionStats>,
) -> Vec<SweepPoint> {
    param
        .values()
        .into_iter()
        .zip(lanes)
        .map(|(value, stats)| {
            let instr = stats.instructions.max(1) as f64;
            let phase_cpi = PhaseMap::from_fn(|p| stats.cycles_by_phase[p] as f64 / instr);
            SweepPoint { value, cpi: stats.cpi(), phase_cpi, stats }
        })
        .collect()
}

/// The nursery sizes of the paper's Fig. 10–17 sweeps (512 kB – 128 MB).
pub const NURSERY_SIZES: [u64; 9] = [
    512 << 10,
    1 << 20,
    2 << 20,
    4 << 20,
    8 << 20,
    16 << 20,
    32 << 20,
    64 << 20,
    128 << 20,
];

/// Scaled nursery axis used by the figure binaries (64 kB – 16 MB).
///
/// The paper's workloads run for minutes and allocate gigabytes, so a
/// 512 kB – 128 MB axis exercises the GC-frequency / cache-residency
/// trade-off. Our laptop-scale workload instances allocate megabytes, so
/// the same *trade-off* lives one order of magnitude lower on the axis;
/// this grid keeps the LLC (2 MB) in the middle of the sweep, exactly as
/// in the paper, and keeps the 1 MB (= half-LLC) normalization baseline.
pub const NURSERY_SIZES_SCALED: [u64; 9] = [
    256 << 10,
    512 << 10,
    1 << 20,
    2 << 20,
    4 << 20,
    8 << 20,
    16 << 20,
    32 << 20,
    64 << 20,
];

/// Scaled default nursery for the non-sweep PyPy/V8 experiment runs
/// (Fig. 7–9, 13): the proportional analog of PyPy's multi-megabyte
/// default for our smaller workload instances.
pub const SCALED_DEFAULT_NURSERY: u64 = 512 << 10;

/// One point of a nursery sweep.
#[derive(Debug, Clone)]
pub struct NurseryPoint {
    /// Nursery size in bytes.
    pub nursery: u64,
    /// Total cycles (OOO core under `uarch`).
    pub cycles: u64,
    /// Cycles spent in garbage collection.
    pub gc_cycles: u64,
    /// LLC miss rate (the paper's Fig. 10 metric).
    pub llc_miss_rate: f64,
    /// Minor collections run.
    pub minor_collections: u64,
    /// Full execution statistics.
    pub stats: ExecutionStats,
}

impl NurseryPoint {
    /// Cycles outside garbage collection (Fig. 11's "Non-GC" component).
    pub fn non_gc_cycles(&self) -> u64 {
        // Saturating for the same reason as `NurseryCell::non_gc_cycles`:
        // fault-affected journal data must degrade to n/a, not panic.
        self.cycles.saturating_sub(self.gc_cycles)
    }

    /// GC share of total time (Fig. 13's metric).
    pub fn gc_share(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.gc_cycles as f64 / self.cycles as f64
        }
    }
}

/// Re-executes `w` under `rt` for every nursery size, simulating each run
/// on the OOO core under `uarch`.
///
/// # Errors
///
/// Propagates the first run failure.
pub fn nursery_sweep(
    w: &Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    uarch: &UarchConfig,
    sizes: &[u64],
) -> Result<Vec<NurseryPoint>, QoaError> {
    sizes
        .iter()
        .map(|&nursery| {
            let (core, vm, ..) =
                run_with_sink(&w.source(scale), &rt.with_nursery(nursery), OooCore::new(uarch))?;
            let stats = core.finish();
            Ok(NurseryPoint {
                nursery,
                cycles: stats.cycles,
                gc_cycles: stats.cycles_by_phase[Phase::GcMinor]
                    + stats.cycles_by_phase[Phase::GcMajor],
                llc_miss_rate: stats.llc.miss_rate(),
                minor_collections: vm.gc.minor_collections,
                stats,
            })
        })
        .collect()
}

/// Picks the nursery size with the lowest total cycles (Fig. 17's
/// "best nursery per application"), or `None` for an empty sweep —
/// which happens when every point of a fault-isolated sweep failed.
pub fn best_nursery(points: &[NurseryPoint]) -> Option<&NurseryPoint> {
    points.iter().min_by_key(|p| p.cycles)
}

/// Convenience bundle for Fig. 7's three run-time lines.
pub fn fig7_runtimes() -> [RuntimeConfig; 3] {
    [
        RuntimeConfig::new(RuntimeKind::CPython),
        RuntimeConfig::new(RuntimeKind::PyPyNoJit),
        RuntimeConfig::new(RuntimeKind::PyPyJit),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::capture;
    use qoa_workloads::by_name;

    #[test]
    fn sweep_values_match_the_paper() {
        assert_eq!(SweepParam::IssueWidth.values(), vec![2, 4, 8, 16, 32]);
        assert_eq!(SweepParam::MemLatency.values(), vec![50, 100, 200, 400]);
        assert_eq!(SweepParam::CacheSize.values().len(), 7);
        assert_eq!(SweepParam::LineSize.values().len(), 7);
        assert_eq!(SweepParam::MemBandwidth.values().len(), 8);
        assert_eq!(NURSERY_SIZES.len(), 9);
        assert_eq!(NURSERY_SIZES[0], 512 << 10);
        assert_eq!(NURSERY_SIZES[8], 128 << 20);
    }

    #[test]
    fn apply_produces_valid_configs() {
        let base = UarchConfig::skylake();
        for p in SweepParam::ALL {
            for v in p.values() {
                p.apply(&base, v).validate();
            }
        }
    }

    #[test]
    fn value_formatting() {
        assert_eq!(SweepParam::CacheSize.format_value(2 << 20), "2MB");
        assert_eq!(SweepParam::CacheSize.format_value(512 << 10), "512kB");
        assert_eq!(SweepParam::BranchScale.format_value(1), "0.5x");
        assert_eq!(SweepParam::BranchScale.format_value(16), "8x");
    }

    #[test]
    fn trace_sweep_produces_one_point_per_value() {
        let w = by_name("unpack_seq").expect("workload");
        let run = capture(
            &w.source_with_n(50),
            &RuntimeConfig::new(RuntimeKind::CPython),
        )
        .expect("runs");
        let pts = sweep_trace(&run.trace, SweepParam::MemLatency, &UarchConfig::skylake());
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert!(p.cpi > 0.0);
            let phase_total: f64 = Phase::ALL.iter().map(|&ph| p.phase_cpi[ph]).sum();
            assert!((phase_total - p.cpi).abs() < 1e-9);
        }
    }

    #[test]
    fn nursery_sweep_reduces_gc_frequency_with_size() {
        let w = by_name("tuple_gc").expect("workload");
        let pts = nursery_sweep(
            w,
            Scale::Tiny,
            &RuntimeConfig::new(RuntimeKind::PyPyNoJit),
            &UarchConfig::skylake(),
            &[256 << 10, 8 << 20],
        )
        .expect("sweeps");
        assert_eq!(pts.len(), 2);
        assert!(
            pts[0].minor_collections > pts[1].minor_collections,
            "{} vs {}",
            pts[0].minor_collections,
            pts[1].minor_collections
        );
        let best = best_nursery(&pts).expect("non-empty sweep");
        assert!(best.cycles <= pts[0].cycles.min(pts[1].cycles));
        assert!(best_nursery(&[]).is_none());
    }
}
