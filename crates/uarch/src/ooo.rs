//! Approximate out-of-order core model used for the §V parameter sweeps.
//!
//! A one-pass, trace-driven OOO approximation in the spirit of ZSim's OOO
//! model: dispatch is bounded by issue width, the ROB bounds the in-flight
//! window, loads overlap through a bounded set of miss-status registers,
//! branch mispredicts flush the front end, and instruction fetch stalls on
//! I-cache misses. Dependences between micro-ops are synthesized
//! deterministically from the static PC (interpreter code is chain-heavy,
//! which is what produces the paper's "low instruction-level parallelism"
//! finding — CPI barely improves past a 4-wide issue).
//!
//! Exact per-instruction attribution is *not* well-defined on an OOO
//! pipeline (the paper makes the same observation and uses the simple core
//! for Fig. 4); this core attributes the monotone retire-clock deltas, which
//! is good enough for the per-phase lines of Fig. 7.
//!
//! # Fan-out
//!
//! [`OooFanout`] simulates K configurations over one pass of the op
//! stream, and [`OooCore`] is its one-configuration case. The split is
//! exact because cache residency and branch prediction depend only on the
//! op order and the table geometry, never on time: [`Cache::access`] is
//! LRU with fill-on-miss and takes no clock, and the predictor trains on
//! resolved outcomes. So a *shared stage* runs each distinct L1I/L1D/L2
//! trio, each distinct LLC below it, and each distinct predictor once per
//! op and records where every access hit and whether every control
//! transfer mispredicted. K *lanes* then replay those outcomes through the
//! timing recurrence, each owning only the state that depends on time: the
//! ROB, the MSHRs, the DRAM channel, and the dispatch, fetch and retire
//! clocks.

use crate::branch::BranchUnit;
use crate::cache::{Cache, HitLevel, MissCost};
use crate::config::{BranchConfig, CacheConfig, UarchConfig};
use crate::stats::ExecutionStats;
use qoa_model::{Category, CategoryMap, MicroOp, OpKind, OpSink, Phase, PhaseMap};

const Q: u64 = 256; // fixed-point scale for fractional dispatch slots

/// Ops buffered before the shared stage, then every lane, runs over them.
const BLOCK: usize = 1024;

/// Approximate out-of-order core: the one-configuration [`OooFanout`].
#[derive(Debug, Clone)]
pub struct OooCore(OooFanout);

impl OooCore {
    /// Builds an OOO core from the configuration.
    pub fn new(cfg: &UarchConfig) -> Self {
        OooCore(OooFanout::new(std::slice::from_ref(cfg)))
    }

    /// Finishes the run and returns the accumulated statistics.
    pub fn finish(self) -> ExecutionStats {
        self.0.finish().pop().expect("one lane")
    }
}

impl OpSink for OooCore {
    #[inline]
    fn op(&mut self, op: MicroOp) {
        self.0.op(op);
    }
}

/// The OOO core under several configurations at once, driven by one op
/// stream (see the [module docs](self)). `finish` returns, in
/// configuration order, exactly what a separate [`OooCore`] per
/// configuration would.
#[derive(Debug, Clone)]
pub struct OooFanout {
    block: Vec<MicroOp>,
    shapes: Vec<Shape>,
    uppers: Vec<Upper>,
    llcs: Vec<Llc>,
    predictors: Vec<Predictor>,
    lanes: Vec<Lane>,
    instructions_by_category: CategoryMap<u64>,
    instructions_by_phase: PhaseMap<u64>,
}

/// What the timing recurrence reads of one op, decoded once by the
/// shared stage for every lane.
#[derive(Debug, Clone, Copy)]
struct Shape {
    class: Class,
    /// Distance to the op's synthetic producer, minus one (0..=2).
    distance: u8,
    category: Category,
    phase: Phase,
}

/// Execution class of an op: it selects the op's latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Alu,
    /// Floating-point and multiply.
    Long,
    Div,
    Load,
    Store,
    /// Branch, call or return.
    Control,
}

/// Where the accesses of one op were satisfied, under one hierarchy. An
/// op that fetches no new line, or touches no data, reads as an L1 hit:
/// it costs nothing.
#[derive(Debug, Clone, Copy)]
struct Levels {
    fetch: HitLevel,
    data: HitLevel,
}

/// An L1I/L1D/L2 trio, shared by every configuration that has it.
#[derive(Debug, Clone)]
struct Upper {
    key: [CacheConfig; 3],
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    line_mask: u64,
    last_fetch_line: u64,
    /// Indices into [`OooFanout::llcs`] of the LLCs below this trio.
    llcs: Vec<usize>,
}

/// An LLC below one [`Upper`], with the levels of the current block.
#[derive(Debug, Clone)]
struct Llc {
    key: CacheConfig,
    cache: Cache,
    levels: Vec<Levels>,
}

/// A branch unit, with the mispredicts of the current block.
#[derive(Debug, Clone)]
struct Predictor {
    key: BranchConfig,
    unit: BranchUnit,
    mispredicted: Vec<bool>,
}

/// The timing state of one configuration.
#[derive(Debug, Clone)]
struct Lane {
    upper: usize,
    llc: usize,
    predictor: usize,
    clocks: Clocks,
    /// Completion time (cycles, q8) of each ROB slot.
    rob: Vec<u64>,
    mshr: Vec<u64>, // completion times (q8) of outstanding misses
    cost: MissCost,
    dispatch_step_q8: u64,
    /// Execution latency (cycles) of each [`Class`].
    latency: [u64; 6],
    mispredict_penalty: u64,
    /// Index into [`Clocks::recent`] of the producer at each synthetic
    /// distance 1..=3. It is `distance - 1`, except that a ROB of fewer
    /// than three slots has already overwritten the older producers'
    /// slots, and the dependence reads the newest op that reused the slot.
    producer: [usize; 3],
    cycles_by_category: CategoryMap<u64>,
    cycles_by_phase: PhaseMap<u64>,
}

/// The scalar timing state a lane carries from op to op.
#[derive(Debug, Clone, Copy, Default)]
struct Clocks {
    ops: u64,
    /// The next op's ROB slot.
    slot: usize,
    /// Completion times of the last three ops, newest first.
    recent: [u64; 3],
    next_dispatch_q8: u64,
    fetch_ready_q8: u64,
    retire_clock_q8: u64,
}

impl OooFanout {
    /// Builds one lane per configuration, sharing caches and predictors
    /// between configurations with the same geometry.
    pub fn new(cfgs: &[UarchConfig]) -> Self {
        let mut fan = OooFanout {
            block: Vec::with_capacity(BLOCK),
            shapes: Vec::with_capacity(BLOCK),
            uppers: Vec::new(),
            llcs: Vec::new(),
            predictors: Vec::new(),
            lanes: Vec::new(),
            instructions_by_category: CategoryMap::default(),
            instructions_by_phase: PhaseMap::default(),
        };
        for cfg in cfgs {
            cfg.validate();
            let key = [cfg.l1i, cfg.l1d, cfg.l2];
            let upper = fan.uppers.iter().position(|u| u.key == key).unwrap_or_else(|| {
                fan.uppers.push(Upper {
                    key,
                    l1i: Cache::new(cfg.l1i),
                    l1d: Cache::new(cfg.l1d),
                    l2: Cache::new(cfg.l2),
                    line_mask: !(cfg.l1i.line - 1),
                    last_fetch_line: u64::MAX,
                    llcs: Vec::new(),
                });
                fan.uppers.len() - 1
            });
            let llcs = &mut fan.llcs;
            let below = &mut fan.uppers[upper].llcs;
            let llc = below.iter().copied().find(|&l| llcs[l].key == cfg.l3).unwrap_or_else(|| {
                llcs.push(Llc {
                    key: cfg.l3,
                    cache: Cache::new(cfg.l3),
                    levels: vec![Levels { fetch: HitLevel::L1, data: HitLevel::L1 }; BLOCK],
                });
                below.push(llcs.len() - 1);
                llcs.len() - 1
            });
            let predictor =
                fan.predictors.iter().position(|p| p.key == cfg.branch).unwrap_or_else(|| {
                    fan.predictors.push(Predictor {
                        key: cfg.branch,
                        unit: BranchUnit::new(&cfg.branch),
                        mispredicted: vec![false; BLOCK],
                    });
                    fan.predictors.len() - 1
                });
            fan.lanes.push(Lane::new(cfg, upper, llc, predictor));
        }
        fan
    }

    /// Finishes the run and returns each configuration's statistics, in
    /// the order the configurations were given.
    pub fn finish(mut self) -> Vec<ExecutionStats> {
        self.flush();
        let lanes = std::mem::take(&mut self.lanes);
        lanes
            .into_iter()
            .map(|lane| {
                let upper = &self.uppers[lane.upper];
                ExecutionStats {
                    cycles: lane.clocks.retire_clock_q8 >> 8,
                    instructions: lane.clocks.ops,
                    cycles_by_category: lane.cycles_by_category,
                    instructions_by_category: self.instructions_by_category.clone(),
                    cycles_by_phase: lane.cycles_by_phase,
                    instructions_by_phase: self.instructions_by_phase.clone(),
                    l1i: upper.l1i.stats(),
                    l1d: upper.l1d.stats(),
                    l2: upper.l2.stats(),
                    llc: self.llcs[lane.llc].cache.stats(),
                    branch: self.predictors[lane.predictor].unit.stats(),
                    dram_bytes: lane.cost.dram().bytes_transferred(),
                }
            })
            .collect()
    }

    /// Feeds a run of ops: the same as passing each to
    /// [`OpSink::op`], without copying them into the block buffer.
    pub fn ops(&mut self, ops: &[MicroOp]) {
        self.flush();
        for chunk in ops.chunks(BLOCK) {
            self.run(chunk);
        }
    }

    /// Runs and empties the block buffer.
    fn flush(&mut self) {
        let block = std::mem::take(&mut self.block);
        self.run(&block);
        self.block = block;
        self.block.clear();
    }

    /// Runs at most [`BLOCK`] ops: the shared stage in one pass over
    /// them, then each lane over the recorded outcomes.
    fn run(&mut self, block: &[MicroOp]) {
        self.shapes.clear();
        for (i, op) in block.iter().enumerate() {
            self.instructions_by_category[op.category] += 1;
            self.instructions_by_phase[op.phase] += 1;
            let (class, data_addr) = match op.kind {
                OpKind::Alu => (Class::Alu, None),
                OpKind::FpAlu | OpKind::Mul => (Class::Long, None),
                OpKind::Div => (Class::Div, None),
                OpKind::Load { addr, .. } => (Class::Load, Some(addr)),
                OpKind::Store { addr, .. } => (Class::Store, Some(addr)),
                OpKind::Branch { .. } | OpKind::Call { .. } | OpKind::Ret => (Class::Control, None),
            };
            self.shapes.push(Shape {
                class,
                distance: ((op.pc.0 >> 2) % 3) as u8,
                category: op.category,
                phase: op.phase,
            });
            // Every op gets a verdict, so a lane need not check the class.
            for p in &mut self.predictors {
                p.mispredicted[i] = class == Class::Control && p.unit.resolve(op.pc, op.kind);
            }
            for upper in &mut self.uppers {
                // Instruction fetch, once per new line.
                let line = op.pc.0 & upper.line_mask;
                let fetch = if line != upper.last_fetch_line {
                    upper.last_fetch_line = line;
                    Upper::walk(&mut upper.l1i, &mut upper.l2, op.pc.0)
                } else {
                    Some(HitLevel::L1)
                };
                let data = data_addr
                    .map(|addr| (addr, Upper::walk(&mut upper.l1d, &mut upper.l2, addr)));
                for &l in &upper.llcs {
                    let llc = &mut self.llcs[l];
                    let fetch = llc.below(fetch, op.pc.0);
                    let data = data.map_or(HitLevel::L1, |(addr, level)| llc.below(level, addr));
                    llc.levels[i] = Levels { fetch, data };
                }
            }
        }
        for lane in &mut self.lanes {
            let levels = &self.llcs[lane.llc].levels;
            lane.run(&self.shapes, levels, &self.predictors[lane.predictor].mispredicted);
        }
    }
}

impl OpSink for OooFanout {
    #[inline]
    fn op(&mut self, op: MicroOp) {
        self.block.push(op);
        if self.block.len() == BLOCK {
            self.flush();
        }
    }
}

impl Upper {
    /// The L1 → L2 part of a walk: the level that satisfied it, or `None`
    /// when both missed and the LLC decides.
    #[inline]
    fn walk(l1: &mut Cache, l2: &mut Cache, addr: u64) -> Option<HitLevel> {
        if l1.access(addr) {
            Some(HitLevel::L1)
        } else if l2.access(addr) {
            Some(HitLevel::L2)
        } else {
            None
        }
    }
}

impl Llc {
    /// Completes a walk the upper levels left open.
    #[inline]
    fn below(&mut self, upper: Option<HitLevel>, addr: u64) -> HitLevel {
        match upper {
            Some(level) => level,
            None if self.cache.access(addr) => HitLevel::L3,
            None => HitLevel::Memory,
        }
    }
}

impl Lane {
    fn new(cfg: &UarchConfig, upper: usize, llc: usize, predictor: usize) -> Self {
        let rob_size = cfg.core.rob_size.max(1);
        let mshr_slots = (cfg.core.load_queue / 7).clamp(2, 24);
        Lane {
            upper,
            llc,
            predictor,
            clocks: Clocks::default(),
            rob: vec![0; rob_size],
            mshr: vec![0; mshr_slots],
            cost: MissCost::new(cfg),
            dispatch_step_q8: (Q / cfg.core.issue_width as u64).max(1),
            // Alu, Long, Div, Load, Store, Control.
            latency: [1, 3, 16, cfg.l1d.latency.saturating_sub(1).max(1), 1, 1],
            mispredict_penalty: cfg.branch.mispredict_penalty,
            producer: [1, 2, 3].map(|d| d - rob_size * ((d - 1) / rob_size) - 1),
            cycles_by_category: CategoryMap::default(),
            cycles_by_phase: PhaseMap::default(),
        }
    }

    /// The timing recurrence: advances this lane over a block of ops
    /// whose accesses and predictions the shared stage already resolved.
    fn run(&mut self, shapes: &[Shape], levels: &[Levels], mispredicted: &[bool]) {
        // Scalars live in locals for the block: stores into the ROB and
        // MSHR buffers could otherwise alias them and force reloads.
        let (dispatch_step_q8, latencies, mispredict_penalty, producer) =
            (self.dispatch_step_q8, self.latency, self.mispredict_penalty, self.producer);
        let Lane { clocks, rob, mshr, cost, cycles_by_category, cycles_by_phase, .. } = self;
        let mut c = *clocks;
        for ((shape, levels), &mispredicted) in shapes.iter().zip(levels).zip(mispredicted) {
            let n = c.ops;
            c.ops += 1;

            // --- Front end ------------------------------------------------
            let mut dispatch = c.next_dispatch_q8.max(c.fetch_ready_q8);
            // ROB full: cannot dispatch until the op that owns this slot
            // retires.
            dispatch = dispatch.max(rob[c.slot]);
            // Instruction fetch (the shared stage walked each new line).
            let fetch = cost.penalty(levels.fetch, dispatch >> 8);
            if fetch > 0 {
                // Fetch bubble: front end stalls for the miss.
                c.fetch_ready_q8 = dispatch + (fetch << 8);
                dispatch = c.fetch_ready_q8;
            }
            c.next_dispatch_q8 = dispatch + dispatch_step_q8;

            // --- Dependences -----------------------------------------------
            // Synthetic producer at distance 1..=3, derived from the static
            // PC: the same static instruction always has the same
            // dependence shape.
            let mut start = dispatch;
            if n > u64::from(shape.distance) {
                // A match, not an index, keeps `recent` in registers.
                let dep = match producer[usize::from(shape.distance)] {
                    0 => c.recent[0],
                    1 => c.recent[1],
                    _ => c.recent[2],
                };
                start = start.max(dep);
            }

            // --- Execute ----------------------------------------------------
            let mut latency = latencies[shape.class as usize];
            // Only loads and stores touch data; the rest read as L1 hits.
            let penalty = cost.penalty(levels.data, start >> 8);
            if penalty > 0 {
                // A load miss needs a free MSHR slot to overlap. A store
                // retires through the store buffer, but a write-allocate
                // miss occupies a miss-status register and DRAM bandwidth;
                // once the MSHRs saturate, dispatch stalls. This is what
                // makes allocation streams that overflow the LLC expensive
                // (the paper's nursery-size cliff).
                let (idx, &earliest) = mshr
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &t)| t)
                    .expect("mshr is non-empty");
                start = start.max(earliest);
                mshr[idx] = start + (penalty << 8);
                if shape.class == Class::Load {
                    latency += penalty;
                }
            }
            // The predictor is always consulted (and trained); only a
            // mispredict stalls the front end.
            if mispredicted {
                let resolve = start + (1 << 8);
                c.fetch_ready_q8 = resolve + (mispredict_penalty << 8);
            }

            let complete = start + (latency << 8);
            rob[c.slot] = complete;
            c.slot += 1;
            if c.slot == rob.len() {
                c.slot = 0;
            }
            c.recent = [complete, c.recent[0], c.recent[1]];

            // --- Retire-clock attribution -----------------------------------
            if complete > c.retire_clock_q8 {
                let delta = (complete >> 8) - (c.retire_clock_q8 >> 8);
                c.retire_clock_q8 = complete;
                cycles_by_category[shape.category] += delta;
                cycles_by_phase[shape.phase] += delta;
            }
        }
        *clocks = c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoa_model::{Category, Pc, Phase};

    fn exec_op(pc: u64, kind: OpKind) -> MicroOp {
        MicroOp { pc: Pc(pc), kind, category: Category::Execute, phase: Phase::Interpreter }
    }

    /// A synthetic hot loop: mix of ALU, loads to a small working set, and a
    /// well-predicted loop branch.
    fn run_loop(cfg: &UarchConfig, iters: u64, spread: u64) -> ExecutionStats {
        let mut core = OooCore::new(cfg);
        for i in 0..iters {
            for j in 0..8u64 {
                core.op(exec_op(0x400000 + j * 4, OpKind::Alu));
            }
            core.op(exec_op(
                0x400020,
                OpKind::Load { addr: 0x5_0000_0000 + (i * 64) % spread, size: 8 },
            ));
            core.op(exec_op(
                0x400024,
                OpKind::Branch { taken: true, target: Pc(0x400000), indirect: false },
            ));
        }
        core.finish()
    }

    #[test]
    fn wider_issue_helps_then_saturates() {
        let base = UarchConfig::skylake();
        let cpi2 = run_loop(&base.clone().with_issue_width(2), 2000, 4096).cpi();
        let cpi4 = run_loop(&base.clone().with_issue_width(4), 2000, 4096).cpi();
        let cpi16 = run_loop(&base.clone().with_issue_width(16), 2000, 4096).cpi();
        let cpi32 = run_loop(&base.with_issue_width(32), 2000, 4096).cpi();
        assert!(cpi2 >= cpi4, "2-wide {cpi2} should be >= 4-wide {cpi4}");
        // Low ILP: going from 16 to 32 must change almost nothing.
        assert!((cpi16 - cpi32).abs() / cpi16 < 0.02, "16w={cpi16} 32w={cpi32}");
    }

    #[test]
    fn large_working_set_raises_cpi() {
        let cfg = UarchConfig::skylake();
        let small = run_loop(&cfg, 4000, 16 << 10).cpi();
        let large = run_loop(&cfg, 4000, 64 << 20).cpi();
        assert!(large > small * 1.2, "small={small} large={large}");
    }

    #[test]
    fn slower_memory_raises_cpi_only_when_missing() {
        let fast = UarchConfig::skylake().with_mem_latency(50);
        let slow = UarchConfig::skylake().with_mem_latency(400);
        // Small working set: only cold misses see the latency.
        let f_small = run_loop(&fast, 50_000, 4 << 10).cpi();
        let s_small = run_loop(&slow, 50_000, 4 << 10).cpi();
        // Large working set: every iteration misses.
        let f_large = run_loop(&fast, 2000, 64 << 20).cpi();
        let s_large = run_loop(&slow, 2000, 64 << 20).cpi();
        assert!(s_large > f_large * 1.3, "fast={f_large} slow={s_large}");
        // Relative sensitivity must be far higher when missing (the paper's
        // actual claim shape).
        let sens_small = s_small / f_small;
        let sens_large = s_large / f_large;
        assert!(
            sens_large > sens_small * 1.2,
            "small sens {sens_small}, large sens {sens_large}"
        );
        assert!(sens_small < 1.15, "small working set too sensitive: {sens_small}");
    }

    #[test]
    fn low_bandwidth_throttles_streaming() {
        let wide = UarchConfig::skylake().with_mem_bandwidth(25600);
        let narrow = UarchConfig::skylake().with_mem_bandwidth(200);
        let w = run_loop(&wide, 2000, 64 << 20).cpi();
        let n = run_loop(&narrow, 2000, 64 << 20).cpi();
        assert!(n > w * 2.0, "wide={w} narrow={n}");
    }

    #[test]
    fn mispredicted_indirect_branches_cost_cycles() {
        let cfg = UarchConfig::skylake();
        let run = |targets: u64| {
            let mut core = OooCore::new(&cfg);
            for i in 0..4000u64 {
                core.op(exec_op(0x400000, OpKind::Alu));
                // Indirect branch cycling through `targets` distinct targets.
                core.op(exec_op(
                    0x400100,
                    OpKind::Branch {
                        taken: true,
                        target: Pc(0x410000 + (i % targets) * 256),
                        indirect: true,
                    },
                ));
            }
            core.finish()
        };
        let stable = run(1).cpi();
        let wild = run(13).cpi();
        assert!(wild > stable * 1.3, "stable={stable} wild={wild}");
    }

    #[test]
    fn streaming_stores_beyond_llc_are_throttled() {
        // Write-allocate misses occupy MSHRs: a store stream that
        // overflows the LLC (a too-large nursery) must cost more than one
        // that stays resident.
        let cfg = UarchConfig::skylake();
        let run = |span: u64| {
            let mut core = OooCore::new(&cfg);
            for pass in 0..4u64 {
                let _ = pass;
                for i in 0..40_000u64 {
                    core.op(exec_op(0x400000, OpKind::Alu));
                    core.op(exec_op(
                        0x400004,
                        OpKind::Store { addr: 0x5_0000_0000 + (i * 64) % span, size: 8 },
                    ));
                }
            }
            core.finish().cpi()
        };
        let resident = run(512 << 10); // fits the 2 MB LLC
        let streaming = run(64 << 20); // overflows it
        assert!(
            streaming > resident * 1.15,
            "resident={resident} streaming={streaming}"
        );
    }

    #[test]
    fn rob_ring_matches_the_direct_rob_indexing() {
        // Pinned cycles of the formulation that read every producer back
        // as `rob[(n - distance) % rob_size]`. A ROB of fewer than three
        // slots aliases the older producers to newer ops.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let stream: Vec<MicroOp> = (0..4000u64)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let kind = match x % 8 {
                    0 => OpKind::Div,
                    1 | 2 => OpKind::Load { addr: 0x5_0000_0000 + (x >> 8) % (1 << 20), size: 8 },
                    3 => OpKind::Mul,
                    _ => OpKind::Alu,
                };
                exec_op(0x40_0000 + (i % 96) * 4, kind)
            })
            .collect();
        for (rob, want) in [(1, 223_378), (2, 201_892), (3, 163_497), (5, 140_354), (224, 75_880)] {
            let mut cfg = UarchConfig::skylake();
            cfg.core.rob_size = rob;
            let mut core = OooCore::new(&cfg);
            for op in &stream {
                core.op(*op);
            }
            assert_eq!(core.finish().cycles, want, "ROB of {rob}");
        }
    }

    #[test]
    fn instruction_and_cycle_accounting_consistent() {
        let s = run_loop(&UarchConfig::skylake(), 500, 4096);
        assert_eq!(s.instructions, 500 * 10);
        assert_eq!(s.cycles_by_phase.total(), s.cycles);
        assert_eq!(s.cycles_by_category.total(), s.cycles);
        assert!(s.cpi() >= 0.25, "cpi = {}", s.cpi());
    }
}
