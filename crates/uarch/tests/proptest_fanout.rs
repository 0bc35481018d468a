//! The fan-out OOO sink against independent single-configuration cores.
//!
//! `OooFanout` shares caches and predictors between configurations with
//! the same geometry and keeps only the timing state per lane. Each lane
//! must still finish with exactly the `ExecutionStats` a separate
//! `OooCore` reaches on the same stream, for any op stream and any mix of
//! configurations: shared and distinct geometries, duplicates, ROBs that
//! are not a power of two or hold fewer than three ops (the synthetic
//! producer distance), and a zero-latency L2.

use proptest::prelude::*;
use qoa_model::{Category, MicroOp, OpKind, OpSink, Pc, Phase};
use qoa_uarch::{CacheConfig, OooCore, OooFanout, UarchConfig};

/// One op: (kind tag, pc slot, address, flag bits, category, phase).
type RawOp = (u8, u64, u64, u8, usize, usize);

fn op((tag, pc, addr, flags, category, phase): RawOp, footprint: u64) -> MicroOp {
    let addr = addr % footprint;
    let target = Pc(0x40_0000 + (addr % 64) * 4);
    let (taken, indirect) = (flags & 1 != 0, flags & 2 != 0);
    let kind = match tag {
        0 => OpKind::Alu,
        1 => OpKind::FpAlu,
        2 => OpKind::Mul,
        3 => OpKind::Div,
        4 | 5 => OpKind::Load { addr: 0x5_0000_0000 + addr, size: 8 },
        6 => OpKind::Store { addr: 0x5_0000_0000 + addr, size: 8 },
        7 => OpKind::Branch { taken, target, indirect },
        8 => OpKind::Call { target, indirect },
        _ => OpKind::Ret,
    };
    MicroOp {
        pc: Pc(0x40_0000 + pc * 4),
        kind,
        category: Category::from_index(category),
        phase: Phase::ALL[phase],
    }
}

/// Streams long enough to cross the fan-out's block boundaries. The data
/// footprint is drawn per case, so that some streams fit the small LLCs
/// below and others thrash them.
fn ops() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec(
        (0u8..10, 0u64..2048, 0u64..1 << 21, 0u8..4, 0usize..Category::COUNT, 0usize..Phase::COUNT),
        1..2600,
    )
}

/// One configuration: (geometry, ROB, issue width, L2 latency, memory,
/// branch tables).
type Spec = (u8, u8, u8, bool, u8, u8);

fn config((geometry, rob, width, zero_l2, memory, branch): Spec) -> UarchConfig {
    let mut cfg = UarchConfig::skylake();
    match geometry {
        0 => {}
        1 => cfg = cfg.with_llc_size(16 << 10),
        2 => cfg = cfg.with_line_size(128),
        3 => cfg = cfg.with_line_size(4096),
        _ => {
            // Small upper levels, shared by two LLC sizes.
            cfg.l1i = CacheConfig { size: 1 << 10, assoc: 2, line: 64, latency: 4 };
            cfg.l1d = CacheConfig { size: 2 << 10, assoc: 4, line: 64, latency: 2 };
            cfg.l2 = CacheConfig { size: 8 << 10, assoc: 4, line: 64, latency: 12 };
            let size = if geometry == 4 { 64 << 10 } else { 16 << 10 };
            cfg.l3 = CacheConfig { size, assoc: 8, line: 64, latency: 42 };
        }
    }
    cfg.core.rob_size = [224, 3, 2, 1, 5, 64][usize::from(rob)];
    cfg.core.load_queue = [72, 7, 200][usize::from(rob % 3)];
    cfg = cfg.with_issue_width([1, 2, 4, 32][usize::from(width)]);
    if zero_l2 {
        cfg.l2.latency = 0;
    }
    cfg = match memory {
        0 => cfg,
        1 => cfg.with_mem_latency(50),
        2 => cfg.with_mem_bandwidth(200),
        _ => cfg.with_mem_latency(400).with_mem_bandwidth(25600),
    };
    cfg.with_branch_scale([1.0, 0.5, 8.0, 0.01][usize::from(branch)])
}

fn specs() -> impl Strategy<Value = Vec<Spec>> {
    proptest::collection::vec((0u8..6, 0u8..6, 0u8..4, any::<bool>(), 0u8..4, 0u8..4), 1..6)
}

fn single(cfg: &UarchConfig, stream: &[MicroOp]) -> qoa_uarch::ExecutionStats {
    let mut core = OooCore::new(cfg);
    for op in stream {
        core.op(*op);
    }
    core.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every lane equals its own `OooCore`, field for field, whether the
    /// ops arrive one at a time or as a slice.
    #[test]
    fn fanout_lanes_equal_single_cores(
        raw in ops(),
        footprint in 10u32..22,
        specs in specs(),
        split in 0usize..2600,
    ) {
        let stream: Vec<MicroOp> = raw.into_iter().map(|r| op(r, 1 << footprint)).collect();
        let mut cfgs: Vec<UarchConfig> = specs.into_iter().map(config).collect();
        cfgs.push(cfgs[0].clone()); // a duplicate shares everything
        let mut fan = OooFanout::new(&cfgs);
        let split = split.min(stream.len());
        for op in &stream[..split] {
            fan.op(*op);
        }
        fan.ops(&stream[split..]);
        let lanes = fan.finish();
        prop_assert_eq!(lanes.len(), cfgs.len());
        for (cfg, lane) in cfgs.iter().zip(&lanes) {
            prop_assert_eq!(lane, &single(cfg, &stream), "config {:?}", cfg);
        }
    }
}

#[test]
fn empty_fanouts_finish_cleanly() {
    assert!(OooFanout::new(&[]).finish().is_empty());
    let cfg = UarchConfig::skylake();
    let idle = OooFanout::new(std::slice::from_ref(&cfg)).finish();
    assert_eq!(idle, vec![single(&cfg, &[])]);
    assert_eq!(idle[0].cycles, 0);
}
