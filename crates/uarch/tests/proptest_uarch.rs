//! Property-based tests for the cache hierarchy and branch predictors.

use proptest::prelude::*;
use qoa_uarch::{BranchConfig, BranchUnit, Cache, CacheConfig, UarchConfig};

fn small_cache_config() -> impl Strategy<Value = CacheConfig> {
    (0u32..4, 0usize..3, 0u32..2).prop_map(|(size_pow, assoc_idx, line_pow)| CacheConfig {
        size: 256 << size_pow,
        assoc: [1, 2, 4][assoc_idx],
        line: 32 << line_pow,
        latency: 4,
    })
}

proptest! {
    /// Misses never exceed accesses, and the resident line count never
    /// exceeds the capacity, for any access sequence and geometry.
    #[test]
    fn cache_counters_are_sane(
        cfg in small_cache_config(),
        addrs in proptest::collection::vec(0u64..8192, 1..400),
    ) {
        let mut c = Cache::new(cfg);
        for a in addrs {
            c.access(a);
        }
        let stats = c.stats();
        prop_assert!(stats.misses <= stats.accesses);
        prop_assert!(c.resident_lines() as u64 <= cfg.size / cfg.line);
    }

    /// Each set kept in recency order hits and misses exactly like LRU
    /// by timestamps: the victim is an empty way, else the way touched
    /// least recently.
    #[test]
    fn cache_matches_a_timestamp_lru(
        cfg in small_cache_config(),
        addrs in proptest::collection::vec(0u64..8192, 1..400),
    ) {
        let mut c = Cache::new(cfg);
        let sets = cfg.sets() as u64;
        let mut tags: Vec<Option<u64>> = vec![None; sets as usize * cfg.assoc];
        let mut stamps = vec![0u64; tags.len()];
        for (clock, &addr) in (1u64..).zip(&addrs) {
            let line = addr / cfg.line;
            let base = (line % sets) as usize * cfg.assoc;
            let ways = base..base + cfg.assoc;
            let hit = match ways.clone().find(|&w| tags[w] == Some(line)) {
                Some(w) => {
                    stamps[w] = clock;
                    true
                }
                None => {
                    let victim = ways
                        .clone()
                        .find(|&w| tags[w].is_none())
                        .or_else(|| ways.clone().min_by_key(|&w| stamps[w]))
                        .expect("a set has ways");
                    tags[victim] = Some(line);
                    stamps[victim] = clock;
                    false
                }
            };
            prop_assert_eq!(c.access(addr), hit, "access to {}", addr);
        }
    }

    /// Immediately repeated accesses always hit.
    #[test]
    fn repeat_access_hits(
        cfg in small_cache_config(),
        addrs in proptest::collection::vec(0u64..8192, 1..200),
    ) {
        let mut c = Cache::new(cfg);
        for a in addrs {
            c.access(a);
            prop_assert!(c.access(a), "second access to {a} must hit");
        }
    }

    /// A working set no larger than one set's associativity never misses
    /// after the first pass (true LRU guarantees retention).
    #[test]
    fn lru_retains_within_associativity(passes in 2usize..6) {
        let cfg = CacheConfig { size: 1024, assoc: 4, line: 64, latency: 1 };
        let mut c = Cache::new(cfg);
        // 4 lines, all mapping to set 0 (stride = line * sets).
        let sets = cfg.sets() as u64;
        let addrs: Vec<u64> = (0..4).map(|i| i * 64 * sets).collect();
        for a in &addrs {
            c.access(*a);
        }
        let cold = c.stats().misses;
        for _ in 0..passes {
            for a in &addrs {
                prop_assert!(c.access(*a));
            }
        }
        prop_assert_eq!(c.stats().misses, cold);
    }

    /// Constant-direction branches converge to near-perfect prediction.
    #[test]
    fn predictor_learns_constant_direction(taken in any::<bool>(), pc in 0u64..1u64<<20) {
        let mut u = BranchUnit::new(&BranchConfig::skylake());
        let pc = qoa_model::Pc(0x40_0000 + pc * 4);
        for _ in 0..16 {
            u.branch(pc, taken, qoa_model::Pc(0x40_0000), false);
        }
        let before = u.stats().direction_mispredicts;
        for _ in 0..64 {
            u.branch(pc, taken, qoa_model::Pc(0x40_0000), false);
        }
        prop_assert_eq!(u.stats().direction_mispredicts, before);
    }

    /// Every sweepable configuration is internally consistent.
    #[test]
    fn sweep_configs_validate(
        width in 1usize..64,
        llc_pow in 18u32..25,
        line_pow in 6u32..13,
        lat in 10u64..1000,
        bw in 100u64..30000,
    ) {
        let cfg = UarchConfig::skylake()
            .with_issue_width(width)
            .with_llc_size(1 << llc_pow)
            .with_line_size(1 << line_pow)
            .with_mem_latency(lat)
            .with_mem_bandwidth(bw);
        cfg.validate();
    }

    /// The simple core's per-category cycles always sum to the total, for
    /// arbitrary op streams.
    #[test]
    fn simple_core_attribution_is_exact(
        ops in proptest::collection::vec((0u64..64, 0u64..1u64<<16, 0u8..4), 1..300),
    ) {
        use qoa_model::{Category, MicroOp, OpKind, OpSink, Pc, Phase};
        use qoa_uarch::SimpleCore;
        let mut core = SimpleCore::new(&UarchConfig::skylake());
        for (pc, addr, kind) in ops {
            let kind = match kind {
                0 => OpKind::Alu,
                1 => OpKind::Load { addr: 0x5_0000_0000 + addr, size: 8 },
                2 => OpKind::Store { addr: 0x5_0000_0000 + addr, size: 8 },
                _ => OpKind::Branch { taken: true, target: Pc(0x40_0000), indirect: false },
            };
            core.op(MicroOp {
                pc: Pc(0x40_0000 + pc * 4),
                kind,
                category: Category::from_index((pc % 16) as usize),
                phase: Phase::Interpreter,
            });
        }
        let s = core.finish();
        prop_assert_eq!(s.cycles_by_category.total(), s.cycles);
        prop_assert_eq!(s.cycles_by_phase.total(), s.cycles);
    }
}
