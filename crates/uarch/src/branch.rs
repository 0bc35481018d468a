//! Branch prediction: a two-level adaptive direction predictor, a branch
//! target buffer for indirect transfers, and a return-address stack.
//!
//! Table I specifies a "2-level 2-bit BP with 2048x18b L1, 16384x2b L2":
//! a first-level table of per-branch history registers indexed by PC, whose
//! history selects a 2-bit saturating counter in the second-level pattern
//! history table. The Fig. 7(b) sweep scales both tables (and the BTB)
//! between 0.5x and 8x of this baseline.

use crate::config::BranchConfig;
use qoa_model::{OpKind, Pc};

/// Direction + target prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional-direction predictions made.
    pub direction_predictions: u64,
    /// Conditional-direction mispredictions.
    pub direction_mispredicts: u64,
    /// Indirect-target predictions made (indirect branches, calls, returns).
    pub target_predictions: u64,
    /// Indirect-target mispredictions.
    pub target_mispredicts: u64,
}

impl BranchStats {
    /// Overall misprediction rate across directions and targets.
    pub fn mispredict_rate(&self) -> f64 {
        let p = self.direction_predictions + self.target_predictions;
        if p == 0 {
            0.0
        } else {
            (self.direction_mispredicts + self.target_mispredicts) as f64 / p as f64
        }
    }
}

/// Two-level adaptive direction predictor.
#[derive(Debug, Clone)]
pub struct TwoLevelPredictor {
    history: Vec<u32>,
    pht: Vec<u8>,
    history_mask: u32,
    l1_mask: usize,
    l2_mask: usize,
}

impl TwoLevelPredictor {
    /// Builds the predictor from a [`BranchConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the table sizes are not powers of two.
    pub fn new(cfg: &BranchConfig) -> Self {
        assert!(cfg.l1_entries.is_power_of_two());
        assert!(cfg.l2_entries.is_power_of_two());
        TwoLevelPredictor {
            history: vec![0; cfg.l1_entries],
            // Weakly taken: interpreter loops are mostly taken.
            pht: vec![2; cfg.l2_entries],
            history_mask: (1u32 << cfg.history_bits.min(31)) - 1,
            l1_mask: cfg.l1_entries - 1,
            l2_mask: cfg.l2_entries - 1,
        }
    }

    fn pht_index(&self, pc: Pc, history: u32) -> usize {
        // Hash history with the PC so distinct branches sharing history
        // patterns spread across the PHT.
        ((history as usize) ^ ((pc.0 >> 2) as usize)) & self.l2_mask
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: Pc) -> bool {
        let h = self.history[(pc.0 >> 2) as usize & self.l1_mask];
        self.pht[self.pht_index(pc, h)] >= 2
    }

    /// Updates predictor state with the resolved direction.
    pub fn update(&mut self, pc: Pc, taken: bool) {
        let l1 = (pc.0 >> 2) as usize & self.l1_mask;
        let h = self.history[l1];
        let idx = self.pht_index(pc, h);
        let c = &mut self.pht[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history[l1] = ((h << 1) | taken as u32) & self.history_mask;
    }
}

/// Branch target buffer for indirect control transfers.
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<(u64, u64)>, // (tag, target)
    mask: usize,
}

impl Btb {
    /// Builds a direct-mapped BTB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two());
        Btb {
            entries: vec![(u64::MAX, 0); entries],
            mask: entries - 1,
        }
    }

    /// Predicted target for the transfer at `pc`, if any.
    pub fn predict(&self, pc: Pc) -> Option<Pc> {
        let idx = (pc.0 >> 2) as usize & self.mask;
        let (tag, target) = self.entries[idx];
        (tag == pc.0).then_some(Pc(target))
    }

    /// Records the resolved target.
    pub fn update(&mut self, pc: Pc, target: Pc) {
        let idx = (pc.0 >> 2) as usize & self.mask;
        self.entries[idx] = (pc.0, target.0);
    }
}

/// Return-address stack.
#[derive(Debug, Clone)]
pub struct ReturnStack {
    stack: Vec<u64>,
    depth: usize,
}

impl ReturnStack {
    /// Builds a RAS with the given maximum depth.
    pub fn new(depth: usize) -> Self {
        ReturnStack { stack: Vec::with_capacity(depth), depth }
    }

    /// Pushes a return address at a call.
    pub fn push(&mut self, ret: Pc) {
        if self.stack.len() == self.depth {
            self.stack.remove(0);
        }
        self.stack.push(ret.0);
    }

    /// Pops the predicted return address at a return.
    pub fn pop(&mut self) -> Option<Pc> {
        self.stack.pop().map(Pc)
    }
}

/// Complete front-end predictor: direction + BTB + RAS, with statistics.
#[derive(Debug, Clone)]
pub struct BranchUnit {
    predictor: TwoLevelPredictor,
    btb: Btb,
    ras: ReturnStack,
    stats: BranchStats,
    /// Pipeline refill penalty per mispredict.
    pub mispredict_penalty: u64,
}

impl BranchUnit {
    /// Builds the unit from a [`BranchConfig`].
    pub fn new(cfg: &BranchConfig) -> Self {
        BranchUnit {
            predictor: TwoLevelPredictor::new(cfg),
            btb: Btb::new(cfg.btb_entries),
            ras: ReturnStack::new(cfg.ras_depth),
            stats: BranchStats::default(),
            mispredict_penalty: cfg.mispredict_penalty,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BranchStats {
        self.stats
    }

    /// Resets statistics (predictor state is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = BranchStats::default();
    }

    /// Resolves the control transfer `kind` at `pc` (branch, call or
    /// return); returns `true` on mispredict, and `false` for any other
    /// kind of op.
    pub(crate) fn resolve(&mut self, pc: Pc, kind: OpKind) -> bool {
        match kind {
            OpKind::Branch { taken, target, indirect } => self.branch(pc, taken, target, indirect),
            OpKind::Call { target, indirect } => self.call(pc, target, indirect),
            OpKind::Ret => self.ret(pc),
            _ => false,
        }
    }

    /// Resolves a conditional/direct branch; returns `true` on mispredict.
    pub fn branch(&mut self, pc: Pc, taken: bool, target: Pc, indirect: bool) -> bool {
        let mut miss = false;
        self.stats.direction_predictions += 1;
        if self.predictor.predict(pc) != taken {
            self.stats.direction_mispredicts += 1;
            miss = true;
        }
        self.predictor.update(pc, taken);
        if indirect && taken {
            self.stats.target_predictions += 1;
            if self.btb.predict(pc) != Some(target) {
                self.stats.target_mispredicts += 1;
                miss = true;
            }
            self.btb.update(pc, target);
        }
        miss
    }

    /// Resolves a call; returns `true` on mispredict (indirect target miss).
    pub fn call(&mut self, pc: Pc, target: Pc, indirect: bool) -> bool {
        // Return address is the instruction after the call site.
        self.ras.push(Pc(pc.0 + 4));
        if indirect {
            self.stats.target_predictions += 1;
            if self.btb.predict(pc) != Some(target) {
                self.stats.target_mispredicts += 1;
                self.btb.update(pc, target);
                return true;
            }
            self.btb.update(pc, target);
        }
        false
    }

    /// Resolves a return; returns `true` on mispredict (RAS miss).
    pub fn ret(&mut self, actual: Pc) -> bool {
        self.stats.target_predictions += 1;
        match self.ras.pop() {
            Some(predicted) if predicted == actual => false,
            _ => {
                self.stats.target_mispredicts += 1;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> BranchUnit {
        BranchUnit::new(&BranchConfig::skylake())
    }

    #[test]
    fn learns_always_taken_loop() {
        let mut u = unit();
        let pc = Pc(0x400100);
        let t = Pc(0x400000);
        for _ in 0..8 {
            u.branch(pc, true, t, false);
        }
        let before = u.stats().direction_mispredicts;
        for _ in 0..100 {
            u.branch(pc, true, t, false);
        }
        assert_eq!(u.stats().direction_mispredicts, before);
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut u = unit();
        let pc = Pc(0x400200);
        let t = Pc(0x400000);
        // Warm up the alternating pattern.
        let mut taken = false;
        for _ in 0..64 {
            u.branch(pc, taken, t, false);
            taken = !taken;
        }
        let before = u.stats().direction_mispredicts;
        for _ in 0..100 {
            u.branch(pc, taken, t, false);
            taken = !taken;
        }
        let after = u.stats().direction_mispredicts;
        assert!(after - before <= 2, "missed {} of 100", after - before);
    }

    #[test]
    fn btb_learns_stable_indirect_target() {
        let mut u = unit();
        let pc = Pc(0x400300);
        let t = Pc(0x500000);
        assert!(u.call(pc, t, true)); // cold miss
        assert!(!u.call(pc, t, true)); // learned
        assert!(u.call(pc, Pc(0x600000), true)); // target changed
    }

    #[test]
    fn ras_matches_balanced_calls() {
        let mut u = unit();
        let call_pc = Pc(0x400400);
        u.call(call_pc, Pc(0x500000), false);
        assert!(!u.ret(Pc(call_pc.0 + 4)));
        // Unbalanced return mispredicts.
        assert!(u.ret(Pc(0x999999)));
    }

    #[test]
    fn tiny_tables_alias_badly() {
        // Many distinct alternating branches in a tiny predictor should
        // mispredict far more than in the full-size predictor.
        // 64 indirect call sites, each with its own stable target: a big
        // BTB learns them all, a tiny direct-mapped BTB thrashes on the
        // aliasing sites. This is the paper's "table too small → accuracy
        // suffers" regime.
        let run = |cfg: &BranchConfig| {
            let mut u = BranchUnit::new(cfg);
            let mut misses = 0;
            for _round in 0..200u64 {
                for b in 0..64u64 {
                    let pc = Pc(0x400000 + b * 64);
                    let target = Pc(0x500000 + b * 1024);
                    if u.call(pc, target, true) {
                        misses += 1;
                    }
                }
            }
            misses
        };
        let big = run(&BranchConfig::skylake());
        let small = run(&BranchConfig::skylake().scaled(0.015)); // 16-entry floor
        assert!(small > big, "small={small} big={big}");
    }
}
