//! Seeded, size-stratified draws sized by a micro-op budget.
//!
//! A fixed program count makes wall time swing with whichever programs
//! the seed happens to pick, so every workload instead draws until the
//! recorded op counts of its picks fill a budget. Candidates are sorted
//! by size and cut, from the largest down, into strata of `group`
//! neighbours. The top stratum is always drawn whole: the largest cells
//! set peak memory and most of the wall, so every seed measures them.
//! The remaining picks rotate over the other strata from the largest
//! down, uniformly within each; a pick that would overflow the budget is
//! dropped. The draw thus fills the budget as tightly as the candidates
//! allow, and two seeds draw cells of matching sizes rank by rank.

use qoa_fuzz::SplitMix64;

/// The draw seed of round `round` of a run with workload seed `seed`.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    SplitMix64::new(seed ^ round.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// Indices into `costs` drawn for `seed` until `budget` is filled, in
/// draw order, with strata of `group` candidates.
pub fn draw(costs: &[u64], budget: u64, seed: u64, group: usize) -> Vec<usize> {
    let mut by_size: Vec<usize> = (0..costs.len()).collect();
    by_size.sort_by_key(|&i| std::cmp::Reverse((costs[i], i)));
    let mut strata: Vec<Vec<usize>> = by_size
        .chunks(group.max(1))
        .map(<[usize]>::to_vec)
        .collect();
    // The top stratum is taken even when it alone overflows the budget.
    let mut picked = if strata.is_empty() {
        Vec::new()
    } else {
        strata.remove(0)
    };
    let mut total: u64 = picked.iter().map(|&i| costs[i]).sum();
    let mut rng = SplitMix64::new(seed);
    let mut q = 0;
    while strata.iter().any(|s| !s.is_empty()) {
        let stratum = &mut strata[q];
        if !stratum.is_empty() {
            let i = stratum.swap_remove(rng.below(stratum.len() as u64) as usize);
            if total + costs[i] <= budget {
                total += costs[i];
                picked.push(i);
            }
        }
        q = (q + 1) % strata.len();
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> Vec<u64> {
        (1..=40u64).map(|i| i * i * 1000).collect()
    }

    #[test]
    fn same_seed_same_draw() {
        assert_eq!(
            draw(&costs(), 8_000_000, 7, 4),
            draw(&costs(), 8_000_000, 7, 4)
        );
    }

    #[test]
    fn seeds_change_the_draw() {
        let draws: Vec<Vec<usize>> = (0..8).map(|s| draw(&costs(), 8_000_000, s, 4)).collect();
        assert!(draws.iter().any(|d| d != &draws[0]));
    }

    #[test]
    fn the_top_stratum_is_always_drawn_whole() {
        let c = costs();
        for seed in 0..32 {
            assert_eq!(draw(&c, 8_000_000, seed, 4)[..4], [39, 38, 37, 36]);
        }
    }

    #[test]
    fn one_pick_per_stratum_before_any_repeat() {
        // A budget that holds everything takes the strata in rotation:
        // after the top stratum, one pick per stratum, largest first.
        let c = costs();
        let d = draw(&c, u64::MAX, 5, 4);
        assert_eq!(d.len(), c.len());
        for (k, &i) in d[4..13].iter().enumerate() {
            assert_eq!(i / 4, 8 - k, "pick {} came from the wrong stratum", k + 4);
        }
    }

    #[test]
    fn picks_are_distinct_and_fill_the_budget() {
        let c = costs();
        let budget = 8_000_000;
        for seed in 0..32 {
            let d = draw(&c, budget, seed, 4);
            let mut uniq = d.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), d.len());
            let total: u64 = d.iter().map(|&i| c[i]).sum();
            assert!(total <= budget);
            // Greedy fill: no undrawn candidate would still fit.
            let slack = budget - total;
            assert!((0..c.len())
                .filter(|i| !d.contains(i))
                .all(|i| c[i] > slack));
        }
    }

    #[test]
    fn rounds_of_one_run_draw_differently() {
        let c = costs();
        let d: Vec<Vec<usize>> = (0..4)
            .map(|k| draw(&c, 8_000_000, round_seed(9, k), 4))
            .collect();
        assert!(d.iter().any(|x| x != &d[0]));
        assert_eq!(round_seed(9, 3), round_seed(9, 3));
        assert_ne!(round_seed(9, 0), round_seed(10, 0));
    }

    #[test]
    fn an_oversized_top_stratum_is_still_taken_alone() {
        let d = draw(&[10, 20, 30, 1000], 5, 3, 1);
        assert_eq!(d, vec![3]);
    }

    #[test]
    fn empty_candidates_draw_nothing() {
        assert!(draw(&[], 100, 1, 4).is_empty());
    }
}
