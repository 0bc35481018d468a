//! What every workload provides, and what one timed round reports.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use qoa_core::SupervisedCell;

use crate::draw::draw;
use crate::layers::Counts;
use crate::spans::Tracer;

/// One cell attempt's wall and the micro-ops it was sized by.
#[derive(Debug, Clone, Copy)]
pub struct CellTime {
    /// Wall, ms.
    pub ms: f64,
    /// Recorded micro-ops the cell captures or replays.
    pub uops: u64,
}

/// Host nanoseconds per micro-op over `cells`: their summed wall over
/// their summed op counts.
pub fn ns_per_uop(cells: &[CellTime]) -> f64 {
    let ms: f64 = cells.iter().map(|c| c.ms).sum();
    let uops: u64 = cells.iter().map(|c| c.uops).sum();
    ms * 1e6 / uops.max(1) as f64
}

/// One timed pass over a workload's drawn cells, tracing off.
#[derive(Debug, Default)]
pub struct Round {
    /// Per-cell walls, one entry per attempt.
    pub cells: Vec<CellTime>,
    /// Cells attempted.
    pub attempted: u64,
    /// Output-check and execution failures, one line each.
    pub problems: Vec<String>,
    /// Executor retries.
    pub retries: u64,
    /// Bytes of journal the round left behind.
    pub journal_bytes: u64,
}

/// A workload's candidate pool and its current draw.
pub trait Workload {
    /// The recorded op count of every pool candidate: what draws are
    /// sized by.
    fn costs(&self) -> &[u64];
    /// The round budget (in the units of [`Workload::costs`]) and the
    /// stratum size of a draw.
    fn sizing(&self) -> (u64, usize);
    /// Makes the pool candidates at `picks` the current draw.
    fn select(&mut self, picks: &[usize]);
    /// One line per drawn program, for the log.
    fn describe(&self) -> Vec<String>;
    /// Runs every cell of the current draw once through the figure
    /// binaries' entry points and checks the outputs against the
    /// reference table.
    fn round(&self) -> Round;
    /// Re-runs the same cells stage by stage, recording spans and counts;
    /// returns output-check failures.
    fn traced(&self, t: &mut Tracer, counts: &mut Counts) -> Vec<String>;
    /// Cells one traced pass runs.
    fn traced_cells(&self) -> u64;
}

/// Makes the draw for `seed` the current one.
pub fn redraw(w: &mut dyn Workload, seed: u64) {
    let (budget, group) = w.sizing();
    let picks = draw(w.costs(), budget, seed, group);
    w.select(&picks);
}

/// Runs one round over the pool's smallest candidates, the same for
/// every seed, until they hold a fiftieth of a round's budget (at least
/// one), so lazy first-touch costs of the whole round path land in
/// set-up rather than in the first timed round.
pub fn warm_up(w: &mut dyn Workload) -> Round {
    let costs = w.costs();
    let mut by_size: Vec<usize> = (0..costs.len()).collect();
    by_size.sort_by_key(|&i| (costs[i], i));
    let target = w.sizing().0 / 50;
    let mut total = 0;
    let picks: Vec<usize> = by_size
        .into_iter()
        .take_while(|&i| {
            let take = total == 0 || total < target;
            total += costs[i];
            take
        })
        .collect();
    w.select(&picks);
    w.round()
}

/// Per-attempt cell walls, shared with the wrapped jobs.
pub type CellLog = Arc<Mutex<Vec<CellTime>>>;

/// Wraps a spec's public `job` so every attempt's wall lands in `log`;
/// the executor itself is untouched.
pub fn timed<T: 'static>(
    mut spec: SupervisedCell<T>,
    uops: u64,
    log: &CellLog,
) -> SupervisedCell<T> {
    let mut job = std::mem::replace(&mut spec.job, Box::new(|_| unreachable!("replaced below")));
    let log = Arc::clone(log);
    spec.job = Box::new(move |deadline| {
        let start = Instant::now();
        let out = job(deadline);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        log.lock()
            .expect("a cell panicked while logging its wall")
            .push(CellTime { ms, uops });
        out
    });
    spec
}

/// Takes the logged walls out of `log`.
pub fn drain(log: &CellLog) -> Vec<CellTime> {
    std::mem::take(&mut *log.lock().expect("a cell panicked while logging its wall"))
}

/// Size of a journal file, 0 when missing.
pub fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pool that records what it was asked to run.
    struct Pool {
        costs: Vec<u64>,
        picked: Vec<usize>,
    }

    impl Workload for Pool {
        fn costs(&self) -> &[u64] {
            &self.costs
        }
        fn sizing(&self) -> (u64, usize) {
            (1000, 2)
        }
        fn select(&mut self, picks: &[usize]) {
            self.picked = picks.to_vec();
        }
        fn describe(&self) -> Vec<String> {
            Vec::new()
        }
        fn round(&self) -> Round {
            Round {
                attempted: self.picked.len() as u64,
                ..Round::default()
            }
        }
        fn traced(&self, _: &mut Tracer, _: &mut Counts) -> Vec<String> {
            Vec::new()
        }
        fn traced_cells(&self) -> u64 {
            0
        }
    }

    #[test]
    fn warm_up_runs_the_smallest_candidates_up_to_a_fiftieth_of_a_round() {
        let mut pool = Pool {
            costs: vec![50, 9, 7, 300, 12],
            picked: Vec::new(),
        };
        assert_eq!(warm_up(&mut pool).attempted, 3);
        assert_eq!(pool.picked, vec![2, 1, 4]);
        let mut big = Pool {
            costs: vec![500, 400],
            picked: Vec::new(),
        };
        warm_up(&mut big);
        assert_eq!(big.picked, vec![1]);
    }

    #[test]
    fn redraw_takes_the_sized_draw() {
        let mut pool = Pool {
            costs: (1..=20).map(|i| i * 10).collect(),
            picked: Vec::new(),
        };
        redraw(&mut pool, 3);
        assert_eq!(pool.picked, draw(&pool.costs, 1000, 3, 2));
    }

    #[test]
    fn rate_weights_cells_by_their_op_counts() {
        let cells = [
            CellTime {
                ms: 1.0,
                uops: 1_000_000,
            },
            CellTime {
                ms: 6.0,
                uops: 2_000_000,
            },
        ];
        assert_eq!(ns_per_uop(&cells), 7.0 / 3.0);
        assert_eq!(ns_per_uop(&[]), 0.0);
    }
}
