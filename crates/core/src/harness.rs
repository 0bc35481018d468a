//! The resumable experiment harness.
//!
//! A figure binary opens one [`Harness`] and funnels every measurement
//! through [`Harness::cell`]. Each cell:
//!
//! * is **skipped** when the journal already holds its result under the
//!   current configuration (so a killed sweep resumes where it left off,
//!   and a finished one re-renders instantly);
//! * otherwise runs under [`run_isolated`] — a panic, guest error, fuel
//!   exhaustion, wall-clock deadline or simulated OOM becomes a recorded
//!   [`RunFailure`](crate::isolate::RunFailure) instead of aborting the
//!   sweep's sibling cells;
//! * is journaled (success metrics or failure) atomically.
//!
//! [`Harness::finish`] prints the failure annotations under the figure
//! and returns a process exit code: nonzero only when the failure rate
//! exceeds the configured threshold.

use crate::chaos::{fault_kinds_for, run_chaos_with_sink, ChaosOptions};
use crate::error::QoaError;
use crate::executor::{
    cell_seed, run_supervised, CellVerdict, ExecutorOptions, ExecutorStats, SupervisedCell,
};
use crate::isolate::run_isolated;
use crate::journal::{CellKey, CellMetrics, CellOutcome, Journal, Metric, Supervision};
use crate::runtime::{run_with_sink, RuntimeConfig, SinkRun};
use crate::sweeps::{pair_configs, sweep_points, SweepParam};
use crate::Breakdown;
use qoa_chaos::FaultPlan;
use qoa_model::{Category, CategoryMap, OpSink, Phase};
use qoa_uarch::{OooCore, OooFanout, SimpleCore, UarchConfig};
use qoa_workloads::{Scale, Workload};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Harness construction options (one per figure binary invocation).
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Figure tag (`fig10`, `table2`, ...): the journal file name.
    pub figure: String,
    /// Directory for journals (default `results/`).
    pub journal_dir: PathBuf,
    /// Ignore the journal's prior contents.
    pub fresh: bool,
    /// Per-cell wall-clock deadline.
    pub deadline: Option<Duration>,
    /// Failure rate above which [`Harness::finish`] exits nonzero.
    pub max_failure_rate: f64,
    /// Configuration fingerprint; journal entries recorded under a
    /// different fingerprint are ignored.
    pub config: String,
}

impl HarnessOptions {
    /// Defaults for `figure` under configuration fingerprint `config`.
    pub fn new(figure: impl Into<String>, config: impl Into<String>) -> Self {
        HarnessOptions {
            figure: figure.into(),
            journal_dir: PathBuf::from("results"),
            fresh: false,
            deadline: None,
            max_failure_rate: 0.25,
            config: config.into(),
        }
    }
}

/// One annotated failure, kept for the end-of-run report.
#[derive(Debug, Clone)]
pub struct FailureNote {
    /// Which cell failed.
    pub key: CellKey,
    /// [`QoaError::kind`] tag.
    pub kind: String,
    /// Rendered error.
    pub message: String,
}

/// The journal-backed, fault-isolated measurement driver.
#[derive(Debug)]
pub struct Harness {
    journal: Journal,
    deadline: Option<Duration>,
    max_failure_rate: f64,
    cells_total: usize,
    cells_skipped: usize,
    failures: Vec<FailureNote>,
    /// Cells the supervised executor declined (budget gate or open
    /// circuit breaker), with the shed reason. Not failures: they don't
    /// count toward the failure-rate exit gate.
    shed: Vec<(CellKey, String)>,
    journal_error: Option<QoaError>,
}

impl Harness {
    /// Opens the journal and builds the harness.
    ///
    /// # Errors
    ///
    /// Returns [`QoaError::Journal`] when an existing journal cannot be
    /// read.
    pub fn open(opts: HarnessOptions) -> Result<Harness, QoaError> {
        let journal = Journal::open(&opts.journal_dir, &opts.figure, opts.config, opts.fresh)?;
        Ok(Harness {
            journal,
            deadline: opts.deadline,
            max_failure_rate: opts.max_failure_rate,
            cells_total: 0,
            cells_skipped: 0,
            failures: Vec::new(),
            shed: Vec::new(),
            journal_error: None,
        })
    }

    /// Runs (or skips) one measurement cell.
    ///
    /// `f` receives the absolute deadline for this cell (when one is
    /// configured) and returns the cell's metrics. A `None` return means
    /// the cell failed — now or in a previous journaled run — and its
    /// annotation is queued for [`Harness::finish`].
    pub fn cell(
        &mut self,
        key: CellKey,
        f: impl FnOnce(Option<Instant>) -> Result<CellMetrics, QoaError>,
    ) -> Option<CellMetrics> {
        self.cells_total += 1;
        match self.journal.get(&key) {
            Some(CellOutcome::Ok(metrics)) => {
                self.cells_skipped += 1;
                return Some(metrics.clone());
            }
            Some(CellOutcome::Failed { kind, message, .. }) => {
                self.cells_skipped += 1;
                self.failures.push(FailureNote {
                    key,
                    kind: kind.clone(),
                    message: message.clone(),
                });
                return None;
            }
            Some(CellOutcome::Shed { reason }) => {
                self.cells_skipped += 1;
                self.shed.push((key, reason.clone()));
                return None;
            }
            None => {}
        }
        let deadline = self.deadline.map(|d| Instant::now() + d);
        match run_isolated(|| f(deadline)) {
            Ok(metrics) => {
                self.record(key, CellOutcome::Ok(metrics.clone()));
                Some(metrics)
            }
            Err(failure) => {
                let note = FailureNote {
                    key: key.clone(),
                    kind: failure.error.kind().to_string(),
                    message: failure.error.to_string(),
                };
                self.record(
                    key,
                    CellOutcome::Failed {
                        kind: note.kind.clone(),
                        message: note.message.clone(),
                        location: failure.error.location().map(str::to_string),
                    },
                );
                self.failures.push(note);
                None
            }
        }
    }

    fn record(&mut self, key: CellKey, outcome: CellOutcome) {
        if self.journal_error.is_some() {
            return; // already broken; keep measuring, report at the end
        }
        if let Err(e) = self.journal.record(key, outcome) {
            self.journal_error = Some(e);
        }
    }

    /// Runs a batch of cell specs through the supervised parallel
    /// executor and journals every committed outcome, so the figure's
    /// subsequent (sequential) render loop answers each cell from the
    /// journal without re-running anything.
    ///
    /// Specs whose cells the journal already holds are dropped up front —
    /// a resumed sweep only prewarms what is still missing. When `opts`
    /// carries no cell deadline, the harness's own per-cell deadline is
    /// used (which also arms the hung-worker watchdog).
    ///
    /// Outcome mapping into the journal:
    ///
    /// * success → `ok` with the attempt count and breaker state;
    /// * failure (after retries) → `failed`, same metadata;
    /// * shed by the budget gate or an open breaker → `shed` (not a
    ///   failure; excluded from the failure-rate exit gate, rerun with
    ///   `--fresh` to measure);
    /// * lost to a hung worker → `failed` with kind `lost`.
    ///
    /// Returns the scheduler statistics for optional metrics export.
    pub fn prewarm(
        &mut self,
        specs: Vec<SupervisedCell<CellMetrics>>,
        opts: &ExecutorOptions,
    ) -> ExecutorStats {
        let todo: Vec<SupervisedCell<CellMetrics>> =
            specs.into_iter().filter(|s| self.journal.get(&s.key).is_none()).collect();
        let mut exec = opts.clone();
        if exec.cell_deadline.is_none() {
            exec.cell_deadline = self.deadline;
        }
        let (committed, stats) = run_supervised(todo, &exec);
        for cell in committed {
            let breaker = cell.breaker.name().to_string();
            let (outcome, attempts) = match cell.verdict {
                CellVerdict::Ok { value, attempts } => (CellOutcome::Ok(value), attempts),
                CellVerdict::Failed { kind, message, location, attempts } => {
                    (CellOutcome::Failed { kind, message, location }, attempts)
                }
                CellVerdict::Shed { reason } => {
                    (CellOutcome::Shed { reason: reason.name().to_string() }, 0)
                }
                CellVerdict::Lost { attempts } => (
                    CellOutcome::Failed {
                        kind: "lost".to_string(),
                        message: "worker hung past the cell deadline; abandoned by the watchdog"
                            .to_string(),
                        location: None,
                    },
                    attempts,
                ),
            };
            if self.journal_error.is_none() {
                if let Err(e) = self.journal.record_supervised(
                    cell.key,
                    outcome,
                    Supervision { attempts, breaker },
                ) {
                    self.journal_error = Some(e);
                }
            }
        }
        stats
    }

    /// Cells presented so far (run or skipped).
    pub fn cells_total(&self) -> usize {
        self.cells_total
    }

    /// Cells answered from the journal without re-running.
    pub fn cells_skipped(&self) -> usize {
        self.cells_skipped
    }

    /// Failures observed so far (including journaled ones).
    pub fn failures(&self) -> &[FailureNote] {
        &self.failures
    }

    /// Cells the supervised executor shed (budget gate, open breaker).
    pub fn shed(&self) -> &[(CellKey, String)] {
        &self.shed
    }

    /// Prints the failure annotations and returns the process exit code:
    /// `0` when the failure rate is within the threshold, `1` otherwise
    /// (or when the journal itself could not be written).
    pub fn finish(self) -> i32 {
        if let Some(e) = &self.journal_error {
            eprintln!("warning: journal unusable, results not persisted: {e}");
        }
        if !self.failures.is_empty() {
            println!(
                "-- {} of {} cells failed (results above exclude them) --",
                self.failures.len(),
                self.cells_total
            );
            for note in &self.failures {
                println!("  {}: [{}] {}", note.key, note.kind, note.message);
            }
        }
        if !self.shed.is_empty() {
            println!(
                "-- {} of {} cells shed by the supervisor (not failures; rerun with --fresh or a \
                 lighter load to measure them) --",
                self.shed.len(),
                self.cells_total
            );
            for (key, reason) in &self.shed {
                println!("  {key}: shed ({reason})");
            }
        }
        let rate = if self.cells_total == 0 {
            0.0
        } else {
            self.failures.len() as f64 / self.cells_total as f64
        };
        if self.journal_error.is_some() || rate > self.max_failure_rate {
            1
        } else {
            0
        }
    }
}

// ---- typed cell wrappers ---------------------------------------------------

fn metric_i64(m: &CellMetrics, name: &str) -> Option<i64> {
    m.get(name)?.as_i64()
}

fn metric_f64(m: &CellMetrics, name: &str) -> Option<f64> {
    m.get(name)?.as_f64()
}

// ---- shared measurement bodies ---------------------------------------------
//
// Each figure cell exists in two forms — the sequential `*_cell` wrapper
// (journal-resumable, used by the render loop) and the `*_spec` builder
// (a `Send + 'static` closure for the supervised parallel executor). Both
// call the same `measure_*` body, so a cell measures identically no
// matter which path ran it.

/// Per-cell fault injection for supervised prewarm: when set, every cell
/// captures under a chaos plan seeded from `(seed, cell key)` — a pure
/// function of the two, so the plan is identical regardless of which
/// worker runs the cell. Recovered runs produce traces byte-identical to
/// fault-free capture (the differential oracle), which is how the
/// executor's determinism contract is validated under fault load.
#[derive(Debug, Clone, Copy)]
pub struct CellChaos {
    /// Batch chaos seed, mixed with each cell's key.
    pub seed: u64,
    /// Fault-tick horizon in executed bytecodes.
    pub horizon: u64,
    /// Maximum injection points per plan.
    pub points: usize,
}

/// Runs `source` under `rt` into `sink`, plainly or under a seeded
/// per-cell fault plan.
///
/// This is the run primitive behind the spec builders; binaries with
/// bespoke cells use it directly so `--chaos-seed` covers them too. A
/// cell passes the core model that consumes its micro-ops as `sink` (an
/// [`OooFanout`] when several configurations do, a tuple of sinks when
/// several models do) and never materializes a trace. The plan seed
/// depends only on the batch seed and the cell key, so the schedule is
/// identical for any worker count.
pub fn run_cell<S: OpSink + Clone>(
    source: &str,
    rt: &RuntimeConfig,
    chaos: Option<CellChaos>,
    key: &CellKey,
    sink: S,
) -> Result<SinkRun<S>, QoaError> {
    match chaos {
        None => run_with_sink(source, rt, sink),
        Some(c) => {
            let plan = FaultPlan::seeded(
                cell_seed(c.seed, key),
                c.horizon,
                c.points,
                fault_kinds_for(rt.kind),
            );
            let (run, _outcome) = run_chaos_with_sink(source, rt, &ChaosOptions::new(plan), sink)?;
            Ok(run)
        }
    }
}

fn measure_nursery(
    w: &Workload,
    scale: Scale,
    rt: RuntimeConfig, // nursery already applied
    uarch: &UarchConfig,
    deadline: Option<Instant>,
    chaos: Option<CellChaos>,
    key: &CellKey,
) -> Result<CellMetrics, QoaError> {
    let rt = rt.with_deadline(deadline);
    let (core, vm, ..) = run_cell(&w.source(scale), &rt, chaos, key, OooCore::new(uarch))?;
    let stats = core.finish();
    let mut m = CellMetrics::new();
    m.insert("cycles".into(), Metric::Int(stats.cycles as i64));
    m.insert(
        "gc_cycles".into(),
        Metric::Int(
            (stats.cycles_by_phase[Phase::GcMinor] + stats.cycles_by_phase[Phase::GcMajor]) as i64,
        ),
    );
    m.insert("llc_miss_rate".into(), Metric::Num(stats.llc.miss_rate()));
    m.insert("minor_collections".into(), Metric::Int(vm.gc.minor_collections as i64));
    Ok(m)
}

fn measure_breakdown(
    w: &Workload,
    scale: Scale,
    rt: RuntimeConfig,
    uarch: &UarchConfig,
    deadline: Option<Instant>,
    chaos: Option<CellChaos>,
    key: &CellKey,
) -> Result<CellMetrics, QoaError> {
    let rt = rt.with_deadline(deadline);
    let (core, ..) = run_cell(&w.source(scale), &rt, chaos, key, SimpleCore::new(uarch))?;
    let b = Breakdown::from_stats(w.name, &core.finish());
    let mut m = CellMetrics::new();
    m.insert("cycles".into(), Metric::Int(b.cycles as i64));
    m.insert("instructions".into(), Metric::Int(b.instructions as i64));
    for c in Category::ALL {
        m.insert(format!("share.{c:?}"), Metric::Num(b.shares[c]));
    }
    Ok(m)
}

/// The journal metrics of one (workload, run-time) pair's six sweep
/// cells, in [`SweepParam::ALL`] order.
pub type SweepPairMetrics = Vec<CellMetrics>;

/// Runs `w` under `rt` once, streaming it into an [`OooFanout`] over the
/// pair's 36 sweep configurations, and flattens each parameter's points
/// into its cell's journal metrics.
fn measure_sweep_pair(
    w: &Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    base: &UarchConfig,
    deadline: Option<Instant>,
    chaos: Option<CellChaos>,
    key: &CellKey,
) -> Result<SweepPairMetrics, QoaError> {
    let rt = rt.with_deadline(deadline);
    let fan = OooFanout::new(&pair_configs(base));
    let (fan, ..) = run_cell(&w.source(scale), &rt, chaos, key, fan)?;
    let mut lanes = fan.finish().into_iter();
    let pair = SweepParam::ALL.iter().map(|&param| {
        let mut m = CellMetrics::new();
        for p in sweep_points(param, lanes.by_ref()) {
            m.insert(format!("cpi@{}", p.value), Metric::Num(p.cpi));
            m.insert(format!("interp@{}", p.value), Metric::Num(p.phase_cpi[Phase::Interpreter]));
            m.insert(
                format!("gc@{}", p.value),
                Metric::Num(p.phase_cpi[Phase::GcMinor] + p.phase_cpi[Phase::GcMajor]),
            );
            m.insert(format!("jit@{}", p.value), Metric::Num(p.phase_cpi[Phase::JitCode]));
        }
        m
    });
    Ok(pair.collect())
}

/// One sweep cell's metrics from its pair's `slot`: the first cell to
/// find the slot empty fills it through `measure`; on error the slot
/// stays empty, so the next sibling measures again.
fn pair_cell(
    slot: &mut Option<SweepPairMetrics>,
    param: SweepParam,
    measure: impl FnOnce() -> Result<SweepPairMetrics, QoaError>,
) -> Result<CellMetrics, QoaError> {
    let pair = match slot {
        Some(pair) => pair,
        None => slot.insert(measure()?),
    };
    let index = SweepParam::ALL.iter().position(|&p| p == param).expect("a sweep parameter");
    Ok(pair[index].clone())
}

/// One journaled nursery-sweep point: the [`NurseryPoint`]
/// (crate::sweeps::NurseryPoint) fields the figure binaries consume.
#[derive(Debug, Clone, PartialEq)]
pub struct NurseryCell {
    /// Nursery size in bytes.
    pub nursery: u64,
    /// Total cycles on the OOO core.
    pub cycles: u64,
    /// Cycles spent in garbage collection.
    pub gc_cycles: u64,
    /// LLC miss rate.
    pub llc_miss_rate: f64,
    /// Minor collections run.
    pub minor_collections: u64,
}

impl NurseryCell {
    /// Cycles outside garbage collection. Saturating: a journaled cell
    /// written by a run that faulted between metric updates can carry
    /// `gc_cycles > cycles`, and a report row must print as n/a rather
    /// than take down the whole figure on underflow.
    pub fn non_gc_cycles(&self) -> u64 {
        self.cycles.saturating_sub(self.gc_cycles)
    }

    /// GC share of total time.
    pub fn gc_share(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.gc_cycles as f64 / self.cycles as f64
        }
    }

    fn from_metrics(nursery: u64, m: &CellMetrics) -> Option<Self> {
        Some(NurseryCell {
            nursery,
            cycles: metric_i64(m, "cycles")? as u64,
            gc_cycles: metric_i64(m, "gc_cycles")? as u64,
            llc_miss_rate: metric_f64(m, "llc_miss_rate")?,
            minor_collections: metric_i64(m, "minor_collections")? as u64,
        })
    }
}

/// Runs (or resumes) one nursery point of `w` under `rt`.
///
/// `tag` disambiguates cells measured under non-default hardware (e.g.
/// `"@llc=4MB"` when the figure sweeps the LLC size too); pass `""` for
/// the baseline configuration.
pub fn nursery_cell(
    h: &mut Harness,
    w: &Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    uarch: &UarchConfig,
    nursery: u64,
    tag: &str,
) -> Option<NurseryCell> {
    let key = CellKey::new(
        w.name,
        format!("{:?}", rt.kind),
        format!("nursery{tag}"),
        nursery.to_string(),
    );
    let mkey = key.clone();
    let metrics = h.cell(key, |deadline| {
        measure_nursery(w, scale, rt.with_nursery(nursery), uarch, deadline, None, &mkey)
    })?;
    NurseryCell::from_metrics(nursery, &metrics)
}

/// The parallel-executor form of [`nursery_cell`]: the same key and the
/// same measurement body, packaged as a supervised cell spec for
/// [`Harness::prewarm`].
pub fn nursery_spec(
    w: &'static Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    uarch: &UarchConfig,
    nursery: u64,
    tag: &str,
    chaos: Option<CellChaos>,
) -> SupervisedCell<CellMetrics> {
    let key = CellKey::new(
        w.name,
        format!("{:?}", rt.kind),
        format!("nursery{tag}"),
        nursery.to_string(),
    );
    let rt = rt.with_nursery(nursery);
    let uarch = uarch.clone();
    let mkey = key.clone();
    SupervisedCell::new(key, move |deadline| {
        measure_nursery(w, scale, rt, &uarch, deadline, chaos, &mkey)
    })
}

/// Runs (or resumes) a whole nursery sweep, one isolated cell per size.
/// Failed points come back as `None` without aborting their siblings.
pub fn nursery_cells(
    h: &mut Harness,
    w: &Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    uarch: &UarchConfig,
    sizes: &[u64],
) -> Vec<Option<NurseryCell>> {
    sizes.iter().map(|&n| nursery_cell(h, w, scale, rt, uarch, n, "")).collect()
}

/// [`nursery_cells`] under non-default hardware, keyed with `tag`.
pub fn nursery_cells_tagged(
    h: &mut Harness,
    w: &Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    uarch: &UarchConfig,
    sizes: &[u64],
    tag: &str,
) -> Vec<Option<NurseryCell>> {
    sizes.iter().map(|&n| nursery_cell(h, w, scale, rt, uarch, n, tag)).collect()
}

/// Picks the lowest-cycle successful point of a fault-isolated sweep.
pub fn best_nursery_cell(points: &[Option<NurseryCell>]) -> Option<&NurseryCell> {
    points.iter().flatten().min_by_key(|p| p.cycles)
}

/// Runs (or resumes) one simple-core attribution cell.
pub fn breakdown_cell(
    h: &mut Harness,
    w: &Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    uarch: &UarchConfig,
) -> Option<Breakdown> {
    let key = CellKey::new(w.name, format!("{:?}", rt.kind), "attribution", "simple-core");
    let mkey = key.clone();
    let metrics = h.cell(key, |deadline| {
        measure_breakdown(w, scale, *rt, uarch, deadline, None, &mkey)
    })?;
    let shares = CategoryMap::from_fn(|c| {
        metric_f64(&metrics, &format!("share.{c:?}")).unwrap_or(0.0)
    });
    Some(Breakdown {
        name: w.name.to_string(),
        shares,
        cycles: metric_i64(&metrics, "cycles")? as u64,
        instructions: metric_i64(&metrics, "instructions")? as u64,
    })
}

/// The parallel-executor form of [`breakdown_cell`].
pub fn breakdown_spec(
    w: &'static Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    uarch: &UarchConfig,
    chaos: Option<CellChaos>,
) -> SupervisedCell<CellMetrics> {
    let key = CellKey::new(w.name, format!("{:?}", rt.kind), "attribution", "simple-core");
    let rt = *rt;
    let uarch = uarch.clone();
    let mkey = key.clone();
    SupervisedCell::new(key, move |deadline| {
        measure_breakdown(w, scale, rt, &uarch, deadline, chaos, &mkey)
    })
}

/// One journaled microarchitecture-sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCellPoint {
    /// The raw sweep value.
    pub value: u64,
    /// Overall CPI.
    pub cpi: f64,
    /// Bytecode-interpreter phase CPI contribution.
    pub interp_cpi: f64,
    /// GC (minor + major) phase CPI contribution.
    pub gc_cpi: f64,
    /// JIT-compiled-code phase CPI contribution.
    pub jit_cpi: f64,
}

/// Runs (or resumes) one (workload, runtime, parameter) sweep cell.
///
/// The pair's six cells share one guest run via `pair_slot`: the first
/// cell that actually needs to run streams the pair into all 36 lanes,
/// under its own cell deadline (`--deadline-secs` in the figure
/// binaries), and fills the slot with every cell's metrics;
/// later cells take their entry from it. Fully-journaled cells never
/// touch the slot, so a completed figure re-renders without a single
/// guest execution.
pub fn sweep_param_cell(
    h: &mut Harness,
    w: &Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    base: &UarchConfig,
    param: SweepParam,
    pair_slot: &mut Option<SweepPairMetrics>,
) -> Option<Vec<SweepCellPoint>> {
    let key = CellKey::new(w.name, format!("{:?}", rt.kind), format!("{param:?}"), "sweep");
    let mkey = key.clone();
    let metrics = h.cell(key, |deadline| {
        pair_cell(pair_slot, param, || {
            measure_sweep_pair(w, scale, rt, base, deadline, None, &mkey)
        })
    })?;
    param
        .values()
        .into_iter()
        .map(|value| {
            Some(SweepCellPoint {
                value,
                cpi: metric_f64(&metrics, &format!("cpi@{value}"))?,
                interp_cpi: metric_f64(&metrics, &format!("interp@{value}"))?,
                gc_cpi: metric_f64(&metrics, &format!("gc@{value}"))?,
                jit_cpi: metric_f64(&metrics, &format!("jit@{value}"))?,
            })
        })
        .collect()
}

/// The cross-thread slot shared by the six sweep specs of one
/// (workload, runtime) pair: whichever worker reaches the pair first
/// runs it and stores all six cells' metrics, the other parameters take
/// theirs. The run is deterministic, and recovered chaos runs equal
/// fault-free ones, so the metrics are identical no matter which cell
/// won the race.
pub type SharedPairMetrics = Arc<Mutex<Option<SweepPairMetrics>>>;

/// A fresh, empty [`SharedPairMetrics`] slot.
pub fn shared_trace_cache() -> SharedPairMetrics {
    Arc::new(Mutex::new(None))
}

/// The parallel-executor form of [`sweep_param_cell`]: same key, same
/// measurement, with the pair's run shared through `pair_slot`. The
/// cell that runs the pair does so under its own `chaos` plan (seeded
/// from its own key) and its own deadline.
pub fn sweep_param_spec(
    w: &'static Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    base: &UarchConfig,
    param: SweepParam,
    pair_slot: &SharedPairMetrics,
    chaos: Option<CellChaos>,
) -> SupervisedCell<CellMetrics> {
    let key = CellKey::new(w.name, format!("{:?}", rt.kind), format!("{param:?}"), "sweep");
    let rt = *rt;
    let base = base.clone();
    let slot = Arc::clone(pair_slot);
    let mkey = key.clone();
    SupervisedCell::new(key, move |deadline| {
        // Holding the lock across the run also deduplicates it: sibling
        // params of the same pair wait instead of re-running it.
        let mut slot = slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        pair_cell(&mut slot, param, || {
            measure_sweep_pair(w, scale, &rt, &base, deadline, chaos, &mkey)
        })
    })
}

/// The sweep specs of several (workload, runtime) pairs, one slot per
/// pair, submitted parameter-major: every pair's first parameter, then
/// every pair's second, and so on. The first cell of a pair does the
/// whole pair's work, so this order has N workers run N different
/// pairs, and the later parameters find their slots filled instead of
/// blocking on a sibling's run.
pub fn sweep_specs(
    pairs: &[(&'static Workload, RuntimeConfig)],
    scale: Scale,
    base: &UarchConfig,
    chaos: Option<CellChaos>,
) -> Vec<SupervisedCell<CellMetrics>> {
    let slots: Vec<SharedPairMetrics> = pairs.iter().map(|_| shared_trace_cache()).collect();
    SweepParam::ALL
        .iter()
        .flat_map(|&param| {
            pairs.iter().zip(&slots).map(move |((w, rt), slot)| {
                sweep_param_spec(w, scale, rt, base, param, slot, chaos)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoa_model::RuntimeKind;

    fn tmp_options(tag: &str) -> HarnessOptions {
        let dir = std::env::temp_dir().join(format!("qoa-harness-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = HarnessOptions::new("figtest", "cfg");
        opts.journal_dir = dir;
        opts
    }

    #[test]
    fn failed_cells_do_not_abort_siblings() {
        let opts = tmp_options("siblings");
        let dir = opts.journal_dir.clone();
        let mut h = Harness::open(opts).expect("open");
        let bad = h.cell(CellKey::new("w1", "CPython", "p", "1"), |_| {
            panic!("cell exploded")
        });
        assert!(bad.is_none());
        let good = h.cell(CellKey::new("w2", "CPython", "p", "1"), |_| {
            let mut m = CellMetrics::new();
            m.insert("x".into(), Metric::Int(7));
            Ok(m)
        });
        assert_eq!(metric_i64(&good.expect("runs"), "x"), Some(7));
        assert_eq!(h.failures().len(), 1);
        assert_eq!(h.failures()[0].kind, "panic");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_cells_are_skipped_on_rerun() {
        let opts = tmp_options("skip");
        let dir = opts.journal_dir.clone();
        let key = CellKey::new("w", "CPython", "p", "1");
        {
            let mut h = Harness::open(opts.clone()).expect("open");
            h.cell(key.clone(), |_| {
                let mut m = CellMetrics::new();
                m.insert("x".into(), Metric::Int(1));
                Ok(m)
            });
        }
        let mut h = Harness::open(opts).expect("reopen");
        let ran = std::cell::Cell::new(false);
        let cached = h.cell(key, |_| {
            ran.set(true);
            Ok(CellMetrics::new())
        });
        assert!(!ran.get(), "journaled cell must not re-run");
        assert_eq!(metric_i64(&cached.expect("cached"), "x"), Some(1));
        assert_eq!(h.cells_skipped(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exit_code_reflects_failure_threshold() {
        let opts = tmp_options("exitcode");
        let dir = opts.journal_dir.clone();
        let mut h = Harness::open(opts.clone()).expect("open");
        for i in 0..4 {
            h.cell(CellKey::new("w", "CPython", "p", i.to_string()), |_| Ok(CellMetrics::new()));
        }
        h.cell(CellKey::new("w", "CPython", "p", "bad"), |_| {
            Err(QoaError::FuelExhausted { steps: 1 })
        });
        // 1/5 = 20% <= 25% threshold.
        assert_eq!(h.finish(), 0);
        let _ = std::fs::remove_dir_all(&dir);

        let opts2 = tmp_options("exitcode2");
        let dir2 = opts2.journal_dir.clone();
        let mut h = Harness::open(opts2).expect("open");
        h.cell(CellKey::new("w", "CPython", "p", "bad"), |_| {
            Err(QoaError::FuelExhausted { steps: 1 })
        });
        assert_eq!(h.finish(), 1, "100% failures must exit nonzero");
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn a_failed_pair_run_leaves_the_slot_for_the_next_sibling() {
        let mut slot = None;
        let failed = pair_cell(&mut slot, SweepParam::IssueWidth, || {
            Err(QoaError::DeadlineExceeded { steps: 1 })
        });
        assert!(failed.is_err());
        assert!(slot.is_none(), "a failed run must not fill the slot");
        let pair: SweepPairMetrics = (0..SweepParam::ALL.len())
            .map(|i| CellMetrics::from([("i".to_string(), Metric::Int(i as i64))]))
            .collect();
        let got = pair_cell(&mut slot, SweepParam::CacheSize, || Ok(pair.clone()));
        assert_eq!(got.expect("the retry runs"), pair[2]);
        let got = pair_cell(&mut slot, SweepParam::MemBandwidth, || panic!("slot is filled"));
        assert_eq!(got.expect("taken from the slot"), pair[5]);
    }

    #[test]
    fn nursery_cell_round_trips_through_the_journal() {
        let opts = tmp_options("nursery");
        let dir = opts.journal_dir.clone();
        let w = qoa_workloads::by_name("tuple_gc").expect("workload");
        let rt = RuntimeConfig::new(RuntimeKind::PyPyNoJit);
        let uarch = UarchConfig::skylake();
        let first = {
            let mut h = Harness::open(opts.clone()).expect("open");
            nursery_cell(&mut h, w, Scale::Tiny, &rt, &uarch, 256 << 10, "").expect("runs")
        };
        let mut h = Harness::open(opts).expect("reopen");
        let resumed =
            nursery_cell(&mut h, w, Scale::Tiny, &rt, &uarch, 256 << 10, "").expect("cached");
        assert_eq!(h.cells_skipped(), 1);
        assert_eq!(first, resumed, "journaled point must reproduce exactly");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
