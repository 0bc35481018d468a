//! The chaos runner: deterministic fault injection with mid-run
//! checkpoint/restore recovery.
//!
//! [`run_chaos_with_sink`] runs a workload exactly like
//! [`crate::runtime::run_with_sink`], but with a [`FaultPlan`] armed and
//! the machine driven step by step so it can be snapshotted every
//! `checkpoint_every` bytecodes; [`capture_chaos`] is its trace-capturing
//! form. When an *injected* fault surfaces, the runner restores the most
//! recent [`Snapshot`] — interpreter, heap, JIT driver, *and* the sink
//! (trace or core model) all rewind together — disarms the
//! consumed fault point, and resumes. Because execution is deterministic
//! (the fault clock counts simulated steps, never wall time), the
//! recovered run re-executes the rewound span identically and finishes
//! with a trace **byte-identical** to the fault-free baseline: that is
//! the differential oracle [`oracle_check`] asserts.
//!
//! Organic errors (guest faults, real fuel/deadline/OOM) are *not*
//! recovered — they surface as the same typed [`QoaError`] the plain
//! runner reports.

use crate::error::QoaError;
use crate::journal::{CellMetrics, Metric};
use crate::runtime::{trace_sink, CapturedRun, Machine, Prepared, RuntimeConfig, SinkRun};
use qoa_chaos::{ChaosState, FaultKind, FaultPlan, Snapshot};
use qoa_frontend::CodeObject;
use qoa_model::{OpSink, RuntimeKind};
use qoa_obs::metrics::Registry;
use qoa_uarch::{ExecutionStats, UarchConfig};
use std::collections::BTreeMap;

/// How to run a workload under fault injection.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// The seeded fault schedule.
    pub plan: FaultPlan,
    /// Snapshot cadence in executed bytecodes.
    pub checkpoint_every: u64,
    /// Degrade JIT faults in place (deopt + continue) instead of
    /// recovering them by restore. The run then completes with correct
    /// guest results but a legitimately different trace, so the
    /// differential oracle does not apply.
    pub degrade_jit: bool,
}

impl ChaosOptions {
    /// Options for `plan` with the default checkpoint cadence.
    pub fn new(plan: FaultPlan) -> ChaosOptions {
        ChaosOptions { plan, checkpoint_every: 4096, degrade_jit: false }
    }

    /// Returns a copy with the checkpoint cadence set.
    pub fn with_checkpoint_every(mut self, steps: u64) -> ChaosOptions {
        self.checkpoint_every = steps;
        self
    }

    /// Returns a copy with degrade-in-place JIT recovery enabled.
    pub fn with_degrade_jit(mut self) -> ChaosOptions {
        self.degrade_jit = true;
        self
    }
}

/// What the chaos engine did during one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// Faults injected, by [`FaultKind::name`].
    pub injected: BTreeMap<&'static str, u64>,
    /// Faults recovered (by restore or in place), by kind name.
    pub recoveries: BTreeMap<&'static str, u64>,
    /// Snapshots captured.
    pub checkpoints_written: u64,
    /// Snapshots restored (one per recovered runtime fault).
    pub restores: u64,
    /// Corrupted code objects the verifier rejected (its job).
    pub verifier_caught: u64,
    /// Corrupted code objects the verifier failed to reject. The run
    /// still loads pristine code (preserving the oracle); the miss is
    /// reported so lint coverage can close the gap.
    pub verifier_missed: u64,
}

impl ChaosOutcome {
    /// Total faults injected across all kinds.
    pub fn faults_injected_total(&self) -> u64 {
        self.injected.values().sum()
    }

    /// Total faults recovered across all kinds.
    pub fn recoveries_total(&self) -> u64 {
        self.recoveries.values().sum()
    }

    fn note(&mut self, kind: FaultKind, recovered: bool) {
        *self.injected.entry(kind.name()).or_insert(0) += 1;
        if recovered {
            *self.recoveries.entry(kind.name()).or_insert(0) += 1;
        }
    }

    /// Flattens the counters into journal metrics (the v3 `"chaos"`
    /// object).
    pub fn to_metrics(&self) -> CellMetrics {
        let mut m = CellMetrics::new();
        m.insert(
            "faults_injected_total".into(),
            Metric::Int(self.faults_injected_total() as i64),
        );
        for (kind, n) in &self.injected {
            m.insert(format!("faults_injected_total{{kind=\"{kind}\"}}"), Metric::Int(*n as i64));
        }
        for (kind, n) in &self.recoveries {
            m.insert(format!("recoveries_total{{kind=\"{kind}\"}}"), Metric::Int(*n as i64));
        }
        m.insert("checkpoints_written_total".into(), Metric::Int(self.checkpoints_written as i64));
        m.insert("restores_total".into(), Metric::Int(self.restores as i64));
        m.insert("verifier_caught_total".into(), Metric::Int(self.verifier_caught as i64));
        m.insert("verifier_missed_total".into(), Metric::Int(self.verifier_missed as i64));
        m
    }

    /// Exports the counters into a metrics registry, under the same names
    /// the rest of the stack exposes via Prometheus text exposition.
    pub fn export(&self, reg: &mut Registry) {
        let injected = reg.counter(
            "qoa_chaos_faults_injected_total",
            "Faults injected by the chaos engine",
        );
        reg.add(injected, self.faults_injected_total());
        for (kind, n) in &self.recoveries {
            let id = reg.labeled_counter(
                "qoa_chaos_recoveries_total",
                "Injected faults recovered (restore or in-place)",
                "kind",
                kind,
            );
            reg.add(id, *n);
        }
        if self.recoveries.is_empty() {
            // Register the family even when nothing fired so the
            // exposition always carries the name.
            reg.labeled_counter(
                "qoa_chaos_recoveries_total",
                "Injected faults recovered (restore or in-place)",
                "kind",
                "none",
            );
        }
        let checkpoints = reg.counter(
            "qoa_chaos_checkpoints_written_total",
            "Mid-run machine snapshots captured",
        );
        reg.add(checkpoints, self.checkpoints_written);
        let restores =
            reg.counter("qoa_chaos_restores_total", "Mid-run machine snapshots restored");
        reg.add(restores, self.restores);
    }
}

/// Drives `machine` to completion, checkpointing every `every` bytecodes
/// and recovering injected faults by restore-and-disarm.
fn drive<S: OpSink + Clone>(
    mut machine: Machine<S>,
    every: u64,
    out: &mut ChaosOutcome,
) -> Result<Machine<S>, QoaError> {
    let every = every.max(1);
    let mut snap: Option<Snapshot<Machine<S>>> = None;
    // Every fault point recovered so far. A snapshot captured *before* a
    // fault fired knows nothing of its consumption, so each restore must
    // re-disarm the full set — otherwise two faults inside one checkpoint
    // window re-arm each other and the run livelocks.
    let mut disarmed: Vec<usize> = Vec::new();
    loop {
        // Checkpoint only while unconsumed fault points remain: once the
        // plan is exhausted nothing can trigger a restore, so further
        // snapshots would be pure overhead.
        let pending = machine.vm_mut().chaos_mut().is_some_and(|c| !c.exhausted());
        let due = match &snap {
            None => true,
            Some(s) => machine.steps().saturating_sub(s.steps()) >= every,
        };
        if pending && due {
            snap = Some(Snapshot::capture(machine.steps(), &machine));
            out.checkpoints_written += 1;
        }
        match machine.step() {
            Ok(true) => {
                // Degrade-mode recoveries happened inside the machine;
                // fold them into the counters before the machine is
                // consumed for extraction.
                if let Some(chaos) = machine.vm_mut().chaos_mut() {
                    let n = chaos.in_vm_recoveries();
                    if n > 0 {
                        *out.injected.entry("jit").or_insert(0) += n;
                        *out.recoveries.entry("jit").or_insert(0) += n;
                    }
                }
                return Ok(machine);
            }
            Ok(false) => {}
            Err(e) => match machine.vm_mut().take_injected() {
                Some(rec) => {
                    // A fault can only fire during a step, and a snapshot
                    // is guaranteed before any step with pending faults;
                    // restore() is None only on a version mismatch.
                    let Some(mut restored) = snap.as_ref().and_then(Snapshot::restore) else {
                        return Err(QoaError::Injected { what: rec.kind.name(), steps: rec.tick });
                    };
                    disarmed.push(rec.index);
                    if let Some(chaos) = restored.vm_mut().chaos_mut() {
                        for &i in &disarmed {
                            chaos.disarm(i);
                        }
                    }
                    machine = restored;
                    out.restores += 1;
                    out.note(rec.kind, true);
                }
                None => return Err(QoaError::from(e)),
            },
        }
    }
}

/// Deterministically corrupts a copy of `code` (seeded instruction-arg
/// mutation), modeling a bad bytecode load.
fn corrupt_code(code: &CodeObject, seed: u64) -> CodeObject {
    let mut bad = code.clone();
    if !bad.code.is_empty() {
        let idx = (seed as usize) % bad.code.len();
        // An absurd operand index: out of range for every operand table.
        bad.code[idx].arg ^= 0x00ff_fff0;
    }
    bad
}

/// The fault kinds a run-time can meaningfully absorb: JIT run-times
/// get the full set (including compile faults and trace aborts),
/// interpreter-only run-times the interpreter subset. Seeded plans built
/// for supervised chaos cells use this so a `CPython` cell never wastes
/// injection points on JIT-only faults that can't fire.
pub fn fault_kinds_for(kind: RuntimeKind) -> &'static [FaultKind] {
    if kind.has_jit() {
        &FaultKind::ALL
    } else {
        &FaultKind::INTERP
    }
}

/// Runs `source` under `rt` with the fault plan in `opts` armed,
/// recovering injected faults so that — when the run completes — the
/// captured trace is byte-identical to a fault-free [`capture`].
///
/// A thin [`TraceBuffer`] wrapper over [`run_chaos_with_sink`].
///
/// [`capture`]: crate::runtime::capture
/// [`TraceBuffer`]: qoa_uarch::TraceBuffer
///
/// # Errors
///
/// Returns the typed [`QoaError`] for organic failures (compile, guest,
/// fuel, deadline, OOM); injected faults are recovered, not returned,
/// unless snapshot restore is impossible.
pub fn capture_chaos(
    source: &str,
    rt: &RuntimeConfig,
    opts: &ChaosOptions,
) -> Result<(CapturedRun, ChaosOutcome), QoaError> {
    run_chaos_with_sink(source, rt, opts, trace_sink(rt)).map(|(run, out)| (run.into(), out))
}

/// Runs `source` under `rt` into `sink` with the fault plan in `opts`
/// armed, recovering injected faults by checkpoint/restore.
///
/// Every snapshot clones the whole machine, `sink` included, so a
/// restore rewinds the sink together with the interpreter: a recovered
/// run leaves `sink` exactly as a fault-free [`run_with_sink`] would. A
/// core model as the sink makes each checkpoint a fixed-size copy; a
/// [`TraceBuffer`] makes it grow with the run.
///
/// A thin wrapper: [`Prepared::compile`], then [`Prepared::run_chaos`].
///
/// [`run_with_sink`]: crate::runtime::run_with_sink
/// [`TraceBuffer`]: qoa_uarch::TraceBuffer
///
/// # Errors
///
/// As [`capture_chaos`].
pub fn run_chaos_with_sink<S: OpSink + Clone>(
    source: &str,
    rt: &RuntimeConfig,
    opts: &ChaosOptions,
    sink: S,
) -> Result<(SinkRun<S>, ChaosOutcome), QoaError> {
    Prepared::compile(source, rt)?.run_chaos(rt, opts, sink)
}

impl Prepared {
    /// Runs the prepared code under `rt` into `sink` with the fault plan
    /// in `opts` armed: the chaos form of [`Prepared::run`], recovering
    /// injected faults as [`run_chaos_with_sink`] describes.
    ///
    /// # Errors
    ///
    /// As [`capture_chaos`].
    ///
    /// # Panics
    ///
    /// As [`Prepared::run`].
    pub fn run_chaos<S: OpSink + Clone>(
        &self,
        rt: &RuntimeConfig,
        opts: &ChaosOptions,
        sink: S,
    ) -> Result<(SinkRun<S>, ChaosOutcome), QoaError> {
        let mut out = ChaosOutcome::default();
        let mut chaos = ChaosState::new(opts.plan.clone());
        if opts.degrade_jit {
            chaos = chaos.with_degrade_jit();
        }

        // Load-time faults: present a corrupted code object; the verifier
        // is the recovery path. Whether or not it catches the corruption,
        // the prepared code is what loads — the oracle must hold — but a
        // miss is counted so the verifier's coverage gap is visible. The
        // drill corrupts the pristine compiler output, while the code that
        // actually loads is the optimized form, so the chaos oracle also
        // covers the optimizer.
        let mut corrupt_salt = 0u64;
        while let Some(rec) = chaos.poll_at_load(FaultKind::BytecodeCorrupt) {
            corrupt_salt = corrupt_salt.wrapping_add(1);
            let bad = corrupt_code(self.compiled(), opts.plan.seed.wrapping_add(corrupt_salt));
            match qoa_analysis::verify_code(&bad) {
                Err(_) => out.verifier_caught += 1,
                Ok(_) => out.verifier_missed += 1,
            }
            out.note(rec.kind, true);
            // The injection is fully handled here; don't let it linger as
            // "last injected" into the run.
            let _ = chaos.take_last_injected();
        }

        let mut machine = self.load(rt, sink);
        machine.vm_mut().arm_chaos(chaos);
        let machine = drive(machine, opts.checkpoint_every, &mut out)?;
        Ok((machine.finish(), out))
    }
}

/// The differential oracle: asserts a faulted-then-recovered run is
/// byte-identical to the fault-free baseline. Returns `None` when it
/// holds, or a description of the first divergence.
///
/// "Byte-identical" covers the guest-visible results (value of `result`,
/// printed output), the micro-op trace length, and the full
/// [`ExecutionStats`] of simulating both traces on the same core model —
/// every counter, including per-category and per-phase attribution,
/// compared exactly.
pub fn oracle_check(
    baseline: &CapturedRun,
    recovered: &CapturedRun,
    uarch: &UarchConfig,
) -> Option<String> {
    if baseline.result != recovered.result {
        return Some(format!(
            "guest result diverged: {:?} vs {:?}",
            baseline.result, recovered.result
        ));
    }
    if baseline.output != recovered.output {
        return Some("guest output diverged".to_string());
    }
    if baseline.trace.len() != recovered.trace.len() {
        return Some(format!(
            "micro-op count diverged: {} vs {}",
            baseline.trace.len(),
            recovered.trace.len()
        ));
    }
    let a = baseline.trace.simulate_simple(uarch);
    let b = recovered.trace.simulate_simple(uarch);
    stats_divergence(&a, &b)
}

/// Compares two [`ExecutionStats`] exactly, returning a description of
/// the first differing counter.
pub fn stats_divergence(a: &ExecutionStats, b: &ExecutionStats) -> Option<String> {
    if a == b {
        return None;
    }
    if a.cycles != b.cycles {
        return Some(format!("cycles diverged: {} vs {}", a.cycles, b.cycles));
    }
    if a.instructions != b.instructions {
        return Some(format!("instructions diverged: {} vs {}", a.instructions, b.instructions));
    }
    for (c, &cycles) in a.cycles_by_category.iter() {
        if b.cycles_by_category[c] != cycles {
            return Some(format!(
                "category {c:?} cycles diverged: {} vs {}",
                cycles, b.cycles_by_category[c]
            ));
        }
    }
    Some("cache/branch/phase counters diverged".to_string())
}
