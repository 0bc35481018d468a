//! Running guest programs under the paper's four run-time configurations.

use crate::error::QoaError;
use qoa_analysis::Verified;
use qoa_frontend::CodeObject;
use qoa_jit::{JitConfig, JitStats, PyPyVm};
use qoa_model::{OpSink, RuntimeKind};
use qoa_obs::{ObsConfig, Observability};
use qoa_uarch::TraceBuffer;
use qoa_vm::{HeapMode, StepEvent, Vm, VmConfig, VmError, VmStats};
use std::rc::Rc;

/// Default execution fuel for experiment runs (guards against accidental
/// infinite loops in workload programs).
pub const DEFAULT_FUEL: u64 = 2_000_000_000;

/// A fully specified run-time configuration.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Which of the paper's run-times to model.
    pub kind: RuntimeKind,
    /// Nursery size override for the generational run-times (bytes).
    pub nursery: Option<u64>,
    /// Execution fuel (0 = unlimited).
    pub max_steps: u64,
    /// Wall-clock deadline for the run (`None` = unlimited). The VM
    /// polls this cooperatively every few thousand bytecodes.
    pub deadline: Option<std::time::Instant>,
    /// Simulated live-heap cap in bytes (0 = unlimited).
    pub max_heap_bytes: u64,
    /// Verify bytecode up front and elide the interpreter's dynamic
    /// guards (the default). When false the VM keeps its per-dispatch
    /// guard micro-ops and the verifier is skipped entirely.
    pub elide_checks: bool,
    /// Observability toggle. Disabled by default, which keeps the figure
    /// paths overhead-free: no frame capture, no spans, no sampling.
    pub obs: ObsConfig,
    /// Static optimization level (0 = off, the default). Levels map to
    /// [`qoa_analysis::Passes::for_level`]: 1 enables constant folding +
    /// dead-code elimination, 2 adds global→fast promotion and
    /// superinstruction fusion. Optimized code is always re-verified;
    /// a re-verification failure aborts the run (`QoaError::Verify`).
    pub opt_level: u8,
}

impl RuntimeConfig {
    /// Configuration for `kind` with its default nursery.
    pub fn new(kind: RuntimeKind) -> Self {
        RuntimeConfig {
            kind,
            nursery: None,
            max_steps: DEFAULT_FUEL,
            deadline: None,
            max_heap_bytes: 0,
            elide_checks: true,
            obs: ObsConfig::default(),
            opt_level: 0,
        }
    }

    /// Returns a copy with the nursery size set (ignored by CPython).
    pub fn with_nursery(mut self, bytes: u64) -> Self {
        self.nursery = Some(bytes);
        self
    }

    /// Returns a copy with the wall-clock deadline set (or cleared).
    pub fn with_deadline(mut self, deadline: Option<std::time::Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Returns a copy with the simulated live-heap cap set.
    pub fn with_heap_cap(mut self, bytes: u64) -> Self {
        self.max_heap_bytes = bytes;
        self
    }

    /// Returns a copy with check elision switched on or off.
    pub fn with_check_elision(mut self, on: bool) -> Self {
        self.elide_checks = on;
        self
    }

    /// Returns a copy with the observability configuration set.
    pub fn with_observability(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Returns a copy with the static optimization level set.
    pub fn with_opt_level(mut self, level: u8) -> Self {
        self.opt_level = level;
        self
    }

    pub(crate) fn jit_config(&self, enabled: bool) -> JitConfig {
        let base = if self.kind == RuntimeKind::V8 {
            JitConfig::v8()
        } else {
            JitConfig::default()
        };
        JitConfig {
            enabled,
            nursery_size: self.nursery.unwrap_or(base.nursery_size),
            max_steps: self.max_steps,
            deadline: self.deadline,
            max_heap_bytes: self.max_heap_bytes,
            ..base
        }
    }
}

/// Everything captured from one guest-program run: the micro-op trace
/// (replayable under any hardware configuration) plus run-time statistics.
#[derive(Debug)]
pub struct CapturedRun {
    /// The micro-op stream.
    pub trace: TraceBuffer,
    /// Interpreter/allocator statistics.
    pub vm: VmStats,
    /// JIT statistics (zeroed for CPython).
    pub jit: JitStats,
    /// Captured guest `print` output.
    pub output: Vec<String>,
    /// Rendered value of the workload's `result` global, for verification.
    pub result: Option<String>,
}

/// Runs `source` under `rt`, capturing the full micro-op trace.
///
/// # Errors
///
/// Returns the typed [`QoaError`]: compile error, guest run-time error,
/// or resource cutoff (fuel, deadline, simulated OOM).
pub fn capture(source: &str, rt: &RuntimeConfig) -> Result<CapturedRun, QoaError> {
    run_with_sink(source, rt, trace_sink(rt)).map(CapturedRun::from)
}

/// The empty trace a capture under `rt` records into: frame events are
/// kept only when observability is on.
pub(crate) fn trace_sink(rt: &RuntimeConfig) -> TraceBuffer {
    if rt.obs.enabled {
        TraceBuffer::with_frame_capture()
    } else {
        TraceBuffer::new()
    }
}

impl From<SinkRun<TraceBuffer>> for CapturedRun {
    fn from((trace, vm, jit, output, result): SinkRun<TraceBuffer>) -> Self {
        CapturedRun { trace, vm, jit, output, result }
    }
}

/// Runs `source` under `rt` with wall-clock spans recorded into `obs`
/// for every pipeline stage (parse, compile, verify or optimize,
/// execute) and guest frame events captured in the trace for the
/// sampling profiler.
///
/// The captured trace and statistics are identical to [`capture`] with
/// observability enabled — this entry point only adds the wall spans.
///
/// # Errors
///
/// Returns the typed [`QoaError`]: compile error, guest run-time error,
/// or resource cutoff (fuel, deadline, simulated OOM).
pub fn capture_observed(
    source: &str,
    rt: &RuntimeConfig,
    obs: &mut Observability,
) -> Result<CapturedRun, QoaError> {
    let module = obs
        .wall_span("parse", || qoa_frontend::parse(source))
        .map_err(qoa_frontend::FrontendError::from)?;
    let code = obs
        .wall_span("compile", || qoa_frontend::compile_module(&module))
        .map_err(qoa_frontend::FrontendError::from)?;
    let stage = if rt.opt_level > 0 {
        Some("optimize")
    } else if rt.elide_checks {
        Some("verify")
    } else {
        None
    };
    let prepared = match stage {
        Some(stage) => obs.wall_span(stage, || Prepared::new(code, rt))?,
        None => Prepared::new(code, rt)?,
    };
    obs.wall_span("execute", || prepared.run(rt, TraceBuffer::with_frame_capture()))
        .map(CapturedRun::from)
}

/// Everything a runtime execution yields besides the trace: the sink,
/// VM and JIT statistics, guest stdout, and the `result` global.
pub type SinkRun<S> = (S, VmStats, JitStats, Vec<String>, Option<String>);

/// Runs `source` under `rt` with an arbitrary sink (e.g. a core model
/// directly, when trace memory is a concern).
///
/// A thin wrapper: [`Prepared::compile`], then [`Prepared::run`].
///
/// # Errors
///
/// Returns the typed [`QoaError`]: compile error, guest run-time error,
/// or resource cutoff (fuel, deadline, simulated OOM).
pub fn run_with_sink<S: OpSink>(
    source: &str,
    rt: &RuntimeConfig,
    sink: S,
) -> Result<SinkRun<S>, QoaError> {
    Prepared::compile(source, rt)?.run(rt, sink)
}

/// A program compiled and prepared for one `(opt_level, elide_checks)`
/// pair: the code to load, the verifier's elision token when checks are
/// elided, and the compiler's own output, which chaos load-time probes
/// corrupt copies of.
///
/// One preparation serves any number of runs under any run-time kind,
/// fuel or nursery, as long as the opt level and check elision match —
/// so a caller running one program many ways (the fuzz oracle) compiles
/// and verifies it once. Cloning shares the code.
#[derive(Debug, Clone)]
pub struct Prepared {
    compiled: Rc<CodeObject>,
    code: Rc<CodeObject>,
    verified: Option<Verified<Rc<CodeObject>>>,
    opt_level: u8,
    elide_checks: bool,
}

impl Prepared {
    /// Parses and compiles `source`, then prepares it per `rt`.
    ///
    /// # Errors
    ///
    /// A compile error, or a verification/optimization failure.
    pub fn compile(source: &str, rt: &RuntimeConfig) -> Result<Prepared, QoaError> {
        Prepared::new(qoa_frontend::compile(source)?, rt)
    }

    /// Optimizes (when `opt_level > 0`) and verifies compiled code per
    /// `rt`. Optimized code is *always* re-verified — the [`Verified`]
    /// token is simply dropped when check elision is off.
    ///
    /// # Errors
    ///
    /// A verification or optimization failure.
    pub fn new(compiled: Rc<CodeObject>, rt: &RuntimeConfig) -> Result<Prepared, QoaError> {
        let (code, verified) = if rt.opt_level > 0 {
            let (v, _report) = qoa_analysis::optimize(&compiled, rt.opt_level)?;
            (Rc::clone(v.get()), rt.elide_checks.then_some(v))
        } else {
            let verified =
                if rt.elide_checks { Some(qoa_analysis::verify(&compiled)?) } else { None };
            (Rc::clone(&compiled), verified)
        };
        Ok(Prepared {
            compiled,
            code,
            verified,
            opt_level: rt.opt_level,
            elide_checks: rt.elide_checks,
        })
    }

    /// Runs the prepared code under `rt` into `sink`.
    ///
    /// # Errors
    ///
    /// A guest run-time error or resource cutoff (fuel, deadline,
    /// simulated OOM).
    ///
    /// # Panics
    ///
    /// If `rt` asks for a different opt level or check elision than
    /// this was prepared for.
    pub fn run<S: OpSink>(&self, rt: &RuntimeConfig, sink: S) -> Result<SinkRun<S>, QoaError> {
        let mut machine = self.load(rt, sink);
        machine.run()?;
        Ok(machine.finish())
    }

    /// The compiler's output, before optimization.
    pub(crate) fn compiled(&self) -> &CodeObject {
        &self.compiled
    }

    /// Builds the machine `rt` selects over `sink` with this code loaded.
    pub(crate) fn load<S: OpSink>(&self, rt: &RuntimeConfig, sink: S) -> Machine<S> {
        assert_eq!(
            (rt.opt_level, rt.elide_checks),
            (self.opt_level, self.elide_checks),
            "run configuration differs from the one the code was prepared for"
        );
        Machine::load(&self.code, self.verified.as_ref(), rt, sink)
    }
}

/// A loaded guest machine: the one place that dispatches on
/// [`RuntimeKind`], shared by plain runs and [`crate::chaos`] runs. The
/// whole machine, sink included, is `Clone` when the sink is, which is
/// what a chaos snapshot copies.
#[derive(Clone)]
pub(crate) enum Machine<S: OpSink> {
    /// CPython: the reference-counting interpreter.
    CPython(Box<Vm<S>>),
    /// The PyPy and V8 models: generational heap, optional tracing JIT.
    PyPy(Box<PyPyVm<S>>),
}

impl<S: OpSink> Machine<S> {
    /// Builds the machine `rt` selects over `sink` and loads `code`,
    /// with dispatch guards elided when `verified` is given.
    fn load(
        code: &Rc<CodeObject>,
        verified: Option<&Verified<Rc<CodeObject>>>,
        rt: &RuntimeConfig,
        sink: S,
    ) -> Self {
        match rt.kind {
            RuntimeKind::CPython => {
                let cfg = VmConfig {
                    heap: HeapMode::Rc,
                    max_steps: rt.max_steps,
                    deadline: rt.deadline,
                    max_heap_bytes: rt.max_heap_bytes,
                };
                let mut vm = Vm::new(cfg, sink);
                match verified {
                    Some(v) => vm.load_verified(v),
                    None => vm.load_program(code),
                }
                Machine::CPython(Box::new(vm))
            }
            RuntimeKind::PyPyNoJit | RuntimeKind::PyPyJit | RuntimeKind::V8 => {
                let enabled = rt.kind != RuntimeKind::PyPyNoJit;
                let mut vm = PyPyVm::new(rt.jit_config(enabled), sink);
                match verified {
                    Some(v) => vm.load_verified(v),
                    None => vm.load_program(code),
                }
                Machine::PyPy(Box::new(vm))
            }
        }
    }

    /// The underlying interpreter (chaos arming, fault records).
    pub(crate) fn vm_mut(&mut self) -> &mut Vm<S> {
        match self {
            Machine::CPython(vm) => vm,
            Machine::PyPy(p) => &mut p.vm,
        }
    }

    /// Bytecodes executed so far.
    pub(crate) fn steps(&self) -> u64 {
        match self {
            Machine::CPython(vm) => vm.steps(),
            Machine::PyPy(p) => p.steps(),
        }
    }

    /// Runs the program to completion.
    fn run(&mut self) -> Result<(), VmError> {
        match self {
            Machine::CPython(vm) => vm.run(),
            Machine::PyPy(p) => p.run(),
        }
    }

    /// Executes one driver step; `Ok(true)` when the program finished.
    pub(crate) fn step(&mut self) -> Result<bool, VmError> {
        match self {
            Machine::CPython(vm) => Ok(matches!(vm.step()?, StepEvent::Done)),
            Machine::PyPy(p) => p.step_driver(),
        }
    }

    /// Consumes the finished machine into what the run yields.
    pub(crate) fn finish(self) -> SinkRun<S> {
        let (mut vm, jit) = match self {
            Machine::CPython(vm) => (*vm, JitStats::default()),
            Machine::PyPy(p) => {
                let jit = p.jit_stats();
                (p.vm, jit)
            }
        };
        let result = vm.global_display("result");
        let output = vm.output().to_vec();
        let stats = vm.stats();
        let (sink, _) = vm.finish();
        (sink, stats, jit, output, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "total = 0\nfor i in range(500):\n    total = total + i\nresult = total\n";

    #[test]
    fn all_runtimes_capture_and_agree() {
        let mut results = Vec::new();
        for kind in RuntimeKind::ALL {
            let run = capture(SRC, &RuntimeConfig::new(kind)).expect("runs");
            assert!(!run.trace.is_empty(), "{kind}: empty trace");
            results.push(run.result.expect("result"));
        }
        results.dedup();
        assert_eq!(results.len(), 1, "runtimes disagree: {results:?}");
    }

    #[test]
    fn guarded_and_elided_paths_agree() {
        let elided = capture(SRC, &RuntimeConfig::new(RuntimeKind::CPython)).expect("runs");
        let guarded = capture(
            SRC,
            &RuntimeConfig::new(RuntimeKind::CPython).with_check_elision(false),
        )
        .expect("runs");
        assert_eq!(elided.result, guarded.result);
        assert!(
            guarded.trace.len() > elided.trace.len(),
            "guards emit extra micro-ops: guarded {} vs elided {}",
            guarded.trace.len(),
            elided.trace.len()
        );
    }

    #[test]
    fn opt_levels_agree_and_shrink_dispatch() {
        let base = RuntimeConfig::new(RuntimeKind::CPython);
        let plain = capture(SRC, &base).expect("runs");
        for level in 1..=qoa_analysis::MAX_OPT_LEVEL {
            let opt = capture(SRC, &base.with_opt_level(level)).expect("runs");
            assert_eq!(opt.result, plain.result, "level {level} result");
            assert_eq!(opt.output, plain.output, "level {level} output");
            assert!(
                opt.vm.bytecodes <= plain.vm.bytecodes,
                "level {level}: {} > {} bytecodes",
                opt.vm.bytecodes,
                plain.vm.bytecodes
            );
        }
        // Level 2 promotes + fuses the module loop, so it must strictly
        // reduce executed bytecodes (dispatches).
        let l2 = capture(SRC, &base.with_opt_level(2)).expect("runs");
        assert!(l2.vm.bytecodes < plain.vm.bytecodes);
    }

    #[test]
    fn jit_runtimes_report_jit_stats() {
        let hot = "t = 0\nfor i in range(3000):\n    t = t + i\nresult = t\n";
        let run = capture(hot, &RuntimeConfig::new(RuntimeKind::PyPyJit)).expect("runs");
        assert!(run.jit.traces_compiled > 0);
        let run = capture(hot, &RuntimeConfig::new(RuntimeKind::PyPyNoJit)).expect("runs");
        assert_eq!(run.jit.traces_compiled, 0);
    }

    #[test]
    fn nursery_override_is_honored() {
        let alloc_heavy =
            "xs = []\nfor i in range(30000):\n    xs.append((i, i))\n    if len(xs) > 64:\n        xs.pop(0)\nresult = len(xs)\n";
        let small = capture(
            alloc_heavy,
            &RuntimeConfig::new(RuntimeKind::PyPyNoJit).with_nursery(256 << 10),
        )
        .expect("runs");
        let big = capture(
            alloc_heavy,
            &RuntimeConfig::new(RuntimeKind::PyPyNoJit).with_nursery(64 << 20),
        )
        .expect("runs");
        assert!(
            small.vm.gc.minor_collections > big.vm.gc.minor_collections,
            "small {:?} vs big {:?}",
            small.vm.gc,
            big.vm.gc
        );
    }
}
