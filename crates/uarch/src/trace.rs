//! Trace capture and replay.
//!
//! Because simulated timing never feeds back into run-time behaviour (just
//! as with Pin+ZSim), a captured micro-op stream can be replayed through
//! any number of configurations — the standard trace-driven simulation
//! methodology. The figure sweeps (Fig. 7–9) no longer need it: they
//! stream each run straight into an [`OooFanout`]. Traces remain for
//! re-delivery, such as frame-event replay into the profiler.

use crate::stats::ExecutionStats;
use crate::{OooFanout, SimpleCore, UarchConfig};
use qoa_model::{FrameEvent, MicroOp, OpSink, Phase};

/// An in-memory micro-op trace.
///
/// Optionally records guest [`FrameEvent`]s alongside the ops (see
/// [`TraceBuffer::with_frame_capture`]); replay interleaves them at the
/// exact op positions where they were observed, so a replay sink sees the
/// same call-stack evolution the live run produced. Frame capture is off
/// by default: the figure paths never pay for it.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    ops: Vec<MicroOp>,
    /// `(op_index, event)`: the event fired just before `ops[op_index]`
    /// (or after the last op when `op_index == ops.len()`).
    frames: Vec<(u64, FrameEvent)>,
    capture_frames: bool,
}

impl TraceBuffer {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trace with pre-reserved capacity.
    pub fn with_capacity(ops: usize) -> Self {
        TraceBuffer { ops: Vec::with_capacity(ops), ..Self::default() }
    }

    /// Creates an empty trace that also records guest frame events.
    pub fn with_frame_capture() -> Self {
        TraceBuffer { capture_frames: true, ..Self::default() }
    }

    /// Number of captured micro-ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The captured ops.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// The captured guest frame events, as `(op_index, event)` pairs.
    /// Empty unless built via [`TraceBuffer::with_frame_capture`].
    pub fn frame_events(&self) -> &[(u64, FrameEvent)] {
        &self.frames
    }

    /// Replays the trace into any sink, re-delivering frame events at the
    /// op positions where they were captured.
    pub fn replay<S: OpSink>(&self, sink: &mut S) {
        let mut phase = None;
        let mut frames = self.frames.iter().peekable();
        for (i, op) in self.ops.iter().enumerate() {
            while frames.peek().is_some_and(|(at, _)| *at as usize <= i) {
                if let Some((_, event)) = frames.next() {
                    sink.frame_event(event);
                }
            }
            if phase != Some(op.phase) {
                phase = Some(op.phase);
                sink.phase_change(op.phase);
            }
            sink.op(*op);
        }
        for (_, event) in frames {
            sink.frame_event(event);
        }
    }

    /// Replays through a fresh [`SimpleCore`] built from `cfg`.
    pub fn simulate_simple(&self, cfg: &UarchConfig) -> ExecutionStats {
        let mut core = SimpleCore::new(cfg);
        self.replay(&mut core);
        core.finish()
    }

    /// Replays through a fresh [`OooCore`](crate::OooCore) built from `cfg`.
    pub fn simulate_ooo(&self, cfg: &UarchConfig) -> ExecutionStats {
        self.simulate_ooo_fanout(std::slice::from_ref(cfg)).pop().expect("one configuration")
    }

    /// Replays once through an [`OooFanout`] over `cfgs`: one
    /// [`ExecutionStats`] per configuration, in order, each equal to what
    /// [`TraceBuffer::simulate_ooo`] returns for it. The OOO core ignores
    /// phase changes and frame events, so the ops alone are fed.
    pub fn simulate_ooo_fanout(&self, cfgs: &[UarchConfig]) -> Vec<ExecutionStats> {
        let mut fan = OooFanout::new(cfgs);
        fan.ops(&self.ops);
        fan.finish()
    }
}

impl OpSink for TraceBuffer {
    fn op(&mut self, op: MicroOp) {
        self.ops.push(op);
    }

    fn phase_change(&mut self, _phase: Phase) {}

    fn frame_event(&mut self, event: &FrameEvent) {
        if self.capture_frames {
            self.frames.push((self.ops.len() as u64, event.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoa_model::{Category, CountingSink, FrameEvent, OpKind, Pc};

    fn sample_trace() -> TraceBuffer {
        let mut t = TraceBuffer::new();
        for i in 0..100u64 {
            t.op(MicroOp {
                pc: Pc(0x400000 + (i % 8) * 4),
                kind: if i % 3 == 0 {
                    OpKind::Load { addr: 0x5_0000_0000 + i * 8, size: 8 }
                } else {
                    OpKind::Alu
                },
                category: Category::Execute,
                phase: if i < 50 { Phase::Interpreter } else { Phase::GcMinor },
            });
        }
        t
    }

    #[test]
    fn capture_then_replay_preserves_counts() {
        let t = sample_trace();
        assert_eq!(t.len(), 100);
        let mut sink = CountingSink::new();
        t.replay(&mut sink);
        assert_eq!(sink.total(), 100);
        assert_eq!(sink.by_phase[Phase::Interpreter], 50);
        assert_eq!(sink.by_phase[Phase::GcMinor], 50);
    }

    #[test]
    fn frame_events_replay_at_their_op_positions() {
        struct Recorder {
            log: Vec<(usize, String)>,
            ops: usize,
        }
        impl OpSink for Recorder {
            fn op(&mut self, _op: MicroOp) {
                self.ops += 1;
            }
            fn frame_event(&mut self, event: &FrameEvent) {
                let label = match event {
                    FrameEvent::Push { name } => format!("push {name}"),
                    FrameEvent::Pop => "pop".to_string(),
                    FrameEvent::Line { line } => format!("line {line}"),
                };
                self.log.push((self.ops, label));
            }
        }

        let mk = |i: u64| MicroOp {
            pc: Pc(0x400000 + i * 4),
            kind: OpKind::Alu,
            category: Category::Execute,
            phase: Phase::Interpreter,
        };
        let mut t = TraceBuffer::with_frame_capture();
        t.frame_event(&FrameEvent::Push { name: "<module>".into() });
        t.op(mk(0));
        t.frame_event(&FrameEvent::Push { name: "f".into() });
        t.op(mk(1));
        t.op(mk(2));
        t.frame_event(&FrameEvent::Pop);
        t.frame_event(&FrameEvent::Pop);
        assert_eq!(t.frame_events().len(), 4);

        let mut r = Recorder { log: Vec::new(), ops: 0 };
        t.replay(&mut r);
        assert_eq!(r.ops, 3);
        assert_eq!(
            r.log,
            vec![
                (0, "push <module>".to_string()),
                (1, "push f".to_string()),
                (3, "pop".to_string()),
                (3, "pop".to_string()),
            ]
        );

        // Default buffers ignore frame events entirely.
        let mut plain = TraceBuffer::new();
        plain.frame_event(&FrameEvent::Pop);
        assert!(plain.frame_events().is_empty());
    }

    #[test]
    fn replay_is_deterministic_across_cores() {
        let t = sample_trace();
        let cfg = UarchConfig::skylake();
        let a = t.simulate_ooo(&cfg);
        let b = t.simulate_ooo(&cfg);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        let s = t.simulate_simple(&cfg);
        assert_eq!(s.instructions, 100);
    }
}
