//! The simulated machine-instruction stream.
//!
//! Run-times emit a stream of [`MicroOp`]s — one per modeled machine
//! instruction — into an [`OpSink`]. The micro-op carries a synthetic
//! program counter (a stable address for the *static* instruction inside the
//! interpreter/JIT/native code, exactly like the paper's per-PC Pin
//! statistics), its operational [`OpKind`], its Table II [`Category`], and
//! the execution [`Phase`] it belongs to.

use crate::{Category, Phase};
use std::sync::Arc;

/// A guest-frame lifecycle event, emitted by the run-times alongside the
/// micro-op stream.
///
/// Frame events carry *semantic* information (which guest function is
/// running) that micro-ops deliberately do not. They cost no simulated
/// cycles and no micro-ops; sinks that do not care inherit a no-op hook.
/// The sampling profiler in `qoa-obs` reconstructs guest call stacks from
/// them at replay time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameEvent {
    /// A guest frame was pushed (a function call was entered).
    Push {
        /// The callee's name. Interned per code object — clones are a
        /// reference-count bump, not a string copy. `Arc` (not `Rc`) so
        /// captured traces can be shared across the parallel sweep
        /// executor's worker threads.
        name: Arc<str>,
    },
    /// The current guest frame was popped (the function returned).
    Pop,
    /// Execution moved to a different guest source line.
    ///
    /// Emitted delta-encoded by the run-times: only when the line of the
    /// instruction about to execute differs from the previously announced
    /// one, in every cost mode (interpreter and JIT trace alike), so the
    /// sampling profiler can attribute simulated cycles to source lines in
    /// every tier. Like all frame events it costs zero micro-ops and zero
    /// simulated cycles, and is dropped entirely unless the trace buffer
    /// captures frames.
    Line {
        /// 1-based guest source line (0 = synthetic / unknown).
        line: u32,
    },
}

/// A synthetic program-counter value inside a simulated code segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Pc(pub u64);

impl Pc {
    /// The raw simulated address of this static instruction.
    pub fn addr(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Pc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// The operational class of a simulated machine instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Integer ALU operation.
    Alu,
    /// Floating-point operation.
    FpAlu,
    /// Integer multiply.
    Mul,
    /// Integer or floating-point divide.
    Div,
    /// Memory load.
    Load {
        /// Simulated effective address.
        addr: u64,
        /// Access size in bytes.
        size: u8,
    },
    /// Memory store.
    Store {
        /// Simulated effective address.
        addr: u64,
        /// Access size in bytes.
        size: u8,
    },
    /// Conditional or unconditional branch.
    Branch {
        /// Whether the branch was taken.
        taken: bool,
        /// Branch target PC.
        target: Pc,
        /// Whether the target comes from a register/memory (indirect).
        indirect: bool,
    },
    /// Function call.
    Call {
        /// Call target PC.
        target: Pc,
        /// Whether the call goes through a function pointer.
        indirect: bool,
    },
    /// Function return (always indirect via the return address).
    Ret,
}

impl OpKind {
    /// Whether this op accesses data memory.
    pub fn is_memory(self) -> bool {
        matches!(self, OpKind::Load { .. } | OpKind::Store { .. })
    }

    /// Whether this op redirects control flow.
    pub fn is_control(self) -> bool {
        matches!(
            self,
            OpKind::Branch { .. } | OpKind::Call { .. } | OpKind::Ret
        )
    }

    /// Whether the op's control transfer is indirect (BTB-relevant).
    pub fn is_indirect(self) -> bool {
        match self {
            OpKind::Branch { indirect, .. } => indirect,
            OpKind::Call { indirect, .. } => indirect,
            OpKind::Ret => true,
            _ => false,
        }
    }

    /// The data address touched, if any.
    pub fn data_addr(self) -> Option<(u64, u8)> {
        match self {
            OpKind::Load { addr, size } | OpKind::Store { addr, size } => Some((addr, size)),
            _ => None,
        }
    }
}

/// One simulated machine instruction with full attribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroOp {
    /// Synthetic PC of the static instruction that produced this op.
    pub pc: Pc,
    /// Operational class.
    pub kind: OpKind,
    /// Table II attribution label.
    pub category: Category,
    /// Execution phase (interpreter / JIT / GC / native).
    pub phase: Phase,
}

/// Consumer of a micro-op stream.
///
/// Implemented by the cycle-accurate cores in `qoa-uarch` and by cheap
/// counting sinks used in tests. Run-times are generic over the sink so the
/// same execution can be counted, cached-simulated, or discarded.
pub trait OpSink {
    /// Consume one micro-op.
    fn op(&mut self, op: MicroOp);

    /// Called when the run-time switches execution phase. Sinks that keep
    /// per-phase statistics can hook this; the default does nothing.
    fn phase_change(&mut self, _phase: Phase) {}

    /// Called when the run-time pushes or pops a guest frame. Sinks that
    /// reconstruct guest call stacks (e.g. the sampling profiler) hook
    /// this; the default does nothing.
    fn frame_event(&mut self, _event: &FrameEvent) {}
}

/// A sink that counts ops per category and kind but models no timing.
///
/// # Example
///
/// ```
/// use qoa_model::{Category, CountingSink, MicroOp, OpKind, OpSink, Pc, Phase};
///
/// let mut sink = CountingSink::default();
/// sink.op(MicroOp {
///     pc: Pc(0x400000),
///     kind: OpKind::Alu,
///     category: Category::Execute,
///     phase: Phase::Interpreter,
/// });
/// assert_eq!(sink.total(), 1);
/// assert_eq!(sink.by_category[Category::Execute], 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    /// Instruction count per category.
    pub by_category: crate::CategoryMap<u64>,
    /// Instruction count per phase.
    pub by_phase: crate::PhaseMap<u64>,
    /// Total loads.
    pub loads: u64,
    /// Total stores.
    pub stores: u64,
    /// Total control-flow ops.
    pub branches: u64,
    /// Total indirect control-flow ops.
    pub indirect: u64,
}

impl CountingSink {
    /// Creates an empty counting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total instructions observed.
    pub fn total(&self) -> u64 {
        self.by_category.total()
    }
}

impl OpSink for CountingSink {
    fn op(&mut self, op: MicroOp) {
        self.by_category[op.category] += 1;
        self.by_phase[op.phase] += 1;
        match op.kind {
            OpKind::Load { .. } => self.loads += 1,
            OpKind::Store { .. } => self.stores += 1,
            k if k.is_control() => {
                self.branches += 1;
                if k.is_indirect() {
                    self.indirect += 1;
                }
            }
            _ => {}
        }
    }
}

/// A sink that discards everything (for pure-semantics runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl OpSink for NullSink {
    fn op(&mut self, _op: MicroOp) {}
}

impl<S: OpSink + ?Sized> OpSink for &mut S {
    fn op(&mut self, op: MicroOp) {
        (**self).op(op);
    }
    fn phase_change(&mut self, phase: Phase) {
        (**self).phase_change(phase);
    }
    fn frame_event(&mut self, event: &FrameEvent) {
        (**self).frame_event(event);
    }
}

/// Two sinks fed the same stream: every op, phase change and frame event
/// goes to the first, then to the second.
impl<A: OpSink, B: OpSink> OpSink for (A, B) {
    fn op(&mut self, op: MicroOp) {
        self.0.op(op);
        self.1.op(op);
    }
    fn phase_change(&mut self, phase: Phase) {
        self.0.phase_change(phase);
        self.1.phase_change(phase);
    }
    fn frame_event(&mut self, event: &FrameEvent) {
        self.0.frame_event(event);
        self.1.frame_event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_classification() {
        assert!(OpKind::Load { addr: 0, size: 8 }.is_memory());
        assert!(OpKind::Store { addr: 0, size: 8 }.is_memory());
        assert!(!OpKind::Alu.is_memory());
        assert!(OpKind::Ret.is_control());
        assert!(OpKind::Ret.is_indirect());
        assert!(OpKind::Call { target: Pc(0), indirect: true }.is_indirect());
        assert!(!OpKind::Call { target: Pc(0), indirect: false }.is_indirect());
        assert_eq!(
            OpKind::Load { addr: 42, size: 4 }.data_addr(),
            Some((42, 4))
        );
        assert_eq!(OpKind::Alu.data_addr(), None);
    }

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::new();
        let mk = |kind| MicroOp {
            pc: Pc(1),
            kind,
            category: Category::Dispatch,
            phase: Phase::Interpreter,
        };
        s.op(mk(OpKind::Alu));
        s.op(mk(OpKind::Load { addr: 8, size: 8 }));
        s.op(mk(OpKind::Store { addr: 8, size: 8 }));
        s.op(mk(OpKind::Branch {
            taken: true,
            target: Pc(2),
            indirect: true,
        }));
        assert_eq!(s.total(), 4);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.branches, 1);
        assert_eq!(s.indirect, 1);
        assert_eq!(s.by_phase[Phase::Interpreter], 4);
    }

    /// Records every hook it sees, in order.
    #[derive(Default)]
    struct Log(Vec<String>);

    impl OpSink for Log {
        fn op(&mut self, op: MicroOp) {
            self.0.push(format!("op {:?}", op.pc));
        }
        fn phase_change(&mut self, phase: Phase) {
            self.0.push(format!("phase {phase:?}"));
        }
        fn frame_event(&mut self, event: &FrameEvent) {
            self.0.push(format!("frame {event:?}"));
        }
    }

    #[test]
    fn sink_pairs_forward_every_hook_to_both_sinks() {
        let mut pair = (Log::default(), Log::default());
        pair.op(MicroOp {
            pc: Pc(7),
            kind: OpKind::Alu,
            category: Category::Execute,
            phase: Phase::Interpreter,
        });
        pair.phase_change(Phase::GcMinor);
        pair.frame_event(&FrameEvent::Line { line: 3 });
        pair.frame_event(&FrameEvent::Pop);
        let want = ["op Pc(7)", "phase GcMinor", "frame Line { line: 3 }", "frame Pop"];
        assert_eq!(pair.0 .0, want);
        assert_eq!(pair.1 .0, want);
    }
}
