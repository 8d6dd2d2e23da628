//! Execution-trace recording.
//!
//! The MTPU timing model is *trace driven*: the functional EVM executes a
//! transaction once and records the dynamic instruction stream (plus frame
//! and storage metadata); the microarchitecture simulator then replays the
//! stream through the pipeline/DB-cache/memory models. This mirrors how the
//! paper drives its RTL with real transaction execution paths.

use crate::opcode::Opcode;
use mtpu_primitives::{Address, B256, U256};

/// How a call frame was entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// Top-level transaction call or `CALL`.
    Call,
    /// `CALLCODE` (callee code, caller storage, explicit value).
    CallCode,
    /// `DELEGATECALL` (callee code, caller storage, inherited caller/value).
    DelegateCall,
    /// `STATICCALL` (no state mutation allowed).
    StaticCall,
    /// `CREATE` / `CREATE2` init-code execution.
    Create,
}

/// Static description of one call frame in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameInfo {
    /// Call depth (0 = top-level).
    pub depth: u16,
    /// How the frame was entered.
    pub kind: CallKind,
    /// The account whose *code* runs in this frame.
    pub code_address: Address,
    /// The account whose *storage* the frame reads and writes.
    pub storage_address: Address,
    /// Identity of the executed bytecode — redundancy detection keys on
    /// this (transactions calling the same contract load the same code).
    pub code_hash: B256,
    /// Bytecode length in bytes (dominates context-load cost, Table 2).
    pub code_len: u32,
    /// Input (calldata) length in bytes.
    pub input_len: u32,
    /// 4-byte entry-function identifier, when the input carries one.
    pub selector: Option<[u8; 4]>,
}

/// One executed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Index into [`TxTrace::frames`].
    pub frame: u32,
    /// Program counter of the instruction.
    pub pc: u32,
    /// Raw opcode byte.
    pub op: u8,
}

impl TraceStep {
    /// Decoded opcode.
    pub fn opcode(&self) -> Opcode {
        Opcode::from_u8(self.op).expect("trace contains only valid opcodes")
    }
}

/// A dynamic storage access (used by the prefetch analysis and the State
/// Buffer model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageAccess {
    /// Index into [`TxTrace::steps`] of the SLOAD/SSTORE.
    pub step: u32,
    /// Storage-owning account.
    pub address: Address,
    /// Slot key.
    pub key: U256,
    /// `true` for SSTORE.
    pub write: bool,
}

/// Complete recorded execution of one transaction.
#[derive(Debug, Clone, Default)]
pub struct TxTrace {
    /// All frames, in creation order; index 0 is the top-level frame.
    pub frames: Vec<FrameInfo>,
    /// The flattened dynamic instruction stream.
    pub steps: Vec<TraceStep>,
    /// Dynamic storage accesses.
    pub storage: Vec<StorageAccess>,
    /// Gas consumed by the transaction.
    pub gas_used: u64,
    /// Whether execution succeeded.
    pub success: bool,
}

impl TxTrace {
    /// Number of executed instructions.
    pub fn instruction_count(&self) -> usize {
        self.steps.len()
    }

    /// The top-level frame, if the trace is nonempty.
    pub fn top_frame(&self) -> Option<&FrameInfo> {
        self.frames.first()
    }

    /// Total bytes of context data loaded: per frame, the contract
    /// bytecode plus input data plus the fixed transaction/block attributes
    /// (paper Table 2's "loaded data").
    pub fn context_bytes_loaded(&self) -> u64 {
        /// Fixed-size context: block header fields + fixed transaction
        /// fields of Table 4 (conservatively 128 bytes).
        const FIXED_CTX: u64 = 128;
        self.frames
            .iter()
            .map(|f| f.code_len as u64 + f.input_len as u64 + FIXED_CTX)
            .sum()
    }
}

/// Observer of a functional execution.
///
/// The interpreter is generic over a `Tracer` so that untraced execution
/// (the common case for state setup) compiles to no-ops.
pub trait Tracer {
    /// A new call frame begins.
    fn frame_start(&mut self, info: FrameInfo) {
        let _ = info;
    }
    /// The current call frame ends (LIFO with `frame_start`).
    fn frame_end(&mut self) {}
    /// An instruction is about to execute.
    fn step(&mut self, pc: usize, op: Opcode) {
        let _ = (pc, op);
    }
    /// Whether this tracer consumes [`Tracer::step`] events. Fused
    /// superinstruction dispatch replays per-constituent steps only when
    /// this is `true` (or telemetry is on), so no-op tracers skip the
    /// replay walk entirely. Trace-consuming tracers keep the default.
    fn wants_steps(&self) -> bool {
        true
    }
    /// A storage slot is read or written.
    fn storage_access(&mut self, address: Address, key: U256, write: bool) {
        let _ = (address, key, write);
    }
}

/// A tracer that records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn wants_steps(&self) -> bool {
        false
    }
}

/// A tracer that records a full [`TxTrace`].
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    trace: TxTrace,
    frame_stack: Vec<u32>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes recording; `gas_used`/`success` are filled by the executor.
    pub fn into_trace(self) -> TxTrace {
        self.trace
    }

    /// Sets the transaction outcome fields.
    pub fn set_outcome(&mut self, gas_used: u64, success: bool) {
        self.trace.gas_used = gas_used;
        self.trace.success = success;
    }
}

impl Tracer for TraceRecorder {
    fn frame_start(&mut self, info: FrameInfo) {
        let idx = self.trace.frames.len() as u32;
        self.trace.frames.push(info);
        self.frame_stack.push(idx);
    }

    fn frame_end(&mut self) {
        self.frame_stack.pop();
    }

    fn step(&mut self, pc: usize, op: Opcode) {
        let frame = *self.frame_stack.last().expect("step outside frame");
        self.trace.steps.push(TraceStep {
            frame,
            pc: pc as u32,
            op: op as u8,
        });
    }

    fn storage_access(&mut self, address: Address, key: U256, write: bool) {
        self.trace.storage.push(StorageAccess {
            step: self.trace.steps.len().saturating_sub(1) as u32,
            address,
            key,
            write,
        });
    }
}

/// A tracer that records only storage accesses — all an admission-time
/// conflict footprint needs. It declines [`Tracer::step`] events, so
/// fused dispatch skips the per-constituent replay, and it keeps no frame
/// or step log. Fused SLOAD sites report their accesses like unfused ones,
/// so the recorded accesses equal [`TxTrace::storage`] of a full
/// [`TraceRecorder`] except for [`StorageAccess::step`], which is always
/// 0 here.
#[derive(Debug, Clone, Default)]
pub(crate) struct StorageRecorder {
    accesses: Vec<StorageAccess>,
}

impl StorageRecorder {
    /// Finishes recording, returning the accesses in execution order.
    pub(crate) fn into_accesses(self) -> Vec<StorageAccess> {
        self.accesses
    }
}

impl Tracer for StorageRecorder {
    fn wants_steps(&self) -> bool {
        false
    }

    fn storage_access(&mut self, address: Address, key: U256, write: bool) {
        self.accesses.push(StorageAccess {
            step: 0,
            address,
            key,
            write,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_tracks_nested_frames() {
        let mut r = TraceRecorder::new();
        let f = |d: u16| FrameInfo {
            depth: d,
            kind: CallKind::Call,
            code_address: Address::from_low_u64(1),
            storage_address: Address::from_low_u64(1),
            code_hash: B256::ZERO,
            code_len: 10,
            input_len: 4,
            selector: None,
        };
        r.frame_start(f(0));
        r.step(0, Opcode::Push1);
        r.frame_start(f(1));
        r.step(5, Opcode::Add);
        r.frame_end();
        r.step(2, Opcode::Stop);
        r.frame_end();
        r.set_outcome(21_000, true);
        let t = r.into_trace();
        assert_eq!(t.frames.len(), 2);
        assert_eq!(t.steps.len(), 3);
        assert_eq!(t.steps[0].frame, 0);
        assert_eq!(t.steps[1].frame, 1);
        assert_eq!(t.steps[2].frame, 0);
        assert_eq!(t.context_bytes_loaded(), 2 * (128 + 14));
        assert!(t.success);
    }
}
