//! Dynamic instruction traces.
//!
//! The timing simulator in `mg-uarch` is trace-driven: a functional pass
//! produces the committed-path instruction stream with memory addresses and
//! branch outcomes, and the cycle-level model replays it against pipeline
//! and memory-system resources. This is the standard substitution for the
//! paper's execution-driven SimpleScalar setup (see `DESIGN.md` §2).

use mg_isa::exec::{step, BrRec, CpuState, ExecError, MemRef};
use mg_isa::wire::{Reader, Wire, WireError, Writer};
use mg_isa::{HandleCatalog, Memory, Program};

/// One committed-path fetched instruction (a singleton or a whole handle).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynOp {
    /// Static instruction index into the traced program.
    pub sidx: u32,
    /// The (single) memory reference, if any.
    pub mem: Option<MemRef>,
    /// The control transfer, if any.
    pub br: Option<BrRec>,
}

/// A committed-path dynamic trace.
///
/// Storage is a boxed slice, not a `Vec`: traces are immutable once
/// recorded and replayed op-by-op in the simulator's hottest loop, so the
/// representation drops the spare-capacity word and guarantees the exact
/// allocation survives from recording to replay.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The dynamic operations in commit order.
    pub ops: Box<[DynOp]>,
    /// Total original program instructions represented (handles count as
    /// their template length) — the numerator for IPC.
    pub insts: u64,
}

impl Trace {
    /// Number of fetched (dynamic) operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operation at `idx` (trace replay's inner-loop accessor).
    #[inline]
    pub fn op(&self, idx: usize) -> &DynOp {
        &self.ops[idx]
    }
}

impl DynOp {
    /// Bytes of this op's wire encoding: the `u32` static index, then
    /// each `Option` as a tag byte plus, when present, a [`MemRef`]
    /// (address, width, store flag) or a [`BrRec`] (taken flag, target).
    #[inline]
    fn wire_len(&self) -> usize {
        4 + self.mem.map_or(1, |_| 1 + 8 + 1 + 1) + self.br.map_or(1, |_| 1 + 1 + 8)
    }
}

impl Wire for DynOp {
    #[inline]
    fn put(&self, w: &mut Writer) {
        w.u32(self.sidx);
        self.mem.put(w);
        self.br.put(w);
    }
    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DynOp { sidx: r.u32()?, mem: Wire::take(r)?, br: Wire::take(r)? })
    }
}

/// Byte serialization for the persistent artifact cache
/// (`mg-harness::prep_cache`): a length-prefixed op sequence followed by
/// the represented-instruction count. Cached traces are *prefixes* of the
/// committed path — the recording budget is part of the cache key, so a
/// quick-mode prefix is never confused with a full-length trace.
impl Wire for Trace {
    fn put(&self, w: &mut Writer) {
        let len = 8 + self.ops.iter().map(DynOp::wire_len).sum::<usize>() + 8;
        w.reserve(len);
        let start = w.len();
        w.u64(self.ops.len() as u64);
        for op in self.ops.iter() {
            op.put(w);
        }
        w.u64(self.insts);
        debug_assert_eq!(w.len() - start, len, "DynOp::wire_len matches the encoding");
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len()?;
        let mut ops = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            ops.push(DynOp::take(r)?);
        }
        Ok(Trace { ops: ops.into_boxed_slice(), insts: r.u64()? })
    }
}

/// Upper bound on the up-front `record_trace` reservation, in ops
/// (callers routinely pass huge step budgets as `max_ops`; reserving
/// beyond this would waste address space, and doubling takes over
/// harmlessly for genuinely longer traces).
const TRACE_RESERVE_CAP: u64 = 1 << 20;

/// Functionally executes `prog` to halt, recording the dynamic trace.
///
/// `max_ops` bounds the trace length; execution stops early (without error)
/// once the bound is reached, which is how long-running workloads are
/// sampled for timing simulation.
///
/// # Errors
///
/// Propagates functional-execution errors ([`ExecError`]).
pub fn record_trace(
    prog: &Program,
    mem: &mut Memory,
    catalog: Option<&HandleCatalog>,
    max_ops: u64,
) -> Result<Trace, ExecError> {
    let mut cpu = CpuState::new(prog.entry);
    let mut ops: Vec<DynOp> = Vec::with_capacity(max_ops.min(TRACE_RESERVE_CAP) as usize);
    let mut insts = 0u64;
    while (ops.len() as u64) < max_ops {
        let pc = cpu.pc;
        let info = step(prog, &mut cpu, mem, catalog)?;
        // Rewriter padding is squashed at fetch: it occupies code space (the
        // byte addresses of surviving instructions already reflect that) but
        // never enters the pipeline.
        if prog.insts[pc].op != mg_isa::Opcode::Pad {
            ops.push(DynOp { sidx: pc as u32, mem: info.mem, br: info.br });
        }
        insts += info.represents as u64;
        if info.halted {
            break;
        }
    }
    Ok(Trace { ops: ops.into_boxed_slice(), insts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_isa::{reg, Asm};

    #[test]
    fn trace_records_memory_and_branches() {
        let mut a = Asm::new();
        a.li(reg(1), 0x4000); // 0
        a.li(reg(2), 2); // 1
        a.label("top");
        a.stq(reg(2), 0, reg(1)); // 2
        a.ldq(reg(3), 0, reg(1)); // 3
        a.subq(reg(2), 1, reg(2)); // 4
        a.bne(reg(2), "top"); // 5
        a.halt(); // 6
        let p = a.finish().unwrap();
        let t = record_trace(&p, &mut Memory::new(), None, 1000).unwrap();
        // 2 setup + 2 iterations * 4 + halt.
        assert_eq!(t.len(), 2 + 2 * 4 + 1);
        assert_eq!(t.insts, t.len() as u64, "singletons represent themselves");
        let store = &t.ops[2];
        assert_eq!(store.mem.unwrap().addr, 0x4000);
        assert!(store.mem.unwrap().store);
        let load = &t.ops[3];
        assert!(!load.mem.unwrap().store);
        let b1 = &t.ops[5];
        assert!(b1.br.unwrap().taken);
        let b2 = &t.ops[9];
        assert!(!b2.br.unwrap().taken);
    }

    #[test]
    fn trace_round_trips_through_wire() {
        let mut a = Asm::new();
        a.li(reg(1), 0x4000);
        a.li(reg(2), 3);
        a.label("top");
        a.stq(reg(2), 0, reg(1));
        a.subq(reg(2), 1, reg(2));
        a.bne(reg(2), "top");
        a.halt();
        let p = a.finish().unwrap();
        let t = record_trace(&p, &mut Memory::new(), None, 1000).unwrap();
        let bytes = mg_isa::wire::to_bytes(&t);
        let back: Trace = mg_isa::wire::from_bytes(&bytes).unwrap();
        assert_eq!(back.ops, t.ops);
        assert_eq!(back.insts, t.insts);
        // A truncated file decodes to an error, never a shorter trace.
        assert!(mg_isa::wire::from_bytes::<Trace>(&bytes[..bytes.len() - 3]).is_err());
    }

    /// A hand-built trace touching every encoding branch: loads and
    /// stores of several widths, taken and not-taken branches, a far
    /// target, and a handle op carrying both a memory reference and a
    /// branch.
    fn fixed_trace() -> Trace {
        let ld = |addr, width| Some(MemRef { addr, width, store: false });
        let st = |addr, width| Some(MemRef { addr, width, store: true });
        let br = |taken, target| Some(BrRec { taken, target });
        let op = |sidx, mem, br| DynOp { sidx, mem, br };
        let ops = vec![
            op(0, None, None),
            op(1, ld(0x10_0000, 8), None),
            op(2, st(0x10_0008, 4), None),
            op(3, st(0xfff, 1), None),
            op(4, ld(0x7fff_fffe, 2), None),
            op(5, None, br(true, 1)),
            op(5, None, br(false, 1)),
            op(6, None, br(true, 0xdead_beef)),
            op(7, ld(u64::MAX - 7, 8), br(false, 2)), // a handle: load + branch
            op(u32::MAX, None, None),
        ];
        Trace { ops: ops.into_boxed_slice(), insts: 12 }
    }

    /// The trace codec's bytes are what the artifact cache stores, so
    /// they are pinned: a codec change that moves them must come with a
    /// cache schema bump.
    #[test]
    fn trace_wire_bytes_are_pinned() {
        let t = fixed_trace();
        let bytes = mg_isa::wire::to_bytes(&t);
        assert_eq!(bytes.len(), 8 + t.ops.iter().map(DynOp::wire_len).sum::<usize>() + 8);
        assert_eq!(
            (bytes.len(), mg_isa::wire::fnv1a(&bytes)),
            (TRACE_BYTES_PIN, TRACE_FNV_PIN)
        );
        let back: Trace = mg_isa::wire::from_bytes(&bytes).unwrap();
        assert_eq!((back.ops, back.insts), (t.ops, t.insts));
    }

    /// Every strict prefix of an encoded trace is an error, never a
    /// shorter trace and never a panic.
    #[test]
    fn every_strict_prefix_fails_to_decode() {
        let bytes = mg_isa::wire::to_bytes(&fixed_trace());
        for k in 0..bytes.len() {
            assert!(mg_isa::wire::from_bytes::<Trace>(&bytes[..k]).is_err(), "prefix {k}");
        }
    }

    /// Length and FNV-1a hash of `fixed_trace()`'s encoding.
    const TRACE_BYTES_PIN: usize = 162;
    const TRACE_FNV_PIN: u64 = 0xa574_f109_f9b1_1204;

    #[test]
    fn max_ops_truncates() {
        let mut a = Asm::new();
        a.label("spin");
        a.addq(reg(1), 1, reg(1));
        a.br("spin");
        let p = a.finish().unwrap();
        let t = record_trace(&p, &mut Memory::new(), None, 10).unwrap();
        assert_eq!(t.len(), 10);
    }
}
