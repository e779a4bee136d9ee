//! Decoded instructions.

use crate::opcode::{OpClass, Opcode};
use crate::reg::Reg;
use std::fmt;

/// The second operand of an operate-format instruction: a register or an
/// immediate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register operand.
    Reg(Reg),
    /// An immediate operand.
    Imm(i64),
}

impl Operand {
    /// The register, if this operand is one.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }

    /// The immediate value, if this operand is one.
    pub fn as_imm(self) -> Option<i64> {
        match self {
            Operand::Reg(_) => None,
            Operand::Imm(i) => Some(i),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(i: i64) -> Operand {
        Operand::Imm(i)
    }
}

impl From<i32> for Operand {
    fn from(i: i32) -> Operand {
        Operand::Imm(i as i64)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "{i}"),
        }
    }
}

/// A decoded instruction.
///
/// All instructions share one uniform layout; which fields are meaningful
/// depends on the opcode's [`OpClass`]:
///
/// | class           | `ra`          | `rb`            | `rc`        | `disp`             |
/// |-----------------|---------------|-----------------|-------------|--------------------|
/// | operate         | source 1      | source 2 / imm  | destination | —                  |
/// | load            | base address  | —               | destination | displacement       |
/// | store           | base address  | data source     | —           | displacement       |
/// | cond. branch    | test source   | —               | —           | target inst index  |
/// | `br`/`bsr`      | —             | —               | return addr | target inst index  |
/// | `jmp`/`jsr`/`ret` | target reg  | —               | return addr | —                  |
/// | `mg` handle     | interface E0  | interface E1    | interface out | MGID             |
///
/// Branch targets are absolute instruction indices (the assembler resolves
/// labels); byte addresses are derived as `base + 4 * index` for the cache
/// models. For `mg` handles whose mini-graph terminates in a branch, `aux`
/// holds the absolute branch-target index of this static instance (in real
/// hardware this displacement lives in the MGT immediate field; templates
/// are still identified by their *relative* displacement — see
/// `mg-core::template`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Inst {
    /// Operation code.
    pub op: Opcode,
    /// First register field (see table above).
    pub ra: Reg,
    /// Second operand (register or immediate).
    pub rb: Operand,
    /// Destination / third register field.
    pub rc: Reg,
    /// Displacement / branch target / MGID.
    pub disp: i64,
    /// Terminal-branch target for `mg` handles; unused otherwise.
    pub aux: i64,
}

impl Inst {
    /// Creates an operate-format instruction: `rc = ra op rb`.
    pub fn op3(op: Opcode, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> Inst {
        debug_assert!(matches!(op.class(), OpClass::IntAlu | OpClass::IntMul));
        Inst { op, ra, rb: rb.into(), rc, disp: 0, aux: 0 }
    }

    /// Creates a load: `rc = MEM[ra + disp]`.
    pub fn load(op: Opcode, rc: Reg, disp: i64, base: Reg) -> Inst {
        debug_assert_eq!(op.class(), OpClass::Load);
        Inst { op, ra: base, rb: Operand::Imm(0), rc, disp, aux: 0 }
    }

    /// Creates a store: `MEM[base + disp] = data`.
    pub fn store(op: Opcode, data: Reg, disp: i64, base: Reg) -> Inst {
        debug_assert_eq!(op.class(), OpClass::Store);
        Inst { op, ra: base, rb: Operand::Reg(data), rc: Reg::ZERO, disp, aux: 0 }
    }

    /// Creates a conditional branch testing `ra` with absolute target
    /// instruction index `target`.
    pub fn branch(op: Opcode, ra: Reg, target: i64) -> Inst {
        debug_assert_eq!(op.class(), OpClass::CondBranch);
        Inst { op, ra, rb: Operand::Imm(0), rc: Reg::ZERO, disp: target, aux: 0 }
    }

    /// Creates a direct unconditional branch; `rc` receives the return
    /// address (use [`Reg::ZERO`] for a plain goto).
    pub fn ubranch(op: Opcode, rc: Reg, target: i64) -> Inst {
        debug_assert_eq!(op.class(), OpClass::UncondBranch);
        Inst { op, ra: Reg::ZERO, rb: Operand::Imm(0), rc, disp: target, aux: 0 }
    }

    /// Creates an indirect jump through `ra`; `rc` receives the return
    /// address (for `jsr`).
    pub fn jump(op: Opcode, ra: Reg, rc: Reg) -> Inst {
        debug_assert_eq!(op.class(), OpClass::Jump);
        Inst { op, ra, rb: Operand::Imm(0), rc, disp: 0, aux: 0 }
    }

    /// Creates a mini-graph handle with interface registers `(e0, e1, out)`
    /// and MGT index `mgid`. `branch_target` is the absolute target index of
    /// the mini-graph's terminal branch, if it has one.
    pub fn handle(e0: Reg, e1: Reg, out: Reg, mgid: u32, branch_target: Option<i64>) -> Inst {
        Inst {
            op: Opcode::Mg,
            ra: e0,
            rb: Operand::Reg(e1),
            rc: out,
            disp: mgid as i64,
            aux: branch_target.unwrap_or(-1),
        }
    }

    /// The terminal-branch target of a handle, if its mini-graph ends in a
    /// control transfer.
    pub fn handle_branch_target(&self) -> Option<usize> {
        (self.op == Opcode::Mg && self.aux >= 0).then_some(self.aux as usize)
    }

    /// Creates a `nop`.
    pub fn nop() -> Inst {
        Inst {
            op: Opcode::Nop,
            ra: Reg::ZERO,
            rb: Operand::Imm(0),
            rc: Reg::ZERO,
            disp: 0,
            aux: 0,
        }
    }

    /// Creates a `pad` (rewriter padding; squashed at fetch, represents no
    /// original instruction).
    pub fn pad() -> Inst {
        Inst {
            op: Opcode::Pad,
            ra: Reg::ZERO,
            rb: Operand::Imm(0),
            rc: Reg::ZERO,
            disp: 0,
            aux: 0,
        }
    }

    /// Creates a `halt`.
    pub fn halt() -> Inst {
        Inst {
            op: Opcode::Halt,
            ra: Reg::ZERO,
            rb: Operand::Imm(0),
            rc: Reg::ZERO,
            disp: 0,
            aux: 0,
        }
    }

    /// Source registers, excluding the zero register.
    ///
    /// At most two entries are ever populated, matching the singleton
    /// interface that the paper's pipeline machinery assumes.
    pub fn src_regs(&self) -> [Option<Reg>; 2] {
        let keep = |r: Reg| (!r.is_zero()).then_some(r);
        match self.op.class() {
            OpClass::IntAlu | OpClass::IntMul => {
                [keep(self.ra), self.rb.as_reg().and_then(keep)]
            }
            OpClass::Load => [keep(self.ra), None],
            OpClass::Store => [keep(self.ra), self.rb.as_reg().and_then(keep)],
            OpClass::CondBranch => [keep(self.ra), None],
            OpClass::UncondBranch => [None, None],
            OpClass::Jump => [keep(self.ra), None],
            OpClass::Handle => [keep(self.ra), self.rb.as_reg().and_then(keep)],
            OpClass::Nop | OpClass::Pad | OpClass::Halt => [None, None],
        }
    }

    /// Destination register, if any (writes to `r31` report `None`).
    pub fn dest_reg(&self) -> Option<Reg> {
        let keep = |r: Reg| (!r.is_zero()).then_some(r);
        match self.op.class() {
            OpClass::IntAlu | OpClass::IntMul | OpClass::Load | OpClass::Handle => {
                keep(self.rc)
            }
            OpClass::UncondBranch | OpClass::Jump => keep(self.rc),
            OpClass::Store
            | OpClass::CondBranch
            | OpClass::Nop
            | OpClass::Pad
            | OpClass::Halt => None,
        }
    }

    /// The MGID, if this is a handle.
    #[inline]
    pub fn mgid(&self) -> Option<u32> {
        (self.op == Opcode::Mg).then_some(self.disp as u32)
    }

    /// Whether this instruction has a statically known control target
    /// (conditional or direct unconditional branch).
    pub fn static_target(&self) -> Option<usize> {
        match self.op.class() {
            OpClass::CondBranch | OpClass::UncondBranch => Some(self.disp as usize),
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.op.mnemonic();
        match self.op.class() {
            OpClass::IntAlu | OpClass::IntMul => {
                write!(f, "{m} {},{},{}", self.ra, self.rb, self.rc)
            }
            OpClass::Load => write!(f, "{m} {},{}({})", self.rc, self.disp, self.ra),
            OpClass::Store => write!(f, "{m} {},{}({})", self.rb, self.disp, self.ra),
            OpClass::CondBranch => write!(f, "{m} {},@{}", self.ra, self.disp),
            OpClass::UncondBranch => {
                if self.rc.is_zero() {
                    write!(f, "{m} @{}", self.disp)
                } else {
                    write!(f, "{m} {},@{}", self.rc, self.disp)
                }
            }
            OpClass::Jump => {
                if self.rc.is_zero() {
                    write!(f, "{m} ({})", self.ra)
                } else {
                    write!(f, "{m} {},({})", self.rc, self.ra)
                }
            }
            OpClass::Handle => {
                write!(f, "{m} {},{},{},{}", self.ra, self.rb, self.rc, self.disp)
            }
            OpClass::Nop | OpClass::Pad | OpClass::Halt => f.write_str(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::reg;

    #[test]
    fn operate_srcs_and_dest() {
        let i = Inst::op3(Opcode::Addl, reg(18), 2i64, reg(18));
        assert_eq!(i.src_regs(), [Some(reg(18)), None]);
        assert_eq!(i.dest_reg(), Some(reg(18)));

        let i = Inst::op3(Opcode::Cmplt, reg(18), reg(5), reg(7));
        assert_eq!(i.src_regs(), [Some(reg(18)), Some(reg(5))]);
        assert_eq!(i.dest_reg(), Some(reg(7)));
    }

    #[test]
    fn zero_register_suppressed() {
        let i = Inst::op3(Opcode::Bis, Reg::ZERO, reg(18), Reg::ZERO);
        assert_eq!(i.src_regs(), [None, Some(reg(18))]);
        assert_eq!(i.dest_reg(), None);
    }

    #[test]
    fn load_store_layout() {
        let ld = Inst::load(Opcode::Ldq, reg(2), 16, reg(4));
        assert_eq!(ld.src_regs(), [Some(reg(4)), None]);
        assert_eq!(ld.dest_reg(), Some(reg(2)));
        assert_eq!(ld.to_string(), "ldq r2,16(r4)");

        let st = Inst::store(Opcode::Stl, reg(3), -8, reg(30));
        assert_eq!(st.src_regs(), [Some(reg(30)), Some(reg(3))]);
        assert_eq!(st.dest_reg(), None);
        assert_eq!(st.to_string(), "stl r3,-8(r30)");
    }

    #[test]
    fn branch_layout() {
        let b = Inst::branch(Opcode::Bne, reg(7), 10);
        assert_eq!(b.src_regs(), [Some(reg(7)), None]);
        assert_eq!(b.dest_reg(), None);
        assert_eq!(b.static_target(), Some(10));
        assert_eq!(b.to_string(), "bne r7,@10");
    }

    #[test]
    fn handle_layout() {
        let h = Inst::handle(reg(18), reg(5), reg(18), 12, Some(42));
        assert_eq!(h.mgid(), Some(12));
        assert_eq!(h.src_regs(), [Some(reg(18)), Some(reg(5))]);
        assert_eq!(h.dest_reg(), Some(reg(18)));
        assert_eq!(h.aux, 42);
        assert_eq!(h.to_string(), "mg r18,r5,r18,12");
    }

    #[test]
    fn display_matches_paper_style() {
        let i = Inst::op3(Opcode::Addl, reg(18), 2i64, reg(18));
        assert_eq!(i.to_string(), "addl r18,2,r18");
        let i = Inst::op3(Opcode::S8addl, reg(7), reg(0), reg(7));
        assert_eq!(i.to_string(), "s8addl r7,r0,r7");
    }
}
