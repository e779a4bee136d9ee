//! Opcodes and their pipeline classification.

use std::fmt;

/// The pipeline class of an [`Opcode`].
///
/// Classes determine which functional unit executes an instruction, how the
/// scheduler treats it, and whether it is eligible for inclusion in a
/// mini-graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle integer ALU operation (eligible for ALU pipelines).
    IntAlu,
    /// Multi-cycle integer multiply (excluded from mini-graphs).
    IntMul,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch (may terminate a mini-graph).
    CondBranch,
    /// Direct unconditional branch (`br`, `bsr`).
    UncondBranch,
    /// Indirect jump (`jmp`, `jsr`, `ret`); never part of a mini-graph.
    Jump,
    /// Mini-graph handle / DISE codeword (`mg`).
    Handle,
    /// No-operation.
    Nop,
    /// Rewriter padding: a nop that occupies instruction-cache space but is
    /// squashed at fetch and consumes no pipeline bandwidth (paper §6.2:
    /// interior instructions are replaced with nops purely to neutralize
    /// the code-compression effect).
    Pad,
    /// Program termination.
    Halt,
}

impl OpClass {
    /// Whether instructions of this class reference memory.
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Whether instructions of this class transfer control.
    pub fn is_control(self) -> bool {
        matches!(self, OpClass::CondBranch | OpClass::UncondBranch | OpClass::Jump)
    }
}

macro_rules! opcodes {
    ($( $variant:ident => ($mnem:literal, $class:ident, $lat:literal) ),+ $(,)?) => {
        /// An operation code.
        ///
        /// The set mirrors the integer portion of the Alpha AXP ISA that the
        /// paper's examples and workloads exercise, plus the reserved `mg`
        /// handle opcode. Floating-point is omitted: every benchmark suite in
        /// the paper's evaluation (SPECint, MediaBench, CommBench, MiBench)
        /// is integer-dominated and our workload kernels are integer-only.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum Opcode {
            $(
                #[doc = concat!("`", $mnem, "`")]
                $variant,
            )+
        }

        impl Opcode {
            /// All opcodes, in declaration order.
            pub const ALL: &'static [Opcode] = &[ $(Opcode::$variant),+ ];

            /// The assembler mnemonic.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $(Opcode::$variant => $mnem,)+
                }
            }

            /// Parses a mnemonic.
            pub fn from_mnemonic(s: &str) -> Option<Opcode> {
                match s {
                    $($mnem => Some(Opcode::$variant),)+
                    _ => None,
                }
            }

            /// The pipeline class.
            #[inline]
            pub fn class(self) -> OpClass {
                match self {
                    $(Opcode::$variant => OpClass::$class,)+
                }
            }

            /// Nominal execution latency in cycles.
            ///
            /// Memory-class latencies given here are the address-generation
            /// portion only; cache access time is added by the memory
            /// system model.
            pub fn latency(self) -> u32 {
                match self {
                    $(Opcode::$variant => $lat,)+
                }
            }
        }
    };
}

opcodes! {
    // Integer arithmetic (operate format: rc = ra OP rb/imm).
    Addl   => ("addl",   IntAlu, 1),
    Addq   => ("addq",   IntAlu, 1),
    Subl   => ("subl",   IntAlu, 1),
    Subq   => ("subq",   IntAlu, 1),
    S4addl => ("s4addl", IntAlu, 1),
    S8addl => ("s8addl", IntAlu, 1),
    S4addq => ("s4addq", IntAlu, 1),
    S8addq => ("s8addq", IntAlu, 1),
    Lda    => ("lda",    IntAlu, 1),
    Mull   => ("mull",   IntMul, 3),
    Mulq   => ("mulq",   IntMul, 3),
    // Logical.
    And    => ("and",    IntAlu, 1),
    Bis    => ("bis",    IntAlu, 1),
    Xor    => ("xor",    IntAlu, 1),
    Bic    => ("bic",    IntAlu, 1),
    Ornot  => ("ornot",  IntAlu, 1),
    Eqv    => ("eqv",    IntAlu, 1),
    // Shifts.
    Sll    => ("sll",    IntAlu, 1),
    Srl    => ("srl",    IntAlu, 1),
    Sra    => ("sra",    IntAlu, 1),
    // Comparisons (rc = cond ? 1 : 0).
    Cmpeq  => ("cmpeq",  IntAlu, 1),
    Cmplt  => ("cmplt",  IntAlu, 1),
    Cmple  => ("cmple",  IntAlu, 1),
    Cmpult => ("cmpult", IntAlu, 1),
    Cmpule => ("cmpule", IntAlu, 1),
    // Byte manipulation.
    Zapnot => ("zapnot", IntAlu, 1),
    Extbl  => ("extbl",  IntAlu, 1),
    Sextb  => ("sextb",  IntAlu, 1),
    Sextw  => ("sextw",  IntAlu, 1),
    // Loads (rc = MEM[ra + disp]).
    Ldq    => ("ldq",    Load, 1),
    Ldl    => ("ldl",    Load, 1),
    Ldwu   => ("ldwu",   Load, 1),
    Ldbu   => ("ldbu",   Load, 1),
    // Stores (MEM[ra + disp] = rb).
    Stq    => ("stq",    Store, 1),
    Stl    => ("stl",    Store, 1),
    Stw    => ("stw",    Store, 1),
    Stb    => ("stb",    Store, 1),
    // Conditional branches (test ra against zero).
    Beq    => ("beq",    CondBranch, 1),
    Bne    => ("bne",    CondBranch, 1),
    Blt    => ("blt",    CondBranch, 1),
    Ble    => ("ble",    CondBranch, 1),
    Bgt    => ("bgt",    CondBranch, 1),
    Bge    => ("bge",    CondBranch, 1),
    // Unconditional control.
    Br     => ("br",     UncondBranch, 1),
    Bsr    => ("bsr",    UncondBranch, 1),
    Jmp    => ("jmp",    Jump, 1),
    Jsr    => ("jsr",    Jump, 1),
    Ret    => ("ret",    Jump, 1),
    // Special.
    Mg     => ("mg",     Handle, 1),
    Nop    => ("nop",    Nop, 1),
    Pad    => ("pad",    Pad, 1),
    Halt   => ("halt",   Halt, 1),
}

impl Opcode {
    /// Whether this opcode is a single-cycle integer ALU operation, i.e.
    /// eligible to execute on an ALU pipeline stage.
    pub fn is_single_cycle_int(self) -> bool {
        self.class() == OpClass::IntAlu
    }

    /// Whether this opcode may appear *inside* a mini-graph.
    ///
    /// Integer ALU ops, loads, stores, conditional branches and direct
    /// unconditional branches qualify; multiplies (multi-cycle), indirect
    /// jumps, handles, nops and halt do not.
    pub fn is_mini_graph_eligible(self) -> bool {
        matches!(
            self.class(),
            OpClass::IntAlu
                | OpClass::Load
                | OpClass::Store
                | OpClass::CondBranch
                | OpClass::UncondBranch
        ) && !matches!(self, Opcode::Bsr)
    }

    /// Whether this is a load.
    pub fn is_load(self) -> bool {
        self.class() == OpClass::Load
    }

    /// Whether this is a store.
    pub fn is_store(self) -> bool {
        self.class() == OpClass::Store
    }

    /// Whether this transfers control.
    pub fn is_control(self) -> bool {
        self.class().is_control()
    }

    /// Access width in bytes for memory opcodes, `None` otherwise.
    #[inline]
    pub fn mem_width(self) -> Option<u8> {
        match self {
            Opcode::Ldq | Opcode::Stq => Some(8),
            Opcode::Ldl | Opcode::Stl => Some(4),
            Opcode::Ldwu | Opcode::Stw => Some(2),
            Opcode::Ldbu | Opcode::Stb => Some(1),
            _ => None,
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonic_round_trip() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
    }

    #[test]
    fn unknown_mnemonic_rejected() {
        assert_eq!(Opcode::from_mnemonic("fnord"), None);
    }

    #[test]
    fn classes() {
        assert_eq!(Opcode::Addl.class(), OpClass::IntAlu);
        assert_eq!(Opcode::Ldq.class(), OpClass::Load);
        assert_eq!(Opcode::Stb.class(), OpClass::Store);
        assert_eq!(Opcode::Bne.class(), OpClass::CondBranch);
        assert_eq!(Opcode::Ret.class(), OpClass::Jump);
        assert_eq!(Opcode::Mg.class(), OpClass::Handle);
    }

    #[test]
    fn mini_graph_eligibility() {
        assert!(Opcode::Addl.is_mini_graph_eligible());
        assert!(Opcode::Ldq.is_mini_graph_eligible());
        assert!(Opcode::Stq.is_mini_graph_eligible());
        assert!(Opcode::Bne.is_mini_graph_eligible());
        assert!(Opcode::Br.is_mini_graph_eligible());
        assert!(!Opcode::Mull.is_mini_graph_eligible(), "multi-cycle ops excluded");
        assert!(!Opcode::Jmp.is_mini_graph_eligible());
        assert!(!Opcode::Bsr.is_mini_graph_eligible(), "call leaves a live return address");
        assert!(!Opcode::Mg.is_mini_graph_eligible(), "handles never nest");
        assert!(!Opcode::Halt.is_mini_graph_eligible());
    }

    #[test]
    fn mem_widths() {
        assert_eq!(Opcode::Ldq.mem_width(), Some(8));
        assert_eq!(Opcode::Stw.mem_width(), Some(2));
        assert_eq!(Opcode::Addl.mem_width(), None);
    }

    #[test]
    fn multiply_is_multi_cycle() {
        assert!(Opcode::Mull.latency() > 1);
        assert!(!Opcode::Mull.is_single_cycle_int());
        assert!(Opcode::Addq.is_single_cycle_int());
    }
}
