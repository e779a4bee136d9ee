//! Architectural integer registers.

use std::fmt;

/// Number of architectural integer registers.
pub const NUM_REGS: usize = 32;

/// An architectural integer register, `r0` through `r31`.
///
/// Following the Alpha convention, `r31` ([`Reg::ZERO`]) always reads as
/// zero and writes to it are discarded.
///
/// ```
/// use mg_isa::Reg;
/// let r = Reg::new(7);
/// assert_eq!(r.to_string(), "r7");
/// assert!(Reg::ZERO.is_zero());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// The hardwired zero register, `r31`.
    pub const ZERO: Reg = Reg(31);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub const fn new(index: u8) -> Reg {
        assert!((index as usize) < NUM_REGS, "register index out of range");
        Reg(index)
    }

    /// Creates a register from its index, returning `None` if out of range.
    pub fn try_new(index: u8) -> Option<Reg> {
        ((index as usize) < NUM_REGS).then_some(Reg(index))
    }

    /// The register's index, `0..32`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the hardwired zero register `r31`.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 31
    }

    /// Iterates over all 32 architectural registers.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..NUM_REGS as u8).map(Reg)
    }
}

/// Shorthand constructor: `reg(5)` is `Reg::new(5)`.
///
/// # Panics
///
/// Panics if `index >= 32`.
pub const fn reg(index: u8) -> Reg {
    Reg::new(index)
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_identity() {
        assert!(Reg::ZERO.is_zero());
        assert_eq!(Reg::ZERO.index(), 31);
        assert!(!reg(0).is_zero());
    }

    #[test]
    fn display_names() {
        assert_eq!(reg(0).to_string(), "r0");
        assert_eq!(reg(31).to_string(), "r31");
        assert_eq!(format!("{:?}", reg(12)), "r12");
    }

    #[test]
    fn try_new_bounds() {
        assert!(Reg::try_new(31).is_some());
        assert!(Reg::try_new(32).is_none());
    }

    #[test]
    fn all_covers_every_register() {
        let v: Vec<Reg> = Reg::all().collect();
        assert_eq!(v.len(), 32);
        assert_eq!(v[31], Reg::ZERO);
    }

    #[test]
    #[should_panic]
    fn new_out_of_range_panics() {
        let _ = Reg::new(32);
    }
}
