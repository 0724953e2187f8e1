//! Fault injection for the functional DRAM model.
//!
//! Unlike the statistical fault model of `xed-faultsim`, these faults
//! *actually corrupt stored bits*: a fault covers a region of the chip and
//! XORs a deterministic pseudo-random error pattern into every covered
//! word. Permanent faults corrupt data on every read (broken cells);
//! transient faults corrupt the stored value once and are healed when the
//! word is rewritten (e.g. by the controller's scrub-on-correct).

use crate::chip::WordAddr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counter so every constructed fault gets a distinct default
/// corruption pattern (two faults of the same kind must not XOR-cancel
/// through the DIMM parity). Use [`InjectedFault::with_seed`] when a test
/// needs a reproducible pattern.
static NEXT_SEED: AtomicU64 = AtomicU64::new(0x51ED);

fn fresh_seed(tag: u64) -> u64 {
    NEXT_SEED.fetch_add(0x9E37_79B9, Ordering::Relaxed) ^ (tag << 32)
}

/// Persistence of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// One-shot corruption, healed by a subsequent write.
    Transient,
    /// Broken cells: corruption reappears on every read, even after writes.
    Permanent,
}

/// The chip region a fault corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultRegion {
    /// A single bit (0–71, data and check bits alike) of one word.
    Bit {
        /// Word containing the bit.
        addr: WordAddr,
        /// Physical bit index within the 72-bit on-die codeword.
        bit: u32,
    },
    /// One full on-die ECC word.
    Word {
        /// The affected word.
        addr: WordAddr,
    },
    /// A column: the same column index of every row of one bank.
    Column {
        /// Affected bank.
        bank: u32,
        /// Affected column.
        col: u32,
    },
    /// One full row of a bank.
    Row {
        /// Affected bank.
        bank: u32,
        /// Affected row.
        row: u32,
    },
    /// One full bank.
    Bank {
        /// Affected bank.
        bank: u32,
    },
    /// The entire chip.
    Chip,
}

impl FaultRegion {
    /// `true` if the region covers the given word address.
    pub fn covers(&self, a: WordAddr) -> bool {
        match *self {
            FaultRegion::Bit { addr, .. } | FaultRegion::Word { addr } => addr == a,
            FaultRegion::Column { bank, col } => a.bank == bank && a.col == col,
            FaultRegion::Row { bank, row } => a.bank == bank && a.row == row,
            FaultRegion::Bank { bank } => a.bank == bank,
            FaultRegion::Chip => true,
        }
    }
}

/// A fault injected into one chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InjectedFault {
    /// Corrupted region.
    pub region: FaultRegion,
    /// Transient or permanent.
    pub kind: FaultKind,
    /// Seed that determines the (deterministic) corruption pattern.
    pub seed: u64,
}

impl InjectedFault {
    /// A whole-chip fault.
    pub fn chip(kind: FaultKind) -> Self {
        Self {
            region: FaultRegion::Chip,
            kind,
            seed: fresh_seed(0xC41B),
        }
    }

    /// A single-bank fault.
    pub fn bank(bank: u32, kind: FaultKind) -> Self {
        Self {
            region: FaultRegion::Bank { bank },
            kind,
            seed: fresh_seed(0xBA2C),
        }
    }

    /// A single-row fault.
    pub fn row(bank: u32, row: u32, kind: FaultKind) -> Self {
        Self {
            region: FaultRegion::Row { bank, row },
            kind,
            seed: fresh_seed(0x4019),
        }
    }

    /// A single-column fault.
    pub fn column(bank: u32, col: u32, kind: FaultKind) -> Self {
        Self {
            region: FaultRegion::Column { bank, col },
            kind,
            seed: fresh_seed(0xC071),
        }
    }

    /// A single-word fault.
    pub fn word(addr: WordAddr, kind: FaultKind) -> Self {
        Self {
            region: FaultRegion::Word { addr },
            kind,
            seed: fresh_seed(0x3040),
        }
    }

    /// A single-bit fault (bit 0–71 of the on-die codeword).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 72`.
    pub fn bit(addr: WordAddr, bit: u32, kind: FaultKind) -> Self {
        assert!(bit < 72, "bit index {bit} out of range");
        Self {
            region: FaultRegion::Bit { addr, bit },
            kind,
            seed: fresh_seed(0xB17),
        }
    }

    /// Overrides the corruption-pattern seed (patterns are a pure function
    /// of `(seed, address)`).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The deterministic 72-bit corruption pattern of this fault at `addr`,
    /// as `(data_xor, check_xor)`. Zero if the fault does not cover `addr`.
    ///
    /// Multi-bit regions corrupt each covered word with a dense
    /// pseudo-random pattern (roughly half the bits), matching the
    /// "garbage data" behavior of real large-granularity faults.
    pub fn corruption(&self, addr: WordAddr) -> (u64, u8) {
        if !self.region.covers(addr) {
            return (0, 0);
        }
        if let FaultRegion::Bit { bit, .. } = self.region {
            return if bit < 64 {
                (1u64 << (63 - bit), 0)
            } else {
                (0, 1u8 << (71 - bit))
            };
        }
        // splitmix64 over (seed, addr) for a dense, reproducible pattern.
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(addr.key());
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let data = {
            let mut d = next();
            if d == 0 {
                d = 1; // never a silent no-op corruption
            }
            d
        };
        let check = (next() & 0xFF) as u8;
        (data, check)
    }

    /// The corruption pattern projected onto a 40-bit (x4-device)
    /// codeword, as `(data_xor, check_xor)`. For [`FaultRegion::Bit`] the
    /// bit index must be `< 40`.
    ///
    /// # Panics
    ///
    /// Panics for a `Bit` region with `bit >= 40`.
    pub fn corruption40(&self, addr: WordAddr) -> (u32, u8) {
        if !self.region.covers(addr) {
            return (0, 0);
        }
        if let FaultRegion::Bit { bit, .. } = self.region {
            assert!(
                bit < 40,
                "bit index {bit} out of range for a 40-bit codeword"
            );
            return if bit < 32 {
                (1u32 << (31 - bit), 0)
            } else {
                (0, 1u8 << (39 - bit))
            };
        }
        let (d64, check) = self.corruption(addr);
        let mut data = (d64 & 0xFFFF_FFFF) as u32;
        if data == 0 {
            data = (d64 >> 32) as u32 | 1;
        }
        (data, check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(bank: u32, row: u32, col: u32) -> WordAddr {
        WordAddr { bank, row, col }
    }

    #[test]
    fn coverage_by_region() {
        let chip = FaultRegion::Chip;
        assert!(chip.covers(a(3, 7, 9)));
        let bank = FaultRegion::Bank { bank: 2 };
        assert!(bank.covers(a(2, 0, 0)));
        assert!(!bank.covers(a(1, 0, 0)));
        let row = FaultRegion::Row { bank: 1, row: 5 };
        assert!(row.covers(a(1, 5, 99)));
        assert!(!row.covers(a(1, 6, 99)));
        let col = FaultRegion::Column { bank: 0, col: 8 };
        assert!(col.covers(a(0, 55, 8)));
        assert!(!col.covers(a(0, 55, 9)));
        let word = FaultRegion::Word { addr: a(0, 1, 2) };
        assert!(word.covers(a(0, 1, 2)));
        assert!(!word.covers(a(0, 1, 3)));
    }

    #[test]
    fn corruption_deterministic_and_dense() {
        let f = InjectedFault::chip(FaultKind::Permanent);
        let (d1, c1) = f.corruption(a(0, 1, 2));
        let (d2, c2) = f.corruption(a(0, 1, 2));
        assert_eq!((d1, c1), (d2, c2));
        assert_ne!(d1, 0, "large-fault corruption must touch data bits");
        // Different addresses corrupt differently.
        let (d3, _) = f.corruption(a(0, 1, 3));
        assert_ne!(d1, d3);
    }

    #[test]
    fn corruption_outside_region_is_zero() {
        let f = InjectedFault::row(0, 4, FaultKind::Permanent);
        assert_eq!(f.corruption(a(0, 5, 0)), (0, 0));
        assert_ne!(f.corruption(a(0, 4, 0)), (0, 0));
    }

    #[test]
    fn bit_fault_flips_exactly_one_bit() {
        let addr = a(1, 2, 3);
        let f = InjectedFault::bit(addr, 5, FaultKind::Transient);
        let (d, c) = f.corruption(addr);
        assert_eq!(d.count_ones() + c.count_ones(), 1);
        // check-bit fault
        let f = InjectedFault::bit(addr, 70, FaultKind::Transient);
        let (d, c) = f.corruption(addr);
        assert_eq!(d, 0);
        assert_eq!(c.count_ones(), 1);
    }

    #[test]
    #[should_panic]
    fn bit_out_of_range_panics() {
        InjectedFault::bit(a(0, 0, 0), 72, FaultKind::Transient);
    }

    #[test]
    fn with_seed_changes_pattern() {
        let addr = a(0, 0, 0);
        let f1 = InjectedFault::chip(FaultKind::Permanent);
        let f2 = f1.with_seed(12345);
        assert_ne!(f1.corruption(addr), f2.corruption(addr));
    }
}
