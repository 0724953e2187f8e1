//! Codewords of 8 check bits: 72-bit (64 data bits) and 40-bit (32).
//!
//! The (72,64) SECDED codes of [`crate::secded`] operate on [`CodeWord72`],
//! matching the paper's assumption of 8 bits of on-die ECC per 64-bit word
//! (Section II-B) and the layout of a 72-bit wide ECC-DIMM beat. The
//! (40,32) code of x4 devices (Section IX) operates on [`CodeWord40`].

use std::fmt;

/// A 72-bit codeword stored as 64 data bits plus 8 check bits.
///
/// The *physical* bit order — the order in which bits are serialized out of
/// a DRAM array onto the bus, and therefore the order over which a "burst
/// error" is contiguous — is most-significant-first: physical bit `i` for
/// `i < 64` is data bit `63 − i`, and physical bit `i` for `i ≥ 64` is check
/// bit `71 − i`. This matches the polynomial-degree order a CRC processes,
/// so a physically contiguous burst is also polynomial-contiguous (the
/// property behind CRC8-ATM's 100% burst detection in Table II).
///
/// ```
/// use xed_ecc::CodeWord72;
///
/// let w = CodeWord72::new(0x1234, 0xAB);
/// assert_eq!(w.data(), 0x1234);
/// assert_eq!(w.check(), 0xAB);
/// assert_eq!(w.bit(0), 0);               // data bit 63
/// assert_eq!(w.bit(64), (0xAB >> 7) & 1); // check bit 7
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CodeWord72 {
    data: u64,
    check: u8,
}

impl CodeWord72 {
    /// Total number of bits in the codeword.
    pub const BITS: u32 = 72;

    /// Creates a codeword from its data and check parts.
    #[inline]
    pub fn new(data: u64, check: u8) -> Self {
        Self { data, check }
    }

    /// The 64 data bits.
    #[inline]
    pub fn data(self) -> u64 {
        self.data
    }

    /// The 8 check bits.
    #[inline]
    pub fn check(self) -> u8 {
        self.check
    }

    /// Reads physical bit `i` (0–71).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 72`.
    #[inline]
    pub fn bit(self, i: u32) -> u8 {
        assert!(i < Self::BITS, "bit index {i} out of range");
        if i < 64 {
            ((self.data >> (63 - i)) & 1) as u8
        } else {
            (self.check >> (71 - i)) & 1
        }
    }

    /// Returns a copy with physical bit `i` flipped.
    ///
    /// The bit index must be below 72; this precondition is checked in
    /// debug builds only, so the decode hot path stays panic-free
    /// (every in-tree caller derives `i` from a syndrome table that
    /// holds valid positions).
    #[inline]
    #[must_use]
    pub fn with_bit_flipped(self, i: u32) -> Self {
        debug_assert!(i < Self::BITS, "bit index {i} out of range");
        let mut w = self;
        if i < 64 {
            w.data ^= 1u64 << (63 - i);
        } else {
            w.check ^= 1u8 << (71 - i);
        }
        w
    }

    /// XORs an error pattern (same layout) into the codeword.
    #[inline]
    #[must_use]
    pub fn with_error(self, error: CodeWord72) -> Self {
        Self {
            data: self.data ^ error.data,
            check: self.check ^ error.check,
        }
    }

    /// Number of set bits (used to weigh error patterns).
    #[inline]
    pub fn weight(self) -> u32 {
        self.data.count_ones() + self.check.count_ones()
    }

    /// Builds an error pattern with the given physical bit positions set.
    ///
    /// # Panics
    ///
    /// Panics if any position is `>= 72`.
    pub fn error_pattern<I: IntoIterator<Item = u32>>(bits: I) -> Self {
        let mut w = Self::default();
        for i in bits {
            w = w.with_bit_flipped(i);
        }
        w
    }
}

impl fmt::Debug for CodeWord72 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CodeWord72 {{ data: {:#018x}, check: {:#04x} }}",
            self.data, self.check
        )
    }
}

impl fmt::Display for CodeWord72 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}|{:02x}", self.data, self.check)
    }
}

/// A 40-bit codeword: 32 data bits plus 8 check bits, physical order
/// MSB-first (data bit `31 − i` at physical `i`, check bit `39 − i` for
/// `i ≥ 32`), matching [`CodeWord72`]'s convention.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CodeWord40 {
    data: u32,
    check: u8,
}

impl CodeWord40 {
    /// Total bits.
    pub const BITS: u32 = 40;

    /// Creates a codeword from its parts.
    #[inline]
    pub fn new(data: u32, check: u8) -> Self {
        Self { data, check }
    }

    /// The 32 data bits.
    #[inline]
    pub fn data(self) -> u32 {
        self.data
    }

    /// The 8 check bits.
    #[inline]
    pub fn check(self) -> u8 {
        self.check
    }

    /// Returns a copy with physical bit `i` flipped.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 40`.
    #[inline]
    #[must_use]
    pub fn with_bit_flipped(self, i: u32) -> Self {
        assert!(i < Self::BITS, "bit index {i} out of range");
        let mut w = self;
        if i < 32 {
            w.data ^= 1u32 << (31 - i);
        } else {
            w.check ^= 1u8 << (39 - i);
        }
        w
    }
}

impl fmt::Debug for CodeWord40 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CodeWord40 {{ data: {:#010x}, check: {:#04x} }}",
            self.data, self.check
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_accessors_cover_data_and_check() {
        let w = CodeWord72::new(u64::MAX, 0);
        // Enumerate positions through iterators rather than bit-counter
        // loops; data bits must all read 1, check bits all 0.
        assert!((0u32..64).all(|i| w.bit(i) == 1));
        assert!((64u32..72).all(|i| w.bit(i) == 0));
    }

    #[test]
    fn flip_is_involution() {
        let w = CodeWord72::new(0x0123_4567_89AB_CDEF, 0x5A);
        assert!((0u32..72)
            .all(|i| w.with_bit_flipped(i).with_bit_flipped(i) == w && w.with_bit_flipped(i) != w));
    }

    #[test]
    fn error_pattern_weight() {
        let e = CodeWord72::error_pattern([0, 5, 63, 64, 71]);
        assert_eq!(e.weight(), 5);
        assert_eq!(e.bit(0), 1);
        assert_eq!(e.bit(63), 1);
        assert_eq!(e.bit(64), 1);
        assert_eq!(e.bit(71), 1);
        assert_eq!(e.bit(1), 0);
    }

    #[test]
    fn with_error_is_xor() {
        let w = CodeWord72::new(0xFF, 0x0F);
        let e = CodeWord72::new(0x0F, 0xFF);
        let r = w.with_error(e);
        assert_eq!(r.data(), 0xF0);
        assert_eq!(r.check(), 0xF0);
        assert_eq!(r.with_error(e), w);
    }

    #[test]
    #[should_panic]
    fn bit_out_of_range_panics() {
        CodeWord72::default().bit(72);
    }

    #[test]
    fn display_is_nonempty() {
        let s = format!("{}", CodeWord72::new(1, 2));
        assert!(s.contains('|'));
        let d = format!("{:?}", CodeWord72::default());
        assert!(d.contains("CodeWord72"));
        assert!(format!("{:?}", CodeWord40::new(1, 2)).contains("CodeWord40"));
    }

    #[test]
    fn flip40_is_involution() {
        let w = CodeWord40::new(0x1357_9BDF, 0x42);
        assert!((0u32..40).all(|i| w.with_bit_flipped(i).with_bit_flipped(i) == w));
    }
}
