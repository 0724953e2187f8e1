//! Small bit-manipulation helpers shared by the codecs.

/// Returns the parity (XOR of all bits) of `x` as 0 or 1.
///
/// ```
/// assert_eq!(xed_ecc::bits::parity64(0b1011), 1);
/// assert_eq!(xed_ecc::bits::parity64(0b1001), 0);
/// ```
#[inline]
pub fn parity64(x: u64) -> u8 {
    (x.count_ones() & 1) as u8
}

/// Iterator over the indices of the set bits of `x`, ascending.
///
/// ```
/// let set: Vec<u32> = xed_ecc::bits::set_bits64(0b1010_0001).collect();
/// assert_eq!(set, vec![0, 5, 7]);
/// ```
pub fn set_bits64(x: u64) -> SetBits {
    SetBits { rem: x }
}

/// Iterator produced by [`set_bits64`].
#[derive(Debug, Clone)]
pub struct SetBits {
    rem: u64,
}

impl Iterator for SetBits {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.rem == 0 {
            return None;
        }
        let i = self.rem.trailing_zeros();
        self.rem &= self.rem - 1;
        Some(i)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.rem.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for SetBits {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_of_zero_is_zero() {
        assert_eq!(parity64(0), 0);
    }

    #[test]
    fn parity_of_all_ones_is_zero() {
        assert_eq!(parity64(u64::MAX), 0);
    }

    #[test]
    fn parity_single_bit() {
        // Every weight-1 word has parity 1; enumerate them through the
        // mask-based set-bits iterator rather than a per-bit counter loop.
        assert!(set_bits64(u64::MAX)
            .map(|i| 1u64 << i)
            .all(|w| parity64(w) == 1));
    }

    #[test]
    fn set_bits_matches_count() {
        let x = 0xF0F0_1234_5678_9ABCu64;
        let v: Vec<u32> = set_bits64(x).collect();
        assert_eq!(v.len(), x.count_ones() as usize);
        for &i in &v {
            assert_eq!((x >> i) & 1, 1);
        }
        // ascending
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn set_bits_empty() {
        assert_eq!(set_bits64(0).count(), 0);
    }

    #[test]
    fn set_bits_exact_size() {
        let it = set_bits64(0b1011);
        assert_eq!(it.len(), 3);
    }
}
