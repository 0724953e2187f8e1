//! BEER-style charge patterns: the unit of fault injection during a
//! simulated data-retention test.
//!
//! A pattern names the *data* cells programmed to the charged state
//! before the refresh pause. Under the true-cell convention the paper's
//! retention experiments rely on, only charged cells can decay, so the
//! pattern doubles as the worst-case error mask the decoder will face:
//! the oracle decays **every** charged cell (the long-pause limit),
//! which is what makes probe outcomes a deterministic function of the
//! undisclosed parity-check matrix.
//!
//! Patterns are validated at construction. In particular the all-zero
//! pattern — no charged cells, hence no possible retention failures —
//! is rejected with a typed error instead of silently producing the
//! uninformative "nothing happened" signature (a real bug class: an
//! inference loop that XORs two equal probe sets would otherwise spin
//! on probes that can never discriminate anything).

use std::fmt;

/// Why a charge pattern was rejected at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternError {
    /// The degenerate all-zero pattern: no cell is charged, so no
    /// retention failure can occur and the probe signature is
    /// unconditionally `Silent` — it carries no information about the
    /// code and must never be injected.
    AllZero,
    /// The pattern charges a cell at or beyond the code's data width.
    OutOfRange {
        /// Lowest offending data-bit index.
        bit: u32,
        /// The code's data width `k`.
        k: u32,
    },
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::AllZero => {
                write!(f, "degenerate all-zero charge pattern (no cell can decay)")
            }
            PatternError::OutOfRange { bit, k } => {
                write!(
                    f,
                    "charge pattern touches data bit {bit}, but the code has only {k} data bits"
                )
            }
        }
    }
}

impl std::error::Error for PatternError {}

/// A validated set of charged data cells, as a mask over data bits
/// `0..k` (bit `j` of the mask ↔ data bit `j` of the codeword).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChargePattern {
    mask: u64,
}

impl ChargePattern {
    /// Validates `mask` as a charge pattern for a code with `k` data
    /// bits. Rejects the degenerate all-zero pattern and any bit at or
    /// above `k`.
    pub fn new(mask: u64, k: u32) -> Result<Self, PatternError> {
        if mask == 0 {
            return Err(PatternError::AllZero);
        }
        let width_mask = if k >= 64 { u64::MAX } else { (1u64 << k) - 1 };
        if mask & !width_mask != 0 {
            return Err(PatternError::OutOfRange {
                bit: (mask & !width_mask).trailing_zeros(),
                k,
            });
        }
        Ok(Self { mask })
    }

    /// A walking-1 pattern: the single data cell `j` charged.
    pub fn walking_one(j: u32, k: u32) -> Result<Self, PatternError> {
        if j >= k || j >= 64 {
            return Err(PatternError::OutOfRange { bit: j, k });
        }
        Self::new(1u64 << j, k)
    }

    /// The charged-cell mask.
    pub fn mask(self) -> u64 {
        self.mask
    }

    /// Number of charged cells.
    pub fn weight(self) -> u32 {
        self.mask.count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_the_degenerate_all_zero_pattern_with_a_typed_error() {
        // Regression: the all-zero test pattern used to be representable
        // and produced an uninformative Silent signature downstream.
        assert_eq!(ChargePattern::new(0, 64), Err(PatternError::AllZero));
        assert!(ChargePattern::new(0, 64)
            .unwrap_err()
            .to_string()
            .contains("all-zero"));
    }

    #[test]
    fn rejects_out_of_range_cells() {
        assert_eq!(
            ChargePattern::new(1 << 5, 4),
            Err(PatternError::OutOfRange { bit: 5, k: 4 })
        );
        assert_eq!(
            ChargePattern::walking_one(8, 8),
            Err(PatternError::OutOfRange { bit: 8, k: 8 })
        );
        // k = 64 accepts the full word.
        assert!(ChargePattern::new(u64::MAX, 64).is_ok());
    }

    #[test]
    fn accessors() {
        let a = ChargePattern::new(0b0110, 8).unwrap();
        assert_eq!(a.weight(), 2);
        assert_eq!(a.mask(), 0b0110);
        assert_eq!(ChargePattern::walking_one(3, 8).unwrap().mask(), 0b1000);
    }
}
