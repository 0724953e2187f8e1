//! Symbol-organized Chipkill and Double-Chipkill codecs.
//!
//! These wrap the Reed–Solomon machinery of [`crate::rs`] in the DIMM
//! geometries the paper evaluates:
//!
//! * **Chipkill** (Section II-D2): 18 chips per access — 16 data + 2 check
//!   symbol chips. Corrects one faulty chip, detects two (SSC-DSD policy).
//! * **Double-Chipkill** (Section IX): 36 chips — 32 data + 4 check. Corrects
//!   two faulty chips.
//! * **XED-on-Chipkill** (Section IX-A): the Chipkill geometry driven in
//!   *erasure* mode. Because catch-words identify the faulty chips, the two
//!   check symbols correct up to **two** chip failures instead of one.
//!
//! Each chip contributes one 8-bit symbol per beat (for x4 devices two
//! consecutive beats are paired into one byte symbol, the construction used
//! by commercial chipkill implementations).

use crate::gf::Field;
use crate::rs::{Decoded, ReedSolomon, RsError};

/// Result of a chipkill-style decode at the beat level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymbolOutcome {
    /// No corruption.
    Clean(Vec<u8>),
    /// Corruption corrected; lists the chip indices that were repaired.
    Corrected {
        /// Corrected data symbols.
        data: Vec<u8>,
        /// Chip (symbol) indices that were repaired.
        chips: Vec<usize>,
    },
    /// Detected uncorrectable error.
    Due,
}

impl SymbolOutcome {
    /// The decoded data, if any.
    pub fn data(&self) -> Option<&[u8]> {
        match self {
            SymbolOutcome::Clean(d) => Some(d),
            SymbolOutcome::Corrected { data, .. } => Some(data),
            SymbolOutcome::Due => None,
        }
    }
}

/// Single-symbol-correct, double-symbol-detect Chipkill over 18 chips.
///
/// ```
/// use xed_ecc::chipkill::{Chipkill, SymbolOutcome};
///
/// let ck = Chipkill::new();
/// let data: Vec<u8> = (0..16).collect();
/// let stored = ck.encode(&data);
/// let mut beat = stored.clone();
/// beat[5] = 0x99; // chip 5 fails
/// match ck.decode(&beat) {
///     SymbolOutcome::Corrected { data: d, chips } => {
///         assert_eq!(d, data);
///         assert_eq!(chips, vec![5]);
///     }
///     other => panic!("{other:?}"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Chipkill {
    rs: ReedSolomon,
}

impl Default for Chipkill {
    fn default() -> Self {
        Self::new()
    }
}

impl Chipkill {
    /// Number of data chips.
    pub const DATA_CHIPS: usize = 16;
    /// Total chips per access.
    pub const TOTAL_CHIPS: usize = 18;

    /// Builds the RS(18,16) codec over GF(256).
    pub fn new() -> Self {
        Self {
            rs: ReedSolomon::new(Field::gf256(), Self::TOTAL_CHIPS, Self::DATA_CHIPS),
        }
    }

    /// Encodes 16 data symbols into an 18-symbol beat.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        self.rs.encode(data)
    }

    /// Decodes an 18-symbol beat with the SSC-DSD policy.
    pub fn decode(&self, beat: &[u8]) -> SymbolOutcome {
        to_outcome(self.rs.decode(beat, &[]), Self::DATA_CHIPS)
    }

    /// Decodes treating the listed chips as erasures (XED-on-Chipkill mode).
    ///
    /// With the faulty chips identified by catch-words, the two check
    /// symbols correct up to two chip failures (paper Section IX-A).
    pub fn decode_with_erasures(&self, beat: &[u8], erased_chips: &[usize]) -> SymbolOutcome {
        to_outcome(self.rs.decode(beat, erased_chips), Self::DATA_CHIPS)
    }
}

/// Double-symbol-correct Double-Chipkill over 36 chips (32 data + 4 check).
#[derive(Debug, Clone)]
pub struct DoubleChipkill {
    rs: ReedSolomon,
}

impl Default for DoubleChipkill {
    fn default() -> Self {
        Self::new()
    }
}

impl DoubleChipkill {
    /// Number of data chips.
    pub const DATA_CHIPS: usize = 32;
    /// Total chips per access.
    pub const TOTAL_CHIPS: usize = 36;

    /// Builds the RS(36,32) codec over GF(256).
    pub fn new() -> Self {
        Self {
            rs: ReedSolomon::new(Field::gf256(), Self::TOTAL_CHIPS, Self::DATA_CHIPS),
        }
    }

    /// Encodes 32 data symbols into a 36-symbol beat.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        self.rs.encode(data)
    }

    /// Decodes, correcting up to two unknown symbol errors.
    pub fn decode(&self, beat: &[u8]) -> SymbolOutcome {
        to_outcome(self.rs.decode(beat, &[]), Self::DATA_CHIPS)
    }
}

fn to_outcome(result: Result<Decoded, RsError>, k: usize) -> SymbolOutcome {
    match result {
        Ok(d) if d.corrected.is_empty() => SymbolOutcome::Clean(d.data(k).to_vec()),
        Ok(d) => {
            let chips = d.corrected.clone();
            SymbolOutcome::Corrected {
                data: d.data(k).to_vec(),
                chips,
            }
        }
        Err(RsError::Detected) => SymbolOutcome::Due,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn chipkill_clean() {
        let ck = Chipkill::new();
        let data = vec![0xAB; 16];
        let beat = ck.encode(&data);
        assert_eq!(ck.decode(&beat), SymbolOutcome::Clean(data));
    }

    #[test]
    fn chipkill_corrects_any_single_chip() {
        let ck = Chipkill::new();
        let data: Vec<u8> = (0..16).map(|i| i * 7).collect();
        let beat = ck.encode(&data);
        for chip in 0..18 {
            let mut rx = beat.clone();
            rx[chip] ^= 0x3C;
            match ck.decode(&rx) {
                SymbolOutcome::Corrected { data: d, chips } => {
                    assert_eq!(d, data);
                    assert_eq!(chips, vec![chip]);
                }
                other => panic!("chip {chip}: {other:?}"),
            }
        }
    }

    #[test]
    fn chipkill_two_chips_due_mostly() {
        let ck = Chipkill::new();
        let beat = ck.encode(&[5u8; 16]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut due = 0;
        for _ in 0..100 {
            let mut rx = beat.clone();
            let a = rng.gen_range(0..18);
            let mut b = rng.gen_range(0..18);
            while a == b {
                b = rng.gen_range(0..18);
            }
            rx[a] ^= rng.gen_range(1..=255u8);
            rx[b] ^= rng.gen_range(1..=255u8);
            if ck.decode(&rx) == SymbolOutcome::Due {
                due += 1;
            }
        }
        assert!(due >= 75, "only {due}/100 double-chip errors flagged DUE");
    }

    #[test]
    fn xed_on_chipkill_corrects_two_erased_chips() {
        let ck = Chipkill::new();
        let data: Vec<u8> = (0..16).map(|i| 0x10 + i).collect();
        let beat = ck.encode(&data);
        let mut rx = beat.clone();
        rx[4] = 0xEE;
        rx[11] = 0x77;
        match ck.decode_with_erasures(&rx, &[4, 11]) {
            SymbolOutcome::Corrected { data: d, .. } => assert_eq!(d, data),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn xed_on_chipkill_three_erasures_due() {
        let ck = Chipkill::new();
        let mut rx = ck.encode(&[1u8; 16]);
        rx[0] ^= 1;
        rx[1] ^= 1;
        rx[2] ^= 1;
        assert_eq!(ck.decode_with_erasures(&rx, &[0, 1, 2]), SymbolOutcome::Due);
    }

    #[test]
    fn double_chipkill_corrects_two_unknown_chips() {
        let dck = DoubleChipkill::new();
        let data: Vec<u8> = (0..32).collect();
        let beat = dck.encode(&data);
        let mut rx = beat.clone();
        rx[7] ^= 0xFF;
        rx[30] ^= 0x0F;
        match dck.decode(&rx) {
            SymbolOutcome::Corrected { data: d, chips } => {
                assert_eq!(d, data);
                assert_eq!(chips, vec![7, 30]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn outcome_data_accessor() {
        assert_eq!(SymbolOutcome::Due.data(), None);
        assert_eq!(SymbolOutcome::Clean(vec![1]).data(), Some(&[1u8][..]));
    }
}
