//! A generic systematic single-error-correcting code over GF(2), given
//! by its per-data-bit column syndromes.
//!
//! [`SyndromeCode`] models a code with parity-check matrix `H = [A | I]`
//! in systematic form: `k ≤ 64` data bits whose columns are arbitrary
//! distinct nonzero syndromes, plus `r ≤ 16` check bits whose columns
//! are the unit vectors. Decoding is standard syndrome decoding: a zero
//! syndrome passes the word through, a syndrome matching any column
//! corrects that single bit, anything else is flagged detected. Whether
//! the code is SEC-DED (all 2-bit errors detected) or merely SEC (some
//! 2-bit errors mis-corrected into 3-bit delivered words) is a property
//! of the column set — [`SyndromeCode::is_secded`] checks it — which is
//! exactly the distinction the miscorrection profiler quantifies.
//!
//! The same type serves four roles in the inference pack:
//!
//! * the **systematic view** of the registered (72,64) codecs
//!   ([`SyndromeCode::from_code72`]), used to extract ground truth;
//! * the **SEC-only view** obtained by erasing a check row
//!   ([`SyndromeCode::drop_row`]) — the HARP setting where an on-die
//!   SEC code turns 2-bit faults into 3-bit delivered words;
//! * **small-geometry codes** like the (8,4) extended Hamming
//!   ([`SyndromeCode::secded8_4`]) for exhaustive oracles;
//! * **random SEC-DED codes** ([`SyndromeCode::random_secded`]) for
//!   seeded inference round-trips against codes nobody hand-picked.

use super::pattern::ChargePattern;
use crate::secded::SecDed;

/// Maximum supported data width (one machine word).
pub const MAX_DATA_BITS: usize = 64;
/// Maximum supported check width.
pub const MAX_CHECK_BITS: u32 = 16;

/// Why a column set does not describe a valid systematic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeError {
    /// More than [`MAX_DATA_BITS`] data columns, or none.
    BadDataWidth(usize),
    /// Check width outside `1..=`[`MAX_CHECK_BITS`].
    BadCheckWidth(u32),
    /// A data column is zero (an error there would be undetectable).
    ZeroColumn(u32),
    /// A data column does not fit in `r` bits.
    WideColumn(u32),
    /// A data column equals a unit vector (aliases a check column).
    UnitColumn(u32),
    /// Two data columns are equal (their single-bit errors alias).
    DuplicateColumn(u32, u32),
}

impl std::fmt::Display for CodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodeError::BadDataWidth(k) => write!(f, "unsupported data width {k}"),
            CodeError::BadCheckWidth(r) => write!(f, "unsupported check width {r}"),
            CodeError::ZeroColumn(j) => write!(f, "data column {j} is zero"),
            CodeError::WideColumn(j) => write!(f, "data column {j} exceeds the check width"),
            CodeError::UnitColumn(j) => write!(f, "data column {j} aliases a check column"),
            CodeError::DuplicateColumn(i, j) => write!(f, "data columns {i} and {j} are equal"),
        }
    }
}

impl std::error::Error for CodeError {}

/// Outcome of one syndrome decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynOutcome {
    /// Zero syndrome: the word is (believed) error-free.
    Clean,
    /// The syndrome matched data column `bit`; the decoder flipped that
    /// data bit.
    CorrectedData {
        /// Data-bit index in `0..k`.
        bit: u32,
    },
    /// The syndrome matched check column `bit`; the decoder flipped
    /// that check bit and delivered the data word untouched.
    CorrectedCheck {
        /// Check-bit index in `0..r`.
        bit: u32,
    },
    /// The syndrome matched no column: detected-uncorrectable.
    Detected,
}

/// A systematic code `H = [A | I_r]` given by its data-column syndromes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyndromeCode {
    k: u32,
    r: u32,
    data_cols: [u32; MAX_DATA_BITS],
}

impl SyndromeCode {
    /// Builds a code from its data-column syndromes, validating that
    /// every single-bit error has a distinct nonzero syndrome (the SEC
    /// property; DED is *not* required — see [`Self::is_secded`]).
    pub fn new(r: u32, cols: &[u32]) -> Result<Self, CodeError> {
        if cols.is_empty() || cols.len() > MAX_DATA_BITS {
            return Err(CodeError::BadDataWidth(cols.len()));
        }
        if r == 0 || r > MAX_CHECK_BITS {
            return Err(CodeError::BadCheckWidth(r));
        }
        let width_mask = (1u32 << r) - 1;
        let mut data_cols = [0u32; MAX_DATA_BITS];
        for (j, &c) in cols.iter().enumerate() {
            let j32 = j as u32;
            if c == 0 {
                return Err(CodeError::ZeroColumn(j32));
            }
            if c & !width_mask != 0 {
                return Err(CodeError::WideColumn(j32));
            }
            if c.is_power_of_two() {
                return Err(CodeError::UnitColumn(j32));
            }
            for (i, &prev) in cols.iter().enumerate().take(j) {
                if prev == c {
                    return Err(CodeError::DuplicateColumn(i as u32, j32));
                }
            }
            data_cols[j] = c;
        }
        Ok(Self {
            k: cols.len() as u32,
            r,
            data_cols,
        })
    }

    /// The (8,4) extended Hamming SEC-DED code: the four weight-3
    /// columns over 4 check bits — the *only* choice of four distinct
    /// odd-weight non-unit nibbles, which is what makes this geometry
    /// exhaustively checkable.
    pub fn secded8_4() -> Self {
        // The literal columns are distinct, nonzero, non-unit and 4 bits
        // wide, so construction cannot fail; built directly to keep this
        // constructor infallible.
        let mut data_cols = [0u32; MAX_DATA_BITS];
        data_cols[0] = 0b0111;
        data_cols[1] = 0b1011;
        data_cols[2] = 0b1101;
        data_cols[3] = 0b1110;
        Self {
            k: 4,
            r: 4,
            data_cols,
        }
    }

    /// An (8,4)-class SEC (not DED) code: distinct nonzero columns of
    /// mixed weight, so some 2-bit faults alias a third column and
    /// mis-correct — the smallest geometry where the miscorrection
    /// profiler has nonzero work to certify.
    pub fn sec8_4() -> Self {
        // Distinct, nonzero, non-unit, 4 bits wide: infallible as above.
        let mut data_cols = [0u32; MAX_DATA_BITS];
        data_cols[0] = 0b0011;
        data_cols[1] = 0b0101;
        data_cols[2] = 0b0110;
        data_cols[3] = 0b0111;
        Self {
            k: 4,
            r: 4,
            data_cols,
        }
    }

    /// The systematic view of a registered (72,64) codec: data column
    /// `j` is the check byte the codec computes for the unit data word
    /// `1 << j`. By linearity this is exactly the parity map `A`, so
    /// [`Self::rows`] of the result is the ground truth the inference
    /// engine is certified against.
    pub fn from_code72(code: &impl SecDed) -> Result<Self, CodeError> {
        let mut cols = [0u32; MAX_DATA_BITS];
        for (j, col) in cols.iter_mut().enumerate() {
            *col = u32::from(code.encode(1u64 << j).check());
        }
        Self::new(8, &cols)
    }

    /// Erases check row `row`, producing the SEC-only view with one
    /// fewer syndrome bit (e.g. a (72,64) extended Hamming minus its
    /// overall-parity row is the classic (71,64) Hamming SEC code).
    /// Fails if the surviving columns no longer form a valid SEC code.
    pub fn drop_row(&self, row: u32) -> Result<Self, CodeError> {
        if row >= self.r {
            return Err(CodeError::BadCheckWidth(row));
        }
        let keep_low = (1u32 << row) - 1;
        let cols: Vec<u32> = self
            .data_cols
            .iter()
            .take(self.k as usize)
            .map(|&c| (c & keep_low) | ((c >> (row + 1)) << row))
            .collect();
        Self::new(self.r - 1, &cols)
    }

    /// The code with its data columns permuted: new column `j` is old
    /// column `perm[j]`. `perm` must be a permutation of `0..k`.
    pub fn permute_data(&self, perm: &[u32]) -> Result<Self, CodeError> {
        if perm.len() != self.k as usize {
            return Err(CodeError::BadDataWidth(perm.len()));
        }
        let cols: Vec<u32> = perm
            .iter()
            .map(|&p| self.data_cols.get(p as usize).copied().unwrap_or(0))
            .collect();
        Self::new(self.r, &cols)
    }

    /// The code with its check bits relabeled: new check bit `c` is old
    /// check bit `perm[c]` (a row permutation of `A`). `perm` must be a
    /// permutation of `0..r`.
    pub fn permute_checks(&self, perm: &[u32]) -> Result<Self, CodeError> {
        if perm.len() != self.r as usize {
            return Err(CodeError::BadCheckWidth(perm.len() as u32));
        }
        let cols: Vec<u32> = self
            .data_cols
            .iter()
            .take(self.k as usize)
            .map(|&c| {
                perm.iter()
                    .enumerate()
                    .fold(0u32, |acc, (new, &old)| acc | (((c >> old) & 1) << new))
            })
            .collect();
        Self::new(self.r, &cols)
    }

    /// A random valid SEC-DED code with `k = 64`, `r = 8`: 64 distinct
    /// odd-weight non-unit byte columns drawn from a seeded generator.
    /// Odd column weight makes every 2-bit error's syndrome even and
    /// hence unlike any column — the same argument that makes CRC8-ATM
    /// double-error-proof — so the result is SEC-DED by construction.
    pub fn random_secded(seed: u64) -> Self {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut cols = [0u32; MAX_DATA_BITS];
        let mut taken = [false; 256];
        // Units are odd-weight too; exclude them up front.
        for c in [1u32, 2, 4, 8, 16, 32, 64, 128] {
            taken[c as usize] = true;
        }
        for col in cols.iter_mut() {
            loop {
                let c = rng.gen::<u32>() & 0xFF;
                if c.count_ones() % 2 == 1 && !taken[c as usize] {
                    taken[c as usize] = true;
                    *col = c;
                    break;
                }
            }
        }
        // The loop admits only distinct odd-weight non-unit nonzero
        // bytes, so the column set is valid by construction.
        Self {
            k: 64,
            r: 8,
            data_cols: cols,
        }
    }

    /// Data width `k`.
    pub fn data_bits(&self) -> u32 {
        self.k
    }

    /// Check width `r`.
    pub fn check_bits(&self) -> u32 {
        self.r
    }

    /// Total code length `n = k + r`.
    pub fn len_bits(&self) -> u32 {
        self.k + self.r
    }

    /// The syndrome column of data bit `j` (zero for `j ≥ k`).
    pub fn data_col(&self, j: u32) -> u32 {
        if j < self.k {
            // indexing: j < k ≤ 64 = data_cols.len(), enforced by every
            // constructor.
            self.data_cols[j as usize]
        } else {
            0
        }
    }

    /// The column of code position `p` (`0..k` data, `k..k+r` check).
    pub fn position_col(&self, p: u32) -> u32 {
        if p < self.k {
            self.data_col(p)
        } else if p < self.k + self.r {
            1u32 << (p - self.k)
        } else {
            0
        }
    }

    /// The check word `A·d` for a data word.
    pub fn encode_check(&self, data: u64) -> u32 {
        self.syndrome(data, 0)
    }

    /// The syndrome of a received `(data, check)` pair.
    ///
    /// Allocation-free and panic-free: this is the inner loop of every
    /// inference probe and of the brute-force miscorrection oracle.
    pub fn syndrome(&self, data: u64, check: u32) -> u32 {
        let mut syn = check;
        let mut bits = if self.k >= 64 {
            data
        } else {
            data & ((1u64 << self.k) - 1)
        };
        while bits != 0 {
            let j = bits.trailing_zeros();
            bits &= bits - 1;
            syn ^= self.data_col(j);
        }
        syn & ((1u32 << self.r) - 1)
    }

    /// Syndrome-decodes a received `(data, check)` pair.
    pub fn decode(&self, data: u64, check: u32) -> SynOutcome {
        let syn = self.syndrome(data, check);
        if syn == 0 {
            return SynOutcome::Clean;
        }
        if syn.is_power_of_two() && syn.trailing_zeros() < self.r {
            return SynOutcome::CorrectedCheck {
                bit: syn.trailing_zeros(),
            };
        }
        for (j, &c) in self.data_cols.iter().take(self.k as usize).enumerate() {
            if c == syn {
                return SynOutcome::CorrectedData { bit: j as u32 };
            }
        }
        SynOutcome::Detected
    }

    /// `true` iff the code is SEC-**DED**: no 2-bit error's syndrome
    /// matches any column, so every double is flagged detected instead
    /// of mis-corrected. Checked by enumeration over all column pairs.
    pub fn is_secded(&self) -> bool {
        let n = self.len_bits();
        for a in 0..n {
            for b in (a + 1)..n {
                let syn = self.position_col(a) ^ self.position_col(b);
                if syn == 0 || !matches!(self.decode_syndrome_only(syn), SynOutcome::Detected) {
                    return false;
                }
            }
        }
        true
    }

    /// Decode classification of a bare syndrome (helper for column-set
    /// property checks; `decode` computes the syndrome itself).
    fn decode_syndrome_only(&self, syn: u32) -> SynOutcome {
        if syn == 0 {
            return SynOutcome::Clean;
        }
        // Reuse the decoder on a synthetic received word: zero data with
        // the syndrome as the check error reproduces the classification.
        self.decode(0, syn)
    }

    /// The rows of the parity map `A`, each a mask over data bits
    /// (`rows()[c]` bit `j` set ⟺ data bit `j` feeds check bit `c`).
    pub fn rows(&self) -> Vec<u64> {
        (0..self.r)
            .map(|c| {
                let mut row = 0u64;
                for j in 0..self.k {
                    row |= u64::from((self.data_col(j) >> c) & 1) << j;
                }
                row
            })
            .collect()
    }

    /// The rows of `A` in canonical order (descending as integers):
    /// the representative of the code's equivalence class under check
    /// relabeling, which is all a black-box retention test can resolve.
    pub fn canonical_rows(&self) -> Vec<u64> {
        let mut rows = self.rows();
        rows.sort_unstable_by(|a, b| b.cmp(a));
        rows
    }

    /// Runs one retention probe against this code: program the pattern,
    /// decay every charged data cell, decode, and classify what the
    /// controller can observe (delivered data diff + event flags).
    pub fn probe(&self, pattern: ChargePattern) -> super::solve::ProbeSignature {
        use super::solve::ProbeSignature;
        let written = pattern.mask();
        let check = self.encode_check(written);
        // All charged data cells decay: received data is all zeros; the
        // check cells are modeled as retention-hardened (the test pauses
        // refresh on the data array only).
        match self.decode(0, check) {
            SynOutcome::Clean => ProbeSignature::Silent,
            SynOutcome::CorrectedCheck { .. } => ProbeSignature::CheckEvent,
            SynOutcome::CorrectedData { bit } => ProbeSignature::DataCorrected { bit },
            SynOutcome::Detected => ProbeSignature::Uncorrectable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Crc8Atm, Hamming7264};

    #[test]
    fn construction_rejects_invalid_column_sets() {
        assert_eq!(SyndromeCode::new(4, &[]), Err(CodeError::BadDataWidth(0)));
        assert_eq!(SyndromeCode::new(0, &[3]), Err(CodeError::BadCheckWidth(0)));
        assert_eq!(SyndromeCode::new(4, &[3, 0]), Err(CodeError::ZeroColumn(1)));
        assert_eq!(
            SyndromeCode::new(4, &[3, 0x10]),
            Err(CodeError::WideColumn(1))
        );
        assert_eq!(SyndromeCode::new(4, &[2]), Err(CodeError::UnitColumn(0)));
        assert_eq!(
            SyndromeCode::new(4, &[3, 5, 3]),
            Err(CodeError::DuplicateColumn(0, 2))
        );
    }

    #[test]
    fn small_codes_have_the_advertised_properties() {
        assert!(SyndromeCode::secded8_4().is_secded());
        assert!(!SyndromeCode::sec8_4().is_secded());
    }

    #[test]
    fn decode_corrects_all_singles_on_the_small_code() {
        let code = SyndromeCode::secded8_4();
        let data = 0b1010u64;
        let check = code.encode_check(data);
        assert_eq!(code.decode(data, check), SynOutcome::Clean);
        for j in 0..4u32 {
            assert_eq!(
                code.decode(data ^ (1 << j), check),
                SynOutcome::CorrectedData { bit: j }
            );
        }
        for c in 0..4u32 {
            assert_eq!(
                code.decode(data, check ^ (1 << c)),
                SynOutcome::CorrectedCheck { bit: c }
            );
        }
    }

    #[test]
    fn registered_codecs_yield_valid_secded_systematic_views() {
        for rows in [
            SyndromeCode::from_code72(&Hamming7264::new()).unwrap(),
            SyndromeCode::from_code72(&Crc8Atm::new()).unwrap(),
        ] {
            assert_eq!(rows.data_bits(), 64);
            assert_eq!(rows.check_bits(), 8);
            assert!(rows.is_secded());
        }
    }

    #[test]
    fn hamming_minus_parity_row_is_sec_but_not_ded() {
        let full = SyndromeCode::from_code72(&Hamming7264::new()).unwrap();
        // The overall-parity row is the one every data column feeds with
        // the complement of its inner weight; find the row whose erasure
        // still leaves a valid code and breaks DED.
        let sec = full.drop_row(7).unwrap();
        assert_eq!(sec.check_bits(), 7);
        assert!(!sec.is_secded(), "SEC view must mis-correct some doubles");
    }

    #[test]
    fn crc8_minus_any_row_keeps_detecting_or_fails_closed() {
        // Not asserted SEC: erasing a CRC row may alias columns, in which
        // case construction fails (fail-closed) rather than mis-modeling.
        let full = SyndromeCode::from_code72(&Crc8Atm::new()).unwrap();
        for row in 0..8 {
            let _ = full.drop_row(row);
        }
    }

    #[test]
    fn permutations_roundtrip() {
        let code = SyndromeCode::random_secded(0x5EED);
        let perm: Vec<u32> = (0..64u32).rev().collect();
        let permuted = code.permute_data(&perm).unwrap();
        let back = permuted.permute_data(&perm).unwrap();
        assert_eq!(code, back);
        // Check relabeling preserves the canonical row multiset.
        let rot: Vec<u32> = (0..8u32).map(|c| (c + 3) % 8).collect();
        let relabeled = code.permute_checks(&rot).unwrap();
        assert_eq!(code.canonical_rows(), relabeled.canonical_rows());
        assert_ne!(code.rows(), relabeled.rows());
    }

    #[test]
    fn random_codes_are_seed_deterministic_and_secded() {
        let a = SyndromeCode::random_secded(42);
        assert_eq!(a, SyndromeCode::random_secded(42));
        assert_ne!(a, SyndromeCode::random_secded(43));
        assert!(a.is_secded());
    }
}
