//! HARP-style miscorrection profiling: what an on-die SEC(-DED) code
//! does to every 2-bit fault.
//!
//! A SEC decoder confronted with a double-bit error sees the XOR of two
//! column syndromes. Three things can happen:
//!
//! * the XOR matches **no** column — the error is *detected* (the
//!   SEC-DED guarantee, when it holds for every pair);
//! * the XOR matches a **data** column — the decoder flips a third,
//!   innocent data bit and delivers a **3-bit** corrupted word while
//!   reporting a successful correction (the miscorrection HARP warns
//!   about);
//! * the XOR matches a **check** column — the decoder "fixes" a check
//!   bit and delivers the doubly-corrupted data as if it were clean.
//!
//! [`profile`] enumerates all `C(n,2)` pairs by pure column algebra
//! (never touching a decoder), while [`profile_brute_force`] injects
//! every pair into an actual decode call for a given data word. The
//! differential harness asserts they match count-for-count on small
//! geometries, for **every** data word — which also certifies that the
//! profile is a property of the code alone, not of the stored data.
//!
//! The profile ranks *at-risk* positions: bits the decoder spuriously
//! flips when doubles alias. Those are the positions a HARP-style
//! controller profiler should watch, because errors delivered there
//! carry a corrected-not-detected signature.

use super::code::{SynOutcome, SyndromeCode};

/// How often one code position is the target of spurious corrections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitRisk {
    /// Code position (`0..k` data, `k..k+r` check).
    pub position: u32,
    /// Number of 2-bit faults whose miscorrection flips this position.
    pub spurious_flips: u64,
}

/// The full 2-bit-fault census of a code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiscorrectionProfile {
    /// Data width of the profiled code.
    pub k: u32,
    /// Check width of the profiled code.
    pub r: u32,
    /// Total number of distinct 2-bit faults, `C(k+r, 2)`.
    pub doubles: u64,
    /// Doubles flagged detected-uncorrectable (the safe outcome).
    pub detected: u64,
    /// Doubles mis-corrected into a third **data**-bit flip: a 3-bit
    /// corrupted word delivered under a "corrected" signature.
    pub miscorrected_data: u64,
    /// Doubles mis-corrected into a spurious **check**-bit flip: the
    /// 2-bit corruption delivered as if clean.
    pub miscorrected_check: u64,
    /// Doubles producing a zero syndrome (impossible for a valid SEC
    /// column set; kept so the invariant is *checked*, not assumed).
    pub silent: u64,
    /// Positions ranked by spurious-flip count, most at-risk first
    /// (ties broken by ascending position). Only nonzero entries.
    pub at_risk: Vec<BitRisk>,
}

impl MiscorrectionProfile {
    /// Doubles that escape detection (delivered wrong, signaled fine).
    pub fn undetected(&self) -> u64 {
        self.silent + self.miscorrected_data + self.miscorrected_check
    }

    /// Fraction of 2-bit faults the code fails to flag — the empirical
    /// per-word on-die miss probability a fault-model scenario can feed
    /// in place of an assumed constant.
    pub fn undetected_fraction(&self) -> f64 {
        if self.doubles == 0 {
            0.0
        } else {
            self.undetected() as f64 / self.doubles as f64
        }
    }

    /// `true` when every double is detected (the DED property, as
    /// measured rather than asserted).
    pub fn is_clean(&self) -> bool {
        self.undetected() == 0
    }

    fn from_counts(code: &SyndromeCode, counts: Counts) -> Self {
        let mut at_risk: Vec<BitRisk> = counts
            .spurious
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(p, &n)| BitRisk {
                position: p as u32,
                spurious_flips: n,
            })
            .collect();
        at_risk.sort_by(|a, b| {
            b.spurious_flips
                .cmp(&a.spurious_flips)
                .then(a.position.cmp(&b.position))
        });
        let n = u64::from(code.len_bits());
        MiscorrectionProfile {
            k: code.data_bits(),
            r: code.check_bits(),
            doubles: n * (n - 1) / 2,
            detected: counts.detected,
            miscorrected_data: counts.miscorrected_data,
            miscorrected_check: counts.miscorrected_check,
            silent: counts.silent,
            at_risk,
        }
    }
}

/// Per-pair tallies accumulated by both profilers.
struct Counts {
    detected: u64,
    miscorrected_data: u64,
    miscorrected_check: u64,
    silent: u64,
    spurious: Vec<u64>,
}

impl Counts {
    fn new(n: u32) -> Self {
        Counts {
            detected: 0,
            miscorrected_data: 0,
            miscorrected_check: 0,
            silent: 0,
            spurious: vec![0u64; n as usize],
        }
    }

    fn record(&mut self, k: u32, outcome: SynOutcome) {
        match outcome {
            SynOutcome::Clean => self.silent += 1,
            SynOutcome::Detected => self.detected += 1,
            SynOutcome::CorrectedData { bit } => {
                self.miscorrected_data += 1;
                if let Some(slot) = self.spurious.get_mut(bit as usize) {
                    *slot += 1;
                }
            }
            SynOutcome::CorrectedCheck { bit } => {
                self.miscorrected_check += 1;
                if let Some(slot) = self.spurious.get_mut((k + bit) as usize) {
                    *slot += 1;
                }
            }
        }
    }
}

/// Profiles every 2-bit fault by column algebra: the syndrome of the
/// pair `{a, b}` is `col_a ^ col_b`, classified exactly as the decoder
/// would classify it, without running the decoder. `O(n²)` syndrome
/// lookups; this is the fast path the differential oracle certifies.
pub fn profile(code: &SyndromeCode) -> MiscorrectionProfile {
    let n = code.len_bits();
    let mut counts = Counts::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            let syn = code.position_col(a) ^ code.position_col(b);
            // decode(0, syn) classifies a bare syndrome: zero data plus
            // the syndrome as the check part reproduces the decision.
            counts.record(code.data_bits(), code.decode(0, syn));
        }
    }
    MiscorrectionProfile::from_counts(code, counts)
}

/// Profiles every 2-bit fault by actually corrupting an encoded word
/// and running the decoder — the ground-truth oracle for [`profile`].
/// The result must be identical for every `data` value (miscorrection
/// is a property of the column set); the harness checks exactly that.
pub fn profile_brute_force(code: &SyndromeCode, data: u64) -> MiscorrectionProfile {
    let k = code.data_bits();
    let n = code.len_bits();
    let check = code.encode_check(data);
    let mut counts = Counts::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            let (mut d, mut c) = (data, check);
            for p in [a, b] {
                if p < k {
                    d ^= 1u64 << p;
                } else {
                    c ^= 1u32 << (p - k);
                }
            }
            counts.record(k, code.decode(d, c));
        }
    }
    MiscorrectionProfile::from_counts(code, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Crc8Atm, Hamming7264};

    #[test]
    fn secded_codes_profile_clean() {
        for code in [
            SyndromeCode::secded8_4(),
            SyndromeCode::from_code72(&Hamming7264::new()).unwrap(),
            SyndromeCode::from_code72(&Crc8Atm::new()).unwrap(),
        ] {
            let p = profile(&code);
            assert!(p.is_clean(), "SEC-DED code mis-corrects: {p:?}");
            assert_eq!(p.detected, p.doubles);
            assert!(p.at_risk.is_empty());
            assert_eq!(p.undetected_fraction(), 0.0);
        }
    }

    #[test]
    fn sec_only_codes_have_nonzero_miscorrections() {
        let code = SyndromeCode::sec8_4();
        let p = profile(&code);
        assert!(!p.is_clean());
        assert!(p.undetected() > 0);
        assert!(!p.at_risk.is_empty());
        // silent is structurally impossible for a valid column set.
        assert_eq!(p.silent, 0);
        // at_risk is sorted most-dangerous-first.
        assert!(p
            .at_risk
            .windows(2)
            .all(|w| w[0].spurious_flips >= w[1].spurious_flips));
        // Tallies partition the pair census.
        assert_eq!(
            p.detected + p.miscorrected_data + p.miscorrected_check + p.silent,
            p.doubles
        );
    }

    #[test]
    fn hamming_sec_view_turns_doubles_into_triples() {
        // The HARP setting: drop the overall-parity row of the (72,64)
        // extended Hamming code and doubles start aliasing.
        let sec = SyndromeCode::from_code72(&Hamming7264::new())
            .unwrap()
            .drop_row(7)
            .unwrap();
        let p = profile(&sec);
        assert!(p.miscorrected_data > 0, "no 3-bit deliveries: {p:?}");
        assert_eq!(p.silent, 0);
    }

    #[test]
    fn fast_profile_matches_brute_force_on_small_codes() {
        for code in [SyndromeCode::secded8_4(), SyndromeCode::sec8_4()] {
            let fast = profile(&code);
            for data in 0..16u64 {
                assert_eq!(fast, profile_brute_force(&code, data));
            }
        }
    }
}
