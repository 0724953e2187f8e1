//! Monte-Carlo measurement of SECDED detection rates (paper Table II).
//!
//! Table II compares the fraction of *invalid codewords detected* by the
//! (72,64) Hamming code and the (72,64) CRC8-ATM code under two error
//! models:
//!
//! * **random errors** — `k` distinct bit positions flipped uniformly at
//!   random across the 72-bit codeword;
//! * **burst errors** — `k` *consecutive* physical bits all flipped, with a
//!   uniformly random start position.
//!
//! An error pattern is **undetected** exactly when it maps the codeword onto
//! another valid codeword (i.e. the pattern is itself a codeword). Note that
//! mis-correction (e.g. a 3-bit error that looks like a 1-bit error) still
//! counts as *detected* here: the on-die engine saw an invalid word and — in
//! a XED system — transmits the catch-word, after which DIMM-level parity
//! repairs the data (paper Figure 4).

use crate::codeword::CodeWord72;
use crate::secded::SecDed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The error model of one Table II column group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorModel {
    /// `k` distinct uniformly random bit flips.
    Random,
    /// `k` consecutive bit flips at a uniformly random start.
    Burst,
}

/// One measured cell of Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionRate {
    /// Number of flipped bits (random) or burst length (burst).
    pub errors: u32,
    /// Error model used.
    pub model: ErrorModel,
    /// Trials performed.
    pub trials: u64,
    /// Trials in which the corruption produced an invalid codeword
    /// (syndrome ≠ 0), i.e. was detectable.
    pub detected: u64,
}

impl DetectionRate {
    /// Detection rate in percent.
    pub fn percent(&self) -> f64 {
        100.0 * self.detected as f64 / self.trials as f64
    }
}

/// Applies one sampled error pattern of the given model to `word`.
pub fn apply_error<R: Rng>(rng: &mut R, word: CodeWord72, k: u32, model: ErrorModel) -> CodeWord72 {
    match model {
        ErrorModel::Random => {
            let mut positions = Vec::with_capacity(k as usize);
            while positions.len() < k as usize {
                let p = rng.gen_range(0..72u32);
                if !positions.contains(&p) {
                    positions.push(p);
                }
            }
            positions
                .into_iter()
                .fold(word, |w, p| w.with_bit_flipped(p))
        }
        ErrorModel::Burst => {
            let start = rng.gen_range(0..=(72 - k));
            (0..k).fold(word, |w, i| w.with_bit_flipped(start + i))
        }
    }
}

/// Measures the detection rate of `code` for `k`-bit errors of `model`.
///
/// Each trial encodes a random data word, applies a sampled error pattern,
/// and checks whether the result is an invalid codeword.
pub fn measure<C: SecDed>(
    code: &C,
    k: u32,
    model: ErrorModel,
    trials: u64,
    seed: u64,
) -> DetectionRate {
    assert!((1..=72).contains(&k), "error count {k} out of range");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut detected = 0u64;
    for _ in 0..trials {
        let data: u64 = rng.gen();
        let word = code.encode(data);
        let corrupted = apply_error(&mut rng, word, k, model);
        if !code.is_valid(corrupted) {
            detected += 1;
        }
    }
    DetectionRate {
        errors: k,
        model,
        trials,
        detected,
    }
}

/// Measures a full Table II row set: `k = 1..=8` for both error models.
pub fn table2_rows<C: SecDed>(
    code: &C,
    trials: u64,
    seed: u64,
) -> Vec<(DetectionRate, DetectionRate)> {
    (1..=8)
        .map(|k| {
            let random = measure(code, k, ErrorModel::Random, trials, seed ^ (k as u64) << 8);
            let burst = measure(
                code,
                k,
                ErrorModel::Burst,
                trials,
                seed ^ (k as u64) << 16 | 1,
            );
            (random, burst)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Crc8Atm, Hamming7264};

    const TRIALS: u64 = 4_000;

    /// Exhaustively counts the *undetectable* error patterns of a given
    /// weight: patterns that map every valid codeword onto another valid
    /// codeword (i.e. the error pattern is itself a codeword). By linearity
    /// this is data-independent, so one codeword census characterizes the
    /// code.
    ///
    /// Weight 4 is the interesting census for a distance-4 SECDED code: its
    /// count divided by C(72,4) is the exact undetected fraction behind the
    /// Table II "random 4-bit" row.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not in `1..=4` (larger weights are
    /// combinatorially expensive; use [`measure`] instead).
    fn undetected_pattern_census<C: SecDed>(code: &C, weight: u32) -> u64 {
        assert!(
            (1..=4).contains(&weight),
            "census supported for weights 1-4"
        );
        let base = code.encode(0);
        let mut count = 0u64;
        let mut idx = [0u32; 4];
        // Iterate all ascending index tuples of the requested weight.
        fn rec<C: SecDed>(
            code: &C,
            base: crate::codeword::CodeWord72,
            weight: u32,
            start: u32,
            depth: u32,
            idx: &mut [u32; 4],
            count: &mut u64,
        ) {
            if depth == weight {
                let mut w = base;
                for &i in &idx[..weight as usize] {
                    w = w.with_bit_flipped(i);
                }
                if code.is_valid(w) {
                    *count += 1;
                }
                return;
            }
            for i in start..(72 - (weight - depth - 1)) {
                idx[depth as usize] = i;
                rec(code, base, weight, i + 1, depth + 1, idx, count);
            }
        }
        rec(code, base, weight, 0, 0, &mut idx, &mut count);
        count
    }

    #[test]
    fn single_and_double_always_detected_both_codes() {
        let h = Hamming7264::new();
        let c = Crc8Atm::new();
        for k in 1..=2 {
            for model in [ErrorModel::Random, ErrorModel::Burst] {
                assert_eq!(measure(&h, k, model, TRIALS, 1).percent(), 100.0);
                assert_eq!(measure(&c, k, model, TRIALS, 2).percent(), 100.0);
            }
        }
    }

    #[test]
    fn crc8_detects_all_bursts_to_8() {
        // The headline Table II property of CRC8-ATM.
        let c = Crc8Atm::new();
        for k in 1..=8 {
            let r = measure(&c, k, ErrorModel::Burst, TRIALS, 3);
            assert_eq!(r.percent(), 100.0, "burst-{k}");
        }
    }

    #[test]
    fn hamming_misses_some_bursts() {
        // Hamming's Table II weakness: burst-4 and burst-8 patterns escape.
        let h = Hamming7264::new();
        let b4 = measure(&h, 4, ErrorModel::Burst, TRIALS, 4);
        let b8 = measure(&h, 8, ErrorModel::Burst, TRIALS, 5);
        assert!(b4.percent() < 100.0, "burst-4 rate {}", b4.percent());
        assert!(b8.percent() < 100.0, "burst-8 rate {}", b8.percent());
    }

    #[test]
    fn odd_errors_always_detected_random() {
        // Both codes have even-weight codewords only (extended parity /
        // (x+1) factor), so odd-weight error patterns are always detected.
        let h = Hamming7264::new();
        let c = Crc8Atm::new();
        for k in [3u32, 5, 7] {
            assert_eq!(
                measure(&h, k, ErrorModel::Random, TRIALS, 6).percent(),
                100.0
            );
            assert_eq!(
                measure(&c, k, ErrorModel::Random, TRIALS, 7).percent(),
                100.0
            );
        }
    }

    #[test]
    fn rates_are_deterministic_per_seed() {
        let h = Hamming7264::new();
        let a = measure(&h, 4, ErrorModel::Random, 1000, 42);
        let b = measure(&h, 4, ErrorModel::Random, 1000, 42);
        assert_eq!(a.detected, b.detected);
    }

    #[test]
    fn census_no_codewords_below_distance() {
        // d = 4 for both codes: no nonzero codeword of weight 1-3.
        for weight in 1..=3 {
            assert_eq!(undetected_pattern_census(&Hamming7264::new(), weight), 0);
            assert_eq!(undetected_pattern_census(&Crc8Atm::new(), weight), 0);
        }
    }

    #[test]
    fn census_weight4_matches_sampled_detection_rate() {
        // The exact undetected fraction from the exhaustive census must
        // agree with the Monte-Carlo "random 4" measurement.
        let code = Crc8Atm::new();
        let census = undetected_pattern_census(&code, 4);
        assert!(census > 0, "a (72,64) code has weight-4 codewords");
        let exact_undetected = census as f64 / 1_028_790.0; // C(72,4)
        let sampled = measure(&code, 4, ErrorModel::Random, 300_000, 17);
        let sampled_undetected = 1.0 - sampled.percent() / 100.0;
        assert!(
            (exact_undetected - sampled_undetected).abs() < 0.002,
            "census {exact_undetected} vs sampled {sampled_undetected}"
        );
    }

    #[test]
    fn table2_has_eight_rows() {
        let rows = table2_rows(&Crc8Atm::new(), 200, 9);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].0.errors, 1);
        assert_eq!(rows[7].1.errors, 8);
    }
}
