//! The BEER-style code-inference engine.
//!
//! Given only black-box retention probes against an undisclosed
//! systematic SEC-DED code, the solver recovers the parity map `A`
//! (equivalently `H = [A | I]`) **up to check-column permutation** —
//! the physical identity of the hidden check cells is unobservable, so
//! that equivalence class is the information-theoretic limit, and the
//! recovered matrix is reported in the canonical row order of
//! [`super::SyndromeCode::canonical_rows`] for bit-exact comparison.
//!
//! # The observable
//!
//! A probe programs a charge pattern `J` (a set of data cells), lets
//! every charged cell decay, and reads back through the on-die decoder.
//! The controller sees only XED-grade information: the delivered data
//! word and whether the decoder signaled a correction or a detected
//! uncorrectable. With `s_j` the (hidden) column syndrome of data bit
//! `j` and `σ(J) = Σ_{j∈J} s_j` over GF(2), the four signature classes
//! partition the outcomes:
//!
//! | signature                | meaning                                  |
//! |--------------------------|------------------------------------------|
//! | `Silent`                 | `σ(J) = 0` — the decay pattern is a codeword projection |
//! | `CheckEvent`             | `σ(J)` equals some (anonymous) check column |
//! | `DataCorrected { bit }`  | `σ(J) = s_bit` — the decoder flipped a visible data bit |
//! | `Uncorrectable`          | anything else                            |
//!
//! # The algorithm
//!
//! 1. **Walking-1 sanity** — every singleton must come back
//!    `DataCorrected` at its own position (all codes under test correct
//!    single-bit errors); anything else is an inconsistent oracle.
//! 2. **Check-coset discovery** — scan triples `{a,b,c}` in
//!    lexicographic order; a `CheckEvent` triple has `σ` equal to one of
//!    the `r` check columns. Two such probes hit the *same* column iff
//!    the probe of their symmetric difference is `Silent` (GF(2)
//!    cancellation), so a handful of follow-up probes buckets them.
//!    Collect one representative per column; `r` of them span the whole
//!    syndrome space.
//! 3. **Column readout** — for each data bit `j`, find the unique
//!    subset `T` of representatives with
//!    `probe({j} Δ R_{t∈T}) = Silent`: then `s_j = Σ_{t∈T} t_c`, i.e.
//!    the bits of `T` are column `j` of `A` (in the anonymous check
//!    order).
//!
//! When the probe budget (or the pattern supply) runs out before all
//! `r` check columns are seen, the solver does **not** guess: it
//! returns a certified [`AmbiguityClass`] recording how much of the
//! code was pinned down.

use super::code::SyndromeCode;
use super::pattern::{ChargePattern, PatternError};
use crate::secded::{DecodeOutcome, SecDed};

/// What a single retention probe reveals to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeSignature {
    /// No event: the delivered data equals the fully-decayed pattern.
    Silent,
    /// A correction event that left the data word untouched (the
    /// decoder "fixed" one of its hidden check cells).
    CheckEvent,
    /// A correction event that flipped visible data bit `bit`.
    DataCorrected {
        /// Data-bit index in `0..k`.
        bit: u32,
    },
    /// Detected-uncorrectable.
    Uncorrectable,
}

/// A black-box device under retention test.
pub trait RetentionOracle {
    /// Data width `k` of the code under test (≤ 64).
    fn data_bits(&self) -> u32;
    /// Check width `r` of the code under test (known a priori from the
    /// geometry: 8 redundant cells per 64 data cells on die).
    fn check_bits(&self) -> u32;
    /// Runs one probe and classifies the outcome.
    fn probe(&mut self, pattern: ChargePattern) -> ProbeSignature;
}

/// [`RetentionOracle`] over a registered `(72,64)` codec, observing it
/// strictly as a black box (encode, decay, decode, diff the data).
#[derive(Debug)]
pub struct SecDedOracle<C: SecDed> {
    code: C,
    probes: u64,
}

impl<C: SecDed> SecDedOracle<C> {
    /// Wraps a codec for probing.
    pub fn new(code: C) -> Self {
        Self { code, probes: 0 }
    }

    /// Probes issued so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }
}

impl<C: SecDed> RetentionOracle for SecDedOracle<C> {
    fn data_bits(&self) -> u32 {
        64
    }

    fn check_bits(&self) -> u32 {
        8
    }

    fn probe(&mut self, pattern: ChargePattern) -> ProbeSignature {
        self.probes += 1;
        let written = pattern.mask();
        let encoded = self.code.encode(written);
        // Every charged data cell decays to zero; the check cells keep
        // their programmed values (the test pauses refresh on the data
        // array only — the existing fault model's multi-bit injection
        // restricted to the data region).
        let received = crate::codeword::CodeWord72::new(0, encoded.check());
        match self.code.decode(received) {
            DecodeOutcome::Detected => ProbeSignature::Uncorrectable,
            DecodeOutcome::Clean { .. } => ProbeSignature::Silent,
            DecodeOutcome::Corrected { data, .. } => {
                // Classify by the visible data diff against the fully
                // decayed word, never by the decoder's internal bit
                // index: the controller cannot see check-cell labels.
                if data == 0 {
                    ProbeSignature::CheckEvent
                } else {
                    ProbeSignature::DataCorrected {
                        bit: data.trailing_zeros(),
                    }
                }
            }
        }
    }
}

/// [`RetentionOracle`] over a [`SyndromeCode`] (random or small codes).
#[derive(Debug)]
pub struct SyndromeOracle {
    code: SyndromeCode,
    probes: u64,
}

impl SyndromeOracle {
    /// Wraps a syndrome code for probing.
    pub fn new(code: SyndromeCode) -> Self {
        Self { code, probes: 0 }
    }

    /// Probes issued so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }
}

impl RetentionOracle for SyndromeOracle {
    fn data_bits(&self) -> u32 {
        self.code.data_bits()
    }

    fn check_bits(&self) -> u32 {
        self.code.check_bits()
    }

    fn probe(&mut self, pattern: ChargePattern) -> ProbeSignature {
        self.probes += 1;
        self.code.probe(pattern)
    }
}

/// Inference tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct InferConfig {
    /// Hard cap on probes; hitting it yields a certified
    /// [`AmbiguityClass`], never a guess.
    pub max_probes: u64,
}

impl Default for InferConfig {
    fn default() -> Self {
        // Generous: full recovery of a (72,64) code takes a few
        // thousand probes (coset discovery) plus ≤ 64·256 readouts.
        Self {
            max_probes: 1 << 20,
        }
    }
}

/// The recovered code, canonicalized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferredCode {
    /// Data width.
    pub k: u32,
    /// Check width.
    pub r: u32,
    /// Rows of the parity map `A` in canonical (descending) order —
    /// the representative of the check-relabeling equivalence class.
    pub rows: Vec<u64>,
    /// Probes spent.
    pub probes_used: u64,
}

/// Why inference stopped short of full recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmbiguityReason {
    /// The probe budget ran out (pattern-starved test campaign).
    ProbeBudgetExhausted,
    /// Every permissible pattern was tried without spanning the
    /// syndrome space (the pattern family underdetermines the code).
    PatternsExhausted,
}

/// A certified partial result: how much of the code the probes pinned
/// down before the campaign ran dry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmbiguityClass {
    /// Check columns actually distinguished (`< r`).
    pub resolved_rows: u32,
    /// Check width the geometry promises.
    pub r: u32,
    /// Data columns fully expressed over the resolved rows.
    pub resolved_cols: u32,
    /// Probes spent.
    pub probes_used: u64,
    /// What dried up.
    pub reason: AmbiguityReason,
}

impl AmbiguityClass {
    /// Check rows the controller must treat as unknown.
    pub fn unresolved_rows(&self) -> u32 {
        self.r - self.resolved_rows
    }
}

/// Inference result: exact recovery or a certified ambiguity class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferOutcome {
    /// The full parity map, up to check relabeling.
    Recovered(InferredCode),
    /// The patterns underdetermine the code; here is exactly how much
    /// was established.
    Ambiguous(AmbiguityClass),
}

/// Hard inference failures (as opposed to certified partial results).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// A probe pattern was rejected (solver bug or hostile geometry).
    Pattern(PatternError),
    /// Geometry outside the supported envelope.
    UnsupportedGeometry {
        /// Claimed data width.
        k: u32,
        /// Claimed check width.
        r: u32,
    },
    /// The oracle contradicted the systematic SEC-DED model (e.g. a
    /// single-cell decay that was not corrected in place).
    InconsistentOracle {
        /// Human-readable contradiction.
        detail: String,
    },
}

impl std::fmt::Display for InferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferError::Pattern(e) => write!(f, "probe pattern rejected: {e}"),
            InferError::UnsupportedGeometry { k, r } => {
                write!(f, "unsupported geometry ({k} data, {r} check bits)")
            }
            InferError::InconsistentOracle { detail } => {
                write!(
                    f,
                    "oracle inconsistent with a systematic SEC-DED code: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for InferError {}

impl From<PatternError> for InferError {
    fn from(e: PatternError) -> Self {
        InferError::Pattern(e)
    }
}

/// Budget-tracked probe wrapper used by the solver.
struct Budget {
    used: u64,
    max: u64,
}

impl Budget {
    fn probe(
        &mut self,
        oracle: &mut dyn RetentionOracle,
        pattern: ChargePattern,
    ) -> Option<ProbeSignature> {
        if self.used >= self.max {
            return None;
        }
        self.used += 1;
        Some(oracle.probe(pattern))
    }
}

/// Runs BEER-style inference against a black-box oracle.
///
/// Returns [`InferOutcome::Recovered`] with the canonicalized parity
/// map, or [`InferOutcome::Ambiguous`] when the probe budget or the
/// pattern family underdetermines the code. Hard model violations
/// (geometry out of range, an oracle that is not a systematic SEC code)
/// are [`InferError`]s.
pub fn infer(
    oracle: &mut dyn RetentionOracle,
    cfg: &InferConfig,
) -> Result<InferOutcome, InferError> {
    let k = oracle.data_bits();
    let r = oracle.check_bits();
    if k == 0 || k > 64 || r == 0 || r > 16 {
        return Err(InferError::UnsupportedGeometry { k, r });
    }
    let mut budget = Budget {
        used: 0,
        max: cfg.max_probes,
    };

    // Phase 1 — walking-1: each singleton decay must be corrected back
    // in place. This is both a sanity check and the proof that every
    // data column is nonzero and distinct from the check columns.
    for j in 0..k {
        let pattern = ChargePattern::walking_one(j, k)?;
        let Some(sig) = budget.probe(oracle, pattern) else {
            return Ok(starved(0, 0, r, budget.used));
        };
        if sig != (ProbeSignature::DataCorrected { bit: j }) {
            return Err(InferError::InconsistentOracle {
                detail: format!("walking-1 probe at data bit {j} returned {sig:?}"),
            });
        }
    }

    // Phase 2 — check-coset discovery over lexicographic triples. A
    // pair can never be a CheckEvent on a distance-4 code (that would
    // be a weight-3 codeword), so triples are the cheapest informative
    // family.
    let mut reps: Vec<u64> = Vec::with_capacity(r as usize);
    'scan: for a in 0..k {
        for b in (a + 1)..k {
            for c in (b + 1)..k {
                if reps.len() == r as usize {
                    break 'scan;
                }
                let mask = (1u64 << a) | (1u64 << b) | (1u64 << c);
                let pattern = ChargePattern::new(mask, k)?;
                let Some(sig) = budget.probe(oracle, pattern) else {
                    return Ok(starved(reps.len() as u32, 0, r, budget.used));
                };
                if sig != ProbeSignature::CheckEvent {
                    continue;
                }
                // Bucket against known representatives: same check
                // column ⟺ the symmetric difference probes Silent.
                let mut known = false;
                for &rep in &reps {
                    let diff = match ChargePattern::new(mask ^ rep, k) {
                        Ok(p) => p,
                        // Equal sets cancel: trivially the same coset.
                        Err(PatternError::AllZero) => {
                            known = true;
                            break;
                        }
                        Err(e) => return Err(e.into()),
                    };
                    let Some(dsig) = budget.probe(oracle, diff) else {
                        return Ok(starved(reps.len() as u32, 0, r, budget.used));
                    };
                    if dsig == ProbeSignature::Silent {
                        known = true;
                        break;
                    }
                }
                if !known {
                    reps.push(mask);
                }
            }
        }
    }
    if reps.len() < r as usize {
        let reason = if budget.used >= budget.max {
            AmbiguityReason::ProbeBudgetExhausted
        } else {
            AmbiguityReason::PatternsExhausted
        };
        return Ok(InferOutcome::Ambiguous(AmbiguityClass {
            resolved_rows: reps.len() as u32,
            r,
            resolved_cols: 0,
            probes_used: budget.used,
            reason,
        }));
    }

    // Phase 3 — column readout: express every data column over the
    // representative basis. Exactly one subset matches (the reps are
    // independent and span the r-dimensional syndrome space).
    let mut cols = vec![0u32; k as usize];
    for j in 0..k {
        let mut found = false;
        for t in 1u32..(1 << r) {
            let mut mask = 1u64 << j;
            for (c, &rep) in reps.iter().enumerate() {
                if (t >> c) & 1 == 1 {
                    mask ^= rep;
                }
            }
            if mask == 0 {
                // {j} equals the symmetric difference of the chosen
                // reps: σ cancels identically — a certain match with no
                // probe needed (and the all-zero pattern is unprobeable
                // by design).
                if let Some(slot) = cols.get_mut(j as usize) {
                    *slot = t;
                }
                found = true;
                break;
            }
            let pattern = ChargePattern::new(mask, k)?;
            let Some(sig) = budget.probe(oracle, pattern) else {
                return Ok(starved(r, j, r, budget.used));
            };
            if sig == ProbeSignature::Silent {
                if let Some(slot) = cols.get_mut(j as usize) {
                    *slot = t;
                }
                found = true;
                break;
            }
        }
        if !found {
            return Err(InferError::InconsistentOracle {
                detail: format!("data column {j} is outside the span of the check columns"),
            });
        }
    }

    // Assemble rows in the anonymous check order, then canonicalize.
    let mut rows: Vec<u64> = (0..r)
        .map(|c| {
            cols.iter().enumerate().fold(0u64, |acc, (j, &col)| {
                acc | (u64::from((col >> c) & 1) << j)
            })
        })
        .collect();
    rows.sort_unstable_by(|a, b| b.cmp(a));
    Ok(InferOutcome::Recovered(InferredCode {
        k,
        r,
        rows,
        probes_used: budget.used,
    }))
}

/// Budget-exhaustion constructor (keeps the early returns readable).
fn starved(resolved_rows: u32, resolved_cols: u32, r: u32, probes_used: u64) -> InferOutcome {
    InferOutcome::Ambiguous(AmbiguityClass {
        resolved_rows,
        r,
        resolved_cols,
        probes_used,
        reason: AmbiguityReason::ProbeBudgetExhausted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Crc8Atm, Hamming7264};

    fn recover(oracle: &mut dyn RetentionOracle) -> InferredCode {
        match infer(oracle, &InferConfig::default()).unwrap() {
            InferOutcome::Recovered(code) => code,
            InferOutcome::Ambiguous(a) => panic!("unexpected ambiguity: {a:?}"),
        }
    }

    #[test]
    fn recovers_the_hamming_matrix_bit_exactly() {
        let truth = SyndromeCode::from_code72(&Hamming7264::new()).unwrap();
        let mut oracle = SecDedOracle::new(Hamming7264::new());
        let got = recover(&mut oracle);
        assert_eq!(got.rows, truth.canonical_rows());
        assert_eq!(got.probes_used, oracle.probes());
    }

    #[test]
    fn recovers_the_crc8_matrix_bit_exactly() {
        let truth = SyndromeCode::from_code72(&Crc8Atm::new()).unwrap();
        let mut oracle = SecDedOracle::new(Crc8Atm::new());
        let got = recover(&mut oracle);
        assert_eq!(got.rows, truth.canonical_rows());
    }

    #[test]
    fn recovers_the_small_code() {
        let code = SyndromeCode::secded8_4();
        let mut oracle = SyndromeOracle::new(code);
        let got = recover(&mut oracle);
        assert_eq!(got.rows, code.canonical_rows());
        assert_eq!(got.k, 4);
        assert_eq!(got.r, 4);
    }

    #[test]
    fn inference_is_invariant_under_check_relabeling() {
        let code = SyndromeCode::random_secded(0xBEE5);
        let rot: Vec<u32> = (0..8u32).map(|c| (c + 5) % 8).collect();
        let relabeled = code.permute_checks(&rot).unwrap();
        let mut a = SyndromeOracle::new(code);
        let mut b = SyndromeOracle::new(relabeled);
        assert_eq!(recover(&mut a).rows, recover(&mut b).rows);
    }

    #[test]
    fn starved_budget_reports_a_certified_ambiguity_class() {
        let mut oracle = SecDedOracle::new(Hamming7264::new());
        let out = infer(&mut oracle, &InferConfig { max_probes: 80 }).unwrap();
        match out {
            InferOutcome::Ambiguous(a) => {
                assert!(a.resolved_rows < a.r);
                assert_eq!(a.probes_used, 80);
                assert_eq!(a.reason, AmbiguityReason::ProbeBudgetExhausted);
                assert_eq!(a.unresolved_rows(), a.r - a.resolved_rows);
            }
            InferOutcome::Recovered(_) => panic!("80 probes cannot span 8 check columns"),
        }
    }

    #[test]
    fn rejects_unsupported_geometry() {
        struct Weird;
        impl RetentionOracle for Weird {
            fn data_bits(&self) -> u32 {
                65
            }
            fn check_bits(&self) -> u32 {
                8
            }
            fn probe(&mut self, _p: ChargePattern) -> ProbeSignature {
                ProbeSignature::Silent
            }
        }
        assert!(matches!(
            infer(&mut Weird, &InferConfig::default()),
            Err(InferError::UnsupportedGeometry { k: 65, r: 8 })
        ));
    }
}
