//! A corner RNG that makes every Monte-Carlo Bernoulli draw
//! deterministic.
//!
//! Every stochastic decision in `SchemeModel::evaluate` is a Bernoulli
//! trial of the form `rng.gen::<f64>() < p` (or `>= p`) with
//! `0 < p < 1`. The rand shim maps a raw draw `u` to the unit interval as
//! `(u >> 11) · 2⁻⁵³`, so a generator that always returns `0` forces
//! every uniform to `0.0` (every `< p` comparison *fires*), and one that
//! always returns `u64::MAX` forces every uniform to `1 − 2⁻⁵³` (every
//! `< p` comparison *fails*). Driving `evaluate` once per corner
//! therefore enumerates *all* of its reachable verdicts — this is what
//! lets the exhaustive oracle compare the classifier against a
//! brute-force data-path realization without sampling.
//!
//! Each corner corresponds to a concrete micro-architectural assumption
//! ([`Corner::assumption`]): whether the on-die SECDED detected the
//! multi-bit corruption, and whether the DIMM-level SECDED detected the
//! burst (the two draws the model makes). The data-path realization in
//! [`crate::datapath`] constructs a real corruption pattern satisfying
//! that assumption and replays it through the functional hardware.
//!
//! **Caution:** `ForcedRng` must never reach an *integer* `gen_range`
//! (its Lemire rejection loop never terminates on a constant generator).
//! The `evaluate`/`evaluate_isolated` paths draw only `gen::<f64>()`, so
//! the oracle is safe; the debug assertion in [`ForcedRng::next_u64`]
//! counts draws as a tripwire against pathological looping.

use rand::RngCore;

/// Which extreme every uniform draw is forced to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corner {
    /// Every `gen::<f64>()` yields `0.0`: every `u < p` Bernoulli fires.
    Zero,
    /// Every `gen::<f64>()` yields `1 − 2⁻⁵³`: every `u < p` Bernoulli
    /// fails (for `p < 1`).
    One,
}

impl Corner {
    /// Both corners.
    pub const ALL: [Corner; 2] = [Corner::Zero, Corner::One];

    /// The micro-architectural assumption this corner realizes in the
    /// response model's draw structure.
    pub fn assumption(self) -> Assumption {
        match self {
            // `u < on_die_miss` fires → the on-die code missed;
            // `u < dimm_secded_burst_detect` fires → DIMM SECDED detected.
            Corner::Zero => Assumption {
                on_die_detects: false,
                dimm_detects: true,
            },
            Corner::One => Assumption {
                on_die_detects: true,
                dimm_detects: false,
            },
        }
    }
}

/// The detection outcomes a corner pins for one fault arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Assumption {
    /// The chip's on-die SECDED flagged the multi-bit corruption (no
    /// "on-die miss").
    pub on_die_detects: bool,
    /// The DIMM-level SECDED detected (rather than silently
    /// mis-corrected) the burst a faulty chip injected.
    pub dimm_detects: bool,
}

/// The constant generator realizing a [`Corner`].
#[derive(Debug, Clone)]
pub struct ForcedRng {
    value: u64,
    draws: u64,
}

impl ForcedRng {
    /// A generator pinned to `corner`.
    pub fn new(corner: Corner) -> Self {
        Self {
            value: match corner {
                Corner::Zero => 0,
                Corner::One => u64::MAX,
            },
            draws: 0,
        }
    }
}

impl RngCore for ForcedRng {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        debug_assert!(
            self.draws < 1 << 20,
            "ForcedRng consumed {} draws — a rejection sampler is looping on the constant stream",
            self.draws
        );
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn corners_pin_the_unit_interval_extremes() {
        let mut zero = ForcedRng::new(Corner::Zero);
        let mut one = ForcedRng::new(Corner::One);
        for _ in 0..4 {
            assert_eq!(zero.gen::<f64>(), 0.0);
            let u: f64 = one.gen();
            assert!(u < 1.0 && u > 0.999_999, "u = {u}");
        }
        assert_eq!(zero.draws, 4);
    }

    #[test]
    fn corner_decides_every_bernoulli() {
        // Any threshold strictly inside (0, 1) — the model uses 0.008,
        // 0.51 and 7/63 — resolves the same way under a given corner.
        for p in [0.008, 7.0 / 63.0, 0.51, 0.992] {
            assert!(ForcedRng::new(Corner::Zero).gen::<f64>() < p);
            assert!(ForcedRng::new(Corner::One).gen::<f64>() >= p);
        }
    }

    #[test]
    fn assumption_mapping_matches_draw_structure() {
        // Corner::Zero fires `u < on_die_miss` (a miss) and
        // `u < burst_detect` (a DIMM detection); Corner::One the reverse.
        let z = Corner::Zero.assumption();
        assert!(!z.on_die_detects && z.dimm_detects);
        let o = Corner::One.assumption();
        assert!(o.on_die_detects && !o.dimm_detects);
    }
}
