//! DRAM failure rates (FIT) from field data — the paper's Table I.
//!
//! A FIT is one failure per 10⁹ device-hours. The rates below are the
//! per-chip failure rates measured by Sridharan & Liberty ("A study of DRAM
//! failures in the field", SC 2012), reproduced as Table I of the XED paper.

use crate::fault::{FaultExtent, Persistence};

/// Hours in one (365-day) year.
pub const HOURS_PER_YEAR: f64 = 24.0 * 365.0;

/// The paper's evaluation lifetime, in years.
pub const LIFETIME_YEARS: f64 = 7.0;

/// One row of Table I: transient and permanent FIT for a fault mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeRate {
    /// Fault extent this row applies to.
    pub extent: FaultExtent,
    /// Transient failures per 10⁹ device-hours.
    pub transient_fit: f64,
    /// Permanent failures per 10⁹ device-hours.
    pub permanent_fit: f64,
}

/// Per-chip DRAM failure rates by mode (Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct FitRates {
    rows: Vec<ModeRate>,
}

impl FitRates {
    /// Builds the Table I rates.
    ///
    /// Multi-bank (0.3 / 1.4 FIT) and multi-rank (0.9 / 2.8 FIT) are folded
    /// into the [`FaultExtent::Chip`] row (see DESIGN.md §3).
    pub fn table_i() -> Self {
        Self {
            rows: vec![
                ModeRate {
                    extent: FaultExtent::Bit,
                    transient_fit: 14.2,
                    permanent_fit: 18.6,
                },
                ModeRate {
                    extent: FaultExtent::Word,
                    transient_fit: 1.4,
                    permanent_fit: 0.3,
                },
                ModeRate {
                    extent: FaultExtent::Column,
                    transient_fit: 1.4,
                    permanent_fit: 5.6,
                },
                ModeRate {
                    extent: FaultExtent::Row,
                    transient_fit: 0.2,
                    permanent_fit: 8.2,
                },
                ModeRate {
                    extent: FaultExtent::Bank,
                    transient_fit: 0.8,
                    permanent_fit: 10.0,
                },
                // multi-bank (0.3t, 1.4p) + multi-rank (0.9t, 2.8p)
                ModeRate {
                    extent: FaultExtent::Chip,
                    transient_fit: 1.2,
                    permanent_fit: 4.2,
                },
            ],
        }
    }

    /// Builds custom rates (for ablation studies).
    ///
    /// # Panics
    ///
    /// Panics if an extent appears twice or a rate is negative.
    pub fn custom(rows: Vec<ModeRate>) -> Self {
        for (i, r) in rows.iter().enumerate() {
            assert!(
                r.transient_fit >= 0.0 && r.permanent_fit >= 0.0,
                "negative FIT"
            );
            assert!(
                rows[..i].iter().all(|p| p.extent != r.extent),
                "duplicate extent {:?}",
                r.extent
            );
        }
        Self { rows }
    }

    /// The rate rows.
    pub fn rows(&self) -> &[ModeRate] {
        &self.rows
    }

    /// Total FIT per chip (all modes, transient + permanent).
    pub fn total_fit(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.transient_fit + r.permanent_fit)
            .sum()
    }

    /// Total FIT per chip for multi-bit (non-bit-extent) modes only.
    pub fn large_fault_fit(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.extent.is_multi_bit())
            .map(|r| r.transient_fit + r.permanent_fit)
            .sum()
    }

    /// FIT for a specific (extent, persistence) pair, 0 if absent.
    pub fn fit_for(&self, extent: FaultExtent, persistence: Persistence) -> f64 {
        self.rows
            .iter()
            .find(|r| r.extent == extent)
            .map_or(0.0, |r| match persistence {
                Persistence::Transient => r.transient_fit,
                Persistence::Permanent => r.permanent_fit,
            })
    }

    /// Expected number of faults per chip over `hours`.
    pub fn expected_faults(&self, hours: f64) -> f64 {
        self.total_fit() * 1e-9 * hours
    }
}

impl Default for FitRates {
    fn default() -> Self {
        Self::table_i()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LifetimeSampler;
    use crate::geometry::DramGeometry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table_i_totals() {
        let r = FitRates::table_i();
        // Transient: 14.2+1.4+1.4+0.2+0.8+0.3+0.9 = 19.2
        // Permanent: 18.6+0.3+5.6+8.2+10+1.4+2.8 = 46.9
        assert!((r.total_fit() - 66.1).abs() < 1e-9);
        assert!((r.large_fault_fit() - 33.3).abs() < 1e-9);
    }

    #[test]
    fn per_mode_lookup() {
        let r = FitRates::table_i();
        assert_eq!(r.fit_for(FaultExtent::Bit, Persistence::Transient), 14.2);
        assert_eq!(r.fit_for(FaultExtent::Bank, Persistence::Permanent), 10.0);
        assert_eq!(r.fit_for(FaultExtent::Chip, Persistence::Transient), 1.2);
    }

    #[test]
    fn expected_faults_over_seven_years() {
        let r = FitRates::table_i();
        let hours = LIFETIME_YEARS * HOURS_PER_YEAR;
        let e = r.expected_faults(hours);
        // 66.1e-9 * 61320 ≈ 4.05e-3 per chip.
        assert!((e - 66.1e-9 * hours).abs() < 1e-12);
        assert!(e > 3e-3 && e < 5e-3);
    }

    #[test]
    fn sampling_matches_rates() {
        // The lifetime sampler's alias table draws each mode in
        // proportion to its FIT contribution.
        let r = FitRates::table_i();
        let sampler = LifetimeSampler::new(&r, DramGeometry::x8_2gb(), 1, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200_000;
        let mut bit_transient = 0u32;
        let mut bank_permanent = 0u32;
        for _ in 0..n {
            match sampler.sample_mode(&mut rng) {
                (FaultExtent::Bit, Persistence::Transient) => bit_transient += 1,
                (FaultExtent::Bank, Persistence::Permanent) => bank_permanent += 1,
                _ => {}
            }
        }
        let p_bit_t = bit_transient as f64 / n as f64;
        let p_bank_p = bank_permanent as f64 / n as f64;
        assert!(
            (p_bit_t - 14.2 / 66.1).abs() < 0.01,
            "bit transient {p_bit_t}"
        );
        assert!(
            (p_bank_p - 10.0 / 66.1).abs() < 0.01,
            "bank permanent {p_bank_p}"
        );
    }

    #[test]
    #[should_panic]
    fn custom_rejects_duplicates() {
        FitRates::custom(vec![
            ModeRate {
                extent: FaultExtent::Bit,
                transient_fit: 1.0,
                permanent_fit: 1.0,
            },
            ModeRate {
                extent: FaultExtent::Bit,
                transient_fit: 2.0,
                permanent_fit: 2.0,
            },
        ]);
    }

    #[test]
    #[should_panic]
    fn custom_rejects_negative() {
        FitRates::custom(vec![ModeRate {
            extent: FaultExtent::Bit,
            transient_fit: -1.0,
            permanent_fit: 0.0,
        }]);
    }

    #[test]
    fn missing_extent_is_zero() {
        let r = FitRates::custom(vec![]);
        assert_eq!(r.fit_for(FaultExtent::Row, Persistence::Permanent), 0.0);
        assert_eq!(r.total_fit(), 0.0);
    }
}
