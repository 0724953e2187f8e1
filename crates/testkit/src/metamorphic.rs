//! The metamorphic suite: invariances and dominance laws.
//!
//! Metamorphic testing checks *relations between runs* rather than
//! absolute values: each law states how the simulator's output must
//! transform (or not transform) when its input is perturbed in a way
//! whose effect is known a priori. The laws here come in three flavors:
//!
//! * **exact invariances** — bit-identical results under perturbations
//!   that provably cannot matter (scheme evaluation order, a
//!   scaling-fault model dialed to rate zero);
//! * **deterministic monotonicities** — per-trial coupled comparisons
//!   where raising a failure-mode parameter can only grow the failure
//!   set (the on-die miss rate under shared RNG streams);
//! * **statistical dominance** — paper-level orderings (adding erasure
//!   or on-die exposure never hurts) whose margins are orders of
//!   magnitude at the sample sizes used, so `≤` on raw counts is safe.
//!
//! Plus the executable form of the paper's §XI-C ALERT_n argument: an
//! anonymous alert pin strictly weakens transient-fault handling — and
//! the inference pack's law (DESIGN.md §17): reliability estimates
//! derived from an inferred on-die code are invariant under data-bit
//! column permutation of the true code.

use crate::seeds;
use xed_core::alert::{AlertDimm, AlertMode};
use xed_core::chip::{ChipGeometry, OnDieCode, WordAddr};
use xed_core::fault::{FaultKind, InjectedFault};
use xed_ecc::infer::{profile, SyndromeCode};
use xed_faultsim::engine::Sweep;
use xed_faultsim::scaling::ScalingFaults;
use xed_faultsim::schemes::{ModelParams, Scheme};

/// Outcome of one law.
#[derive(Debug, Clone)]
pub struct LawResult {
    /// Short law name.
    pub law: &'static str,
    /// The observed quantities backing the verdict.
    pub detail: String,
    /// Whether the law held.
    pub holds: bool,
}

/// Outcome of the whole suite.
#[derive(Debug, Clone)]
pub struct LawReport {
    /// One entry per law.
    pub laws: Vec<LawResult>,
}

impl LawReport {
    /// `true` iff every law held.
    pub fn is_clean(&self) -> bool {
        self.laws.iter().all(|l| l.holds)
    }

    /// One line per law for the driver's console output.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for l in &self.laws {
            out.push_str(&format!(
                "  {:<38} {}  ({})\n",
                l.law,
                if l.holds { "holds" } else { "VIOLATED" },
                l.detail
            ));
        }
        out
    }
}

fn mc_with(samples: u64, params: ModelParams) -> Sweep {
    Sweep::new(samples, seeds::METAMORPHIC).with_params(params)
}

/// Runs every law at `samples` Monte-Carlo trials (the exact invariances
/// are sample-count independent; the statistical laws assume ≥100k).
pub fn run(samples: u64) -> LawReport {
    let mut laws = Vec::new();

    // Law 1 — scaling at rate zero is the null perturbation: a scaling
    // model that can never mark a word faulty must be bit-identical to
    // no scaling model at all, not merely statistically close.
    {
        let base = mc_with(samples, ModelParams::default())
            .run_one(Scheme::Xed)
            .result;
        let zeroed = mc_with(
            samples,
            ModelParams {
                scaling: ScalingFaults::with_rate(0.0),
                ..ModelParams::default()
            },
        )
        .run_one(Scheme::Xed)
        .result;
        laws.push(LawResult {
            law: "scaling(rate=0) ≡ no scaling",
            detail: format!("failures {} vs {}", base.failures(), zeroed.failures()),
            holds: base == zeroed,
        });
    }

    // Law 2 — scheme-order invariance: per-trial RNG streams are keyed
    // by (seed, scheme), so evaluating schemes in any order, or alone,
    // must reproduce identical per-scheme results.
    {
        let m = mc_with(samples, ModelParams::default());
        let (fwd, _) = m.run_all(&[Scheme::EccDimm, Scheme::Xed, Scheme::Chipkill]);
        let (rev, _) = m.run_all(&[Scheme::Chipkill, Scheme::Xed, Scheme::EccDimm]);
        let solo = m.run_one(Scheme::Xed).result;
        let holds = fwd[0] == rev[2] && fwd[1] == rev[1] && fwd[2] == rev[0] && fwd[1] == solo;
        laws.push(LawResult {
            law: "scheme evaluation order invariance",
            detail: format!(
                "xed failures fwd {} / rev {} / solo {}",
                fwd[1].failures(),
                rev[1].failures(),
                solo.failures()
            ),
            holds,
        });
    }

    // Law 3 — on-die miss monotonicity. The runs share trial streams, so
    // raising the miss threshold can only flip verdicts from Corrected
    // to Due (transient word faults) and never the reverse: the failure
    // count is deterministically non-decreasing, not just in expectation.
    {
        let counts: Vec<u64> = [0.0, 0.008, 0.1, 0.5]
            .into_iter()
            .map(|on_die_miss| {
                mc_with(
                    samples,
                    ModelParams {
                        on_die_miss,
                        ..ModelParams::default()
                    },
                )
                .run_one(Scheme::Xed)
                .result
                .failures()
            })
            .collect();
        laws.push(LawResult {
            law: "on-die miss rate monotone in failures",
            detail: format!("{counts:?} at miss 0 / 0.008 / 0.1 / 0.5"),
            holds: counts.windows(2).all(|w| w[0] <= w[1]),
        });
    }

    // Law 4 — exposure dominance: exposing on-die detection (XED) on the
    // same DIMM never hurts, and never increases SDC in particular
    // (paper Fig. 7); the x4 analogue for XED over Chipkill (Fig. 9).
    // Margins are ~20× at these sample sizes.
    {
        let m = mc_with(samples, ModelParams::default());
        let ecc = m.run_one(Scheme::EccDimm).result;
        let xed = m.run_one(Scheme::Xed).result;
        let ckx4 = m.run_one(Scheme::ChipkillX4).result;
        let xed_ck = m.run_one(Scheme::XedChipkill).result;
        let dck = m.run_one(Scheme::DoubleChipkill).result;
        let holds = xed.failures() <= ecc.failures()
            && xed.sdc <= ecc.sdc
            && xed_ck.failures() <= ckx4.failures()
            && dck.sdc <= ckx4.sdc;
        laws.push(LawResult {
            law: "exposure/erasure dominance (Fig. 7/9)",
            detail: format!(
                "xed {} ≤ ecc {}; xed+ck {} ≤ ckx4 {}; dck sdc {} ≤ ckx4 sdc {}",
                xed.failures(),
                ecc.failures(),
                xed_ck.failures(),
                ckx4.failures(),
                dck.sdc,
                ckx4.sdc
            ),
            holds,
        });
    }

    // Law 5 — the §XI-C ALERT argument, run on the functional DIMM: an
    // anonymous ALERT_n pin must convert transient faults XED corrects
    // into DUEs (pattern diagnosis only locates *permanent* faults), so
    // its DUE count strictly dominates the identified pin's on a
    // transient-fault workload.
    {
        let (anon, ident) = alert_due_counts();
        laws.push(LawResult {
            law: "anonymous ALERT_n DUEs ≥ identified",
            detail: format!("anonymous {anon} vs identified {ident}"),
            holds: anon >= ident && anon > 0 && ident == 0,
        });
    }

    // Law 6 — inferred-code column-permutation invariance: relabeling
    // the data bits of the true on-die code permutes the recovered
    // matrix's columns but cannot change any reliability estimate
    // derived from it. The miscorrection census is a property of the
    // column *set*, so the derived on-die miss — and therefore the full
    // Monte-Carlo run it parameterizes — must be bit-identical, not
    // statistically close. Run on the HARP-style SEC view (extended
    // Hamming minus its overall-parity row), where the census is
    // nontrivial.
    {
        let sec = SyndromeCode::from_code72(&xed_ecc::Hamming7264::new())
            .expect("systematic view of Hamming7264")
            .drop_row(7)
            .expect("SEC view");
        let perm: Vec<u32> = (0..sec.data_bits()).rev().collect();
        let permuted = sec.permute_data(&perm).expect("reversal is a permutation");
        let p0 = profile(&sec);
        let p1 = profile(&permuted);
        let same_census = p0.doubles == p1.doubles
            && p0.detected == p1.detected
            && p0.miscorrected_data == p1.miscorrected_data
            && p0.miscorrected_check == p1.miscorrected_check
            && p0.silent == p1.silent;
        let run0 = mc_with(
            samples,
            ModelParams {
                on_die_miss: p0.undetected_fraction(),
                ..ModelParams::default()
            },
        )
        .run_one(Scheme::Xed)
        .result;
        let run1 = mc_with(
            samples,
            ModelParams {
                on_die_miss: p1.undetected_fraction(),
                ..ModelParams::default()
            },
        )
        .run_one(Scheme::Xed)
        .result;
        laws.push(LawResult {
            law: "inferred-code column-perm invariance",
            detail: format!(
                "derived miss {:.6} vs {:.6}; failures {} vs {}",
                p0.undetected_fraction(),
                p1.undetected_fraction(),
                run0.failures(),
                run1.failures()
            ),
            holds: same_census && run0 == run1,
        });
    }

    LawReport { laws }
}

/// Drives both alert modes through the same transient-word-fault
/// workload and returns their DUE counts.
fn alert_due_counts() -> (u64, u64) {
    let mut counts = [0u64; 2];
    for (i, mode) in [AlertMode::Anonymous, AlertMode::Identified]
        .into_iter()
        .enumerate()
    {
        let mut dimm = AlertDimm::new(ChipGeometry::small(), OnDieCode::Crc8Atm, mode);
        let data = [0x0123_4567_89AB_CDEFu64; xed_core::controller::DATA_CHIPS];
        for line in 0..8u64 {
            dimm.write_line(line, &data);
        }
        for line in 0..8u64 {
            let addr = WordAddr {
                bank: 0,
                row: 0,
                col: line as u32,
            };
            // Pin a seed whose corruption the on-die code provably
            // flags: a missed detection would turn the identified-pin
            // read into a DUE too and void the comparison.
            let fault = xed_core::oracle::with_event_at(
                InjectedFault::word(addr, FaultKind::Transient),
                addr,
            );
            dimm.inject_fault(usize::try_from(line).expect("tiny index") % 8, fault);
            let _ = dimm.read_line(line);
        }
        counts[i] = dimm.stats().due_events;
    }
    (counts[0], counts[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_law_holds_at_smoke_scale() {
        let report = run(60_000);
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(report.laws.len(), 6);
    }

    #[test]
    fn alert_law_is_strict_on_transients() {
        let (anon, ident) = alert_due_counts();
        assert!(anon > 0, "anonymous mode must DUE on transient words");
        assert_eq!(ident, 0, "identified mode must correct them all");
    }
}
