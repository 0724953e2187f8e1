//! Cross-checks between the Monte-Carlo reliability simulator, the
//! closed-form analytic model, and the paper's qualitative claims.

use xed::faultsim::analytic;
use xed::faultsim::engine::Sweep;
use xed::faultsim::fit::FitRates;
use xed::faultsim::scaling::ScalingFaults;
use xed::faultsim::schemes::{ModelParams, Scheme};
use xed::faultsim::system::SystemConfig;
use xed::testkit::seeds;

fn mc(samples: u64) -> Sweep {
    Sweep::new(samples, seeds::RELIABILITY_CONSISTENCY)
}

#[test]
fn paper_ordering_holds() {
    // Figure 1 + Figure 7: NonECC ≈ EccDimm ≫ Chipkill ≥ Xed.
    let m = mc(300_000);
    let non_ecc = m.run_one(Scheme::NonEcc).result.failure_probability(7.0);
    let ecc = m.run_one(Scheme::EccDimm).result.failure_probability(7.0);
    let ck = m.run_one(Scheme::Chipkill).result.failure_probability(7.0);
    let xed = m.run_one(Scheme::Xed).result.failure_probability(7.0);
    assert!(
        ecc / non_ecc < 1.3 && non_ecc / ecc < 1.3,
        "ECC-DIMM ≈ Non-ECC: {ecc} vs {non_ecc}"
    );
    assert!(ck < ecc / 20.0, "chipkill must be ≫ better: {ck} vs {ecc}");
    assert!(xed <= ck, "xed at least as good as chipkill: {xed} vs {ck}");
}

#[test]
fn x4_ordering_holds() {
    // Figure 9: XED+CK ≤ Double-CK < Single-CK.
    let m = mc(2_000_000);
    let single = m
        .run_one(Scheme::ChipkillX4)
        .result
        .failure_probability(7.0);
    let double = m
        .run_one(Scheme::DoubleChipkill)
        .result
        .failure_probability(7.0);
    let xed_ck = m
        .run_one(Scheme::XedChipkill)
        .result
        .failure_probability(7.0);
    assert!(double < single / 5.0, "double {double} vs single {single}");
    assert!(xed_ck <= double, "xed+ck {xed_ck} vs double {double}");
}

#[test]
fn monte_carlo_matches_analytic_single_fault_model() {
    // ECC-DIMM fails on any large fault; the analytic closed form must
    // agree with the Monte-Carlo within a few percent.
    let m = mc(400_000);
    let simulated = m.run_one(Scheme::EccDimm).result.failure_probability(7.0);
    let analytic = analytic::p_fail_single_fault(&FitRates::table_i(), 72, 7.0);
    let rel = (simulated - analytic).abs() / analytic;
    assert!(
        rel < 0.05,
        "simulated {simulated} vs analytic {analytic} (rel {rel})"
    );
}

#[test]
fn monte_carlo_matches_analytic_double_fault_model() {
    // XED fails (mostly) on intersecting chip pairs; analytic and MC agree
    // within Monte-Carlo noise and the model's first-order error.
    let m = mc(4_000_000);
    let simulated = m.run_one(Scheme::Xed).result.failure_probability(7.0);
    let cfg = SystemConfig::x8_ecc_dimm();
    let analytic = analytic::p_fail_double_fault(&FitRates::table_i(), &cfg, 9, 8, 7.0);
    assert!(simulated > 0.0);
    let ratio = simulated / analytic;
    assert!(
        (0.5..2.0).contains(&ratio),
        "simulated {simulated} vs analytic {analytic}"
    );
}

#[test]
fn scaling_faults_do_not_change_the_ordering() {
    // Figure 8: with scaling at 1e-4 the story is intact.
    let params = ModelParams {
        scaling: ScalingFaults::paper_default(),
        ..Default::default()
    };
    let m = Sweep::new(300_000, seeds::SCALING_ORDERING).with_params(params);
    let ecc = m.run_one(Scheme::EccDimm).result.failure_probability(7.0);
    let xed = m.run_one(Scheme::Xed).result.failure_probability(7.0);
    let ck = m.run_one(Scheme::Chipkill).result.failure_probability(7.0);
    assert!(xed < ecc / 20.0);
    assert!(ck < ecc / 20.0);
}

#[test]
fn without_on_die_ecc_non_ecc_dimm_collapses() {
    // The whole premise: on-die ECC absorbs the (dominant-rate) bit
    // faults. Without it, a non-ECC DIMM fails on every bit fault too.
    let with = mc(200_000)
        .run_one(Scheme::NonEcc)
        .result
        .failure_probability(7.0);
    let params = ModelParams {
        on_die_ecc: false,
        ..Default::default()
    };
    let m = mc(200_000).with_params(params);
    let without = m.run_one(Scheme::NonEcc).result.failure_probability(7.0);
    assert!(
        without > with * 1.5,
        "without on-die {without} vs with {with}"
    );
}

#[test]
fn higher_on_die_miss_rate_hurts_xed() {
    let base = mc(3_000_000).run_one(Scheme::Xed).result;
    let params = ModelParams {
        on_die_miss: 0.5,
        ..Default::default()
    };
    let m = mc(3_000_000).with_params(params);
    let worse = m.run_one(Scheme::Xed).result;
    assert!(
        worse.failure_probability(7.0) > base.failure_probability(7.0),
        "0.8% -> 50% miss rate must hurt: {} vs {}",
        worse.failure_probability(7.0),
        base.failure_probability(7.0)
    );
}

#[test]
fn failure_curves_are_monotone_nondecreasing() {
    for scheme in Scheme::ALL {
        let r = mc(100_000).run_one(scheme).result;
        let curve = r.curve();
        assert!(
            curve.windows(2).all(|w| w[0] <= w[1]),
            "{scheme}: {curve:?}"
        );
    }
}

#[test]
fn table_iv_budget_matches_paper_magnitudes() {
    let cfg = SystemConfig::x8_ecc_dimm();
    let v = analytic::xed_vulnerability(&FitRates::table_i(), &cfg, 9, 0.008, 7.0);
    assert!(
        (5e-6..8e-6).contains(&v.due_word_fault),
        "{}",
        v.due_word_fault
    );
    assert!(v.sdc_diagnosis < 1e-12);
    assert!(
        (1e-4..1.5e-3).contains(&v.multi_chip_loss),
        "{}",
        v.multi_chip_loss
    );
}
