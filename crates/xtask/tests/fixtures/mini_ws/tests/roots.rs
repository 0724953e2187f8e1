//! The fixture's integration test: the root XA104 walks from. It reaches
//! every fixture item meant to be live, so the seeded cases of
//! `crates/faultsim/src/surface.rs` are the only XA104 findings. Never
//! compiled; only its token stream matters.

use xed_ecc::{ReedSolomon, SecDed, SyndromeCode};
use xed_faultsim::surface::{self, Ring, LIVE_LIMIT, SEEDED};
use xed_faultsim::{Query, SchemeModel, TailPlan};
use xed_telemetry::registry::CATALOGUE;
use xed_telemetry::trace::Phase;
use xed_telemetry::{Counter, Histogram, TraceBuf};
use xedd::MemoCache;

#[test]
fn every_entry_point_runs() {
    SecDed.decode_line(1, 0, &[1]);
    SyndromeCode.decode(1, 0);
    ReedSolomon.decode_with(&[1]);
    xed_faultsim::run_trials(1);
    xed_faultsim::run_trials_bitsliced(1);
    xed_faultsim::epoch_now();
    xed_faultsim::note_trial(1);
    let model = SchemeModel::default();
    model.evaluate(Some(1));
    model.evaluate_isolated(1);
    let plan = TailPlan::default();
    plan.run_trial(1);
    let query = Query::default();
    let cache = MemoCache::default();
    cache.lookup(&query.canonical_key());
}

#[test]
fn telemetry_reads_back() {
    xed_telemetry::set_enabled(xed_telemetry::enabled());
    let counter = Counter::default();
    counter.incr();
    xed_telemetry::count(&counter, counter.value());
    counter.reset();
    let hist = Histogram::default();
    xed_telemetry::observe(&hist, 1);
    let total = hist.bucket(0) + hist.count() + hist.sum() + hist.max() + hist.sample(0);
    hist.reset();
    let mut buf = TraceBuf::default();
    xed_telemetry::record_span(&mut buf, total);
    assert_eq!(CATALOGUE.len(), Phase::ALL.len() + 2);
}

#[test]
fn surface_cases() {
    assert_eq!(surface::reached_from_a_root(), 2);
    assert_eq!(SEEDED, 9);
    let doubled: Vec<u64> = [LIVE_LIMIT].iter().copied().map(Ring::scaled).collect();
    assert_eq!(doubled, [16]);
}
