//! Tier-1 guarantee: Monte-Carlo results are a pure function of
//! `(seed, scheme, samples)` — the worker-thread count must never change a
//! single counter of a [`SchemeResult`] (DESIGN.md §9).
//!
//! The engine keys every trial's randomness by `(seed, scheme, trial)`
//! and merges only commutative `u64` accumulators, so 1, 3 and 8 workers
//! stealing chunks in arbitrary interleavings must produce bit-identical
//! output. This test pins that contract from outside the crate.

use xed_faultsim::engine::Sweep;
use xed_faultsim::montecarlo::SchemeResult;
use xed_faultsim::schemes::Scheme;

fn run(scheme: Scheme, threads: usize, samples: u64, seed: u64) -> SchemeResult {
    Sweep::new(samples, seed)
        .with_threads(threads)
        .run_one(scheme)
        .result
}

#[test]
fn scheme_results_identical_at_1_3_and_8_threads() {
    for scheme in [Scheme::EccDimm, Scheme::Xed, Scheme::ChipkillX4] {
        let solo = run(scheme, 1, 60_000, 2016);
        assert!(solo.samples == 60_000);
        for threads in [3usize, 8] {
            let multi = run(scheme, threads, 60_000, 2016);
            assert_eq!(solo, multi, "{scheme}: 1 vs {threads} threads");
        }
    }
}

#[test]
fn batched_run_all_identical_to_solo_runs_across_thread_counts() {
    // The work-stealing pool spans all schemes of a run_all invocation;
    // neither batching nor thread count may leak into the results.
    let schemes = [Scheme::EccDimm, Scheme::Xed];
    let reference: Vec<SchemeResult> = schemes.iter().map(|&s| run(s, 1, 40_000, 7)).collect();
    for threads in [3usize, 8] {
        let (batched, _) = Sweep::new(40_000, 7)
            .with_threads(threads)
            .run_all(&schemes);
        assert_eq!(batched, reference, "run_all at {threads} threads");
    }
}
