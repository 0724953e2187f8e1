//! A miniature version of the paper's reliability evaluation: Monte-Carlo
//! simulate every protection scheme over a 7-year lifetime and print the
//! probability of system failure (cf. Figures 1, 7 and 9).
//!
//! Run with: `cargo run --release --example reliability_study`
//! (release mode recommended; this simulates 4M systems in a few seconds).

use xed::faultsim::engine::Sweep;
use xed::faultsim::scaling::ScalingFaults;
use xed::faultsim::schemes::{ModelParams, Scheme};

fn main() {
    let samples = 500_000;
    println!("Monte-Carlo: {samples} systems per scheme, 7-year lifetime, Table I FIT rates\n");

    let mc = Sweep::new(samples, 2016);
    println!(
        "{:45} {:>12} {:>8} {:>8}",
        "scheme", "P(fail, 7y)", "DUE", "SDC"
    );
    // One work-stealing pool simulates all seven schemes; the results are
    // identical to seven solo runs (and to any thread count).
    let (results, stats) = mc.run_all(&Scheme::ALL);
    let mut baseline = None;
    for (scheme, r) in Scheme::ALL.into_iter().zip(&results) {
        let p = r.failure_probability(7.0);
        if scheme == Scheme::EccDimm {
            baseline = Some(p);
        }
        let vs = match (baseline, p > 0.0) {
            (Some(b), true) if scheme != Scheme::EccDimm => {
                format!("  ({:.0}x vs ECC-DIMM)", b / p)
            }
            _ => String::new(),
        };
        println!(
            "{:45} {:>12.3e} {:>8} {:>8}{vs}",
            scheme.label(),
            p,
            r.due,
            r.sdc
        );
    }
    println!(
        "  [{:.2e} samples/sec on {} thread(s)]",
        stats.samples_per_sec, stats.threads
    );

    // The same comparison with scaling faults at the paper's 10^-4 rate
    // (Figure 8): XED still wins because on-die ECC absorbs scaling faults
    // and catch-words expose everything else.
    println!("\nwith scaling faults at rate 1e-4 (Figure 8):");
    let mc = mc.with_params(ModelParams {
        scaling: ScalingFaults::paper_default(),
        ..Default::default()
    });
    let schemes = [Scheme::EccDimm, Scheme::Xed, Scheme::Chipkill];
    for (scheme, r) in schemes.iter().zip(&mc.run_all(&schemes).0) {
        println!(
            "{:45} {:>12.3e}",
            scheme.label(),
            r.failure_probability(7.0)
        );
    }

    // Year-by-year failure CDF for XED (the curve the figures plot).
    let r = Sweep::new(2_000_000, 7).run_one(Scheme::Xed).result;
    println!("\nXED cumulative failure probability by year:");
    for (year, p) in r.curve().iter().enumerate() {
        println!("  year {:>2}: {:.2e}", year + 1, p);
    }
}
