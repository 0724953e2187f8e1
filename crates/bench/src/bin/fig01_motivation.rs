//! Figure 1: probability of system failure over 7 years for a Non-ECC
//! DIMM, an ECC-DIMM (SECDED) and Chipkill — all with On-Die ECC inside
//! the devices.
//!
//! Paper result: with on-die ECC, the 9-chip ECC-DIMM is barely better
//! than the 8-chip non-ECC DIMM (large-granularity faults defeat SECDED
//! either way), while Chipkill is ~43x more reliable than the ECC-DIMM.
//!
//! `cargo run --release -p xed-bench --bin fig01_motivation`
//! (`--samples N` to change the Monte-Carlo size, `--show-fits` to print
//! the Table I input rates.)

use xed_bench::{Options, ReliabilityTable};
use xed_faultsim::engine::Sweep;
use xed_faultsim::fit::FitRates;
use xed_faultsim::schemes::Scheme;

fn main() {
    let opts = Options::from_args();
    if std::env::args().any(|a| a == "--show-fits") {
        print_table_i();
    }

    let sweep = Sweep::new(opts.samples, opts.seed);

    println!("Figure 1: effectiveness of reliability solutions in presence of On-Die ECC");
    println!("({} systems/scheme, 7-year lifetime)\n", opts.samples);
    let table = ReliabilityTable::run(&sweep, &[Scheme::NonEcc, Scheme::EccDimm, Scheme::Chipkill]);
    let probs = &table.p7;
    if probs[2] > 0.0 {
        println!(
            "Chipkill vs ECC-DIMM: {:.0}x more reliable (paper: 43x)",
            probs[1] / probs[2]
        );
    }
    println!(
        "ECC-DIMM vs Non-ECC:  {:.2}x (paper: \"almost no reliability benefit\")",
        probs[0] / probs[1]
    );
    table.finish("fig01_motivation", "results/fig01.json");
}

fn print_table_i() {
    println!("Table I: DRAM failures per billion hours (FIT) [Sridharan & Liberty]");
    println!("{:12} {:>10} {:>10}", "mode", "transient", "permanent");
    for row in FitRates::table_i().rows() {
        println!(
            "{:12} {:>10} {:>10}",
            row.extent.to_string(),
            row.transient_fit,
            row.permanent_fit
        );
    }
    println!();
}
