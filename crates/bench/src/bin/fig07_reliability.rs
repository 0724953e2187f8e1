//! Figure 7: reliability of ECC-DIMM, XED and Chipkill (all with On-Die
//! ECC, no scaling faults).
//!
//! Paper result: XED is 172x more reliable than the ECC-DIMM and ~4x more
//! reliable than Chipkill, because XED's erasure domain is one 9-chip rank
//! while Chipkill's is 18 chips.
//!
//! `cargo run --release -p xed-bench --bin fig07_reliability`

use xed_bench::{Options, ReliabilityTable};
use xed_faultsim::engine::Sweep;
use xed_faultsim::schemes::Scheme;

fn main() {
    let opts = Options::from_args();
    let sweep = Sweep::new(opts.samples, opts.seed);

    println!("Figure 7: reliability of ECC-DIMM, XED, and Chipkill");
    println!(
        "({} systems/scheme, 7-year lifetime, Table I FITs)\n",
        opts.samples
    );
    let table = ReliabilityTable::run(&sweep, &[Scheme::EccDimm, Scheme::Chipkill, Scheme::Xed]);
    let (ecc, ck, xed) = (table.p7[0], table.p7[1], table.p7[2]);
    if xed > 0.0 {
        println!("XED vs ECC-DIMM:   {:.0}x   (paper: 172x)", ecc / xed);
        println!("XED vs Chipkill:   {:.1}x   (paper: 4x)", ck / xed);
    }
    if ck > 0.0 {
        println!("Chipkill vs ECC:   {:.0}x   (paper: 43x)", ecc / ck);
    }
    table.finish("fig07_reliability", "results/fig07.json");
}
