//! Figure 8: reliability of ECC-DIMM, XED and Chipkill when runtime faults
//! occur in the presence of scaling faults at rate 10⁻⁴.
//!
//! Paper result: the ordering (and roughly the factors) of Figure 7 hold —
//! XED 172x over ECC-DIMM, Chipkill 43x — because on-die ECC absorbs
//! scaling faults and XED corrects multi-catch-word episodes in serial
//! mode.
//!
//! `cargo run --release -p xed-bench --bin fig08_scaling`

use xed_bench::{Options, ReliabilityTable};
use xed_faultsim::engine::Sweep;
use xed_faultsim::scaling::ScalingFaults;
use xed_faultsim::schemes::{ModelParams, Scheme};

fn main() {
    let opts = Options::from_args();
    let params = ModelParams {
        scaling: ScalingFaults::paper_default(),
        ..Default::default()
    };
    let sweep = Sweep::new(opts.samples, opts.seed).with_params(params);

    println!("Figure 8: reliability with scaling faults at 1e-4");
    println!("({} systems/scheme, 7-year lifetime)\n", opts.samples);
    let table = ReliabilityTable::run(&sweep, &[Scheme::EccDimm, Scheme::Chipkill, Scheme::Xed]);
    let (ecc, ck, xed) = (table.p7[0], table.p7[1], table.p7[2]);
    if xed > 0.0 && ck > 0.0 {
        println!("XED vs ECC-DIMM:  {:.0}x  (paper: 172x)", ecc / xed);
        println!("Chipkill vs ECC:  {:.0}x  (paper: 43x)", ecc / ck);
    }
    println!(
        "\nScaling-fault side effects modeled: runtime bit faults landing in \
         scaling-faulty words\n(p_word = {:.2e}) become 2-bit on-die-uncorrectable errors; \
         XED turns them into catch-words,\nECC-DIMM suffers extra DUEs.",
        ScalingFaults::paper_default().p_word_faulty()
    );
    table.finish("fig08_scaling", "results/fig08.json");
}
