//! Figure 10: Single-Chipkill, Double-Chipkill and XED-on-Single-Chipkill
//! (x4 devices) in the presence of scaling faults at rate 10⁻⁴.
//!
//! Paper result: Double-Chipkill stays ~5.5x better than Single-Chipkill,
//! and XED on Single-Chipkill stays ~8.5x better than Double-Chipkill.
//!
//! `cargo run --release -p xed-bench --bin fig10_double_chipkill_scaling`

use xed_bench::{Options, ReliabilityTable};
use xed_faultsim::engine::Sweep;
use xed_faultsim::scaling::ScalingFaults;
use xed_faultsim::schemes::{ModelParams, Scheme};

fn main() {
    let opts = Options::from_args();
    let samples = opts.samples.max(4_000_000);
    let params = ModelParams {
        scaling: ScalingFaults::paper_default(),
        ..Default::default()
    };
    let sweep = Sweep::new(samples, opts.seed).with_params(params);

    println!("Figure 10: x4 chipkill-class schemes with scaling faults at 1e-4");
    println!("({samples} systems/scheme, 7-year lifetime)\n");
    let table = ReliabilityTable::run(
        &sweep,
        &[
            Scheme::ChipkillX4,
            Scheme::DoubleChipkill,
            Scheme::XedChipkill,
        ],
    );
    let (single, double, xed) = (table.p7[0], table.p7[1], table.p7[2]);
    if double > 0.0 {
        println!(
            "Double-CK vs Single-CK:  {:.1}x  (paper: 5.5x)",
            single / double
        );
    }
    if xed > 0.0 {
        println!(
            "XED+CK  vs Double-CK:    {:.1}x  (paper: 8.5x)",
            double / xed
        );
    } else {
        println!("XED+CK saw no failures at this sample count; increase --samples.");
    }
    table.finish("fig10_double_chipkill_scaling", "results/fig10.json");
}
