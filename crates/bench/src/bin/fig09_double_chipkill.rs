//! Figure 9: Single-Chipkill vs Double-Chipkill vs XED-on-Single-Chipkill
//! (x4 devices), without scaling faults.
//!
//! Paper result: Double-Chipkill is ~an order of magnitude better than
//! Single-Chipkill, and XED on Single-Chipkill hardware beats
//! Double-Chipkill by ~8.5x while using half the chips per access.
//!
//! `cargo run --release -p xed-bench --bin fig09_double_chipkill`

use xed_bench::{Options, ReliabilityTable};
use xed_faultsim::engine::Sweep;
use xed_faultsim::schemes::Scheme;

fn main() {
    let opts = Options::from_args();
    // The x4 schemes fail rarely; use more samples by default.
    let samples = opts.samples.max(4_000_000);
    let sweep = Sweep::new(samples, opts.seed);

    println!("Figure 9: Single-Chipkill, Double-Chipkill, and XED-based Single-Chipkill (x4)");
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
            "Double-CK vs Single-CK:  {:.1}x  (paper: ~10x)",
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
    table.finish("fig09_double_chipkill", "results/fig09.json");
}
