//! Figure 12: normalized memory power (vs the SECDED ECC-DIMM baseline)
//! for XED, Chipkill, XED-on-Chipkill and Double-Chipkill.
//!
//! Paper result: XED ≈ 1.00; Chipkill ≈ 0.92 (its longer execution time
//! spreads the energy); XED-on-Chipkill ≈ 0.92; Double-Chipkill ≈ 1.084
//! (36 activated chips overwhelm the time-stretching effect).
//!
//! `cargo run --release -p xed-bench --bin fig12_power`

use xed_bench::{roster_figure, Options};
use xed_memsim::sim::SimResult;
use xed_memsim::workloads::ALL;

fn main() {
    let opts = Options::from_args();
    roster_figure(
        &opts,
        ALL,
        SimResult::power_mw,
        "Figure 12: normalized memory power",
        "paper Gmeans: XED 1.00, Chipkill 0.92, XED+Chipkill 0.92, Double-Chipkill 1.084\n\
         (our Chipkill lands above 1.0 because we charge ganged x8 accesses their physical\n\
         2x activation + overfetch transfer energy; see EXPERIMENTS.md)",
        "fig12_power",
        "results/fig12.json",
    );
}
