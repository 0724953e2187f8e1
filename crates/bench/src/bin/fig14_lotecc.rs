//! Figure 14: execution time of LOT-ECC (with write coalescing) relative
//! to XED, by benchmark suite.
//!
//! Paper result: LOT-ECC — a chipkill alternative that maintains tiered
//! localized checksums — runs ~6.6% slower than XED because every write
//! spawns checksum-update writes.
//!
//! `cargo run --release -p xed-bench --bin fig14_lotecc`

use xed_bench::{simulate, Options, Report, J};
use xed_memsim::overlay::ReliabilityScheme;
use xed_memsim::workloads::{geometric_mean, Suite, ALL};

fn main() {
    let opts = Options::from_args();
    println!(
        "Figure 14: LOT-ECC (write-coalescing) execution time normalized to XED\n\
         (8 cores x {} instructions)\n",
        opts.instructions
    );
    println!("{:12} {:>14}", "suite", "LOT-ECC / XED");

    let mut report = Report::new("fig14_lotecc");
    report
        .param("instructions", J::U(opts.instructions))
        .param("seed", J::U(opts.seed));

    let mut all_ratios = Vec::new();
    for suite in [
        Suite::Spec2006,
        Suite::Parsec,
        Suite::BioBench,
        Suite::Commercial,
    ] {
        let mut ratios = Vec::new();
        for &w in ALL.iter().filter(|w| w.suite == suite) {
            let xed = simulate(w, ReliabilityScheme::xed(), &opts).cycles;
            let lot = simulate(w, ReliabilityScheme::lot_ecc(), &opts).cycles;
            ratios.push(lot as f64 / xed as f64);
        }
        let g = geometric_mean(ratios.iter().copied());
        all_ratios.extend(ratios);
        println!("{:12} {:>14.3}", suite.label(), g);
        report.row(&[
            ("suite", J::S(suite.label().to_string())),
            ("lotecc_over_xed", J::F(g)),
        ]);
    }
    let gmean = geometric_mean(all_ratios.iter().copied());
    println!("{:12} {gmean:>14.3}", "GMEAN");
    println!("\npaper reference: LOT-ECC is 6.6% slower than XED on average (write overheads).");
    report.row(&[
        ("suite", J::S("GMEAN".to_string())),
        ("lotecc_over_xed", J::F(gmean)),
    ]);
    report.write("results/fig14.json");
}
