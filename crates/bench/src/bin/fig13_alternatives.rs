//! Figure 13: the cost of exposing on-die ECC with an extra burst or an
//! extra transaction instead of XED's catch-words, for both the
//! Chipkill-class (9-chip) and Double-Chipkill-class (18-chip)
//! configurations.
//!
//! Paper result: both alternatives cost noticeably more execution time and
//! power than XED (which costs nothing): an extra burst is a 25% bus
//! occupancy tax, an extra transaction roughly doubles read traffic.
//!
//! `cargo run --release -p xed-bench --bin fig13_alternatives`

use xed_bench::{simulate, Options, Report, J};
use xed_memsim::overlay::ReliabilityScheme;
use xed_memsim::workloads::{geometric_mean, Workload};

fn main() {
    let opts = Options::from_args();
    let variants: [(&str, ReliabilityScheme, ReliabilityScheme); 4] = [
        (
            "Chipkill / extra burst",
            ReliabilityScheme::xed(),
            ReliabilityScheme::chipkill_extra_burst(),
        ),
        (
            "Chipkill / extra transaction",
            ReliabilityScheme::xed(),
            ReliabilityScheme::chipkill_extra_transaction(),
        ),
        (
            "Double-Chipkill / extra burst",
            ReliabilityScheme::xed_chipkill(),
            ReliabilityScheme::double_chipkill_extra_burst(),
        ),
        (
            "Double-Chipkill / extra transaction",
            ReliabilityScheme::xed_chipkill(),
            ReliabilityScheme::double_chipkill_extra_transaction(),
        ),
    ];

    // A representative subset keeps the sweep fast; pass --instructions to
    // deepen it.
    let workloads = [
        "libquantum",
        "mcf",
        "lbm",
        "comm1",
        "comm3",
        "sphinx",
        "dealII",
        "stream",
    ]
    .map(|name| Workload::by_name(name).expect("a roster benchmark"));

    println!(
        "Figure 13: alternatives to catch-words, normalized to the XED implementation\n\
         of the same protection level ({} benchmarks x {} instructions)\n",
        workloads.len(),
        opts.instructions
    );
    println!(
        "{:38} {:>12} {:>12}",
        "alternative", "exec time", "memory power"
    );

    let mut report = Report::new("fig13_alternatives");
    report
        .param("instructions", J::U(opts.instructions))
        .param("seed", J::U(opts.seed))
        .param("benchmarks", J::U(workloads.len() as u64));

    for (label, xed_base, alt) in variants {
        let mut time_ratios = Vec::new();
        let mut power_ratios = Vec::new();
        for w in workloads {
            let base = simulate(w, xed_base, &opts);
            let r = simulate(w, alt, &opts);
            time_ratios.push(r.cycles as f64 / base.cycles as f64);
            power_ratios.push(r.power_mw() / base.power_mw());
        }
        let g_time = geometric_mean(time_ratios.iter().copied());
        let g_power = geometric_mean(power_ratios.iter().copied());
        println!("{label:38} {g_time:>12.3} {g_power:>12.3}");
        report.row(&[
            ("alternative", J::S(label.to_string())),
            ("exec_time", J::F(g_time)),
            ("memory_power", J::F(g_power)),
        ]);
    }
    println!(
        "\npaper reference: both alternatives land in the ~1.05-1.30 range on both axes,\n\
         while XED itself is 1.00 by construction."
    );
    report.write("results/fig13.json");
}
