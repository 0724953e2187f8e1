//! Figure 11: normalized execution time (vs the SECDED ECC-DIMM baseline)
//! for XED, Chipkill, XED-on-Chipkill and Double-Chipkill, across the
//! paper's benchmark roster.
//!
//! Paper result: XED ≈ 1.00 (overhead < 0.01%); Chipkill averages 1.21
//! (libquantum up to 1.63, mcf 1.51); XED-on-Chipkill ≈ 1.21; traditional
//! Double-Chipkill averages 1.82 (libquantum up to 3.2).
//!
//! `cargo run --release -p xed-bench --bin fig11_exec_time`
//! (`--instructions N` per core; `--show-config` prints Table V.)

use xed_bench::{roster_figure, Options};
use xed_memsim::workloads::ALL;

fn main() {
    let opts = Options::from_args();
    if std::env::args().any(|a| a == "--show-config") {
        print_table_v();
    }
    roster_figure(
        &opts,
        ALL,
        |r| r.cycles as f64,
        "Figure 11: normalized execution time",
        "paper Gmeans: XED 1.00, Chipkill 1.21, XED+Chipkill 1.21, Double-Chipkill 1.82",
        "fig11_exec_time",
        "results/fig11.json",
    );
}

fn print_table_v() {
    println!("Table V: baseline system configuration");
    for (k, v) in [
        ("Number of cores", "8"),
        ("Processor clock speed", "3.2 GHz"),
        ("Processor ROB size", "160"),
        ("Processor retire width", "4"),
        ("Processor fetch width", "4"),
        (
            "Last Level Cache",
            "modeled via per-benchmark LLC MPKI profiles",
        ),
        ("Memory bus speed", "800 MHz (DDR3-1600)"),
        ("DDR3 Memory channels", "4"),
        ("Ranks per channel", "2"),
        ("Banks per rank", "8"),
        ("Rows per bank", "32K"),
        ("Columns (cache lines) per row", "128"),
    ] {
        println!("  {k:32} {v}");
    }
    println!();
}
