//! Workspace automation (`cargo xtask` pattern).
//!
//! ```text
//! cargo run -p xtask -- analyze [--format text|json] [--root PATH]
//! cargo run -p xtask -- verify-matrix [--quick|--full] [--regen-golden]
//!                                     [--format text|json]
//! ```
//!
//! `analyze` runs `xed-analyze` (see [`analyze`]), the workspace's one
//! static-analysis pass: token rules over the library crates (XL001–XL006,
//! XL011), the metric-registry and trace-phase catalogues checked
//! against DESIGN.md (XL010, XA103, XL012), the linked golden-value rules
//! (XL007/XL008, see [`golden`]), and a workspace call graph with
//! transitive panic/alloc-freedom proofs over the named hot paths, an
//! atomic-ordering audit (XA100–XA102, XL009) and the dead public surface
//! no root reaches (XA104). Findings are waived only
//! in source, by a `// xed-analyze: allow(RULE) — reason` comment. Exits
//! nonzero if any error-severity finding survives.
//!
//! `verify-matrix` runs the `xed-testkit` cross-validation matrix (see
//! [`verify`]): exhaustive small-geometry oracle, analytic gate,
//! metamorphic laws, golden conformance traces, de-flake audit. Exits
//! nonzero if any oracle disagrees with the simulator.

mod analyze;
mod golden;
mod verify;

use std::env;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze::run(&args[1..]),
        Some("verify-matrix") => verify::run(&args[1..]),
        Some(other) => {
            eprintln!("unknown command `{other}`");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: cargo run -p xtask -- analyze [--format text|json] [--root PATH]\n\
                     \x20      cargo run -p xtask -- verify-matrix [--quick|--full] \
                     [--regen-golden] [--format text|json]";
