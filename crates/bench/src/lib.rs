//! Shared infrastructure for the reproduction binaries.
//!
//! Each paper table/figure has a binary under `src/bin/` (see DESIGN.md §5
//! for the experiment index). The binaries share simple command-line
//! handling (`--samples`, `--instructions`, `--seed`, `--quick`), small
//! formatting helpers used to render results the way the paper reports
//! them, and one driver per figure family ([`figures`]).

use std::env;

pub mod figures;
pub mod timing;

pub use figures::{roster_figure, simulate, throughput_footer, ReliabilityTable};
pub use timing::{Report, J};

/// Command-line options shared by the reproduction binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Monte-Carlo samples per scheme (reliability experiments).
    pub samples: u64,
    /// Instructions per core (performance experiments).
    pub instructions: u64,
    /// RNG seed.
    pub seed: u64,
    /// Monte-Carlo trials per Table II cell.
    pub trials: u64,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            samples: 2_000_000,
            instructions: 200_000,
            seed: 2016,
            trials: 1_000_000,
        }
    }
}

impl Options {
    /// Parses `--samples N`, `--instructions N`, `--trials N`, `--seed N`
    /// and `--quick` from the process arguments; everything else is
    /// ignored with a note.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on a malformed numeric value.
    pub fn from_args() -> Self {
        let mut opts = Self::default();
        let mut args = env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut grab = |name: &str| -> u64 {
                args.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("usage: {name} <number>"))
            };
            match arg.as_str() {
                "--samples" => opts.samples = grab("--samples"),
                "--instructions" => opts.instructions = grab("--instructions"),
                "--seed" => opts.seed = grab("--seed"),
                "--trials" => opts.trials = grab("--trials"),
                "--quick" => {
                    opts.samples = 200_000;
                    opts.instructions = 50_000;
                    opts.trials = 100_000;
                }
                other => eprintln!("(ignoring unknown argument {other})"),
            }
        }
        opts
    }
}

/// Prints a rule line sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a probability in the scientific style the paper's figures use.
pub fn sci(p: f64) -> String {
    if p == 0.0 {
        "0 (none observed)".to_string()
    } else {
        format!("{p:.2e}")
    }
}

/// Formats a ratio as `N.NNx`.
pub fn ratio(r: f64) -> String {
    format!("{r:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reasonable() {
        let o = Options::default();
        assert!(o.samples >= 100_000);
        assert!(o.instructions >= 10_000);
    }

    #[test]
    fn sci_formats() {
        assert_eq!(sci(0.0), "0 (none observed)");
        assert_eq!(sci(1.234e-4), "1.23e-4");
    }

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(1.21), "1.21x");
    }
}
