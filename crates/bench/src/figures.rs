//! The two figure families' drivers. Each figure binary keeps only what
//! is its own (title, schemes or parameters, the paper-ratio lines) and
//! hands the rest to one of these:
//!
//! - [`ReliabilityTable`] — the Monte-Carlo P(fail) tables of Figs 1 and
//!   7–10: the year-by-year table, the `[engine]` footer and the
//!   `results/figNN.json` sidecar;
//! - [`roster_figure`] — the memsim ratio tables of Figs 11–12: one row
//!   per benchmark of the roster, normalized to the baseline scheme, and
//!   the Gmean row.
//!
//! Every memsim run goes through [`simulate`].

use std::path::Path;

use crate::timing::{Report, J};
use crate::{rule, sci, Options};
use xed_faultsim::engine::Sweep;
use xed_faultsim::montecarlo::{RunStats, SchemeResult};
use xed_faultsim::schemes::Scheme;
use xed_memsim::overlay::ReliabilityScheme;
use xed_memsim::sim::{SimConfig, SimResult, Simulation};
use xed_memsim::workloads::{geometric_mean, Workload};

/// Prints the engine-throughput footer shared by the Monte-Carlo
/// binaries: wall time and samples/sec for the invocation that produced
/// the figures above it (the simulated results themselves are
/// thread-count-invariant; see `xed_faultsim::montecarlo`). Its JSON
/// twin is [`Report::engine`].
pub fn throughput_footer(stats: &RunStats) {
    println!(
        "\n[engine] {:.3e} samples/sec — {} samples in {:.2} s on {} thread(s), \
         {:.1}% zero-fault fast path",
        stats.samples_per_sec,
        stats.samples,
        stats.wall_seconds,
        stats.threads,
        100.0 * stats.zero_fault_samples as f64 / stats.samples as f64
    );
}

/// One reliability figure's table: [`ReliabilityTable::run`] prints the
/// per-scheme rows, the binary prints its ratio lines from [`Self::p7`],
/// and [`ReliabilityTable::finish`] prints the footer and writes the
/// sidecar.
#[derive(Debug)]
pub struct ReliabilityTable {
    /// P(fail, 7y) per scheme, in table order.
    pub p7: Vec<f64>,
    results: Vec<SchemeResult>,
    schemes: Vec<Scheme>,
    samples: u64,
    seed: u64,
    stats: RunStats,
}

impl ReliabilityTable {
    /// Runs `schemes` through `sweep` and prints the table: header, one
    /// row per scheme with its cumulative year-1..7 curve, closing rule.
    pub fn run(sweep: &Sweep, schemes: &[Scheme]) -> Self {
        println!(
            "{:42} {:>10}  cumulative by year 1..7",
            "scheme", "P(fail,7y)"
        );
        rule(100);
        let (results, stats) = sweep.run_all(schemes);
        let mut p7 = Vec::new();
        for (scheme, r) in schemes.iter().zip(&results) {
            let curve: Vec<String> = r.curve().iter().map(|&p| sci(p)).collect();
            let p = r.failure_probability(7.0);
            println!(
                "{:42} {:>10}  [{}]",
                scheme.label(),
                sci(p),
                curve.join(", ")
            );
            p7.push(p);
        }
        rule(100);
        Self {
            p7,
            results,
            schemes: schemes.to_vec(),
            samples: sweep.samples,
            seed: sweep.seed,
            stats,
        }
    }

    /// Prints the `[engine]` footer and writes the JSON sidecar (`report`
    /// names the binary): one series row per scheme with the 7-year
    /// failure probability, the raw DUE/SDC tallies, the binomial
    /// confidence half-widths and the cumulative year-1..7 curve, plus
    /// the engine stats and active telemetry of the run.
    pub fn finish(self, report: &str, sidecar: impl AsRef<Path>) {
        throughput_footer(&self.stats);
        let mut out = Report::new(report);
        out.param("samples", J::U(self.samples))
            .param("seed", J::U(self.seed));
        for (scheme, r) in self.schemes.iter().zip(&self.results) {
            let curve: Vec<String> = r.curve().iter().map(|&p| J::F(p).render()).collect();
            // The relative width (ci95 / p) is the per-scheme precision
            // figure the rare-event engine is benchmarked against
            // (renders null when no failure was observed).
            let p = r.lifetime_failure_probability();
            let rel = if p > 0.0 {
                r.confidence95() / p
            } else {
                f64::INFINITY
            };
            out.row(&[
                ("scheme", J::S(scheme.label().to_string())),
                ("p_fail_7y", J::F(r.failure_probability(7.0))),
                ("due", J::U(r.due)),
                ("sdc", J::U(r.sdc)),
                ("ci95", J::F(r.confidence95())),
                ("ci99", J::F(r.confidence99())),
                ("relative_ci95", J::F(rel)),
                ("curve", J::Raw(format!("[{}]", curve.join(",")))),
            ]);
        }
        out.engine(&self.stats);
        out.write(sidecar);
    }
}

/// One memsim run of `workload` under `scheme` at the options'
/// instruction budget and seed.
pub fn simulate(workload: Workload, scheme: ReliabilityScheme, opts: &Options) -> SimResult {
    Simulation::new(SimConfig {
        workload,
        scheme,
        instructions_per_core: opts.instructions,
        seed: opts.seed,
        ..Default::default()
    })
    .run()
}

/// Prints and records one Figure 11-style roster table: `metric` of
/// every `ReliabilityScheme::figure11_set` scheme over every workload,
/// divided by the SECDED baseline's, with suite separators and a Gmean
/// row. `title` heads the table, `paper` follows it, and the rows go to
/// the `report` sidecar at `sidecar`.
pub fn roster_figure(
    opts: &Options,
    workloads: &[Workload],
    metric: fn(&SimResult) -> f64,
    title: &str,
    paper: &str,
    report: &str,
    sidecar: impl AsRef<Path>,
) {
    let schemes = ReliabilityScheme::figure11_set();
    let (base_scheme, schemes) = (schemes[0], &schemes[1..]);
    let short = |s: &ReliabilityScheme| s.name.split(' ').next().unwrap_or(s.name);

    println!(
        "{title} (8 cores x {} instructions, DDR3-1600)\n",
        opts.instructions
    );
    print!("{:12}", "benchmark");
    for s in schemes {
        print!(" {:>12}", short(s));
    }
    println!();

    let mut out = Report::new(report);
    out.param("instructions", J::U(opts.instructions))
        .param("seed", J::U(opts.seed))
        .param("baseline", J::S(base_scheme.name.to_string()));

    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut suite = None;
    for &w in workloads {
        if suite != Some(w.suite) {
            suite = Some(w.suite);
            println!("--- {} ---", w.suite.label());
        }
        let base = metric(&simulate(w, base_scheme, opts));
        print!("{:12}", w.name);
        let mut row = vec![("benchmark", J::S(w.name.to_string()))];
        for (ratios, s) in per_scheme.iter_mut().zip(schemes) {
            let ratio = metric(&simulate(w, *s, opts)) / base;
            ratios.push(ratio);
            print!(" {ratio:>12.3}");
            row.push((short(s), J::F(ratio)));
        }
        out.row(&row);
        println!();
    }

    let mut gmean_row = vec![("benchmark", J::S("Gmean".to_string()))];
    print!("{:12}", "Gmean");
    for (ratios, s) in per_scheme.iter().zip(schemes) {
        let g = geometric_mean(ratios.iter().copied());
        print!(" {g:>12.3}");
        gmean_row.push((short(s), J::F(g)));
    }
    println!("\n\n{paper}");
    out.row(&gmean_row);
    out.write(sidecar);
}

#[cfg(test)]
mod tests {
    use super::*;
    use xed_memsim::workloads::ALL;

    /// The series rows of a sidecar, one line each.
    fn series(path: &Path) -> Vec<String> {
        let text = std::fs::read_to_string(path).expect("sidecar written");
        let start = text.find("\"series\": [\n").expect("series array") + 12;
        let end = start + text[start..].find("\n  ],").expect("series closes");
        text[start..end]
            .lines()
            .map(|l| l.trim().to_string())
            .collect()
    }

    /// The `(key, rendered value)` pairs of a one-line series row, in
    /// order (the roster rows repeat the short name `XED`).
    fn fields(row: &str) -> Vec<(&str, &str)> {
        let body = row
            .trim_end_matches(',')
            .trim_matches(|c| c == '{' || c == '}');
        body.split(", \"")
            .map(|kv| {
                let (k, v) = kv.split_once("\": ").expect("key: value");
                (k.trim_start_matches('"'), v)
            })
            .collect()
    }

    fn field<'a>(row: &'a str, key: &str) -> &'a str {
        let found = fields(row).into_iter().find(|(k, _)| *k == key);
        found.expect("field present").1
    }

    fn sidecar_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("xed-bench-{}-{name}.json", std::process::id()))
    }

    #[test]
    fn reliability_sidecar_rows_are_the_printed_results() {
        let sweep = Sweep::new(4_000, 11).with_threads(1);
        let schemes = [Scheme::EccDimm, Scheme::Chipkill, Scheme::Xed];
        let table = ReliabilityTable::run(&sweep, &schemes);
        let results = table.results.clone();
        assert_eq!(
            table.p7,
            results
                .iter()
                .map(|r| r.failure_probability(7.0))
                .collect::<Vec<_>>()
        );
        let path = sidecar_path("reliability");
        table.finish("unit_test", &path);
        let rows = series(&path);
        let _ = std::fs::remove_file(&path);

        assert_eq!(rows.len(), schemes.len());
        for ((row, r), scheme) in rows.iter().zip(&results).zip(schemes) {
            let curve: Vec<String> = r.curve().iter().map(|&p| J::F(p).render()).collect();
            assert_eq!(field(row, "scheme"), J::S(scheme.label().into()).render());
            assert_eq!(
                field(row, "p_fail_7y"),
                J::F(r.failure_probability(7.0)).render()
            );
            assert_eq!(field(row, "due"), r.due.to_string());
            assert_eq!(field(row, "sdc"), r.sdc.to_string());
            assert_eq!(field(row, "curve"), format!("[{}]", curve.join(",")));
        }
    }

    #[test]
    fn roster_gmean_row_is_the_geometric_mean_of_the_printed_ratios() {
        let opts = Options {
            instructions: 2_000,
            ..Options::default()
        };
        let path = sidecar_path("roster");
        roster_figure(
            &opts,
            &ALL[..2],
            |r| r.cycles as f64,
            "unit test",
            "paper: none",
            "unit_test",
            &path,
        );
        let rows = series(&path);
        let _ = std::fs::remove_file(&path);

        assert_eq!(rows.len(), 3, "two benchmarks and the Gmean row");
        let schemes = ReliabilityScheme::figure11_set();
        let base = simulate(ALL[0], schemes[0], &opts).cycles as f64;
        let xed = simulate(ALL[0], schemes[1], &opts).cycles as f64;
        assert_eq!(
            fields(&rows[0])[1],
            ("XED", J::F(xed / base).render().as_str())
        );
        let gmeans = fields(&rows[2]);
        assert_eq!(gmeans.len(), schemes.len());
        assert_eq!(gmeans[0], ("benchmark", "\"Gmean\""));
        for (col, (_, gmean)) in gmeans.iter().enumerate().skip(1) {
            let ratios = rows[..2]
                .iter()
                .map(|row| fields(row)[col].1.parse::<f64>().expect("a ratio"));
            assert_eq!(*gmean, J::F(geometric_mean(ratios)).render(), "{col}");
        }
    }
}
