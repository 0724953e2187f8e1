//! The run-report pipeline shared by the reproduction binaries: the
//! `[engine]` wall-clock footer ([`engine_footer`]) and the
//! machine-readable [`Report`].
//!
//! Every JSON artifact the binaries write — the `results/fig*.json`
//! sidecars — shares the `xed-report-v1` envelope (schema documented on
//! [`Report`]). Speed is measured by the benchmark in `perfbench/`, not
//! here.

use std::fmt::Write as _;
use std::path::Path;
use xed_faultsim::montecarlo::{RunStats, SchemeResult};
use xed_telemetry::export::json_string;

/// A JSON value in a [`Report`] (hand-rendered; the workspace carries no
/// serialization dependency by design).
#[derive(Debug, Clone, PartialEq)]
pub enum J {
    /// Unsigned integer.
    U(u64),
    /// Float; non-finite values render as `null`.
    F(f64),
    /// String (escaped on render).
    S(String),
    /// Boolean.
    B(bool),
    /// Pre-rendered JSON fragment, embedded verbatim (e.g. a nested
    /// array from [`xed_telemetry::Snapshot::active_to_json_array`]).
    Raw(String),
}

impl J {
    fn render(&self) -> String {
        match self {
            J::U(v) => v.to_string(),
            J::F(v) if v.is_finite() => format!("{v}"),
            J::F(_) => "null".to_string(),
            J::S(s) => json_string(s),
            J::B(b) => b.to_string(),
            J::Raw(s) => s.clone(),
        }
    }
}

/// Builder for the workspace's machine-readable run reports
/// (`xed-report-v1`, documented in DESIGN.md §11):
///
/// ```json
/// {
///   "schema": "xed-report-v1",
///   "report": "<binary name>",
///   "params": { "samples": 2000000, "seed": 2016, ... },
///   "series": [ { ...one row per reported data point... } ],
///   "engine": { ...Monte-Carlo RunStats, when one backed the report... },
///   "telemetry": [ ...active registry metrics at render time... ]
/// }
/// ```
///
/// `params` holds the run's inputs, `series` its report-specific outputs
/// (one object per scheme/point/system), `engine` the wall-clock footer
/// data, and `telemetry` the active [`xed_telemetry::registry`] samples —
/// the same objects `Snapshot::active_to_json_array` emits.
#[derive(Debug, Default)]
pub struct Report {
    name: String,
    params: Vec<(String, J)>,
    series: Vec<String>,
    engine: Option<String>,
}

impl Report {
    /// Starts a report named after the producing binary.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            ..Self::default()
        }
    }

    /// Records one run parameter.
    pub fn param(&mut self, key: &str, value: J) -> &mut Self {
        self.params.push((key.to_string(), value));
        self
    }

    /// Appends one series row (field order is preserved).
    pub fn row(&mut self, fields: &[(&str, J)]) -> &mut Self {
        let mut obj = String::from("{");
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                obj.push_str(", ");
            }
            let _ = write!(obj, "{}: {}", json_string(k), v.render());
        }
        obj.push('}');
        self.series.push(obj);
        self
    }

    /// Attaches the Monte-Carlo engine stats (the JSON twin of the text
    /// [`engine_footer`]).
    pub fn engine(&mut self, stats: &RunStats) -> &mut Self {
        self.engine = Some(format!(
            "{{\"samples\": {}, \"threads\": {}, \"wall_seconds\": {:.6}, \
             \"samples_per_sec\": {:.0}, \"zero_fault_samples\": {}}}",
            stats.samples,
            stats.threads,
            stats.wall_seconds,
            stats.samples_per_sec,
            stats.zero_fault_samples
        ));
        self
    }

    /// Renders the `xed-report-v1` envelope, embedding the active
    /// telemetry metrics captured at this moment.
    pub fn render(&self) -> String {
        let mut j = String::from("{\n");
        let _ = writeln!(j, "  \"schema\": \"xed-report-v1\",");
        let _ = writeln!(j, "  \"report\": {},", json_string(&self.name));
        j.push_str("  \"params\": {");
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                j.push_str(", ");
            }
            let _ = write!(j, "{}: {}", json_string(k), v.render());
        }
        j.push_str("},\n");
        j.push_str("  \"series\": [\n");
        for (i, row) in self.series.iter().enumerate() {
            let comma = if i + 1 < self.series.len() { "," } else { "" };
            let _ = writeln!(j, "    {row}{comma}");
        }
        j.push_str("  ],\n");
        if let Some(engine) = &self.engine {
            let _ = writeln!(j, "  \"engine\": {engine},");
        }
        let _ = writeln!(
            j,
            "  \"telemetry\": {}",
            xed_telemetry::snapshot().active_to_json_array()
        );
        j.push_str("}\n");
        j
    }

    /// Renders and writes the report, creating parent directories.
    ///
    /// # Panics
    ///
    /// Panics with the path on any I/O error (reports are produced by
    /// binaries, where aborting with context is the right behavior).
    pub fn write(&self, path: impl AsRef<Path>) {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
            }
        }
        std::fs::write(path, self.render())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

/// Writes the JSON sidecar shared by the reliability figures
/// (`results/figNN.json` next to the checked-in `figNN.txt`): one series
/// row per scheme with the 7-year failure probability, the raw DUE/SDC
/// tallies, and the cumulative year-1..7 failure curve, plus the engine
/// stats and active telemetry of the run that produced them.
pub fn write_reliability_sidecar(
    name: &str,
    out: &str,
    samples: u64,
    seed: u64,
    labels: &[String],
    results: &[SchemeResult],
    stats: &RunStats,
) {
    let mut report = Report::new(name);
    report
        .param("samples", J::U(samples))
        .param("seed", J::U(seed));
    for (label, r) in labels.iter().zip(results) {
        let curve: Vec<String> = r.curve().iter().map(|&p| J::F(p).render()).collect();
        // Binomial confidence half-widths on the lifetime probability; the
        // relative width (ci95 / p) is the per-scheme precision figure the
        // rare-event engine is benchmarked against (renders null when no
        // failure was observed).
        let p = r.lifetime_failure_probability();
        let rel = if p > 0.0 {
            J::F(r.confidence95() / p)
        } else {
            J::F(f64::INFINITY)
        };
        report.row(&[
            ("scheme", J::S(label.clone())),
            ("p_fail_7y", J::F(r.failure_probability(7.0))),
            ("due", J::U(r.due)),
            ("sdc", J::U(r.sdc)),
            ("ci95", J::F(r.confidence95())),
            ("ci99", J::F(r.confidence99())),
            ("relative_ci95", rel),
            ("curve", J::Raw(format!("[{}]", curve.join(",")))),
        ]);
    }
    report.engine(stats);
    report.write(out);
}

/// Formats the engine-throughput footer shared by the Monte-Carlo
/// binaries: wall time and samples/sec for the invocation that produced
/// the figures above it (the simulated results themselves are
/// thread-count-invariant; see `xed_faultsim::montecarlo`).
pub fn engine_footer(stats: &RunStats) -> String {
    format!(
        "\n[engine] {:.3e} samples/sec — {} samples in {:.2} s on {} thread(s), \
         {:.1}% zero-fault fast path",
        stats.samples_per_sec,
        stats.samples,
        stats.wall_seconds,
        stats.threads,
        100.0 * stats.zero_fault_samples as f64 / stats.samples as f64
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_envelope_shape() {
        let mut r = Report::new("unit_test");
        r.param("samples", J::U(42))
            .param("label", J::S("a \"quoted\" name".into()))
            .row(&[("scheme", J::S("Xed".into())), ("p", J::F(1.5e-7))])
            .row(&[("ok", J::B(true)), ("nested", J::Raw("[1,2]".into()))]);
        let json = r.render();
        assert!(json.starts_with("{\n  \"schema\": \"xed-report-v1\",\n"));
        assert!(json.contains("\"report\": \"unit_test\""));
        assert!(json.contains("\"samples\": 42"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"p\": 0.00000015"));
        assert!(json.contains("\"nested\": [1,2]"));
        assert!(json.contains("\"telemetry\": ["));
        assert!(!json.contains("\"engine\""), "no engine stats attached");
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(J::F(f64::NAN).render(), "null");
        assert_eq!(J::F(f64::INFINITY).render(), "null");
        assert_eq!(J::F(0.25).render(), "0.25");
    }

    #[test]
    fn engine_footer_formats() {
        let stats = RunStats {
            samples: 1000,
            zero_fault_samples: 900,
            wall_seconds: 0.5,
            samples_per_sec: 2000.0,
            threads: 4,
        };
        let footer = engine_footer(&stats);
        assert!(footer.contains("samples/sec"));
        assert!(footer.contains("1000 samples"));
        assert!(footer.contains("4 thread(s)"));
        assert!(footer.contains("90.0% zero-fault"));
    }
}
