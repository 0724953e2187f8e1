//! The machine-readable run [`Report`] shared by the reproduction
//! binaries.
//!
//! Every JSON artifact the binaries write — the `results/fig*.json`
//! sidecars — shares the `xed-report-v1` envelope (schema documented on
//! [`Report`]). Speed is measured by the benchmark in `perfbench/`, not
//! here.

use std::fmt::Write as _;
use std::path::Path;
use xed_faultsim::montecarlo::RunStats;
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
    /// Pre-rendered JSON fragment, embedded verbatim (e.g. a nested
    /// array from [`xed_telemetry::Snapshot::active_to_json_array`]).
    Raw(String),
}

impl J {
    pub(crate) fn render(&self) -> String {
        match self {
            J::U(v) => v.to_string(),
            J::F(v) if v.is_finite() => format!("{v}"),
            J::F(_) => "null".to_string(),
            J::S(s) => json_string(s),
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
    /// [`crate::throughput_footer`]).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_envelope_shape() {
        let mut r = Report::new("unit_test");
        r.param("samples", J::U(42))
            .param("label", J::S("a \"quoted\" name".into()))
            .row(&[("scheme", J::S("Xed".into())), ("p", J::F(1.5e-7))])
            .row(&[("n", J::U(7)), ("nested", J::Raw("[1,2]".into()))]);
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
}
