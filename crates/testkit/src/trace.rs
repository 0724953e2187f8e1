//! Golden conformance traces (`xed-trace-v1`).
//!
//! A trace is a stable JSON rendering of everything a small, seeded
//! Monte-Carlo run did: every non-trivial trial replayed step by step
//! ([`Sweep::replay_trial`]), the aggregate result, and the
//! telemetry the run is expected to publish. The rendered document is
//! compared byte-for-byte against a golden file checked into
//! `crates/testkit/golden/` — any change to the RNG streams, the fault
//! sampler, the response models, or the replay path shows up as a
//! human-readable JSON diff instead of a silent drift in simulated
//! reliability numbers.
//!
//! Format stability contract: the `format` field is bumped whenever the
//! rendering changes shape; regenerating the files
//! (`cargo xtask verify-matrix --regen-golden`) is a reviewed act, and a
//! regeneration that changes trial contents without a deliberate
//! simulator change is a red flag. Numbers are rendered with Rust's
//! shortest-roundtrip `f64` formatting, which is stable across
//! platforms.

use crate::seeds;
use xed_faultsim::engine::Sweep;
use xed_faultsim::montecarlo::TrialReplay;
use xed_faultsim::schemes::Scheme;

/// Trace format identifier; bump on any rendering change.
pub const FORMAT: &str = "xed-trace-v1";

/// Trials per traced scheme — small enough to diff by eye, large enough
/// that each trace exercises multi-fault trials and failures.
pub const SAMPLES: u64 = 512;

/// The schemes with golden traces (the paper's four headline configs).
pub const SCHEMES: [Scheme; 4] = [
    Scheme::EccDimm,
    Scheme::Xed,
    Scheme::XedChipkill,
    Scheme::Chipkill,
];

/// Stable file-name slug for a traced scheme.
pub fn slug(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::NonEcc => "non_ecc",
        Scheme::EccDimm => "ecc_dimm",
        Scheme::Xed => "xed",
        Scheme::Chipkill => "chipkill",
        Scheme::ChipkillX4 => "chipkill_x4",
        Scheme::XedChipkill => "xed_chipkill",
        Scheme::DoubleChipkill => "double_chipkill",
    }
}

/// The golden file contents, baked in at compile time.
pub fn golden(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::EccDimm => include_str!("../golden/trace_ecc_dimm.json"),
        Scheme::Xed => include_str!("../golden/trace_xed.json"),
        Scheme::XedChipkill => include_str!("../golden/trace_xed_chipkill.json"),
        Scheme::Chipkill => include_str!("../golden/trace_chipkill.json"),
        // invariant: SCHEMES lists exactly the schemes with golden files.
        _ => "",
    }
}

/// The telemetry counters a trace's run must publish, derived from the
/// replayed trials themselves (`(metric id, expected delta)` pairs).
pub fn expected_telemetry(replays: &[TrialReplay], due: u64, sdc: u64) -> [(&'static str, u64); 4] {
    let zero = replays.iter().filter(|r| r.zero_fault).count() as u64;
    [
        ("faultsim.trials", replays.len() as u64),
        ("faultsim.zero_fault_trials", zero),
        ("faultsim.due", due),
        ("faultsim.sdc", sdc),
    ]
}

fn mc(scheme_samples: u64) -> Sweep {
    Sweep::new(scheme_samples, seeds::GOLDEN_TRACE).with_threads(1)
}

/// Renders the `xed-trace-v1` document for one scheme.
pub fn render(scheme: Scheme) -> String {
    let m = mc(SAMPLES);
    let result = m.run_one(scheme).result;
    let replays: Vec<TrialReplay> = (0..SAMPLES).map(|t| m.replay_trial(scheme, t)).collect();
    let telemetry = expected_telemetry(&replays, result.due, result.sdc);

    let mut out = String::with_capacity(16 * 1024);
    out.push_str("{\n");
    out.push_str(&format!("  \"format\": \"{FORMAT}\",\n"));
    out.push_str(&format!("  \"scheme\": \"{}\",\n", slug(scheme)));
    out.push_str(&format!("  \"seed\": {},\n", seeds::GOLDEN_TRACE));
    out.push_str(&format!("  \"samples\": {SAMPLES},\n"));
    out.push_str("  \"trials\": [\n");
    let mut first = true;
    for r in replays.iter().filter(|r| !r.zero_fault) {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("    ");
        render_trial(&mut out, r);
    }
    out.push_str("\n  ],\n");
    out.push_str("  \"result\": {\n");
    out.push_str(&format!("    \"due\": {},\n", result.due));
    out.push_str(&format!("    \"sdc\": {},\n", result.sdc));
    let years: Vec<String> = result
        .failures_by_year
        .iter()
        .map(|f| f.to_string())
        .collect();
    out.push_str(&format!(
        "    \"failures_by_year\": [{}]\n  }},\n",
        years.join(", ")
    ));
    out.push_str("  \"telemetry\": {\n");
    let tele: Vec<String> = telemetry
        .iter()
        .map(|(id, v)| format!("    \"{id}\": {v}"))
        .collect();
    out.push_str(&tele.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

/// One replayed trial on a single line (diff-friendly).
fn render_trial(out: &mut String, r: &TrialReplay) {
    out.push_str(&format!("{{\"trial\": {}, \"steps\": [", r.trial));
    for (i, s) in r.steps.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let chip = s.chip.map_or_else(|| "null".to_string(), |c| c.to_string());
        out.push_str(&format!(
            "{{\"t\": {:?}, \"chip\": {chip}, \"extent\": \"{}\", \"persistence\": \"{:?}\", \"active\": {}, \"verdict\": \"{:?}\"}}",
            s.time_hours, s.extent, s.persistence, s.active, s.verdict
        ));
    }
    out.push_str("], \"failure\": ");
    match &r.failure {
        None => out.push_str("null"),
        Some(f) => out.push_str(&format!(
            "{{\"due\": {}, \"year\": {}, \"extent_index\": {}}}",
            f.due, f.year, f.extent_index
        )),
    }
    out.push('}');
}

/// One golden-trace comparison.
#[derive(Debug, Clone)]
pub struct TraceCheck {
    /// The traced scheme.
    pub scheme: Scheme,
    /// Whether the rendered document equals the golden file.
    pub matches: bool,
    /// First differing line (1-based) when `matches` is false.
    pub first_diff_line: Option<usize>,
}

/// Renders every traced scheme and compares against the golden files.
pub fn check_all() -> Vec<TraceCheck> {
    SCHEMES
        .iter()
        .map(|&scheme| {
            let rendered = render(scheme);
            let gold = golden(scheme);
            let matches = rendered == gold;
            let first_diff_line = (!matches).then(|| {
                rendered
                    .lines()
                    .zip(gold.lines())
                    .position(|(a, b)| a != b)
                    .map_or_else(
                        || rendered.lines().count().min(gold.lines().count()) + 1,
                        |i| i + 1,
                    )
            });
            TraceCheck {
                scheme,
                matches,
                first_diff_line,
            }
        })
        .collect()
}

/// Regenerates every golden file in the source tree; returns the paths
/// written. Only reachable via `verify-matrix --regen-golden`.
///
/// # Errors
///
/// Propagates filesystem errors from writing the golden files.
pub fn regenerate() -> std::io::Result<Vec<String>> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/golden");
    let mut written = Vec::new();
    for scheme in SCHEMES {
        let path = format!("{dir}/trace_{}.json", slug(scheme));
        std::fs::write(&path, render(scheme))?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(render(Scheme::Xed), render(Scheme::Xed));
    }

    #[test]
    fn trace_shape_is_stable() {
        let doc = render(Scheme::EccDimm);
        assert!(doc.starts_with("{\n  \"format\": \"xed-trace-v1\",\n"));
        assert!(doc.contains("\"scheme\": \"ecc_dimm\""));
        assert!(doc.contains("\"faultsim.trials\": 512"));
        assert!(doc.ends_with("}\n"));
        // λ ≈ 0.29 faults/system-lifetime: a 512-trial trace must contain
        // a healthy band of non-trivial trials.
        let trials = doc.matches("\"trial\": ").count();
        assert!((60..300).contains(&trials), "{trials} replayed trials");
    }

    #[test]
    fn golden_traces_match() {
        for check in check_all() {
            assert!(
                check.matches,
                "{}: golden trace stale (first diff at line {:?}); \
                 regenerate with `cargo xtask verify-matrix --regen-golden` \
                 and review the diff",
                check.scheme, check.first_diff_line
            );
        }
    }
}
