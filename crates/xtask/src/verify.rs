//! `cargo xtask verify-matrix`: the cross-validation driver.
//!
//! Runs the `xed-testkit` verification matrix — independent oracles
//! checking the simulator from several angles — and exits nonzero if any
//! disagrees:
//!
//! 1. **exhaustive oracle** — every fault placement and 2-fault
//!    combination on a tiny geometry, classifier vs hardware data path;
//! 2. **analytic gate** — Monte-Carlo estimates vs closed forms at 99%
//!    binomial confidence plus documented model bands;
//! 3. **tail gate** — the importance-sampled rare-event estimates vs the
//!    same closed forms, plus clique-forced vs count-conditioned
//!    cross-mode agreement (the reweighting math on trial);
//! 4. **metamorphic laws** — invariances, monotonicities and dominance
//!    orderings between runs;
//! 5. **infer gate** — BEER-style code inference against every
//!    registered `xed_ecc` matrix (bit-exact recovery or certified
//!    ambiguity) and the miscorrection profiler against brute-force
//!    decoder enumeration (DESIGN.md §17);
//! 6. **golden traces** — byte-exact `xed-trace-v1` conformance (plus
//!    the `xed-trace-spans-v1` span-export golden, `xedd`'s
//!    `/debug/flight` wire format) and a live telemetry-snapshot diff
//!    pinned against the replayed trials.
//!
//! The seeded test sweeps' named seeds are checked statically, by
//! `xed-analyze` rule XL013.
//!
//! `--quick` (the default) is the tier-1 CI setting; `--full` widens the
//! enumerations and sample counts for nightly runs. `--regen-golden`
//! rewrites the golden trace files in the source tree instead of
//! comparing against them.

use std::process::ExitCode;
use xed_faultsim::engine::Sweep;
use xed_faultsim::schemes::Scheme;
use xed_testkit::analytic_gate::{self, GateScope};
use xed_testkit::infer_gate::{self, InferScope};
use xed_testkit::metamorphic;
use xed_testkit::oracle::{self, OracleScope};
use xed_testkit::{seeds, spans, trace};

/// One section of the matrix: name, verdict, human-readable detail.
struct Section {
    name: &'static str,
    pass: bool,
    detail: String,
}

/// Entry point for the `verify-matrix` subcommand.
pub fn run(args: &[String]) -> ExitCode {
    let mut full = false;
    let mut regen = false;
    for arg in args {
        match arg.as_str() {
            "--quick" => full = false,
            "--full" => full = true,
            "--regen-golden" => regen = true,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("{}", crate::USAGE);
                return ExitCode::from(2);
            }
        }
    }

    let mut sections = vec![
        exhaustive_oracle(full),
        analytic(full),
        analytic_tail(full),
        laws(full),
        infer(full),
    ];
    if regen {
        sections.push(regenerate_golden());
    } else {
        sections.push(golden_traces());
    }
    sections.push(telemetry_cross_check());

    let pass = sections.iter().all(|s| s.pass);
    for s in &sections {
        println!(
            "==> {} {}\n{}",
            s.name,
            if s.pass { "ok" } else { "FAILED" },
            s.detail
        );
    }
    println!(
        "verify-matrix ({}): {}",
        if full { "full" } else { "quick" },
        if pass {
            "all sections passed"
        } else {
            "FAILED"
        }
    );
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Section 1: the exhaustive small-geometry oracle.
fn exhaustive_oracle(full: bool) -> Section {
    let scope = if full {
        OracleScope::Full
    } else {
        OracleScope::Quick
    };
    let report = oracle::run(scope);
    let mut detail = report.summary();
    for s in &report.schemes {
        for m in &s.mismatches {
            detail.push_str(&format!("  MISMATCH {m}\n"));
        }
    }
    detail.push_str(&format!("  total checks: {}\n", report.total_checks()));
    Section {
        name: "exhaustive oracle",
        pass: report.is_clean(),
        detail,
    }
}

/// Section 2: analytic closed forms vs Monte-Carlo.
fn analytic(full: bool) -> Section {
    let scope = if full {
        GateScope::Full
    } else {
        GateScope::Quick
    };
    let report = analytic_gate::run(scope);
    Section {
        name: "analytic gate",
        pass: report.is_clean(),
        detail: report.summary(),
    }
}

/// Section 3: the importance-sampled tail estimator vs closed forms
/// and vs its own count-conditioned mode (DESIGN.md §14).
fn analytic_tail(full: bool) -> Section {
    let scope = if full {
        GateScope::Full
    } else {
        GateScope::Quick
    };
    let report = analytic_gate::run_tail(scope);
    Section {
        name: "tail gate",
        pass: report.is_clean(),
        detail: report.summary(),
    }
}

/// Section 4: the metamorphic laws.
fn laws(full: bool) -> Section {
    let samples = if full { 400_000 } else { 60_000 };
    let report = metamorphic::run(samples);
    Section {
        name: "metamorphic laws",
        pass: report.is_clean(),
        detail: report.summary(),
    }
}

/// Section 5: BEER-style code inference vs the registered matrices
/// (bit-exact recovery or certified ambiguity) and the miscorrection
/// profiler vs brute-force enumeration (DESIGN.md §17).
fn infer(full: bool) -> Section {
    let scope = if full {
        InferScope::Full
    } else {
        InferScope::Quick
    };
    let report = infer_gate::run(scope);
    Section {
        name: "infer gate",
        pass: report.is_clean(),
        detail: report.summary(),
    }
}

/// Section 6 (check mode): golden `xed-trace-v1` conformance.
fn golden_traces() -> Section {
    let checks = trace::check_all();
    let mut detail = String::new();
    for c in &checks {
        detail.push_str(&format!(
            "  trace_{:<16} {}\n",
            trace::slug(c.scheme),
            if c.matches {
                "matches".to_string()
            } else {
                format!(
                    "STALE (first diff at line {:?}); regenerate with --regen-golden and review",
                    c.first_diff_line
                )
            }
        ));
    }
    let span_check = spans::check();
    detail.push_str(&format!(
        "  spans_v1          {}\n",
        if span_check.matches {
            "matches".to_string()
        } else {
            format!(
                "STALE (first diff at line {:?}); regenerate with --regen-golden and review",
                span_check.first_diff_line
            )
        }
    ));
    Section {
        name: "golden traces",
        pass: checks.iter().all(|c| c.matches) && span_check.matches,
        detail,
    }
}

/// Section 6 (regen mode): rewrite the golden files in the source tree.
fn regenerate_golden() -> Section {
    match trace::regenerate().and_then(|mut paths| {
        paths.push(spans::regenerate()?);
        Ok(paths)
    }) {
        Ok(paths) => Section {
            name: "golden traces (regenerated)",
            pass: true,
            detail: paths.iter().map(|p| format!("  wrote {p}\n")).collect(),
        },
        Err(e) => Section {
            name: "golden traces (regenerated)",
            pass: false,
            detail: format!("  write failed: {e}\n"),
        },
    }
}

/// Section 6 (both modes): a live run's telemetry-snapshot diff must equal the
/// counters derived from replaying its trials. Single-process and
/// sequential by construction (this driver), so the diff window contains
/// exactly the one run.
fn telemetry_cross_check() -> Section {
    xed_telemetry::set_enabled(true);
    let m = Sweep::new(trace::SAMPLES, seeds::GOLDEN_TRACE).with_threads(1);
    let before = xed_telemetry::registry::snapshot();
    let result = m.run_one(Scheme::Xed).result;
    let after = xed_telemetry::registry::snapshot();
    let diff = after.diff(&before);
    let replays: Vec<_> = (0..trace::SAMPLES)
        .map(|t| m.replay_trial(Scheme::Xed, t))
        .collect();

    let mut detail = String::new();
    let mut pass = true;
    let runs = diff.counter("faultsim.runs").unwrap_or(0);
    if runs != 1 {
        pass = false;
    }
    detail.push_str(&format!("  faultsim.runs delta {runs} (want 1)\n"));
    for (id, want) in trace::expected_telemetry(&replays, result.due, result.sdc) {
        let got = diff.counter(id).unwrap_or(0);
        if got != want {
            pass = false;
        }
        detail.push_str(&format!("  {id} delta {got} (want {want})\n"));
    }
    Section {
        name: "telemetry snapshot diff",
        pass,
        detail,
    }
}
