//! Rule XL012: the trace phase catalogue is closed and documented.
//!
//! The span vocabulary (`crates/telemetry/src/trace.rs`, `pub enum
//! Phase`) is the wire contract of the flight recorder: every variant
//! name becomes a `"name"` field in the `xed-trace-spans-v1` export that
//! `/debug/flight` serves and `xedtop` parses. Mirroring XL010's
//! registry/DESIGN.md closure for metrics, this pass re-derives the
//! phase list from the enum source and cross-checks it:
//!
//! 1. every `Phase` variant is documented (backticked) in the DESIGN.md
//!    §16 tracing section — a span a dashboard can see but no document
//!    explains is an undocumented wire field;
//! 2. the `Phase::ALL` array literal lists every variant exactly once —
//!    the exporters and `xedtop` iterate `ALL`, so a variant missing
//!    from it would silently vanish from every span count;
//! 3. no library code discards a span guard with `let _ = Span::start`
//!    (the `#[must_use]` on
//!    [`Span::start`](xed_telemetry::span::Span::start) is defeated by a
//!    `_` binding, which drops the guard immediately and records a
//!    zero-length span).
//!
//! Waivers use the shared `// xed-lint: allow(XL012)` form.

use std::fs;
use std::path::Path;

use crate::lint::{Finding, Severity, LIBRARY_CRATES};

const TRACE: &str = "crates/telemetry/src/trace.rs";
const DESIGN: &str = "DESIGN.md";

fn finding(file: &str, line: usize, message: String) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        rule: "XL012",
        severity: Severity::Error,
        message,
    }
}

/// Runs the whole XL012 pass rooted at `root`.
pub fn check_traces(root: &Path) -> Vec<Finding> {
    let trace_path = root.join(TRACE);
    let text = match fs::read_to_string(&trace_path) {
        Ok(t) => t,
        Err(e) => {
            return vec![finding(
                TRACE,
                0,
                format!("cannot read the trace module: {e}"),
            )]
        }
    };

    let variants = parse_phase_variants(&text);
    let mut findings = Vec::new();
    if variants.is_empty() {
        findings.push(finding(
            TRACE,
            0,
            "found no `pub enum Phase` variants; the XL012 parser expects \
             one variant identifier per line inside the enum block"
                .to_string(),
        ));
        return findings;
    }

    // 1. Every variant is documented (backticked) in DESIGN.md.
    match fs::read_to_string(root.join(DESIGN)) {
        Ok(design) => {
            for (name, line) in &variants {
                if !design.contains(&format!("`{name}`")) {
                    findings.push(finding(
                        TRACE,
                        *line,
                        format!(
                            "trace phase `{name}` is not documented in the \
                             DESIGN.md tracing section (§16); every span name \
                             on the `/debug/flight` wire needs a documented \
                             meaning"
                        ),
                    ));
                }
            }
        }
        Err(e) => findings.push(finding(DESIGN, 0, format!("cannot read DESIGN.md: {e}"))),
    }

    // 2. `Phase::ALL` covers every variant exactly once.
    let all = parse_all_array(&text);
    for (name, line) in &variants {
        match all.iter().filter(|a| a == &name).count() {
            1 => {}
            0 => findings.push(finding(
                TRACE,
                *line,
                format!(
                    "trace phase `{name}` is missing from `Phase::ALL`; the \
                     exporters and `xedtop` iterate `ALL`, so this variant \
                     would vanish from every span count"
                ),
            )),
            n => findings.push(finding(
                TRACE,
                *line,
                format!("trace phase `{name}` appears {n} times in `Phase::ALL`"),
            )),
        }
    }

    // 3. No discarded span guards anywhere in the library crates.
    findings.extend(check_discarded_guards(root));
    findings
}

/// The variant identifiers of `pub enum Phase`, as `(name, 1-based
/// line)`. Line-based like XL010: one variant per line, doc comments
/// blanked by the sanitizer.
fn parse_phase_variants(text: &str) -> Vec<(String, usize)> {
    let san = crate::analyze::lexer::sanitize_lines(text);
    let mut out = Vec::new();
    let mut in_enum = false;
    for (idx, line) in san.iter().enumerate() {
        let t = line.trim();
        if t.starts_with("pub enum Phase") {
            in_enum = true;
            continue;
        }
        if !in_enum {
            continue;
        }
        if t.starts_with('}') {
            break;
        }
        let Some(name) = t.strip_suffix(',') else {
            continue;
        };
        if !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric()) {
            out.push((name.to_string(), idx + 1));
        }
    }
    out
}

/// The `Phase::NAME` references inside the `pub const ALL` array literal.
fn parse_all_array(text: &str) -> Vec<String> {
    let san = crate::analyze::lexer::sanitize_lines(text);
    let mut out = Vec::new();
    let mut in_all = false;
    for line in &san {
        let t = line.trim();
        if t.starts_with("pub const ALL") {
            in_all = true;
        }
        if !in_all {
            continue;
        }
        for chunk in t.split("Phase::").skip(1) {
            let name: String = chunk
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            if !name.is_empty() && name != "ALL" {
                out.push(name);
            }
        }
        if t.ends_with("];") {
            break;
        }
    }
    out
}

/// Scans the library crates for `let _ = ...Span::start` — a binding
/// that defeats the `#[must_use]` guard and drops the span immediately.
fn check_discarded_guards(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut files = Vec::new();
    for krate in LIBRARY_CRATES {
        let src = root.join("crates").join(krate).join("src");
        if src.is_dir() {
            let _ = collect_rs(&src, &mut files);
        }
    }
    files.sort();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        let Ok(text) = fs::read_to_string(&file) else {
            continue;
        };
        findings.extend(scan_guards(&rel, &text));
    }
    findings
}

/// The per-file discarded-guard scan (public shape mirrors
/// `lint::scan_file` so tests can drive it on synthetic text).
pub fn scan_guards(rel_path: &str, text: &str) -> Vec<Finding> {
    let lines: Vec<&str> = text.lines().collect();
    let san = crate::analyze::lexer::sanitize_lines(text);
    let mut findings = Vec::new();
    for (idx, code) in san.iter().enumerate() {
        if code.contains("#[cfg(test)]") {
            break;
        }
        let t = code.trim();
        if !(t.contains("Span::start") && t.contains("let _ =")) {
            continue;
        }
        let raw = lines.get(idx).copied().unwrap_or("");
        let waived = raw.contains("xed-lint: allow(XL012)")
            || (idx > 0 && lines[idx - 1].contains("xed-lint: allow(XL012)"));
        if !waived {
            findings.push(finding(
                rel_path,
                idx + 1,
                "`let _ = Span::start(...)` drops the guard immediately and \
                 records a zero-length span; bind it to a named guard for \
                 the duration of the phase"
                    .to_string(),
            ));
        }
    }
    findings
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), std::io::Error> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENUM: &str = "
pub enum Phase {
    /// Whole request.
    Request,
    Admission,
    Stream,
}
impl Phase {
    pub const ALL: [Phase; 3] = [
        Phase::Request,
        Phase::Admission,
        Phase::Stream,
    ];
}
";

    #[test]
    fn parses_variants_and_all() {
        let v = parse_phase_variants(ENUM);
        assert_eq!(
            v.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            vec!["Request", "Admission", "Stream"]
        );
        assert_eq!(
            parse_all_array(ENUM),
            vec!["Request", "Admission", "Stream"]
        );
    }

    #[test]
    fn discarded_guard_detected_and_waivable() {
        let f = scan_guards("x.rs", "let _ = Span::start(&M);\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "XL012");
        assert!(scan_guards("x.rs", "let _guard = Span::start(&M);\n").is_empty());
        assert!(scan_guards(
            "x.rs",
            "let _ = Span::start(&M); // xed-lint: allow(XL012)\n"
        )
        .is_empty());
        assert!(scan_guards("x.rs", "// let _ = Span::start(&M)\n").is_empty());
        assert!(scan_guards(
            "x.rs",
            "#[cfg(test)]\nmod tests { fn f() { let _ = Span::start(&M); } }\n"
        )
        .is_empty());
    }

    #[test]
    fn real_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("invariant: xtask lives at <root>/crates/xtask");
        let findings = check_traces(root);
        assert!(
            findings.is_empty(),
            "XL012 findings against the real workspace:\n{}",
            findings
                .iter()
                .map(Finding::render)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
