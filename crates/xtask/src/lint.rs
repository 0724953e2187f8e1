//! The `xed-lint` scanning engine: line-based heuristic rules over the
//! library crates, plus hooks for the linked golden-value rules.
//!
//! Scope: `crates/{ecc,faultsim,core,memsim,telemetry,xedd}/src/**/*.rs`
//! — the *library* crates whose correctness the simulations (and the
//! daemon serving them) rest on. Benches,
//! examples, integration tests, the vendored `rand` shim and this crate
//! are exempt, as is everything from a file's `#[cfg(test)]` marker to its
//! end (the repo convention keeps unit-test modules last).
//!
//! Rule catalogue (documented for humans in DESIGN.md §"Verification
//! layer"):
//!
//! | id    | severity | what it rejects                                        |
//! |-------|----------|--------------------------------------------------------|
//! | XL001 | error    | `.unwrap()` in library code                            |
//! | XL002 | error    | `.expect(` without a nearby `invariant:` justification |
//! | XL003 | error    | `panic!` / `unreachable!` / `todo!` / `unimplemented!` |
//! | XL004 | error    | `==` / `!=` against a floating-point literal           |
//! | XL005 | error    | nondeterminism: `thread_rng`, `from_entropy`,          |
//! |       |          | `rand::random`, `SystemTime::now`, `Instant::now`      |
//! | XL006 | warning  | iteration over a `HashMap`/`HashSet` (unstable order)  |
//! | XL007 | error    | `FitRates::table_i()` drifts from paper Table I        |
//! | XL008 | error    | catch-word / geometry constants drift from paper §IV-V |
//! | XL009 | error    | heap allocation (`Vec::`, `vec![`, `.to_vec()`) in a   |
//! |       |          | designated allocation-free hot module (ECC kernels,    |
//! |       |          | telemetry primitives)                                  |
//! | XL010 | error    | telemetry metric registered twice / unregistered /     |
//! |       |          | undocumented in DESIGN.md (see `metrics_check`)        |
//! | XL011 | error    | `#[ignore]` without a linked `issue:` comment — scanned|
//! |       |          | *full-text* (test modules included) over every crate's |
//! |       |          | `src/` and the workspace `tests/` directory            |
//! | XL012 | error    | a `trace::Phase` variant undocumented in DESIGN.md §16,|
//! |       |          | or a discarded `Span::start` guard (see `trace_check`) |
//!
//! Waivers: `// xed-lint: allow(XL004)` on the offending line or the line
//! directly above suppresses that rule for that line. XL002 is satisfied by
//! an `invariant:` comment on the line or within the six preceding lines
//! (builder chains push the call a few lines past its justification).

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use xed_telemetry::export::json_string;

/// Severity of a finding. Errors make the process exit nonzero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Must be fixed (or explicitly waived); fails the lint gate.
    Error,
    /// Reported but does not fail the gate.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One lint finding, locatable as `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number (0 for whole-crate golden findings).
    pub line: usize,
    /// Rule identifier, e.g. `XL001`.
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
}

impl Finding {
    /// Renders the finding in the `file:line: severity[rule]: msg` format.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}[{}]: {}",
            self.file, self.line, self.severity, self.rule, self.message
        )
    }

    /// Renders the finding as a JSON object.
    pub fn render_json(&self) -> String {
        format!(
            r#"{{"file":{},"line":{},"rule":"{}","severity":"{}","message":{}}}"#,
            json_string(&self.file),
            self.line,
            self.rule,
            self.severity,
            json_string(&self.message)
        )
    }
}

/// The library crates the source rules scan.
pub const LIBRARY_CRATES: [&str; 6] = ["ecc", "faultsim", "core", "memsim", "telemetry", "xedd"];

/// Designated allocation-free hot modules (rule XL009). The `ecc` entries
/// hold the word-parallel decode kernels the simulators call per memory
/// access; the `telemetry` entries are the recording primitives every
/// instrumented hot loop touches (including the flight-recorder span
/// rings in `trace.rs` — the tracing write sits on every request and
/// scheduler-chunk path). Heap traffic in either is a performance
/// regression by definition. `ecc/gf.rs` (table construction),
/// `ecc/reference.rs` (the designated home for the seed's `Vec`-returning
/// pipeline) and `telemetry/export.rs` (the once-per-report snapshot
/// layer) are exempt, as are doc comments and `#[cfg(test)]` modules
/// everywhere.
pub const ALLOC_FREE_HOT_MODULES: [&str; 13] = [
    "crates/ecc/src/bits.rs",
    "crates/ecc/src/codeword.rs",
    "crates/ecc/src/crc8.rs",
    "crates/ecc/src/hamming.rs",
    "crates/ecc/src/parity.rs",
    "crates/ecc/src/rs.rs",
    "crates/ecc/src/secded.rs",
    "crates/ecc/src/secded32.rs",
    "crates/telemetry/src/counter.rs",
    "crates/telemetry/src/hist.rs",
    "crates/telemetry/src/ring.rs",
    "crates/telemetry/src/tally.rs",
    "crates/telemetry/src/trace.rs",
];

fn is_alloc_free_hot_module(rel_path: &str) -> bool {
    ALLOC_FREE_HOT_MODULES
        .iter()
        .any(|m| rel_path == *m || rel_path.ends_with(m))
}

/// Scans the whole workspace rooted at `root`: every library-crate source
/// file through the line rules. (Golden rules live in [`crate::golden`].)
pub fn scan_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let mut files = Vec::new();
    for krate in LIBRARY_CRATES {
        let src = root.join("crates").join(krate).join("src");
        collect_rs_files(&src, &mut files)
            .map_err(|e| format!("walking {}: {e}", src.display()))?;
    }
    files.sort();
    for file in files {
        let text =
            fs::read_to_string(&file).map_err(|e| format!("reading {}: {e}", file.display()))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        findings.extend(scan_file(&rel, &text));
    }

    // XL011 runs full-text (an `#[ignore]` necessarily lives inside a test
    // module) and over *every* crate plus the workspace integration tests.
    let mut ignore_files = Vec::new();
    let crates_dir = root.join("crates");
    for entry in
        fs::read_dir(&crates_dir).map_err(|e| format!("walking {}: {e}", crates_dir.display()))?
    {
        let src = entry.map_err(|e| e.to_string())?.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut ignore_files)
                .map_err(|e| format!("walking {}: {e}", src.display()))?;
        }
    }
    let tests_dir = root.join("tests");
    if tests_dir.is_dir() {
        collect_rs_files(&tests_dir, &mut ignore_files)
            .map_err(|e| format!("walking {}: {e}", tests_dir.display()))?;
    }
    ignore_files.sort();
    for file in ignore_files {
        let text =
            fs::read_to_string(&file).map_err(|e| format!("reading {}: {e}", file.display()))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        findings.extend(scan_ignores(&rel, &text));
    }
    Ok(findings)
}

/// Rule XL011: a disabled test is a liability unless someone owns turning
/// it back on. Every `#[ignore]` attribute must carry an `issue:`
/// reference (tracker link or ISSUE.md anchor) in a comment on the same
/// line or one of the two lines above the attribute. Scans full text —
/// unlike [`scan_file`], test modules are exactly where the rule looks.
pub fn scan_ignores(rel_path: &str, text: &str) -> Vec<Finding> {
    let lines: Vec<&str> = text.lines().collect();
    let san = crate::analyze::lexer::sanitize_lines(text);
    let mut findings = Vec::new();
    for (idx, &raw) in lines.iter().enumerate() {
        let code = san.get(idx).map_or(raw, String::as_str);
        if !code.contains("#[ignore") {
            continue;
        }
        let waived =
            |rule: &str| has_waiver(raw, rule) || (idx > 0 && has_waiver(lines[idx - 1], rule));
        let lo = idx.saturating_sub(2);
        let linked = lines[lo..=idx].iter().any(|l| l.contains("issue:"));
        if !linked && !waived("XL011") {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: idx + 1,
                rule: "XL011",
                severity: Severity::Error,
                message: "`#[ignore]` without a linked issue; add an `// issue: <link>` \
                          comment on the attribute or one of the two lines above it"
                    .to_string(),
            });
        }
    }
    findings
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), std::io::Error> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans one file's text through all line rules. Public for tests and so a
/// seeded-violation check can exercise the engine directly.
pub fn scan_file(rel_path: &str, text: &str) -> Vec<Finding> {
    let lines: Vec<&str> = text.lines().collect();
    // Comment- and string-free view of the same lines (sanitize_lines
    // keeps line count and column alignment): content rules match here,
    // so `.unwrap()` in a doc comment or `panic!` in an error-message
    // string is never a finding. Waivers and `invariant:` justifications
    // are read from the raw text, where the comments live.
    let san = crate::analyze::lexer::sanitize_lines(text);
    let san_refs: Vec<&str> = san.iter().map(String::as_str).collect();
    let hash_names = hash_container_names(&san_refs);
    let mut findings = Vec::new();

    for (idx, &raw) in lines.iter().enumerate() {
        let line_no = idx + 1;
        // Everything from the unit-test marker to EOF is exempt.
        let code = san_refs.get(idx).copied().unwrap_or(raw);
        if code.contains("#[cfg(test)]") {
            break;
        }
        let trimmed = code.trim();
        if trimmed.is_empty() {
            continue;
        }
        let waived =
            |rule: &str| has_waiver(raw, rule) || (idx > 0 && has_waiver(lines[idx - 1], rule));

        if trimmed.contains(".unwrap()") && !waived("XL001") {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: line_no,
                rule: "XL001",
                severity: Severity::Error,
                message: "`.unwrap()` in library code; return a typed error or use a \
                          justified `.expect()` with an `invariant:` comment"
                    .to_string(),
            });
        }

        if trimmed.contains(".expect(") && !waived("XL002") {
            let lo = idx.saturating_sub(6);
            let justified = lines[lo..=idx].iter().any(|l| l.contains("invariant:"));
            if !justified {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: "XL002",
                    severity: Severity::Error,
                    message: "`.expect()` without an `invariant:` justification comment \
                              on this or one of the six preceding lines"
                        .to_string(),
                });
            }
        }

        for mac in ["panic!(", "unreachable!(", "todo!(", "unimplemented!("] {
            if trimmed.contains(mac) && !waived("XL003") {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: "XL003",
                    severity: Severity::Error,
                    message: format!(
                        "`{}...)` in library code; model the failure as a typed error or \
                         prove it impossible with a checked `assert!`",
                        mac
                    ),
                });
            }
        }

        if has_float_equality(trimmed) && !waived("XL004") {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: line_no,
                rule: "XL004",
                severity: Severity::Error,
                message: "`==`/`!=` against a floating-point literal; probabilities and \
                          rates need an epsilon comparison (or a waiver for an exact \
                          sentinel)"
                    .to_string(),
            });
        }

        for src in [
            "thread_rng",
            "from_entropy",
            "rand::random",
            "SystemTime::now",
            "Instant::now",
        ] {
            if trimmed.contains(src) && !waived("XL005") {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: "XL005",
                    severity: Severity::Error,
                    message: format!(
                        "nondeterminism source `{src}`; every simulation stream must \
                         derive from an explicit `seed_from_u64` seed"
                    ),
                });
            }
        }

        if is_alloc_free_hot_module(rel_path) {
            for tok in ["Vec::", "vec![", ".to_vec()"] {
                if trimmed.contains(tok) && !waived("XL009") {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: line_no,
                        rule: "XL009",
                        severity: Severity::Error,
                        message: format!(
                            "heap allocation (`{tok}`) in an allocation-free hot \
                             module; use the fixed-capacity scratch/array APIs, or move \
                             `Vec`-returning convenience code to `ecc/src/reference.rs` \
                             / `telemetry/src/export.rs`"
                        ),
                    });
                }
            }
        }

        if let Some(name) = hash_iteration(trimmed, &hash_names) {
            if !waived("XL006") {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: line_no,
                    rule: "XL006",
                    severity: Severity::Warning,
                    message: format!(
                        "iteration over hash container `{name}` has unstable order; \
                         sort first (or waive) if any simulation state depends on it"
                    ),
                });
            }
        }
    }
    findings
}

/// `// xed-lint: allow(XL001)` (several ids may share one waiver comment).
fn has_waiver(line: &str, rule: &str) -> bool {
    line.split("xed-lint: allow(")
        .skip(1)
        .any(|rest| rest.split(')').next().is_some_and(|ids| ids.contains(rule)))
}

/// `== 0.5`, `!= 1.0`, `0.0 ==`, ... — equality against a float literal.
fn has_float_equality(code: &str) -> bool {
    let bytes = code.as_bytes();
    for (i, w) in bytes.windows(2).enumerate() {
        if (w == b"==" || w == b"!=")
            && bytes.get(i + 2) != Some(&b'=')
            && (i == 0
                || bytes[i - 1] != b'='
                    && bytes[i - 1] != b'!'
                    && bytes[i - 1] != b'<'
                    && bytes[i - 1] != b'>')
        {
            let after = code[i + 2..].trim_start();
            let before = code[..i].trim_end();
            if starts_with_float_literal(after) || ends_with_float_literal(before) {
                return true;
            }
        }
    }
    false
}

fn starts_with_float_literal(s: &str) -> bool {
    let s = s.strip_prefix('-').unwrap_or(s);
    let digits = s
        .bytes()
        .take_while(|b| b.is_ascii_digit() || *b == b'_')
        .count();
    digits > 0 && s.as_bytes().get(digits) == Some(&b'.')
}

fn ends_with_float_literal(s: &str) -> bool {
    // Accept `1.0`, `0.25`, `1e-9` suffixes; reject identifiers and ints.
    let tail: String = s
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '_' | 'e' | 'E' | '-' | '+'))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    let tail = tail.trim_start_matches(['-', '+']);
    tail.contains('.') && tail.bytes().next().is_some_and(|b| b.is_ascii_digit())
}

/// Names declared with a `HashMap`/`HashSet` type in this file (struct
/// fields `name: HashMap<..>` and bindings `let name: HashMap<..>` /
/// `let mut name = HashMap::new()`).
fn hash_container_names(lines: &[&str]) -> Vec<String> {
    let mut names = Vec::new();
    for &code in lines {
        if code.contains("#[cfg(test)]") {
            break;
        }
        for marker in ["HashMap<", "HashMap::", "HashSet<", "HashSet::"] {
            if !code.contains(marker) {
                continue;
            }
            // `name: HashMap<` or `let [mut] name = HashMap::new()`.
            if let Some(colon) = code.find(marker).and_then(|i| code[..i].rfind(':')) {
                let name: String = code[..colon]
                    .chars()
                    .rev()
                    .skip_while(|c| c.is_whitespace() || *c == ':')
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                if !name.is_empty() && !names.contains(&name) {
                    names.push(name);
                }
            }
            if let Some(eq) = code.find(marker).and_then(|i| code[..i].rfind('=')) {
                let name: String = code[..eq]
                    .chars()
                    .rev()
                    .skip_while(|c| c.is_whitespace() || *c == '=')
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                if !name.is_empty() && name != "let" && name != "mut" && !names.contains(&name) {
                    names.push(name);
                }
            }
        }
    }
    names
}

/// `name.iter()` / `name.keys()` / `name.values()` / `name.drain(` /
/// `for .. in &name` where `name` is a known hash container.
fn hash_iteration(code: &str, names: &[String]) -> Option<String> {
    for name in names {
        for suffix in [".iter()", ".keys()", ".values()", ".drain(", ".into_iter()"] {
            let needle = format!("{name}{suffix}");
            if code.contains(&needle) {
                return Some(name.clone());
            }
        }
        if code.contains(" in &") || code.contains(" in ") {
            let for_target = format!("in &{name}");
            let for_target2 = format!("in {name}");
            if (code.contains(&for_target) || code.contains(&for_target2))
                && code.trim_start().starts_with("for ")
            {
                return Some(name.clone());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(text: &str) -> Vec<&'static str> {
        scan_file("x.rs", text)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn flags_unwrap_and_panics() {
        assert_eq!(rules("let x = y.unwrap();"), vec!["XL001"]);
        assert_eq!(rules("panic!(\"boom\");"), vec!["XL003"]);
        assert_eq!(rules("unreachable!(\"no\");"), vec!["XL003"]);
    }

    // Adversarial fixtures for the token-stream re-base: rule text
    // appearing inside comments or string literals must never match.
    #[test]
    fn comment_mentions_are_not_findings() {
        assert!(rules("// .unwrap() would be wrong here\nlet x = y?;").is_empty());
        assert!(rules("/* panic!(\"no\") */ let x = 1;").is_empty());
        assert!(rules("/// Returns None instead of .expect(\"...\").\nfn f() {}").is_empty());
        assert!(rules("//! thread_rng is banned in this crate.\nfn f() {}").is_empty());
    }

    #[test]
    fn string_literal_mentions_are_not_findings() {
        assert!(rules("let s = \"call .unwrap() at your peril\";").is_empty());
        assert!(rules("let s = \"panic!(boom)\";").is_empty());
        assert!(rules(r##"let s = r#"x.unwrap() and unreachable!(now)"#;"##).is_empty());
        assert!(rules("let s = \"thread_rng in a message\";").is_empty());
    }

    #[test]
    fn real_finding_next_to_decoy_text_still_fires() {
        // The decoy string on the same line must not mask the real call.
        assert_eq!(
            rules("let x = y.unwrap(); let s = \"fine: .unwrap()\";"),
            vec!["XL001"]
        );
        // A `#[cfg(test)]` inside a string is not the test-module marker.
        assert_eq!(
            rules("let s = \"#[cfg(test)]\";\nlet x = y.unwrap();"),
            vec!["XL001"]
        );
    }

    #[test]
    fn alloc_rule_ignores_comment_and_string_decoys() {
        let hot = "crates/ecc/src/secded.rs";
        assert!(scan_file(hot, "// Vec::new() is banned here\nlet x = 1;").is_empty());
        assert!(scan_file(hot, "let s = \"vec![1, 2]\";").is_empty());
        assert_eq!(
            scan_file(hot, "let v = Vec::new();")
                .iter()
                .map(|f| f.rule)
                .collect::<Vec<_>>(),
            vec!["XL009"]
        );
    }

    #[test]
    fn expect_requires_invariant_comment() {
        assert_eq!(rules("let x = y.expect(\"msg\");"), vec!["XL002"]);
        assert!(rules("// invariant: y is Some here\nlet x = y.expect(\"msg\");").is_empty());
    }

    #[test]
    fn waiver_suppresses_on_same_or_previous_line() {
        assert!(rules("let x = y.unwrap(); // xed-lint: allow(XL001)").is_empty());
        assert!(rules("// xed-lint: allow(XL001)\nlet x = y.unwrap();").is_empty());
        // A waiver for a different rule does not help.
        assert_eq!(
            rules("let x = y.unwrap(); // xed-lint: allow(XL003)"),
            vec!["XL001"]
        );
    }

    #[test]
    fn float_equality() {
        assert_eq!(rules("if p == 0.5 {"), vec!["XL004"]);
        assert_eq!(rules("if 1.0 != q {"), vec!["XL004"]);
        assert!(rules("if p >= 0.5 {").is_empty());
        assert!(rules("if n == 5 {").is_empty());
        assert!(rules("assert!(p <= 1.0);").is_empty());
    }

    #[test]
    fn nondeterminism_sources() {
        assert_eq!(rules("let mut rng = thread_rng();"), vec!["XL005"]);
        assert_eq!(rules("let t = Instant::now();"), vec!["XL005"]);
        assert!(rules("let mut rng = StdRng::seed_from_u64(7);").is_empty());
    }

    #[test]
    fn hash_iteration_flagged_as_warning() {
        let text = "struct S { table: HashMap<u64, u32> }\nfor (k, v) in table.iter() {\n";
        let f = scan_file("x.rs", text);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "XL006");
        assert_eq!(f[0].severity, Severity::Warning);
        // Lookups are fine.
        assert!(
            rules("struct S { table: HashMap<u64, u32> }\nlet v = table.get(&k);\n").is_empty()
        );
    }

    #[test]
    fn heap_allocation_flagged_only_in_ecc_hot_modules() {
        for tok in [
            "let v = Vec::new();",
            "let v = vec![0u8; 8];",
            "let v = s.to_vec();",
        ] {
            let f = scan_file("crates/ecc/src/rs.rs", tok);
            assert_eq!(f.len(), 1, "{tok}");
            assert_eq!(f[0].rule, "XL009");
            assert_eq!(f[0].severity, Severity::Error);
        }
        // Exempt homes: reference.rs, gf.rs, and the other library crates.
        for file in [
            "crates/ecc/src/reference.rs",
            "crates/ecc/src/gf.rs",
            "crates/ecc/src/chipkill.rs",
            "crates/faultsim/src/schemes.rs",
        ] {
            assert!(scan_file(file, "let v = Vec::new();").is_empty(), "{file}");
        }
        // Fixed-size types and the `Vec<u8>` *type name* are fine.
        assert!(scan_file("crates/ecc/src/rs.rs", "pub codeword: Vec<u8>,").is_empty());
        assert!(scan_file("crates/ecc/src/rs.rs", "let buf = [0u8; MAX_N];").is_empty());
        // Waiver, doc comment, and test-module exemptions still apply.
        assert!(scan_file(
            "crates/ecc/src/rs.rs",
            "let v = Vec::new(); // xed-lint: allow(XL009)"
        )
        .is_empty());
        assert!(scan_file("crates/ecc/src/rs.rs", "/// e.g. `x.to_vec()`").is_empty());
        assert!(scan_file(
            "crates/ecc/src/rs.rs",
            "#[cfg(test)]\nmod tests {\n  fn f() { let v = vec![1]; }\n}\n"
        )
        .is_empty());
    }

    #[test]
    fn hot_module_list_is_workspace_rooted() {
        for m in ALLOC_FREE_HOT_MODULES {
            assert!(
                m.starts_with("crates/ecc/src/") || m.starts_with("crates/telemetry/src/"),
                "{m}"
            );
            assert!(m.ends_with(".rs"), "{m}");
        }
    }

    #[test]
    fn telemetry_primitives_are_hot_modules() {
        let f = scan_file("crates/telemetry/src/ring.rs", "let v = Vec::new();");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "XL009");
        // The snapshot/export layer is allowed to allocate.
        assert!(scan_file("crates/telemetry/src/export.rs", "let v = Vec::new();").is_empty());
    }

    #[test]
    fn test_module_and_comments_exempt() {
        assert!(rules("// a comment mentioning x.unwrap()").is_empty());
        assert!(rules("/// doc: call x.unwrap()").is_empty());
        assert!(rules("#[cfg(test)]\nmod tests {\n  fn f() { y.unwrap(); }\n}\n").is_empty());
    }

    #[test]
    fn ignore_requires_issue_link() {
        // Bare `#[ignore]`, inside a test module, full-text scanned.
        // xed-lint: allow(XL011)
        let bad = "#[cfg(test)]\nmod tests {\n    #[test]\n    #[ignore]\n    fn slow() {}\n}\n";
        let f = scan_ignores("tests/x.rs", bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "XL011");
        assert_eq!(f[0].line, 4);

        // A linked issue on the attribute or up to two lines above passes.
        let linked = "    // issue: ISSUE.md #7 (flaky on loaded boxes)\n    #[test]\n    #[ignore]\n    fn slow() {}\n";
        assert!(scan_ignores("tests/x.rs", linked).is_empty());
        let reasoned = "    #[ignore = \"slow\"] // issue: ISSUE.md #7\n    fn slow() {}\n";
        assert!(scan_ignores("tests/x.rs", reasoned).is_empty());

        // Waivers and comments behave like every other rule.
        assert!(scan_ignores("tests/x.rs", "// e.g. #[ignore]\n").is_empty());
        assert!(scan_ignores("tests/x.rs", "#[ignore] // xed-lint: allow(XL011)\n").is_empty());
    }

    #[test]
    fn renders_machine_readable() {
        let f = &scan_file("crates/ecc/src/x.rs", "y.unwrap();")[0];
        let line = f.render();
        assert!(
            line.starts_with("crates/ecc/src/x.rs:1: error[XL001]:"),
            "{line}"
        );
        let json = f.render_json();
        assert!(json.contains(r#""rule":"XL001""#), "{json}");
        assert!(json.contains(r#""severity":"error""#), "{json}");
    }
}
