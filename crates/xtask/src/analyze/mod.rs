//! `xed-analyze`: the workspace's one static-analysis pass.
//!
//! ```text
//! cargo run -p xtask -- analyze [--format text|json] [--root PATH]
//! ```
//!
//! One load parses every workspace source file ([`load_workspace`]) and
//! every rule runs over that one model (see DESIGN.md §13):
//!
//! 1. [`lexer`] — a minimal Rust lexer that classifies every byte as
//!    code, comment, or literal body, so nothing downstream ever matches
//!    inside a comment or string;
//! 2. [`items`] + [`graph`] — item extraction (fn/impl/trait/struct,
//!    `#[cfg(test)]` regions) and a sound-over-precise workspace call
//!    graph with an explicit unresolved bucket;
//! 3. the rules — [`source`] (XL001–XL006 and XL011, predicates over
//!    each file's tokens), [`rules`] (the
//!    XA100–XA102 hot-path proofs over the call graph, XL009, and XA104
//!    over the same graph walked from the root files),
//!    [`catalogue`] (XL010/XA103 over the metric registry, XL012 over the
//!    trace phases) and [`crate::golden`] (XL007/XL008 against the linked
//!    constants);
//! 4. [`waiver`] — the one suppression format, an in-source
//!    `// xed-analyze: allow(RULE) — reason` comment.
//!
//! Exit codes: 0 no error finding, 1 error findings, 2 usage or I/O
//! error.

pub mod catalogue;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod waiver;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use items::{FileKind, Workspace};
use xed_telemetry::export::json_string;

/// Every rule id `xed-analyze` reports; a waiver may name any of them.
pub const RULES: [&str; 17] = [
    "XL001", "XL002", "XL003", "XL004", "XL005", "XL006", "XL007", "XL008", "XL009", "XL010",
    "XL011", "XL012", "XA100", "XA101", "XA102", "XA103", "XA104",
];

/// Severity of a finding. Errors make the process exit nonzero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Must be fixed (or waived); fails the gate.
    Error,
    /// Reported but does not fail the gate.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        })
    }
}

/// One finding of any rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `XL001` (`waiver` for a waiver's own problems).
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line (0 for a whole-file finding).
    pub line: u32,
    /// Qualified name of the enclosing function or the metric, if any.
    pub symbol: String,
    /// Hot-path group the finding belongs to; such findings cannot be
    /// waived.
    pub group: Option<&'static str>,
    /// Human-readable message.
    pub message: String,
}

impl Finding {
    /// An error finding outside every hot-path group.
    pub fn error(
        rule: &'static str,
        file: &str,
        line: u32,
        symbol: String,
        message: String,
    ) -> Self {
        Finding {
            rule,
            severity: Severity::Error,
            file: file.to_string(),
            line,
            symbol,
            group: None,
            message,
        }
    }

    /// `file:line: severity[rule] symbol (group): message`.
    pub fn render(&self) -> String {
        let mut at = String::new();
        if !self.symbol.is_empty() {
            at = format!(" {}", self.symbol);
        }
        if let Some(g) = self.group {
            at.push_str(&format!(" ({g})"));
        }
        format!(
            "{}:{}: {}[{}]{at}: {}",
            self.file, self.line, self.severity, self.rule, self.message
        )
    }

    /// The finding as one JSON object.
    pub fn render_json(&self) -> String {
        format!(
            r#"{{"rule":"{}","severity":"{}","file":{},"line":{},"symbol":{},"group":{},"message":{}}}"#,
            self.rule,
            self.severity,
            json_string(&self.file),
            self.line,
            json_string(&self.symbol),
            self.group.map_or_else(|| "null".to_string(), json_string),
            json_string(&self.message)
        )
    }
}

/// A whole run's result.
pub struct Report {
    /// Findings after waivers, sorted by file, line, rule, symbol.
    pub findings: Vec<Finding>,
    /// Findings a waiver suppressed.
    pub suppressed: usize,
    /// One proof report per hot-path group.
    pub groups: Vec<rules::GroupReport>,
    /// The call graph's unresolved bucket.
    pub unresolved: BTreeMap<String, (usize, String)>,
}

const USAGE: &str = "usage: cargo run -p xtask -- analyze [--format text|json] [--root PATH]";

/// CLI entry point for the `analyze` subcommand.
pub fn run(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match (arg.as_str(), it.next()) {
            ("--format", Some(v)) if v == "text" || v == "json" => json = v == "json",
            ("--root", Some(v)) => root = Some(PathBuf::from(v)),
            _ => {
                eprintln!("xed-analyze: bad argument `{arg}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    // Default root: the workspace containing this crate.
    let root = root.unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")));

    let started = Instant::now();
    let report = match analyze(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xed-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed_ms = started.elapsed().as_millis();
    let errors = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    if json {
        render_json(&report, errors, elapsed_ms);
    } else {
        render_text(&report, errors, elapsed_ms);
    }
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Loads the workspace at `root`, runs every rule and applies the
/// waivers. `Err` on any I/O error.
pub fn analyze(root: &Path) -> Result<Report, String> {
    let ws = load_workspace(root)?;
    let design = read(&root.join("DESIGN.md"))?;
    let g = graph::build(&ws);
    let mut findings = Vec::new();
    let groups = rules::check_hot_paths(&ws, &g, &mut findings);
    rules::check_alloc_free_modules(&ws, &g, &mut findings);
    rules::check_dead_surface(&ws, &g, &mut findings);
    source::check(&ws, &mut findings);
    catalogue::check(&ws, &design, &mut findings);
    findings.extend(crate::golden::check_fit_table());
    findings.extend(crate::golden::check_catch_word_constants());
    let (mut findings, suppressed) = waiver::apply(&ws, findings);
    sort(&mut findings);
    Ok(Report {
        findings,
        suppressed,
        groups,
        unresolved: g.unresolved,
    })
}

/// Orders findings by file, line, rule and symbol (stable otherwise).
fn sort(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.symbol).cmp(&(&b.file, b.line, b.rule, &b.symbol))
    });
}

/// Parses the workspace into the item model: every `crates/*/src/**/*.rs`
/// and the root facade crate's `src/` (the bins among them marked
/// [`FileKind::Bin`]), then the [`FileKind::Outside`] files XA104 also
/// walks from: the root `tests/` and `examples/`, every `crates/*/tests`
/// and `perfbench/src`.
pub fn load_workspace(root: &Path) -> Result<Workspace, String> {
    let mut dirs: Vec<(String, PathBuf)> = Vec::new();
    let mut outside: Vec<(String, PathBuf)> = Vec::new();
    let crates_dir = root.join("crates");
    for entry in fs::read_dir(&crates_dir).map_err(|e| io_error(&crates_dir, e))? {
        let dir = entry.map_err(|e| io_error(&crates_dir, e))?.path();
        let krate = package_name(&dir)?;
        if dir.join("src").is_dir() {
            dirs.push((krate.clone(), dir.join("src")));
        }
        if dir.join("tests").is_dir() {
            outside.push((krate, dir.join("tests")));
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        if let Some(name) = crate_name(&root.join("Cargo.toml"))? {
            dirs.push((name, root_src));
        }
    }
    let perfbench = root.join("perfbench");
    for (dir, package) in [("tests", root), ("examples", root), ("src", &perfbench)] {
        let path = package.join(dir);
        if path.is_dir() {
            outside.push((package_name(package)?, path));
        }
    }
    dirs.sort();
    outside.sort();

    let mut ws = Workspace::default();
    for (krate, src) in dirs {
        let bin_crate = !src.join("lib.rs").is_file();
        for file in rs_files(&src)? {
            let module = module_path(&src, &file);
            let bin = bin_crate
                || module.first().is_some_and(|m| m == "bin")
                || file == src.join("main.rs");
            let kind = if bin { FileKind::Bin } else { FileKind::Lib };
            ws.add_file_as(kind, &rel_path(root, &file), &krate, &module, &read(&file)?);
        }
    }
    ws.mark_test_modules();
    for (krate, dir) in outside {
        for file in rs_files(&dir)? {
            ws.add_file_as(
                FileKind::Outside,
                &rel_path(root, &file),
                &krate,
                &module_path(&dir, &file),
                &read(&file)?,
            );
        }
    }
    Ok(ws)
}

fn io_error(path: &Path, e: std::io::Error) -> String {
    format!("{}: {e}", path.display())
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| io_error(path, e))
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Every `.rs` file under `dir`, sorted: the one file walker. A
/// `fixtures` directory holds test inputs (the analyzer's own seeded
/// mini-workspace), not code of this workspace, so it is skipped.
fn rs_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).map_err(|e| io_error(&d, e))? {
            let path = entry.map_err(|e| io_error(&d, e))?.path();
            if path.is_dir() {
                if !path.ends_with("fixtures") {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The crate name of the package at `dir`: its manifest's `[package]
/// name`, else the directory name.
fn package_name(dir: &Path) -> Result<String, String> {
    let manifest = dir.join("Cargo.toml");
    let name = if manifest.is_file() {
        crate_name(&manifest)?
    } else {
        None
    };
    Ok(name
        .or_else(|| dir.file_name().map(|n| n.to_string_lossy().into_owned()))
        .unwrap_or_default())
}

/// Reads the `[package] name` out of a Cargo.toml (underscore form);
/// `None` for a manifest without one.
fn crate_name(manifest: &Path) -> Result<Option<String>, String> {
    let text = read(manifest)?;
    let mut in_package = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
        } else if let Some(rest) = t.strip_prefix("name").filter(|_| in_package) {
            if let Some(v) = rest.trim_start().strip_prefix('=') {
                return Ok(Some(v.trim().trim_matches('"').replace('-', "_")));
            }
        }
    }
    Ok(None)
}

/// Module path of `file` under `src` (empty for lib/main, components
/// plus file stem otherwise).
fn module_path(src: &Path, file: &Path) -> Vec<String> {
    let rel = file.strip_prefix(src).unwrap_or(file);
    let mut out: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    if let Some(last) = out.pop() {
        let stem = last.trim_end_matches(".rs");
        if !matches!(stem, "lib" | "main" | "mod") {
            out.push(stem.to_string());
        }
    }
    out
}

fn render_text(report: &Report, errors: usize, elapsed_ms: u128) {
    for f in &report.findings {
        println!("{}", f.render());
    }
    for gr in &report.groups {
        println!(
            "proof [{}]: {} entry fn(s), closure of {} fn(s)",
            gr.name,
            gr.roots.len(),
            gr.closure.len()
        );
    }
    let sites: usize = report.unresolved.values().map(|(n, _)| n).sum();
    println!(
        "unresolved bucket: {} distinct callee(s), {sites} site(s){}",
        report.unresolved.len(),
        if report.unresolved.is_empty() {
            ""
        } else {
            ":"
        }
    );
    for (name, (n, example)) in report.unresolved.iter().take(20) {
        println!("  {name} ({n} site(s), e.g. {example})");
    }
    println!(
        "xed-analyze: {} finding(s): {errors} error(s), {} warning(s), {} waived, {elapsed_ms} ms",
        report.findings.len(),
        report.findings.len() - errors,
        report.suppressed
    );
}

fn render_json(report: &Report, errors: usize, elapsed_ms: u128) {
    let findings: Vec<String> = report.findings.iter().map(Finding::render_json).collect();
    let groups: Vec<String> = report
        .groups
        .iter()
        .map(|gr| {
            format!(
                r#"{{"name":{},"roots":[{}],"closure_size":{}}}"#,
                json_string(gr.name),
                gr.roots
                    .iter()
                    .map(|(r, line)| format!(r#"{{"symbol":{},"line":{line}}}"#, json_string(r)))
                    .collect::<Vec<_>>()
                    .join(","),
                gr.closure.len()
            )
        })
        .collect();
    let unresolved: Vec<String> = report
        .unresolved
        .iter()
        .map(|(k, (n, _))| format!("{}:{n}", json_string(k)))
        .collect();
    println!(
        r#"{{"findings":[{}],"groups":[{}],"unresolved":{{{}}},"suppressed":{},"errors":{errors},"warnings":{},"elapsed_ms":{elapsed_ms}}}"#,
        findings.join(","),
        groups.join(","),
        unresolved.join(","),
        report.suppressed,
        report.findings.len() - errors
    );
}

/// Runs the per-file rules (everything but the hot-path proofs and the
/// catalogue and golden checks) over one source text and applies its
/// waivers: the harness the rule unit tests share.
#[cfg(test)]
pub fn scan_file(rel_path: &str, text: &str) -> Vec<Finding> {
    let mut ws = Workspace::default();
    if rel_path.starts_with("tests/") {
        ws.add_file_as(FileKind::Outside, rel_path, "tests", &[], text);
    } else {
        let krate = rel_path.split('/').nth(1).unwrap_or("x");
        ws.add_file(rel_path, krate, &[], text);
    }
    let g = graph::build(&ws);
    let mut findings = Vec::new();
    rules::check_alloc_free_modules(&ws, &g, &mut findings);
    source::check(&ws, &mut findings);
    let mut findings = waiver::apply(&ws, findings).0;
    sort(&mut findings);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_json_escapes_control_characters() {
        let f = Finding {
            rule: "XA100",
            severity: Severity::Error,
            file: "crates/a\\b.rs".to_string(),
            line: 3,
            symbol: "x::\"y\"".to_string(),
            group: Some("ecc-decode"),
            message: "line\nbreak\ttab\u{1}bell".to_string(),
        };
        assert_eq!(
            f.render_json(),
            r#"{"rule":"XA100","severity":"error","file":"crates/a\\b.rs","line":3,"symbol":"x::\"y\"","group":"ecc-decode","message":"line\nbreak\ttab\u0001bell"}"#
        );
        assert_eq!(
            f.render(),
            "crates/a\\b.rs:3: error[XA100] x::\"y\" (ecc-decode): line\nbreak\ttab\u{1}bell"
        );
    }

    #[test]
    fn renders_machine_readable() {
        let f = &scan_file("crates/ecc/src/x.rs", "y.unwrap();")[0];
        assert!(
            f.render()
                .starts_with("crates/ecc/src/x.rs:1: error[XL001]:"),
            "{}",
            f.render()
        );
        let json = f.render_json();
        assert!(json.contains(r#""rule":"XL001""#), "{json}");
        assert!(json.contains(r#""severity":"error""#), "{json}");
    }

    #[test]
    fn module_paths_follow_the_file_tree() {
        let src = Path::new("crates/memsim/src");
        let at = |f: &str| module_path(src, &src.join(f));
        assert!(at("lib.rs").is_empty());
        assert_eq!(at("scheduler.rs"), vec!["scheduler"]);
        assert_eq!(at("scheduler/reference.rs"), vec!["scheduler", "reference"]);
        assert_eq!(at("dram/mod.rs"), vec!["dram"]);
    }
}
