//! `xed-analyze`: whole-workspace static analysis with transitive
//! hot-path proofs.
//!
//! ```text
//! cargo run -p xtask -- analyze [--format text|json] [--root PATH]
//!                               [--baseline PATH]
//! ```
//!
//! Three layers (see DESIGN.md §13):
//!
//! 1. [`lexer`] — a minimal Rust lexer that classifies every byte as
//!    code, comment, or literal body, so nothing downstream ever matches
//!    inside a comment or string;
//! 2. [`items`] + [`graph`] — item extraction (fn/impl/trait/struct)
//!    and a sound-over-precise workspace call graph with an explicit
//!    unresolved bucket;
//! 3. [`rules`] — the XA100–XA103 analyses over the reachable closures
//!    of the named hot entry points, gated through the [`baseline`]
//!    suppression file (`xed-analyze.baseline`, hot paths exempt).
//!
//! Exit codes: 0 clean, 1 findings survive the baseline, 2 usage or
//! I/O error.

pub mod baseline;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use items::Workspace;
use xed_telemetry::export::json_string;

/// Registry path XA103 audits, relative to the workspace root.
const REGISTRY_REL: &str = "crates/telemetry/src/registry.rs";
/// Default baseline file name at the workspace root.
const BASELINE_FILE: &str = "xed-analyze.baseline";

const USAGE: &str =
    "usage: cargo run -p xtask -- analyze [--format text|json] [--root PATH] [--baseline PATH]";

/// CLI entry point for the `analyze` subcommand.
pub fn run(args: &[String]) -> ExitCode {
    let mut format = "text".to_string();
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next() {
                Some(v) if v == "text" || v == "json" => format = v.clone(),
                _ => {
                    eprintln!("--format takes `text` or `json`");
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => {
                    eprintln!("--root takes a path");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match it.next() {
                Some(v) => baseline_path = Some(PathBuf::from(v)),
                None => {
                    eprintln!("--baseline takes a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = root.unwrap_or_else(|| {
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or(manifest)
    });

    let started = Instant::now();
    let ws = match load_workspace(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("xed-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let g = graph::build(&ws);
    let analysis = rules::run(&ws, &g, REGISTRY_REL);

    let baseline_path = baseline_path.unwrap_or_else(|| root.join(BASELINE_FILE));
    let entries = match fs::read_to_string(&baseline_path) {
        Ok(text) => match baseline::parse(&text) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("xed-analyze: {e}");
                return ExitCode::from(2);
            }
        },
        Err(_) => Vec::new(), // no baseline file: strict mode
    };

    let mut findings = analysis.findings;
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.symbol.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.symbol.as_str(),
        ))
    });
    let applied = baseline::apply(findings, &entries);
    let elapsed_ms = started.elapsed().as_millis();

    if format == "json" {
        render_json(&applied, &analysis.groups, &g, elapsed_ms);
    } else {
        render_text(&applied, &analysis.groups, &g, elapsed_ms);
    }

    if applied.kept.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parses every workspace source file into one [`Workspace`]: all
/// `crates/*/src/**/*.rs` plus the root facade crate's `src/`.
pub fn load_workspace(root: &Path) -> Result<Workspace, String> {
    let mut ws = Workspace::default();
    let mut dirs: Vec<(String, PathBuf)> = Vec::new();

    let crates_dir = root.join("crates");
    let read = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    for entry in read.flatten() {
        let dir = entry.path();
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let krate = crate_name(&dir.join("Cargo.toml")).unwrap_or_else(|| {
            dir.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default()
        });
        dirs.push((krate, src));
    }
    // The root facade crate, if present.
    let root_src = root.join("src");
    if root_src.is_dir() {
        if let Some(name) = crate_name(&root.join("Cargo.toml")) {
            dirs.push((name, root_src));
        }
    }
    dirs.sort();

    for (krate, src) in dirs {
        let mut files = Vec::new();
        collect_rs(&src, &mut files).map_err(|e| format!("walking {}: {e}", src.display()))?;
        files.sort();
        for file in files {
            let text = fs::read_to_string(&file)
                .map_err(|e| format!("reading {}: {e}", file.display()))?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let module = module_path(&src, &file);
            if std::env::var("XED_ANALYZE_TRACE").is_ok() {
                eprintln!("parsing {rel}");
            }
            ws.add_file(&rel, &krate, &module, &text);
        }
    }
    if std::env::var("XED_ANALYZE_TRACE").is_ok() {
        for f in &ws.fns {
            let tr = f.trait_name.as_deref().unwrap_or("-");
            eprintln!(
                "fn {} [trait {tr}] {}:{}",
                f.qualified(),
                ws.files[f.file].rel_path,
                f.line
            );
        }
    }
    Ok(ws)
}

/// Reads the `[package] name` out of a Cargo.toml (underscore form).
fn crate_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = t.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=')?.trim();
                let name = rest.trim_matches('"');
                return Some(name.replace('-', "_"));
            }
        }
    }
    None
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

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), std::io::Error> {
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

fn render_text(
    applied: &baseline::Applied,
    groups: &[rules::GroupReport],
    g: &graph::CallGraph,
    elapsed_ms: u128,
) {
    for f in &applied.kept {
        let tag = f.group.map(|g| format!(" [{g}]")).unwrap_or_default();
        println!(
            "{}:{} {}{tag} {} — {}",
            f.file, f.line, f.rule, f.symbol, f.message
        );
    }
    for w in &applied.warnings {
        println!("warning: {w}");
    }
    for gr in groups {
        println!(
            "proof [{}]: {} entry fn(s), closure of {} fn(s)",
            gr.name,
            gr.roots.len(),
            gr.closure.len()
        );
    }
    let total: usize = g.unresolved.values().map(|(n, _)| n).sum();
    println!(
        "unresolved bucket: {} distinct callee(s), {} site(s){}",
        g.unresolved.len(),
        total,
        if g.unresolved.is_empty() { "" } else { ":" }
    );
    for (name, (n, example)) in g.unresolved.iter().take(20) {
        println!("  {name} ({n} site(s), e.g. {example})");
    }
    println!(
        "xed-analyze: {} finding(s), {} suppressed, {} stale baseline entr(y/ies), {elapsed_ms} ms",
        applied.kept.len(),
        applied.suppressed,
        applied.warnings.len()
    );
}

fn render_json(
    applied: &baseline::Applied,
    groups: &[rules::GroupReport],
    g: &graph::CallGraph,
    elapsed_ms: u128,
) {
    let findings: Vec<String> = applied.kept.iter().map(finding_json).collect();
    let groups_json: Vec<String> = groups
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
    let unresolved: Vec<String> = g
        .unresolved
        .iter()
        .map(|(k, (n, _))| format!("{}:{n}", json_string(k)))
        .collect();
    println!(
        r#"{{"findings":[{}],"groups":[{}],"unresolved":{{{}}},"suppressed":{},"stale":{},"elapsed_ms":{elapsed_ms}}}"#,
        findings.join(","),
        groups_json.join(","),
        unresolved.join(","),
        applied.suppressed,
        applied.warnings.len()
    );
}

/// One finding as a JSON object.
fn finding_json(f: &rules::Finding) -> String {
    format!(
        r#"{{"rule":"{}","file":{},"line":{},"symbol":{},"group":{},"message":{}}}"#,
        f.rule,
        json_string(&f.file),
        f.line,
        json_string(&f.symbol),
        f.group.map_or_else(|| "null".to_string(), json_string),
        json_string(&f.message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_json_escapes_control_characters() {
        let f = rules::Finding {
            rule: "XA100",
            file: "crates/a\\b.rs".to_string(),
            line: 3,
            symbol: "x::\"y\"".to_string(),
            group: Some("ecc-decode"),
            message: "line\nbreak\ttab\u{1}bell".to_string(),
        };
        assert_eq!(
            finding_json(&f),
            r#"{"rule":"XA100","file":"crates/a\\b.rs","line":3,"symbol":"x::\"y\"","group":"ecc-decode","message":"line\nbreak\ttab\u0001bell"}"#
        );
    }
}
