//! The two closed catalogues that code and DESIGN.md must agree on,
//! parsed once from the token stream.
//!
//! The metric registry (`crates/telemetry/src/registry.rs`) is the single
//! source of truth for metric identity: every metric is a
//! `static NAME: Counter|Histogram`, bound to exactly one stable dotted
//! ID by a `c("id", "help", &metrics::NAME)` / `h(…)` entry of its
//! `CATALOGUE`.
//!
//! - XL010: every ID appears once; entries and statics are a bijection;
//!   every SCREAMING_CASE `metrics::NAME` outside the registry names a
//!   declared static; every ID is listed (backticked) in DESIGN.md §11.
//! - XA103: every static is referenced as `metrics::NAME` outside the
//!   registry — no dead metric.
//!
//! The trace phases (`crates/telemetry/src/trace.rs`, `enum Phase`) are
//! the flight recorder's wire vocabulary: every variant becomes a
//! `"name"` in the `xed-trace-spans-v1` export.
//!
//! - XL012: every variant is documented (backticked) in DESIGN.md §16 and
//!   listed exactly once in `Phase::ALL`, which the exporters and
//!   `xedtop` iterate.

use super::items::{FileKind, Workspace};
use super::lexer::{matches_at, Tok, TokKind};
use super::Finding;

/// The metric registry, relative to the workspace root.
pub const REGISTRY: &str = "crates/telemetry/src/registry.rs";
/// The trace phase vocabulary, relative to the workspace root.
pub const TRACE: &str = "crates/telemetry/src/trace.rs";

/// Runs XL010, XA103 and the XL012 phase checks; `design` is DESIGN.md.
pub fn check(ws: &Workspace, design: &str, findings: &mut Vec<Finding>) {
    registry(ws, design, findings);
    phases(ws, design, findings);
}

fn documented(design: &str, name: &str) -> bool {
    design.contains(&format!("`{name}`"))
}

/// `NAME` if tokens `k..` are `metrics::NAME`.
fn metrics_path(t: &[Tok], k: usize) -> Option<&str> {
    let name = t.get(k + 3).filter(|x| x.kind == TokKind::Ident)?;
    matches_at(t, k, &["metrics", ":", ":"]).then_some(name.text.as_str())
}

/// One `c("id", "help", &metrics::NAME)` catalogue entry.
struct Entry {
    id: String,
    static_name: String,
    line: u32,
}

/// The metric statics as `(name, line)` and the catalogue entries.
fn parse_registry(t: &[Tok]) -> (Vec<(String, u32)>, Vec<Entry>) {
    let mut statics = Vec::new();
    let mut entries = Vec::new();
    for k in 0..t.len() {
        if t[k].is_ident("static")
            && t.get(k + 1).is_some_and(|x| x.kind == TokKind::Ident)
            && t.get(k + 2).is_some_and(|x| x.is_punct(':'))
            && t.get(k + 3)
                .is_some_and(|x| x.is_ident("Counter") || x.is_ident("Histogram"))
        {
            statics.push((t[k + 1].text.clone(), t[k + 1].line));
        }
        let is_entry = matches_at(t, k, &["c", "("]) || matches_at(t, k, &["h", "("]);
        if let Some(id) = t.get(k + 2).and_then(Tok::str_body).filter(|_| is_entry) {
            let close = t[k..]
                .iter()
                .position(|x| x.is_punct(')'))
                .map_or(t.len(), |p| k + p);
            let static_name = (k..close).find_map(|j| metrics_path(t, j)).unwrap_or("");
            entries.push(Entry {
                id: id.to_string(),
                static_name: static_name.to_string(),
                line: t[k].line,
            });
        }
    }
    (statics, entries)
}

fn registry(ws: &Workspace, design: &str, findings: &mut Vec<Finding>) {
    let xl010 = |line, symbol: &str, message| {
        Finding::error("XL010", REGISTRY, line, symbol.to_string(), message)
    };
    let Some(reg) = ws.files.iter().find(|f| f.rel_path == REGISTRY) else {
        findings.push(xl010(0, "", "the metric registry is missing".to_string()));
        return;
    };
    let (statics, entries) = parse_registry(&reg.toks);
    if statics.is_empty() || entries.is_empty() {
        findings.push(xl010(
            0,
            "",
            "found no metric statics or no catalogue entries; XL010 expects \
             `static NAME: Counter|Histogram` items and `c(\"id\", \"help\", \
             &metrics::NAME)` / `h(...)` entries"
                .to_string(),
        ));
        return;
    }

    // Every `metrics::NAME` outside the registry: (file, token, name).
    let mut uses: Vec<(usize, usize, &str)> = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if file.rel_path != REGISTRY && file.kind != FileKind::Outside {
            uses.extend(
                (0..file.toks.len()).filter_map(|k| Some((fi, k, metrics_path(&file.toks, k)?))),
            );
        }
    }

    for (i, e) in entries.iter().enumerate() {
        let sym = format!("metrics::{}", e.static_name);
        if entries[..i].iter().any(|p| p.id == e.id) {
            findings.push(xl010(
                e.line,
                &sym,
                format!("metric id `{}` is registered more than once", e.id),
            ));
        }
        if !statics.iter().any(|(name, _)| *name == e.static_name) {
            findings.push(xl010(
                e.line,
                &sym,
                format!(
                    "catalogue entry `{}` references `{sym}`, which is not a declared \
                     metric static",
                    e.id
                ),
            ));
        }
        if entries[..i].iter().any(|p| p.static_name == e.static_name) {
            findings.push(xl010(
                e.line,
                &sym,
                format!("`{sym}` is bound to more than one metric id"),
            ));
        }
        if !documented(design, &e.id) {
            findings.push(Finding::error(
                "XL010",
                "DESIGN.md",
                0,
                String::new(),
                format!(
                    "metric id `{}` is registered but missing from the DESIGN.md metric \
                     catalogue (§11)",
                    e.id
                ),
            ));
        }
    }
    for (name, line) in &statics {
        let sym = format!("metrics::{name}");
        if !entries.iter().any(|e| e.static_name == *name) {
            findings.push(xl010(
                *line,
                &sym,
                format!("`{sym}` is declared but never registered in CATALOGUE"),
            ));
        }
        if !uses.iter().any(|(_, _, u)| u == name) {
            findings.push(Finding::error(
                "XA103",
                REGISTRY,
                *line,
                sym,
                format!(
                    "metric static `{name}` is registered but never written or read \
                     outside the registry — dead metric"
                ),
            ));
        }
    }
    for &(fi, k, name) in &uses {
        // Only SCREAMING_CASE names are metric statics; module paths and
        // types routed through `metrics::` are not.
        let screaming = name.len() >= 2
            && name.starts_with(|c: char| c.is_ascii_uppercase())
            && !name.contains(|c: char| c.is_ascii_lowercase());
        if screaming && !statics.iter().any(|(s, _)| s == name) {
            let file = &ws.files[fi];
            findings.push(Finding::error(
                "XL010",
                &file.rel_path,
                file.toks[k].line,
                ws.enclosing_fn(fi, k),
                format!(
                    "`metrics::{name}` is not declared in the telemetry registry; add the \
                     static and a CATALOGUE entry"
                ),
            ));
        }
    }
}

/// The variants of `enum Phase` as `(name, line)`.
fn parse_phase_variants(t: &[Tok]) -> Vec<(String, u32)> {
    let Some(open) = (0..t.len()).find(|&k| matches_at(t, k, &["enum", "Phase", "{"])) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let (mut k, mut depth, mut expect_variant) = (open + 3, 1usize, true);
    while depth > 0 && k < t.len() {
        let x = &t[k];
        k += 1;
        if x.is_punct('#') && t.get(k).is_some_and(|y| y.is_punct('[')) {
            // An attribute: the variant still follows it.
            k += t[k..]
                .iter()
                .position(|y| y.is_punct(']'))
                .map_or(t.len(), |p| p + 1);
        } else if x.kind == TokKind::Ident {
            if depth == 1 && expect_variant {
                out.push((x.text.clone(), x.line));
            }
            expect_variant = false;
        } else if x.kind == TokKind::Punct {
            match x.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth -= 1,
                "," => expect_variant = depth == 1,
                _ => {}
            }
        }
    }
    out
}

/// The `Phase::NAME` elements of the `const ALL` array literal.
fn parse_all(t: &[Tok]) -> Vec<String> {
    let Some(at) = (0..t.len()).find(|&k| matches_at(t, k, &["const", "ALL"])) else {
        return Vec::new();
    };
    let Some(open) = (at..t.len()).find(|&k| matches_at(t, k, &["=", "["])) else {
        return Vec::new();
    };
    let close = t[open..]
        .iter()
        .position(|x| x.is_punct(']'))
        .map_or(t.len(), |p| open + p);
    (open..close)
        .filter(|&k| matches_at(t, k, &["Phase", ":", ":"]))
        .filter_map(|k| t.get(k + 3).map(|x| x.text.clone()))
        .collect()
}

fn phases(ws: &Workspace, design: &str, findings: &mut Vec<Finding>) {
    let xl012 = |line, message| Finding::error("XL012", TRACE, line, String::new(), message);
    let Some(trace) = ws.files.iter().find(|f| f.rel_path == TRACE) else {
        findings.push(xl012(0, "the trace module is missing".to_string()));
        return;
    };
    let variants = parse_phase_variants(&trace.toks);
    if variants.is_empty() {
        findings.push(xl012(0, "found no `enum Phase` variants".to_string()));
        return;
    }
    let all = parse_all(&trace.toks);
    for (name, line) in &variants {
        if !documented(design, name) {
            findings.push(xl012(
                *line,
                format!(
                    "trace phase `{name}` is not documented in the DESIGN.md tracing section \
                     (§16); every span name on the `/debug/flight` wire needs a documented \
                     meaning"
                ),
            ));
        }
        match all.iter().filter(|a| *a == name).count() {
            1 => {}
            0 => findings.push(xl012(
                *line,
                format!(
                    "trace phase `{name}` is missing from `Phase::ALL`; the exporters and \
                     `xedtop` iterate `ALL`, so this variant would vanish from every span count"
                ),
            )),
            n => findings.push(xl012(
                *line,
                format!("trace phase `{name}` appears {n} times in `Phase::ALL`"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::lexer::tokenize;
    use super::*;

    const REGISTRY_SRC: &str = r#"
pub mod metrics {
    pub static FOO_COUNT: Counter = Counter::new();
    pub static BAR_NS: Histogram = Histogram::new();
}
const fn c(id: &'static str, help: &'static str, m: &'static Counter) -> MetricDef { todo() }
pub static CATALOGUE: &[MetricDef] = &[
    c("foo.count", "help", &metrics::FOO_COUNT),
    h("bar.ns",
      "help split over lines", &metrics::BAR_NS),
];
"#;

    #[test]
    fn parses_statics_and_catalogue() {
        let (statics, entries) = parse_registry(&tokenize(REGISTRY_SRC));
        assert_eq!(
            statics.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            vec!["FOO_COUNT", "BAR_NS"]
        );
        let got: Vec<(&str, &str, u32)> = entries
            .iter()
            .map(|e| (e.id.as_str(), e.static_name.as_str(), e.line))
            .collect();
        assert_eq!(
            got,
            vec![("foo.count", "FOO_COUNT", 8), ("bar.ns", "BAR_NS", 9)]
        );
    }

    fn check_registry(registry: &str, user: &str, design: &str) -> Vec<(&'static str, String)> {
        let mut ws = Workspace::default();
        ws.add_file(REGISTRY, "xed_telemetry", &["registry".into()], registry);
        ws.add_file("crates/faultsim/src/lib.rs", "xed_faultsim", &[], user);
        let mut findings = Vec::new();
        super::registry(&ws, design, &mut findings);
        findings.into_iter().map(|f| (f.rule, f.message)).collect()
    }

    #[test]
    fn consistent_registry_is_clean() {
        let user = "fn f() { metrics::FOO_COUNT.incr(); metrics::BAR_NS.record(1); }";
        let f = check_registry(REGISTRY_SRC, user, "`foo.count` `bar.ns`");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn duplicate_unregistered_undocumented_dead_and_unknown_detected() {
        let text = r#"
pub mod metrics {
    pub static FOO_COUNT: Counter = Counter::new();
    pub static ORPHAN: Counter = Counter::new();
}
pub static CATALOGUE: &[MetricDef] = &[
    c("foo.count", "help", &metrics::FOO_COUNT),
    c("foo.count", "help again", &metrics::FOO_COUNT),
    c("ghost.metric", "help", &metrics::MISSING),
];
"#;
        let user = "fn f() { metrics::FOO_COUNT.incr(); metrics::NOT_A_REAL_METRIC.incr(); \
                    let s = \"metrics::IN_A_STRING\"; metrics::module::Type::f(); }";
        let f = check_registry(text, user, "`foo.count`");
        let rules: Vec<&str> = f.iter().map(|(r, _)| *r).collect();
        let has = |needle: &str| f.iter().any(|(_, m)| m.contains(needle));
        assert!(has("`foo.count` is registered more than once"), "{f:?}");
        assert!(has("references `metrics::MISSING`"), "{f:?}");
        assert!(
            has("`metrics::FOO_COUNT` is bound to more than one"),
            "{f:?}"
        );
        assert!(
            has("`ghost.metric` is registered but missing from the DESIGN.md"),
            "{f:?}"
        );
        assert!(
            has("`metrics::ORPHAN` is declared but never registered"),
            "{f:?}"
        );
        assert!(has("`metrics::NOT_A_REAL_METRIC` is not declared"), "{f:?}");
        assert!(!has("IN_A_STRING") && !has("module"), "{f:?}");
        assert_eq!(
            rules.iter().filter(|r| **r == "XA103").count(),
            1,
            "ORPHAN is dead"
        );
        assert_eq!(rules.len(), 7, "{f:?}");
    }

    const ENUM: &str = "
pub enum Phase {
    /// Whole request.
    Request,
    #[doc = \"admission\"]
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
        let t = tokenize(ENUM);
        let v = parse_phase_variants(&t);
        assert_eq!(
            v.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            vec!["Request", "Admission", "Stream"]
        );
        assert_eq!(v[0].1, 4);
        assert_eq!(parse_all(&t), vec!["Request", "Admission", "Stream"]);
    }

    #[test]
    fn undocumented_and_unlisted_phases_detected() {
        let src = ENUM.replace("        Phase::Stream,\n", "        Phase::Request,\n");
        let mut ws = Workspace::default();
        ws.add_file(TRACE, "xed_telemetry", &["trace".into()], &src);
        let mut f = Vec::new();
        phases(&ws, "`Request` `Admission`", &mut f);
        let msgs: Vec<&str> = f.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(f.len(), 3, "{msgs:?}");
        assert!(msgs[0].contains("`Request` appears 2 times"), "{msgs:?}");
        assert!(msgs[1].contains("`Stream` is not documented"), "{msgs:?}");
        assert!(
            msgs[2].contains("`Stream` is missing from `Phase::ALL`"),
            "{msgs:?}"
        );
    }
}
