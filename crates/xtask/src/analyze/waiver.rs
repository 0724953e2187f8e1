//! In-source waivers: the one suppression format.
//!
//! ```text
//! // xed-analyze: allow(XL004) — an exactly-zero rate is the sentinel
//! // xed-analyze: allow(XL004, XL012) — reason
//! ```
//!
//! A `//` comment that starts with `xed-analyze: allow(` waives the
//! listed rules for findings on its own line and on the line directly
//! below. Ids are matched exactly and must name a rule in
//! [`super::RULES`]; the reason after the dash is mandatory. Every
//! problem with a waiver is itself a finding of the pseudo-rule `waiver`:
//!
//! - a malformed waiver (unknown id, no reason) is an error and waives
//!   nothing;
//! - a waiver that matches a finding of a named hot-path group is
//!   rejected — hot paths are fixed, not waived — and reported next to
//!   the finding it tried to hide;
//! - a waived rule that matches no finding is reported stale (a
//!   warning), so waivers go away with the code they excused.

use super::items::Workspace;
use super::{Finding, Severity, RULES};

const MARKER: &str = "xed-analyze: allow(";

/// One parsed waiver comment.
struct Waiver<'a> {
    file: &'a str,
    line: u32,
    rules: Vec<&'static str>,
    /// Per rule: has it matched a finding?
    used: Vec<bool>,
}

/// Parses the text of one `//` comment: `None` if it is no waiver,
/// `Some(Err(why))` if it is a malformed one.
pub fn parse(comment: &str) -> Option<Result<Vec<&'static str>, String>> {
    let rest = comment.trim_start().strip_prefix(MARKER)?;
    let Some((ids, tail)) = rest.split_once(')') else {
        return Some(Err("waiver has no closing `)`".to_string()));
    };
    let mut rules = Vec::new();
    for id in ids.split(',').map(str::trim) {
        match RULES.iter().find(|r| **r == id) {
            Some(r) => rules.push(*r),
            None => return Some(Err(format!("waiver names unknown rule `{id}`"))),
        }
    }
    let tail = tail.trim_start();
    let reason = tail
        .strip_prefix('—')
        .or_else(|| tail.strip_prefix('-'))
        .map(|r| r.trim_start_matches('-').trim());
    if reason.is_none_or(str::is_empty) {
        return Some(Err(
            "waiver has no reason; write `— <why this site is acceptable>` after the rule list"
                .to_string(),
        ));
    }
    Some(Ok(rules))
}

/// Applies every waiver in the workspace to `findings`. Returns the
/// findings that stand (waiver problems included) and how many were
/// waived.
pub fn apply(ws: &Workspace, findings: Vec<Finding>) -> (Vec<Finding>, usize) {
    let waiver_finding = |file: &str, line, severity, message| Finding {
        severity,
        ..Finding::error("waiver", file, line, String::new(), message)
    };
    let mut out = Vec::new();
    let mut waivers = Vec::new();
    for file in &ws.files {
        for (line, text) in &file.comments {
            match parse(text) {
                None => {}
                Some(Ok(rules)) => waivers.push(Waiver {
                    file: &file.rel_path,
                    line: *line,
                    used: vec![false; rules.len()],
                    rules,
                }),
                Some(Err(why)) => {
                    out.push(waiver_finding(&file.rel_path, *line, Severity::Error, why));
                }
            }
        }
    }

    let mut suppressed = 0;
    for f in findings {
        let hit = waivers.iter_mut().find_map(|w| {
            let slot = w.rules.iter().position(|r| *r == f.rule)?;
            (w.file == f.file && f.line > 0 && (w.line == f.line || w.line + 1 == f.line))
                .then_some((w, slot))
        });
        match hit {
            Some((w, slot)) => {
                w.used[slot] = true;
                if f.group.is_none() {
                    suppressed += 1;
                    continue;
                }
                out.push(Finding {
                    rule: "waiver",
                    message: format!(
                        "the waiver at line {} tries to suppress a hot-path {} finding; \
                         hot paths are fixed, not waived",
                        w.line, f.rule
                    ),
                    ..f.clone()
                });
                out.push(f);
            }
            None => out.push(f),
        }
    }

    for w in &waivers {
        for (rule, _) in w.rules.iter().zip(&w.used).filter(|(_, used)| !**used) {
            out.push(waiver_finding(
                w.file,
                w.line,
                Severity::Warning,
                format!(
                    "stale waiver: no {rule} finding on this line or the next; remove \
                     `{rule}` from it"
                ),
            ));
        }
    }
    (out, suppressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_one_format() {
        assert_eq!(
            parse(" xed-analyze: allow(XL004) — exact sentinel"),
            Some(Ok(vec!["XL004"]))
        );
        assert_eq!(
            parse(" xed-analyze: allow(XL004, XL012) - two rules"),
            Some(Ok(vec!["XL004", "XL012"]))
        );
        // Not waivers: other comments, doc comments, the retired form.
        assert_eq!(parse(" see xed-analyze: allow(XL004) — x"), None);
        assert_eq!(parse("/ xed-analyze: allow(XL004) — doc"), None);
        assert_eq!(parse(" xed-lint: allow(XL004)"), None);
    }

    #[test]
    fn malformed_waivers_are_errors() {
        for bad in [
            " xed-analyze: allow(XL004)",
            " xed-analyze: allow(XL004) —  ",
            " xed-analyze: allow(XL004): no dash",
            " xed-analyze: allow(XL04) — typo",
            " xed-analyze: allow() — empty",
            " xed-analyze: allow(XL004 — unclosed",
        ] {
            assert!(matches!(parse(bad), Some(Err(_))), "{bad}");
        }
        // Ids match exactly: a prefix or a lowercase id is unknown.
        assert!(matches!(
            parse(" xed-analyze: allow(XL00) — x"),
            Some(Err(_))
        ));
        assert!(matches!(
            parse(" xed-analyze: allow(xl004) — x"),
            Some(Err(_))
        ));
    }

    fn finding(rule: &'static str, line: u32, group: Option<&'static str>) -> Finding {
        Finding {
            rule,
            severity: Severity::Error,
            file: "crates/a/src/lib.rs".to_string(),
            line,
            symbol: "a::f".to_string(),
            group,
            message: "m".to_string(),
        }
    }

    #[test]
    fn waives_ungrouped_rejects_hot_and_reports_stale() {
        let mut ws = Workspace::default();
        let src = "fn f() {} // xed-analyze: allow(XA102) — boundary\n\
                   // xed-analyze: allow(XA100) — hiding a hot finding\n\
                   fn g() {}\n\
                   // xed-analyze: allow(XA101, XA103) — nothing here\n";
        ws.add_file("crates/a/src/lib.rs", "a", &[], src);
        let (out, suppressed) = apply(
            &ws,
            vec![
                finding("XA102", 1, None),
                finding("XA100", 3, Some("hot")),
                finding("XA102", 5, None),
            ],
        );
        assert_eq!(suppressed, 1);
        let got: Vec<(&str, u32, Severity)> =
            out.iter().map(|f| (f.rule, f.line, f.severity)).collect();
        assert_eq!(
            got,
            vec![
                ("waiver", 3, Severity::Error),
                ("XA100", 3, Severity::Error),
                ("XA102", 5, Severity::Error),
                ("waiver", 4, Severity::Warning),
                ("waiver", 4, Severity::Warning),
            ]
        );
        assert!(out[0].message.contains("hot-path XA100"), "{out:?}");
        assert_eq!(out[0].group, Some("hot"));
        assert!(out[3].message.contains("XA101") && out[4].message.contains("XA103"));
    }

    #[test]
    fn waivers_in_strings_are_not_waivers() {
        let mut ws = Workspace::default();
        let src = "let s = \"x.unwrap(); // xed-analyze: allow(XL001) — r\";\n";
        ws.add_file("crates/a/src/lib.rs", "a", &[], src);
        let (out, suppressed) = apply(&ws, vec![finding("XL001", 1, None)]);
        assert_eq!((out.len(), suppressed), (1, 0));
    }
}
