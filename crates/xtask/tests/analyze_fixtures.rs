//! Integration tests for `xed-analyze`, the workspace's one
//! static-analysis pass.
//!
//! A checked-in fixture mini-workspace
//! (`tests/fixtures/mini_ws/`) defines every hot entry point and
//! boundary fn the analyzer names, with exactly one seeded violation
//! per XA rule arm, plus seeded token-rule (XL001–XL003, and XL013 in
//! its seeded test sweep `tests/proptests.rs`) and catalogue (XL010,
//! XL012) findings. Its root test (`tests/roots.rs`) reaches
//! every item meant to be live, so XA104 reports only the seeded cases
//! of `crates/faultsim/src/surface.rs`. The golden JSON
//! (`tests/fixtures/golden.json`) is asserted byte-for-byte modulo the
//! elapsed-time field, so any change to finding wording, ordering,
//! grouping, or closure sizes is a deliberate golden update. The waiver
//! tests run over a temporary copy of the fixture with waiver comments
//! written in. A final test runs the analyzer over the real workspace and
//! requires it to be clean with an empty unresolved bucket.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const GOLDEN: &str = include_str!("fixtures/golden.json");

fn fixture_root() -> String {
    format!("{}/tests/fixtures/mini_ws", env!("CARGO_MANIFEST_DIR"))
}

fn repo_root() -> String {
    format!("{}/../..", env!("CARGO_MANIFEST_DIR"))
}

fn run_analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("analyze")
        .args(args)
        .output()
        .expect("xtask binary runs")
}

/// Replaces the elapsed-time value with 0 so runs are comparable.
fn normalize(json: &str) -> String {
    let Some(at) = json.find("\"elapsed_ms\":") else {
        return json.to_string();
    };
    let digits_at = at + "\"elapsed_ms\":".len();
    let rest = &json[digits_at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    format!("{}0{}", &json[..digits_at], &rest[end..])
}

fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("create fixture copy");
    for entry in fs::read_dir(from).expect("read fixture") {
        let path = entry.expect("fixture entry").path();
        let dest = to.join(path.file_name().expect("file name"));
        if path.is_dir() {
            copy_tree(&path, &dest);
        } else {
            fs::copy(&path, &dest).expect("copy fixture file");
        }
    }
}

/// A temporary copy of the fixture named `name`, with each `(file, from,
/// to)` text replacement applied.
fn fixture_copy(name: &str, edits: &[(&str, &str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    copy_tree(Path::new(&fixture_root()), &root);
    for (file, from, to) in edits {
        let path = root.join(file);
        let text = fs::read_to_string(&path).expect("read fixture file");
        assert!(text.contains(from), "{file} lacks `{from}`");
        fs::write(&path, text.replacen(from, to, 1)).expect("write fixture file");
    }
    root
}

#[test]
fn fixture_findings_match_golden() {
    let out = run_analyze(&["--root", &fixture_root(), "--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "seeded findings must gate");
    let json = normalize(String::from_utf8_lossy(&out.stdout).trim());
    assert_eq!(json, GOLDEN.trim(), "golden drift — inspect and regenerate");
}

#[test]
fn fixture_detects_every_seeded_rule() {
    let out = run_analyze(&["--root", &fixture_root(), "--format", "json"]);
    let json = String::from_utf8_lossy(&out.stdout).into_owned();

    let count = |rule: &str| json.matches(&format!("\"rule\":\"{rule}\"")).count();
    assert_eq!(
        count("XA100"),
        6,
        "panic, index, unwrap, expect, hole, cache index"
    );
    assert_eq!(count("XA101"), 3, "format!, vec!, untyped push");
    assert_eq!(
        count("XA102"),
        4,
        "hot Acquire, stray SeqCst in a library and in a bin, boundary Relaxed"
    );
    assert_eq!(count("XA103"), 1, "dead metric");
    assert_eq!(
        count("XA104"),
        4,
        "unreached fn, fn called by its own tests only, dead `new`, dead const"
    );
    for live in [
        "reached_from_a_root",
        "reached_from_a_bin",
        "seed_limit",
        "SEEDED",
        "Ring::scaled",
        "Ring::head",
        "LIVE_LIMIT",
        "kept_on_purpose",
    ] {
        assert!(!json.contains(live), "{live} is reached, named or waived");
    }
    for rule in ["XL001", "XL002", "XL003", "XL010", "XL012"] {
        assert_eq!(count(rule), 1, "{rule}");
    }
    assert_eq!(count("XL013"), 2, "a `seed:` field and a positional seed");

    // The unwrap is two hops from the entry point: transitivity works.
    assert!(json.contains("xed_ecc::first_symbol"));
    // The unresolved bucket is reported, not silently dropped.
    assert!(json.contains("\"unresolved\":{\"mystery_mix\":1}"));
    // Live metrics are not flagged; only the dead one is.
    assert!(!json.contains("metrics::TRIALS"));
    assert!(!json.contains("metrics::LATENCY"));
}

#[test]
fn fixture_text_format_reports_proofs_and_unresolved() {
    let out = run_analyze(&["--root", &fixture_root(), "--format", "text"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("proof [ecc-decode]: 2 entry fn(s), closure of 3 fn(s)"));
    assert!(text.contains("proof [ecc-infer]: 2 entry fn(s), closure of 2 fn(s)"));
    assert!(text.contains("proof [mc-trial]: 5 entry fn(s), closure of 7 fn(s)"));
    assert!(text.contains("proof [telemetry-write]: 8 entry fn(s), closure of 8 fn(s)"));
    assert!(text.contains("proof [xedd-request]: 2 entry fn(s), closure of 4 fn(s)"));
    assert!(text.contains("unresolved bucket: 1 distinct callee(s), 1 site(s)"));
    assert!(text.contains("mystery_mix (1 site(s), e.g. crates/faultsim/src/lib.rs:38)"));
}

#[test]
fn untyped_alloc_name_is_worded_the_same_without_a_workspace_namesake() {
    // The fixture's `EventTape::push` makes the untyped `scratch.push` in
    // `run_trials` resolve to a workspace fn; renaming it leaves the site
    // resolving to std. XA101 must report the site identically either way.
    let xa101_at_13 = |json: &str| {
        let at = json
            .find(r#""rule":"XA101","severity":"error","file":"crates/faultsim/src/lib.rs","line":13,"#)
            .unwrap_or_else(|| panic!("no XA101 finding at line 13: {json}"));
        let end = json[at..].find('}').expect("finding object closes");
        json[at..at + end].to_string()
    };
    let with = run_analyze(&["--root", &fixture_root(), "--format", "json"]);
    let root = fixture_copy(
        "no_push_namesake",
        &[(
            "crates/faultsim/src/lib.rs",
            "pub fn push(&mut self, v: u64)",
            "pub fn put(&mut self, v: u64)",
        )],
    );
    let without = run_analyze(&[
        "--root",
        root.to_str().expect("utf-8 path"),
        "--format",
        "json",
    ]);
    let with = String::from_utf8_lossy(&with.stdout).into_owned();
    let without = String::from_utf8_lossy(&without.stdout).into_owned();
    assert_eq!(xa101_at_13(&with), xa101_at_13(&without));
    assert!(
        xa101_at_13(&with).contains("has an alloc-capable name and an untyped receiver"),
        "{with}"
    );
}

#[test]
fn hot_findings_cannot_be_waived() {
    let root = fixture_copy(
        "waive_hot",
        &[(
            "crates/ecc/src/lib.rs",
            "// seed XA100 (panic macro)",
            "// xed-analyze: allow(XA100, XL003) — hiding a hot finding",
        )],
    );
    let out = run_analyze(&["--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        text.contains(
            "crates/ecc/src/lib.rs:11: error[waiver] xed_ecc::SecDed::decode_line (ecc-decode): \
             the waiver at line 11 tries to suppress a hot-path XA100 finding"
        ),
        "{text}"
    );
    // The hot finding itself stands next to the rejection; the non-hot
    // XL003 on the same line is waived.
    assert!(text.contains("`panic!` is reachable"), "{text}");
    assert!(!text.contains("error[XL003]"), "{text}");
    assert!(text.contains("2 waived"), "{text}");
}

#[test]
fn boundary_finding_can_be_waived_and_stale_waivers_are_reported() {
    let root = fixture_copy(
        "waive_boundary",
        &[
            (
                "crates/telemetry/src/lib.rs",
                "// seed XA102 (boundary not Acquire)",
                "// xed-analyze: allow(XA102) — fixture: non-hot findings can be waived",
            ),
            (
                "crates/faultsim/src/lib.rs",
                "\n/// Not on any hot path",
                "\n// xed-analyze: allow(XA103) — deliberately stale\n/// Not on any hot path",
            ),
        ],
    );
    let out = run_analyze(&[
        "--root",
        root.to_str().expect("utf-8 path"),
        "--format",
        "json",
    ]);
    // Still findings left, so still gating.
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(json.contains("\"suppressed\":2"), "{json}");
    assert!(
        !json.contains("xed_telemetry::Counter::value"),
        "boundary finding should be waived: {json}"
    );
    assert!(
        json.contains(
            r#"{"rule":"waiver","severity":"warning","file":"crates/faultsim/src/lib.rs","line":67,"#
        ),
        "{json}"
    );
    assert!(json.contains("stale waiver: no XA103 finding"), "{json}");
}

#[test]
fn value_references_trait_impls_and_initializers_keep_fns_reached() {
    // `map(Ring::scaled)` names a fn without calling it, `Ring::head` is
    // called only from a trait-impl method, and `seed_limit` only from a
    // static's initializer. Take any away and the fn is reported.
    let root = fixture_copy(
        "no_value_reference",
        &[
            ("tests/roots.rs", ".map(Ring::scaled)", ".map(|v| v * 2)"),
            (
                "crates/faultsim/src/surface.rs",
                "impl Iterator for Ring {",
                "impl Ring {",
            ),
            (
                "crates/faultsim/src/surface.rs",
                "SEEDED: u64 = seed_limit();",
                "SEEDED: u64 = 9;",
            ),
        ],
    );
    let out = run_analyze(&[
        "--root",
        root.to_str().expect("utf-8 path"),
        "--format",
        "json",
    ]);
    let json = String::from_utf8_lossy(&out.stdout).into_owned();
    let count = json.matches(r#""rule":"XA104""#).count();
    assert_eq!(count, 7, "{json}");
    assert!(json.contains(r#""symbol":"xed_faultsim::surface::Ring::scaled""#));
    assert!(json.contains(r#""symbol":"xed_faultsim::surface::Ring::head""#));
    assert!(json.contains(r#""symbol":"xed_faultsim::surface::seed_limit""#));
}

#[test]
fn usage_and_io_errors_exit_2() {
    let missing = format!("{}/no_such_workspace", env!("CARGO_TARGET_TMPDIR"));
    let out = run_analyze(&["--root", &missing]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no_such_workspace"));
    // A workspace without DESIGN.md cannot be checked: an I/O error, not
    // a skipped rule.
    let root = fixture_copy("no_design", &[]);
    fs::remove_file(root.join("DESIGN.md")).expect("remove DESIGN.md");
    let out = run_analyze(&["--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(2));
    for args in [&["--baseline", "x"][..], &["--format", "yaml"], &["--root"]] {
        assert_eq!(run_analyze(args).status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn real_workspace_is_clean() {
    let out = run_analyze(&["--root", &repo_root(), "--format", "json"]);
    let json = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        out.status.code(),
        Some(0),
        "the real workspace must stay clean: {json}"
    );
    assert!(json.contains("\"findings\":[]"), "{json}");
    assert!(
        json.contains("\"unresolved\":{}"),
        "the real workspace resolves every call: {json}"
    );
}
