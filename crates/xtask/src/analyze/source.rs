//! The token rules: predicates over each file's token stream, so text
//! in a comment or a string literal can never match.
//!
//! | id    | severity | scope | what it rejects                          |
//! |-------|----------|-------|------------------------------------------|
//! | XL001 | error    | lib   | `.unwrap()`                              |
//! | XL002 | error    | lib   | `.expect(` without an `invariant:` comment on its line or one of the six above |
//! | XL003 | error    | lib   | `panic!(` / `unreachable!(` / `todo!(` / `unimplemented!(` |
//! | XL004 | error    | lib   | `==` / `!=` against a floating-point literal |
//! | XL005 | error    | lib   | nondeterminism: `thread_rng`, `from_entropy`, `rand::random`, `SystemTime::now`, `Instant::now` |
//! | XL006 | warning  | lib   | iteration over a `HashMap`/`HashSet` binding (unstable order) |
//! | XL011 | error    | all   | `#[ignore]` without an `issue:` comment on its line or one of the two above |
//! | XL013 | error    | seeded | a raw seed literal, `seed_from_u64(<digit>…`, `seed: <digit>…` or a `<digit>…` second argument of `Sweep::new(`, on a line that does not name `seeds::` |
//!
//! "lib" is the non-test code of the library crates
//! (`crates/{ecc,faultsim,core,memsim,telemetry,xedd}/src`), code outside
//! fns included; test code is what the item model marks `#[cfg(test)]`.
//! "all" is every token of every file the analyzer loads, the root
//! files included (`tests/`, `examples/`, `crates/*/tests`,
//! `perfbench/src`): an `#[ignore]` lives in test code by definition.
//! "seeded" is the workspace test sweeps of [`SEEDED_TESTS`], which draw
//! their seeds from `xed_testkit::seeds`.

use super::items::{FileAst, Workspace};
use super::lexer::{matches_at, Tok, TokKind};
use super::rules::justified;
use super::{Finding, Severity};

/// The library crates the `lib`-scoped rules scan.
pub const LIBRARY_CRATES: [&str; 6] = ["ecc", "faultsim", "core", "memsim", "telemetry", "xedd"];

/// The workspace test sweeps XL013 holds to the named seeds.
const SEEDED_TESTS: [&str; 2] = ["tests/proptests.rs", "tests/reliability_consistency.rs"];

/// One rule hit: rule, severity, token index, message.
type Hit = (&'static str, Severity, usize, String);

/// Runs every token rule over the workspace.
pub fn check(ws: &Workspace, findings: &mut Vec<Finding>) {
    for (fi, file) in ws.files.iter().enumerate() {
        let mut hits = Vec::new();
        if is_library(&file.rel_path) {
            library_rules(file, &mut hits);
        }
        ignore_rule(file, &mut hits);
        if SEEDED_TESTS.contains(&file.rel_path.as_str()) {
            seed_rule(file, &mut hits);
        }
        report(file, hits, |k| ws.enclosing_fn(fi, k), findings);
    }
}

fn is_library(rel_path: &str) -> bool {
    LIBRARY_CRATES.iter().any(|c| {
        rel_path
            .strip_prefix("crates/")
            .and_then(|r| r.strip_prefix(c))
            .is_some_and(|r| r.starts_with("/src/"))
    })
}

/// Turns hits into findings, one per rule, line and message.
fn report(
    file: &FileAst,
    hits: Vec<Hit>,
    symbol: impl Fn(usize) -> String,
    findings: &mut Vec<Finding>,
) {
    let mut seen: Vec<(&str, u32, String)> = Vec::new();
    for (rule, severity, k, message) in hits {
        let line = file.toks[k].line;
        if seen
            .iter()
            .any(|(r, l, m)| *r == rule && *l == line && *m == message)
        {
            continue;
        }
        seen.push((rule, line, message.clone()));
        findings.push(Finding {
            severity,
            ..Finding::error(rule, &file.rel_path, line, symbol(k), message)
        });
    }
}

/// XL001–XL006 over one file's non-test tokens.
fn library_rules(file: &FileAst, hits: &mut Vec<Hit>) {
    let t = &file.toks;
    let hash_names = hash_container_names(file);
    let error = Severity::Error;
    for k in 0..t.len() {
        if file.is_test(k) {
            continue;
        }
        if matches_at(t, k, &[".", "unwrap", "(", ")"]) {
            hits.push((
                "XL001",
                error,
                k + 1,
                "`.unwrap()` in library code; return a typed error or use a justified \
                 `.expect()` with an `invariant:` comment"
                    .to_string(),
            ));
        }
        if matches_at(t, k, &[".", "expect", "("])
            && !justified(file, t[k + 1].line, "invariant:", 6)
        {
            hits.push((
                "XL002",
                error,
                k + 1,
                "`.expect()` without an `invariant:` justification comment on this or one \
                 of the six preceding lines"
                    .to_string(),
            ));
        }
        if let Some(mac) = panic_macro(t, k) {
            hits.push((
                "XL003",
                error,
                k,
                format!(
                    "`{mac}!(...)` in library code; model the failure as a typed error or \
                     prove it impossible with a checked `assert!`"
                ),
            ));
        }
        if float_equality(t, k) {
            hits.push((
                "XL004",
                error,
                k,
                "`==`/`!=` against a floating-point literal; probabilities and rates need \
                 an epsilon comparison (or a waiver for an exact sentinel)"
                    .to_string(),
            ));
        }
        if let Some(src) = nondeterminism(t, k) {
            hits.push((
                "XL005",
                error,
                k,
                format!(
                    "nondeterminism source `{src}`; every simulation stream must derive \
                     from an explicit `seed_from_u64` seed"
                ),
            ));
        }
        if let Some(name) = hash_iteration(t, k, &hash_names) {
            hits.push((
                "XL006",
                Severity::Warning,
                k,
                format!(
                    "iteration over hash container `{name}` has unstable order; sort \
                     first (or waive) if any simulation state depends on it"
                ),
            ));
        }
    }
}

/// XL011 over every token, test code included.
fn ignore_rule(file: &FileAst, hits: &mut Vec<Hit>) {
    let t = &file.toks;
    for k in 0..t.len() {
        if matches_at(t, k, &["#", "[", "ignore"]) && !justified(file, t[k].line, "issue:", 2) {
            hits.push((
                "XL011",
                Severity::Error,
                k,
                "`#[ignore]` without a linked issue; add an `// issue: <link>` comment on \
                 the attribute or one of the two lines above it"
                    .to_string(),
            ));
        }
    }
}

/// XL013 over every token: a seed enters a sweep as
/// `seed_from_u64(<literal>)`, as a `seed: <literal>` field or as the
/// second argument of `Sweep::new(<samples>, <literal>)`, and a line
/// that names `seeds::` draws it from a named constant.
fn seed_rule(file: &FileAst, hits: &mut Vec<Hit>) {
    let t = &file.toks;
    let literal = |j: usize| t.get(j).is_some_and(|x| x.kind == TokKind::Num);
    let names_seeds = |line: u32| {
        (0..t.len()).any(|j| t[j].line == line && matches_at(t, j, &["seeds", ":", ":"]))
    };
    for k in 0..t.len() {
        let seed_at =
            if matches_at(t, k, &["seed_from_u64", "("]) || matches_at(t, k, &["seed", ":"]) {
                Some(k + 2)
            } else if matches_at(t, k, &["Sweep", ":", ":", "new", "("]) {
                second_argument(t, k + 5)
            } else {
                None
            };
        if seed_at.is_some_and(literal) && !names_seeds(t[k].line) {
            hits.push((
                "XL013",
                Severity::Error,
                k,
                "raw seed literal in a seeded test sweep; use a named constant from \
                 `xed_testkit::seeds`"
                    .to_string(),
            ));
        }
    }
}

/// The first token of the second argument of the call whose arguments
/// start at token `open` (right after its `(`), if it has one.
fn second_argument(t: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, tok) in t.iter().enumerate().skip(open) {
        if ['(', '[', '{'].iter().any(|&c| tok.is_punct(c)) {
            depth += 1;
        } else if [')', ']', '}'].iter().any(|&c| tok.is_punct(c)) {
            if depth == 0 {
                return None;
            }
            depth -= 1;
        } else if depth == 0 && tok.is_punct(',') {
            return Some(j + 1);
        }
    }
    None
}

/// `name` if tokens `k..` are `panic!(`, `unreachable!(`, `todo!(` or
/// `unimplemented!(`.
fn panic_macro(t: &[Tok], k: usize) -> Option<&str> {
    let name = t[k].text.as_str();
    (matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
        && matches_at(t, k, &[name, "!", "("]))
    .then_some(name)
}

/// `==`/`!=` at token `k` with a float literal (a number with a `.`,
/// not a tuple index) right before it or right after it, sign allowed.
fn float_equality(t: &[Tok], k: usize) -> bool {
    let is_float = |j: usize| {
        t[j].kind == TokKind::Num && t[j].text.contains('.') && !(j > 0 && t[j - 1].is_punct('.'))
    };
    if !(matches_at(t, k, &["=", "="]) || matches_at(t, k, &["!", "="]))
        || matches_at(t, k + 2, &["="])
        || k > 0 && ['=', '!', '<', '>'].iter().any(|&c| t[k - 1].is_punct(c))
    {
        return false;
    }
    let after = k + 2 + usize::from(matches_at(t, k + 2, &["-"]));
    (after < t.len() && is_float(after)) || (k > 0 && is_float(k - 1))
}

/// The nondeterminism source named at token `k`, if any.
fn nondeterminism(t: &[Tok], k: usize) -> Option<&'static str> {
    let path_from = |ty: &str| k >= 3 && matches_at(t, k - 3, &[ty, ":", ":"]);
    match t[k].text.as_str() {
        _ if t[k].kind != TokKind::Ident => None,
        "thread_rng" => Some("thread_rng"),
        "from_entropy" => Some("from_entropy"),
        "random" if path_from("rand") => Some("rand::random"),
        "now" if path_from("SystemTime") => Some("SystemTime::now"),
        "now" if path_from("Instant") => Some("Instant::now"),
        _ => None,
    }
}

/// Names bound to a `HashMap`/`HashSet` in the file's non-test code:
/// `name: …HashMap<…>` (fields, params, typed lets, struct literals) and
/// `name = [path::]HashMap::…`.
fn hash_container_names(file: &FileAst) -> Vec<String> {
    let t = &file.toks;
    let mut names: Vec<String> = Vec::new();
    for k in 0..t.len() {
        if t[k].kind == TokKind::Ident
            && !file.is_test(k)
            && (hash_typed(t, k) || hash_constructed(t, k))
            && !names.contains(&t[k].text)
        {
            names.push(t[k].text.clone());
        }
    }
    names
}

fn is_hash(x: &Tok) -> bool {
    x.is_ident("HashMap") || x.is_ident("HashSet")
}

/// `name: T` at token `k`, where the type `T` names a hash container.
fn hash_typed(t: &[Tok], k: usize) -> bool {
    if !matches_at(t, k + 1, &[":"])
        || matches_at(t, k + 2, &[":"])
        || k > 0 && t[k - 1].is_punct(':')
    {
        return false;
    }
    let mut depth = 0usize;
    for x in &t[k + 2..] {
        if is_hash(x) {
            return true;
        }
        if x.kind != TokKind::Punct {
            continue;
        }
        match x.text.as_str() {
            "<" | "(" | "[" => depth += 1,
            ">" | ")" | "]" if depth > 0 => depth -= 1,
            ">" | ")" | "]" | "," | ";" | "=" | "{" | "}" if depth == 0 => return false,
            _ => {}
        }
    }
    false
}

/// `name = [path::]HashMap::…` at token `k`.
fn hash_constructed(t: &[Tok], k: usize) -> bool {
    if !matches_at(t, k + 1, &["="]) || matches_at(t, k + 2, &["="]) {
        return false;
    }
    let mut j = k + 2;
    while t.get(j).is_some_and(|x| x.kind == TokKind::Ident) && matches_at(t, j + 1, &[":", ":"]) {
        if is_hash(&t[j]) {
            return true;
        }
        j += 3;
    }
    false
}

/// The hash container iterated at token `k`: `name.iter()`, `.keys()`,
/// `.values()`, `.into_iter()`, `.drain(…)`, or `in [&[mut]] name`.
fn hash_iteration<'a>(t: &[Tok], k: usize, names: &'a [String]) -> Option<&'a str> {
    let name = names.iter().find(|n| t[k].is_ident(n))?;
    let method = matches_at(t, k + 1, &[".", "drain", "("])
        || ["iter", "keys", "values", "into_iter"]
            .iter()
            .any(|m| matches_at(t, k + 1, &[".", m, "(", ")"]));
    let mut j = k;
    if j > 0 && t[j - 1].is_ident("mut") {
        j -= 1;
    }
    if j > 0 && t[j - 1].is_punct('&') {
        j -= 1;
    }
    let for_target = j > 0 && t[j - 1].is_ident("in");
    (method || for_target).then_some(name.as_str())
}

#[cfg(test)]
mod tests {
    use super::super::scan_file;
    use super::*;

    const LIB: &str = "crates/core/src/x.rs";

    fn rules_in(rel: &str, text: &str) -> Vec<&'static str> {
        scan_file(rel, text).into_iter().map(|f| f.rule).collect()
    }

    fn rules(text: &str) -> Vec<&'static str> {
        rules_in(LIB, text)
    }

    #[test]
    fn flags_unwrap_and_panics() {
        assert_eq!(rules("let x = y.unwrap();"), vec!["XL001"]);
        assert_eq!(rules("panic!(\"boom\");"), vec!["XL003"]);
        assert_eq!(rules("unreachable!(\"no\");"), vec!["XL003"]);
    }

    // Rule text inside comments or string literals must never match.
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
        // A `#[cfg(test)]` inside a string is not a test attribute.
        assert_eq!(
            rules("let s = \"#[cfg(test)]\";\nlet x = y.unwrap();"),
            vec!["XL001"]
        );
    }

    #[test]
    fn code_after_a_test_module_declaration_is_still_library_code() {
        // `#[cfg(test)] mod reference;` covers the declaration and the
        // file it names, not the rest of this file.
        let src =
            "#[cfg(test)]\nmod reference;\n\nfn live(y: Option<u8>) -> u8 {\n    y.unwrap()\n}\n";
        let f = scan_file("crates/memsim/src/scheduler.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), ("XL001", 5));
        assert_eq!(f[0].symbol, "memsim::live");
        // Code after a test module, and consts and statics outside any
        // fn, stay in scope.
        assert_eq!(
            rules("#[cfg(test)]\nmod tests {\n  fn t() { a.unwrap(); }\n}\nconst X: bool = P == 0.5;\nfn after() { b.unwrap(); }\n"),
            vec!["XL004", "XL001"]
        );
        // A cfg(test) fn inside an impl is exempt; its neighbours are not.
        assert_eq!(
            rules("impl S {\n  #[cfg(test)]\n  fn t(&self) { a.unwrap(); }\n  fn l(&self) { b.unwrap(); }\n}\n"),
            vec!["XL001"]
        );
    }

    #[test]
    fn alloc_rule_ignores_comment_and_string_decoys() {
        let hot = "crates/ecc/src/secded.rs";
        assert!(scan_file(hot, "// Vec::new() is banned here\nlet x = 1;").is_empty());
        assert!(scan_file(hot, "fn f() { let s = \"vec![1, 2]\"; }").is_empty());
        assert_eq!(rules_in(hot, "let v = Vec::new();"), vec!["XL009"]);
    }

    #[test]
    fn expect_requires_invariant_comment() {
        assert_eq!(rules("let x = y.expect(\"msg\");"), vec!["XL002"]);
        assert!(rules("// invariant: y is Some here\nlet x = y.expect(\"msg\");").is_empty());
    }

    #[test]
    fn waiver_suppresses_on_same_or_previous_line() {
        assert!(rules("let x = y.unwrap(); // xed-analyze: allow(XL001) — test").is_empty());
        assert!(rules("// xed-analyze: allow(XL001) — test\nlet x = y.unwrap();").is_empty());
        // A waiver two lines up does not reach.
        assert_eq!(
            rules("// xed-analyze: allow(XL001) — test\n\nlet x = y.unwrap();"),
            vec!["waiver", "XL001"]
        );
        // A waiver for a different rule does not help, and is stale.
        assert_eq!(
            rules("let x = y.unwrap(); // xed-analyze: allow(XL003) — test"),
            vec!["XL001", "waiver"]
        );
    }

    #[test]
    fn multi_id_waiver_suppresses_every_named_rule() {
        let src = "let x = y.unwrap(); // xed-analyze: allow(XL004, XL001) — test";
        let f = scan_file(LIB, src);
        assert!(f.iter().all(|f| f.rule != "XL001"), "{f:?}");
        // Only the unused XL004 half is left, reported stale.
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "waiver");
        assert!(f[0].message.contains("XL004"), "{f:?}");
        // The retired `xed-lint:` spelling is no waiver at all.
        let old = "let x = y.unwrap(); // xed-lint: allow(XL004, XL001)";
        assert_eq!(rules(old), vec!["XL001"]);
    }

    #[test]
    fn float_equality() {
        assert_eq!(rules("if p == 0.5 {"), vec!["XL004"]);
        assert_eq!(rules("if 1.0 != q {"), vec!["XL004"]);
        assert_eq!(rules("if p == -1.5 {"), vec!["XL004"]);
        assert!(rules("if p >= 0.5 {").is_empty());
        assert!(rules("if n == 5 {").is_empty());
        assert!(rules("assert!(p <= 1.0);").is_empty());
        assert!(rules("if t.0.1 == n {").is_empty());
    }

    #[test]
    fn nondeterminism_sources() {
        assert_eq!(rules("let mut rng = thread_rng();"), vec!["XL005"]);
        assert_eq!(rules("let t = Instant::now();"), vec!["XL005"]);
        assert_eq!(
            rules("let t = std::time::SystemTime::now();"),
            vec!["XL005"]
        );
        assert_eq!(rules("let x: u8 = rand::random();"), vec!["XL005"]);
        assert_eq!(
            rules("let e = EPOCH.get_or_init(Instant::now);"),
            vec!["XL005"]
        );
        assert!(rules("let mut rng = StdRng::seed_from_u64(7);").is_empty());
        assert!(rules("let now = clock.now();").is_empty());
    }

    #[test]
    fn hash_iteration_flagged_as_warning() {
        let text = "struct S { table: HashMap<u64, u32> }\nfor (k, v) in table.iter() {\n";
        let f = scan_file(LIB, text);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "XL006");
        assert_eq!(f[0].severity, Severity::Warning);
        assert_eq!(
            rules("let mut seen = HashSet::new();\nfor x in &seen {}\n"),
            vec!["XL006"]
        );
        // Lookups are fine.
        assert!(
            rules("struct S { table: HashMap<u64, u32> }\nlet v = table.get(&k);\n").is_empty()
        );
    }

    #[test]
    fn heap_allocation_flagged_only_in_allocation_free_modules() {
        for body in [
            "let v = Vec::new();",
            "let v = vec![0u8; 8];",
            "let v = s.to_vec();",
        ] {
            let src = format!("fn f(s: &[u8]) {{ {body} }}");
            let f = scan_file("crates/ecc/src/rs.rs", &src);
            assert_eq!(f.len(), 1, "{body}: {f:?}");
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
            assert!(
                scan_file(file, "fn f() { let v = vec![1]; }").is_empty(),
                "{file}"
            );
        }
        // Fixed-size types and the `Vec<u8>` *type name* are fine.
        assert!(scan_file("crates/ecc/src/rs.rs", "pub codeword: Vec<u8>,").is_empty());
        assert!(scan_file("crates/ecc/src/rs.rs", "let buf = [0u8; MAX_N];").is_empty());
        // Waiver, doc comment, and test-module exemptions still apply.
        assert!(scan_file(
            "crates/ecc/src/rs.rs",
            "let v = Vec::new(); // xed-analyze: allow(XL009) — test"
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
    fn allocations_on_typed_std_receivers_are_flagged() {
        // A method on a receiver typed as a std collection resolves to
        // `Std(".push")`; the leading dot once hid it from the classifier.
        let src = "fn typed(v: &mut Vec<u8>, s: &mut String) {\n    v.push(1);\n    s.push_str(\"x\");\n}\n";
        let f = scan_file("crates/ecc/src/rs.rs", src);
        let sites: Vec<_> = f.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(sites, vec![("XL009", 2), ("XL009", 3)], "{f:?}");
        // An `alloc:` justification within two lines still clears a site.
        let justified = "fn typed(v: &mut Vec<u8>) {\n    // alloc: bounded by the caller's capacity\n    v.push(1);\n}\n";
        assert!(scan_file("crates/ecc/src/rs.rs", justified).is_empty());
    }

    #[test]
    fn hot_module_list_is_workspace_rooted() {
        // A stale or misspelled entry would silently switch XL009 off
        // for the module it meant, so every entry must name a real file.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for m in super::super::rules::ALLOC_FREE_HOT_MODULES {
            assert!(
                m.starts_with("crates/ecc/src/") || m.starts_with("crates/telemetry/src/"),
                "{m}"
            );
            assert!(m.ends_with(".rs"), "{m}");
            assert!(root.join(m).is_file(), "{m} does not exist");
        }
    }

    #[test]
    fn telemetry_primitives_are_hot_modules() {
        let f = scan_file("crates/telemetry/src/hist.rs", "let v = Vec::new();");
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
        // Outside the library crates nothing but XL011 applies.
        assert!(rules_in("crates/bench/src/x.rs", "let x = y.unwrap();").is_empty());
    }

    #[test]
    fn raw_seed_literals_in_the_seeded_sweeps_are_flagged() {
        let sweep = SEEDED_TESTS[0];
        let bad = "let mut rng = StdRng::seed_from_u64(42);\nlet c = Config { seed: 7, x: 1 };\n\
                   let m = Sweep::new(300_000, 5).with_params(p);\n\
                   let n = engine::Sweep::new(f(a, b), 0x9E37);\n";
        let f = scan_file(sweep, bad);
        let sites: Vec<_> = f.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(
            sites,
            vec![("XL013", 1), ("XL013", 2), ("XL013", 3), ("XL013", 4)],
            "{f:?}"
        );

        // A line that names `seeds::` draws from a named constant.
        let good = "let mut rng = StdRng::seed_from_u64(seeds::PROPTEST_BASE ^ salt);\n\
                    let c = Config { seed: seeds::RELIABILITY_CONSISTENCY, x: 1 };\n\
                    let d = StdRng::seed_from_u64(7 ^ xed::testkit::seeds::METAMORPHIC);\n\
                    let e = reseed(seed);\n\
                    let m = Sweep::new(300_000, seeds::SCALING_ORDERING);\n\
                    let n = Sweep::new(samples, seed + 1);\n";
        assert!(scan_file(sweep, good).is_empty());

        // A literal in a comment is not a seed; the ordinary waiver
        // applies; files outside the seeded sweeps are out of scope.
        assert!(scan_file(sweep, "// e.g. seed_from_u64(5)\n").is_empty());
        assert!(scan_file(
            sweep,
            "seed_from_u64(5); // xed-analyze: allow(XL013) — fixed stream\n"
        )
        .is_empty());
        assert!(scan_file("tests/ecc_interop.rs", bad).is_empty());
    }

    #[test]
    fn ignore_requires_issue_link() {
        // Bare `#[ignore]`, inside a test module, full-text scanned.
        let bad = "#[cfg(test)]\nmod tests {\n    #[test]\n    #[ignore]\n    fn slow() {}\n}\n";
        let f = scan_file("tests/x.rs", bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "XL011");
        assert_eq!(f[0].line, 4);
        assert_eq!(rules_in("crates/bench/src/x.rs", bad), vec!["XL011"]);

        // A linked issue on the attribute or up to two lines above passes.
        let linked = "    // issue: #7 (flaky on loaded boxes)\n    #[test]\n    #[ignore]\n    fn slow() {}\n";
        assert!(scan_file("tests/x.rs", linked).is_empty());
        let reasoned = "    #[ignore = \"slow\"] // issue: #7\n    fn slow() {}\n";
        assert!(scan_file("tests/x.rs", reasoned).is_empty());

        // Waivers and comments behave like every other rule.
        assert!(scan_file("tests/x.rs", "// e.g. #[ignore]\n").is_empty());
        assert!(scan_file(
            "tests/x.rs",
            "#[ignore] // xed-analyze: allow(XL011) — test\n"
        )
        .is_empty());
    }
}
