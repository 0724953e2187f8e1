//! The analyses over the workspace call graph.
//!
//! | Rule  | Property                                                    |
//! |-------|-------------------------------------------------------------|
//! | XA100 | transitive panic-freedom of the named hot entry points      |
//! | XA101 | transitive allocation-freedom of the same closures          |
//! | XA102 | atomic-ordering discipline (hot Relaxed, boundary Acq/Rel)  |
//! | XL009 | every non-test fn of the allocation-free hot modules passes |
//! |       | XA101's classifier, and no `Vec::` path appears in them     |
//! | XA104 | every bare-`pub` item of a library crate has a user: a fn   |
//! |       | is reachable from a root, any other item is named           |
//!
//! Justification escapes (checked against *raw* source lines, so they
//! live in comments):
//!
//! - `indexing:` within the site line or 2 lines above — a bounds-safe
//!   indexing site (XA100); bare numeric-literal indexes never need one;
//! - `invariant:` within the site line or 6 lines above — an `expect`
//!   whose invariant is argued (XA100, same convention as XL002);
//! - `alloc:` within the site line or 2 lines above — an allocation
//!   that is amortized reusable-buffer growth (XA101).
//!
//! `unwrap` and panic macros have **no** escape inside a proved closure:
//! refactor to `expect` + `invariant:` or to non-panicking code.

use std::collections::{BTreeSet, HashMap};

use super::graph::{is_alloc_risk_name, CallGraph, RawSite, Target};
use super::items::{FileAst, FileKind, Workspace};
use super::lexer::{matches_at, TokKind};
use super::Finding;

/// A named entry point: `(krate, optional self type, fn name)`.
#[derive(Debug, Clone, Copy)]
pub struct EntrySpec {
    pub krate: &'static str,
    pub self_type: Option<&'static str>,
    pub name: &'static str,
}

/// A named hot-path group of entry points.
#[derive(Debug, Clone, Copy)]
pub struct GroupSpec {
    pub name: &'static str,
    pub entries: &'static [EntrySpec],
}

/// Per-group proof report.
#[derive(Debug)]
pub struct GroupReport {
    pub name: &'static str,
    /// Resolved entry points as `(qualified name, definition line)`.
    pub roots: Vec<(String, u32)>,
    /// Qualified names of every function in the transitive closure.
    pub closure: Vec<String>,
}

/// The hot-path groups whose closures XA100/XA101 prove: the ECC decode
/// kernels, the code-inference syndrome kernels (`SyndromeCode::syndrome`
/// and `::decode` run once per enumerated double inside the
/// miscorrection census), the Monte-Carlo trial evaluation, the
/// telemetry write path,
/// and the `xedd` daemon's memoized repeat-query path (canonical-key
/// derivation plus the cache hit lookup — the two stages every repeat
/// request runs, which DESIGN.md §15 requires to be O(1) and
/// panic-free).
pub const HOT_GROUPS: &[GroupSpec] = &[
    GroupSpec {
        name: "ecc-decode",
        entries: &[
            EntrySpec {
                krate: "xed_ecc",
                self_type: Some("SecDed"),
                name: "decode_line",
            },
            EntrySpec {
                krate: "xed_ecc",
                self_type: Some("ReedSolomon"),
                name: "decode_with",
            },
        ],
    },
    GroupSpec {
        name: "ecc-infer",
        entries: &[
            EntrySpec {
                krate: "xed_ecc",
                self_type: Some("SyndromeCode"),
                name: "syndrome",
            },
            EntrySpec {
                krate: "xed_ecc",
                self_type: Some("SyndromeCode"),
                name: "decode",
            },
        ],
    },
    GroupSpec {
        name: "mc-trial",
        entries: &[
            EntrySpec {
                krate: "xed_faultsim",
                self_type: None,
                name: "run_trials",
            },
            EntrySpec {
                krate: "xed_faultsim",
                self_type: None,
                name: "run_trials_bitsliced",
            },
            EntrySpec {
                krate: "xed_faultsim",
                self_type: Some("SchemeModel"),
                name: "evaluate",
            },
            EntrySpec {
                krate: "xed_faultsim",
                self_type: Some("SchemeModel"),
                name: "evaluate_isolated",
            },
            EntrySpec {
                krate: "xed_faultsim",
                self_type: Some("TailPlan"),
                name: "run_trial",
            },
        ],
    },
    GroupSpec {
        name: "telemetry-write",
        entries: &[
            EntrySpec {
                krate: "xed_telemetry",
                self_type: Some("Counter"),
                name: "add",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: Some("Counter"),
                name: "incr",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: Some("Histogram"),
                name: "record",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: Some("TraceBuf"),
                name: "record",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: None,
                name: "record_span",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: None,
                name: "enabled",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: None,
                name: "count",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: None,
                name: "observe",
            },
        ],
    },
    GroupSpec {
        name: "xedd-request",
        entries: &[
            EntrySpec {
                krate: "xed_faultsim",
                self_type: Some("Query"),
                name: "canonical_key",
            },
            EntrySpec {
                krate: "xedd",
                self_type: Some("MemoCache"),
                name: "lookup",
            },
        ],
    },
];

/// Merge/snapshot boundary functions: their loads must be `Acquire`,
/// their stores `Release` (they publish or consume whole snapshots of
/// the sharded hot-path state).
pub const BOUNDARY_FNS: &[EntrySpec] = &[
    EntrySpec {
        krate: "xed_telemetry",
        self_type: Some("Counter"),
        name: "value",
    },
    EntrySpec {
        krate: "xed_telemetry",
        self_type: Some("Counter"),
        name: "reset",
    },
    EntrySpec {
        krate: "xed_telemetry",
        self_type: Some("Histogram"),
        name: "bucket",
    },
    EntrySpec {
        krate: "xed_telemetry",
        self_type: Some("Histogram"),
        name: "count",
    },
    EntrySpec {
        krate: "xed_telemetry",
        self_type: Some("Histogram"),
        name: "sum",
    },
    EntrySpec {
        krate: "xed_telemetry",
        self_type: Some("Histogram"),
        name: "max",
    },
    EntrySpec {
        krate: "xed_telemetry",
        self_type: Some("Histogram"),
        name: "sample",
    },
    EntrySpec {
        krate: "xed_telemetry",
        self_type: Some("Histogram"),
        name: "reset",
    },
    EntrySpec {
        krate: "xed_telemetry",
        self_type: None,
        name: "set_enabled",
    },
];

/// Macros that unconditionally (or assert-conditionally) panic.
fn is_panic_macro(name: &str) -> bool {
    matches!(
        name,
        "panic" | "unreachable" | "assert" | "assert_eq" | "assert_ne" | "todo" | "unimplemented"
    )
}

/// Std paths/associated fns that allocate. A method on a receiver with
/// no workspace candidate resolves to `.name`, so the dot is trimmed.
fn std_path_allocates(path: &str) -> bool {
    let segs: Vec<&str> = path.split("::").collect();
    let last = segs
        .last()
        .copied()
        .unwrap_or_default()
        .trim_start_matches('.');
    if is_alloc_risk_name(last) || last == "format" {
        return true;
    }
    if segs.len() >= 2 {
        let ty = segs[segs.len() - 2];
        return match (ty, last) {
            ("Box" | "Rc" | "Arc", "new") => true,
            (
                "String" | "Vec" | "VecDeque" | "HashMap" | "HashSet" | "BTreeMap" | "BTreeSet",
                "from" | "from_iter" | "new",
            ) => {
                // `Vec::new()`/`String::new()` do not allocate.
                last != "new"
            }
            _ => false,
        };
    }
    false
}

/// Designated allocation-free hot modules (rule XL009). The `ecc` entries
/// hold the word-parallel decode kernels the simulators call per memory
/// access; the `telemetry` entries are the recording primitives every
/// instrumented hot loop touches (including the flight-recorder span
/// rings in `trace.rs` — the tracing write sits on every request and
/// scheduler-chunk path). Heap traffic in either is a performance
/// regression by definition. `ecc/gf.rs` (table construction),
/// `ecc/reference.rs` (the designated home for the seed's `Vec`-returning
/// pipeline) and `telemetry/export.rs` (the once-per-report snapshot
/// layer) are exempt, as is test code everywhere.
pub const ALLOC_FREE_HOT_MODULES: [&str; 8] = [
    "crates/ecc/src/bits.rs",
    "crates/ecc/src/codeword.rs",
    "crates/ecc/src/parity.rs",
    "crates/ecc/src/rs.rs",
    "crates/ecc/src/secded.rs",
    "crates/telemetry/src/counter.rs",
    "crates/telemetry/src/hist.rs",
    "crates/telemetry/src/trace.rs",
];

/// Looks for `marker` in the raw source within `span` lines above the
/// site (inclusive of the site line itself, for trailing comments).
pub fn justified(file: &FileAst, line: u32, marker: &str, span: usize) -> bool {
    let l = line as usize; // 1-based
    if l == 0 {
        return false;
    }
    let lo = l.saturating_sub(span + 1);
    file.raw[lo..l.min(file.raw.len())]
        .iter()
        .any(|s| s.contains(marker))
}

/// Resolves one entry spec to fn indices.
fn resolve_entry(ws: &Workspace, e: &EntrySpec) -> Vec<usize> {
    ws.find_fns(e.krate, e.self_type, e.name)
}

/// Runs XA100–XA102: the proofs over every hot group's closure, the
/// boundary-ordering pass and the global `SeqCst` sweep. Returns one
/// proof report per group.
pub fn check_hot_paths(
    ws: &Workspace,
    graph: &CallGraph,
    findings: &mut Vec<Finding>,
) -> Vec<GroupReport> {
    let mut groups = Vec::new();
    let mut scanned: BTreeSet<usize> = BTreeSet::new();

    for spec in HOT_GROUPS {
        let mut roots = Vec::new();
        let mut root_idx = Vec::new();
        for e in spec.entries {
            let found = resolve_entry(ws, e);
            if found.is_empty() {
                let symbol = format!(
                    "{}::{}{}",
                    e.krate,
                    e.self_type.map(|t| format!("{t}::")).unwrap_or_default(),
                    e.name
                );
                let message = format!(
                    "hot entry point `{}` not found in the workspace — the analyzer \
                     config drifted from the code",
                    e.name
                );
                findings.push(Finding {
                    group: Some(spec.name),
                    ..Finding::error("XA100", "", 0, symbol, message)
                });
            }
            for i in found {
                roots.push((ws.fns[i].qualified(), ws.fns[i].line));
                root_idx.push(i);
            }
        }
        let closure = super::graph::reachable(&graph.edges, &root_idx);
        for &fi in &closure {
            // A fn shared by several closures is scanned once, attributed
            // to the first group that reaches it.
            if scanned.insert(fi) {
                scan_hot_fn(ws, graph, fi, spec.name, findings);
            }
        }
        groups.push(GroupReport {
            name: spec.name,
            roots,
            closure: closure.iter().map(|&i| ws.fns[i].qualified()).collect(),
        });
    }

    // XA102: boundary functions pair Acquire/Release.
    for e in BOUNDARY_FNS {
        for fi in resolve_entry(ws, e) {
            let f = &ws.fns[fi];
            let file = &ws.files[f.file];
            for site in &graph.facts[fi].sites {
                if let RawSite::Atomic { op, ordering, line } = site {
                    if ordering == "SeqCst" {
                        continue; // the global SeqCst sweep reports it
                    }
                    let want = match op.as_str() {
                        "load" => "Acquire",
                        "store" => "Release",
                        _ => "AcqRel",
                    };
                    if ordering != want {
                        findings.push(Finding::error(
                            "XA102",
                            &file.rel_path,
                            *line,
                            f.qualified(),
                            format!(
                                "boundary `{}` uses `Ordering::{ordering}` for `{op}`; \
                                 merge/snapshot boundaries must use `{want}` to pair \
                                 with the Relaxed hot path",
                                f.name
                            ),
                        ));
                    }
                }
            }
        }
    }

    // XA102: stray SeqCst anywhere in the workspace.
    for (fi, f) in ws.fns.iter().enumerate() {
        if f.in_cfg_test {
            continue;
        }
        for site in &graph.facts[fi].sites {
            if let RawSite::Atomic { op, ordering, line } = site {
                if ordering == "SeqCst" {
                    findings.push(Finding::error(
                        "XA102",
                        &ws.files[f.file].rel_path,
                        *line,
                        f.qualified(),
                        format!(
                            "stray `Ordering::SeqCst` on `{op}`; this workspace's \
                             concurrency model needs only Relaxed (hot) and \
                             Acquire/Release (boundaries)"
                        ),
                    ));
                }
            }
        }
    }

    groups
}

/// Runs XL009 over the allocation-free hot modules: the `Vec::` path arm
/// over all their non-test tokens, then XA101's classifier over each of
/// their non-test fns.
pub fn check_alloc_free_modules(ws: &Workspace, graph: &CallGraph, findings: &mut Vec<Finding>) {
    let hot = |file: &FileAst| ALLOC_FREE_HOT_MODULES.contains(&file.rel_path.as_str());
    let mut push = |file: &FileAst, line: u32, symbol: String, what: &str| {
        let message = format!(
            "heap allocation ({what}) in an allocation-free hot module; use the \
             fixed-capacity scratch/array APIs, or move `Vec`-returning convenience \
             code to `ecc/src/reference.rs` / `telemetry/src/export.rs`"
        );
        findings.push(Finding::error(
            "XL009",
            &file.rel_path,
            line,
            symbol,
            message,
        ));
    };
    for (fi, file) in ws.files.iter().enumerate().filter(|(_, f)| hot(f)) {
        let t = &file.toks;
        for k in 0..t.len() {
            if matches_at(t, k, &["Vec", ":", ":"]) && !file.is_test(k) {
                push(file, t[k].line, ws.enclosing_fn(fi, k), "`Vec::`");
            }
        }
    }
    for (i, f) in ws.fns.iter().enumerate() {
        let file = &ws.files[f.file];
        if f.in_cfg_test || !hot(file) {
            continue;
        }
        for (line, site) in alloc_sites(ws, graph, i) {
            let what = match site {
                Alloc::Macro(name) => format!("`{name}!`"),
                Alloc::Std(written) | Alloc::Untyped(written) => format!("`{written}`"),
            };
            push(file, line, f.qualified(), &what);
        }
    }
}

/// One allocation XA101's classifier finds in a fn body.
enum Alloc {
    /// `vec!` / `format!`.
    Macro(String),
    /// An allocating std path or method.
    Std(String),
    /// An alloc-capable method name on a receiver of unknown type.
    Untyped(String),
}

/// XA101's classifier: every allocation site in fn `fi`, as written,
/// minus those justified by an `alloc:` comment.
fn alloc_sites(ws: &Workspace, graph: &CallGraph, fi: usize) -> Vec<(u32, Alloc)> {
    let file = &ws.files[ws.fns[fi].file];
    let mut out = Vec::new();
    for site in &graph.facts[fi].sites {
        if let RawSite::Macro { name, line } = site {
            if name == "vec" || name == "format" {
                out.push((*line, Alloc::Macro(name.clone())));
            }
        }
    }
    for site in graph.sites.iter().filter(|s| s.caller == fi) {
        if justified(file, site.line, "alloc:", 2) {
            continue;
        }
        // An untyped receiver is classified by its name alone, before its
        // target: whether that name resolved to some workspace method or
        // to std must not change the finding.
        if site.alloc_risk {
            out.push((site.line, Alloc::Untyped(site.written.clone())));
        } else if matches!(&site.target, Target::Std(path) if std_path_allocates(path)) {
            out.push((site.line, Alloc::Std(site.written.clone())));
        }
    }
    out
}

/// Scans one function inside a hot closure for XA100/XA101/XA102
/// violations.
fn scan_hot_fn(
    ws: &Workspace,
    graph: &CallGraph,
    fi: usize,
    group: &'static str,
    findings: &mut Vec<Finding>,
) {
    let f = &ws.fns[fi];
    let file = &ws.files[f.file];
    let symbol = f.qualified();
    // A declared reconciliation boundary keeps its Acquire/Release
    // contract even when over-approximate resolution (an untyped
    // receiver sharing a method name) pulls it into a hot closure; the
    // dedicated boundary pass checks its orderings instead.
    let is_boundary = BOUNDARY_FNS
        .iter()
        .any(|e| e.krate == f.krate && e.name == f.name && e.self_type == f.self_type.as_deref());
    let push = |findings: &mut Vec<Finding>, rule, line, message| {
        findings.push(Finding {
            group: Some(group),
            ..Finding::error(rule, &file.rel_path, line, symbol.clone(), message)
        });
    };

    for site in &graph.facts[fi].sites {
        match site {
            RawSite::Macro { name, line } if is_panic_macro(name) => {
                push(
                    findings,
                    "XA100",
                    *line,
                    format!("`{name}!` is reachable from hot entry group `{group}`"),
                );
            }
            RawSite::Index { line, literal }
                if !literal && !justified(file, *line, "indexing:", 2) =>
            {
                push(
                    findings,
                    "XA100",
                    *line,
                    "unjustified non-literal indexing can panic; prove the bound \
                     with an `indexing:` comment within 2 lines or use `get`"
                        .to_string(),
                );
            }
            RawSite::Atomic { op, ordering, line }
                if !is_boundary && ordering != "Relaxed" && ordering != "SeqCst" =>
            {
                push(
                    findings,
                    "XA102",
                    *line,
                    format!(
                        "hot-path atomic `{op}` uses `Ordering::{ordering}`; \
                         hot paths must stay Relaxed (boundaries reconcile)"
                    ),
                );
            }
            _ => {}
        }
    }

    for site in graph.sites.iter().filter(|s| s.caller == fi) {
        match &site.target {
            Target::Std(path) => {
                let name = path
                    .rsplit("::")
                    .next()
                    .unwrap_or(path)
                    .trim_start_matches('.');
                if name == "unwrap" || name == "unwrap_err" {
                    push(
                        findings,
                        "XA100",
                        site.line,
                        format!(
                            "`{name}()` is reachable from hot entry group `{group}`; \
                             refactor or use `expect` with an `invariant:` comment"
                        ),
                    );
                } else if (name == "expect" || name == "expect_err")
                    && !justified(file, site.line, "invariant:", 6)
                {
                    push(
                        findings,
                        "XA100",
                        site.line,
                        "`expect()` without an `invariant:` comment within 6 lines".to_string(),
                    );
                }
            }
            Target::Unresolved(name) => {
                push(
                    findings,
                    "XA100",
                    site.line,
                    format!(
                        "call `{name}` could not be resolved inside a proved hot \
                         path — the panic/alloc proof has a hole here"
                    ),
                );
            }
            _ => {}
        }
    }

    for (line, site) in alloc_sites(ws, graph, fi) {
        let message = match site {
            Alloc::Macro(name) => format!("`{name}!` allocates inside hot entry group `{group}`"),
            Alloc::Std(written) => format!(
                "`{written}` allocates inside hot entry group `{group}`; refactor \
                 to a reusable buffer or justify with an `alloc:` comment"
            ),
            Alloc::Untyped(written) => format!(
                "`{written}` has an alloc-capable name and an untyped receiver; \
                 if the receiver is a collection this allocates — justify \
                 with an `alloc:` comment or type the receiver"
            ),
        };
        push(findings, "XA101", line, message);
    }
}

/// XA104: the public surface nothing uses, which `rustc`'s `dead_code`
/// lint cannot see in a library crate.
///
/// - Fn arm: a `pub` fn or inherent method of a library file is a
///   finding when no root reaches it through the call graph, value
///   references (`map(Type::f)`) included. The roots are every non-test
///   fn of a root file (bins, integration tests, examples, the
///   benchmark), every trait method, which std and the compiler call
///   with no call site (`Display::fmt`, `Drop::drop`, `Iterator::next`),
///   and every fn a `const` or `static` initializer calls or names.
/// - Name arm: a `pub` const, static, struct, enum or type alias is a
///   finding when no token outside its own definition names it, its own
///   file's test code and every `use` excluded.
///
/// The graph over-approximates edges (an untyped or guessed receiver,
/// and an unresolved call, fan out to every fn of the name), so a dead
/// method that shares its name with such a call is missed. A call that
/// resolves to std (`Vec::new()`, `.len()` on a typed `Vec`) adds no
/// edge.
pub fn check_dead_surface(ws: &Workspace, graph: &CallGraph, findings: &mut Vec<Finding>) {
    let roots: Vec<usize> = (0..ws.fns.len())
        .filter(|&i| {
            let f = &ws.fns[i];
            !f.in_cfg_test
                && (ws.files[f.file].kind != FileKind::Lib || f.in_trait_impl || f.is_trait_default)
        })
        .chain(graph.init_callees.iter().copied())
        .collect();
    let edges: Vec<Vec<usize>> = (graph.edges.iter().zip(&graph.name_edges))
        .map(|(e, n)| e.iter().chain(n).copied().collect())
        .collect();
    let reached = super::graph::reachable(&edges, &roots);
    for (i, f) in ws.fns.iter().enumerate() {
        let file = &ws.files[f.file];
        if f.is_pub && !f.in_cfg_test && file.kind == FileKind::Lib && !reached.contains(&i) {
            findings.push(Finding::error(
                "XA104",
                &file.rel_path,
                f.line,
                f.qualified(),
                format!(
                    "`pub fn {}` is reachable from no root (bin, test, example or \
                     benchmark); delete it, move it under `#[cfg(test)]`, or waive \
                     it with the reason it is surface",
                    f.name
                ),
            ));
        }
    }

    // Name arm: every candidate by name, then one pass over the tokens.
    let mut wanted: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    for (fi, file) in ws
        .files
        .iter()
        .enumerate()
        .filter(|(_, f)| f.kind == FileKind::Lib)
    {
        for (ii, item) in file.pub_items.iter().enumerate() {
            if !file.is_test(item.span.0) {
                wanted.entry(&item.name).or_default().push((fi, ii));
            }
        }
    }
    let mut named: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut names: Vec<&str> = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for (k, t) in file.toks.iter().enumerate() {
            names.clear();
            match t.kind {
                TokKind::Ident => names.push(&t.text),
                TokKind::Str => names.extend(format_captures(&t.text)),
                _ => continue,
            }
            for items in names.iter().filter_map(|n| wanted.get(n)) {
                if file.use_spans.iter().any(|&(s, e)| s <= k && k < e) {
                    continue;
                }
                for &(di, ii) in items {
                    let (s, e) = ws.files[di].pub_items[ii].span;
                    if di != fi || !(s <= k && k < e || file.is_test(k)) {
                        named.insert((di, ii));
                    }
                }
            }
        }
    }
    for &(fi, ii) in wanted.values().flatten().filter(|at| !named.contains(at)) {
        let (file, item) = (&ws.files[fi], &ws.files[fi].pub_items[ii]);
        let module: String = file.module.iter().map(|m| format!("{m}::")).collect();
        findings.push(Finding::error(
            "XA104",
            &file.rel_path,
            item.line,
            format!("{}::{module}{}", file.krate, item.name),
            format!(
                "`pub {} {}` is named nowhere outside its definition and its file's \
                 tests; delete it, move it under `#[cfg(test)]`, or waive it with the \
                 reason it is surface",
                item.kind, item.name
            ),
        ));
    }
}

/// The identifiers a string literal captures as inline format arguments
/// (`"{GOLDEN_PATH}"`, `"{x:>8}"`).
fn format_captures(literal: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = literal;
    while let Some(at) = rest.find('{') {
        let after = &rest[at + 1..];
        if let Some(escaped) = after.strip_prefix('{') {
            rest = escaped;
            continue;
        }
        let end = after
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(after.len());
        let (name, tail) = after.split_at(end);
        if name.starts_with(|c: char| c.is_alphabetic() || c == '_')
            && (tail.starts_with('}') || tail.starts_with(':'))
        {
            out.push(name);
        }
        rest = after;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::format_captures;

    #[test]
    fn format_captures_are_the_named_arguments() {
        assert_eq!(
            format_captures(r#""{}/{GOLDEN_PATH} {x:>8} {{literal}} {0} {a.b}""#),
            ["GOLDEN_PATH", "x"]
        );
        assert!(format_captures(r#""no braces""#).is_empty());
    }
}
