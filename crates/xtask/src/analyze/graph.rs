//! Workspace call graph: call-site extraction from function bodies,
//! name-resolution heuristics, and reachability closure.
//!
//! Resolution is deliberately *sound over precise* for the properties
//! the XA rules prove: when a call could dispatch to several workspace
//! functions (a trait method with multiple impls, a method name with an
//! unknown receiver), edges go to **every** candidate, so the reachable
//! set over-approximates the true dynamic call closure. A proof of
//! "nothing reachable panics/allocates" over the over-approximation is
//! therefore still a proof. The cost is possible false-positive
//! findings in functions that are not truly reachable — those are fixed
//! or justified like real ones.
//!
//! Resolution ladder (first hit wins; documented in DESIGN.md §13):
//!
//! 1. constructor names (tuple structs, enum variants, `Some`/`Ok`/…)
//!    are not calls;
//! 2. explicit paths: `crate::`/`self::`/`super::`, workspace crate
//!    names, and per-file `use` aliases expand to a crate + item path;
//! 3. `Type::method` resolves against the workspace impl index;
//! 4. `.method(…)` resolves by receiver: `self` → the enclosing impl
//!    type, a typed local/param → that type (generic parameters resolve
//!    through their trait bounds to every impl + the trait default),
//!    otherwise every workspace method of that name;
//! 5. paths into `std`/`core`/`alloc` and methods with no workspace
//!    candidate are classified against the known-safe/alloc lists in
//!    [`crate::analyze::rules`];
//! 6. anything left lands in the **unresolved bucket**, which the
//!    report surfaces explicitly — unresolved is a visible hole in the
//!    proof, never a silent pass.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use super::items::{FileKind, FnItem, Workspace};
use super::lexer::{Tok, TokKind};

/// How a method call's receiver was written at the call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `self.method(…)`.
    OnSelf,
    /// `name.method(…)` for a simple identifier receiver.
    Named(String),
    /// Chained / complex receiver (`foo().method(…)`, `a[i].method(…)`).
    Unknown,
}

/// One extracted call-ish site inside a function body.
#[derive(Debug, Clone)]
pub enum RawSite {
    /// `a::b::c(…)` — full path segments.
    Path { segs: Vec<String>, line: u32 },
    /// `a::b::c` not called: a lowercase path named as a value, which may
    /// be a fn passed by name (`map(Type::f)`, a fn pointer).
    Value { segs: Vec<String> },
    /// `.name(…)` with the receiver shape.
    Method { name: String, recv: Recv, line: u32 },
    /// `name!(…)`.
    Macro { name: String, line: u32 },
    /// `expr[index]`; `literal` means the index token was a bare
    /// numeric literal (compile-time-checked for arrays in practice).
    Index { line: u32, literal: bool },
    /// `Ordering::X` with the nearest preceding atomic op name.
    Atomic {
        op: String,
        ordering: String,
        line: u32,
    },
}

/// Everything extracted from one function body.
#[derive(Debug, Default, Clone)]
pub struct BodyFacts {
    /// All sites in source order.
    pub sites: Vec<RawSite>,
    /// Local `let` bindings with a recognizable type (`name` → type).
    pub locals: HashMap<String, String>,
    /// Names callable without leaving this body: `let`-bound closures,
    /// nested `fn` items, and locally declared tuple structs / enums.
    /// Their effects are already attributed to the enclosing function
    /// (the whole body range is scanned), so calls through these names
    /// are inline, not graph edges.
    pub local_callables: HashSet<String>,
}

/// Extracts call sites, macro uses, indexing, atomics, and typed local
/// bindings from a body token range.
pub fn extract_body(toks: &[Tok], body: (usize, usize)) -> BodyFacts {
    let t = &toks[body.0..body.1];
    let mut facts = BodyFacts::default();
    let mut k = 0usize;
    while k < t.len() {
        let tok = &t[k];

        // `let [mut] name [: Type] = Type::…` bindings.
        if tok.is_ident("let") {
            let mut j = k + 1;
            if t.get(j).is_some_and(|x| x.is_ident("mut")) {
                j += 1;
            }
            if let Some(name_tok) = t.get(j) {
                if name_tok.kind == TokKind::Ident {
                    let name = name_tok.text.clone();
                    let mut ty: Option<String> = None;
                    let mut m = j + 1;
                    if t.get(m).is_some_and(|x| x.is_punct(':')) {
                        // Explicit type: scan to `=` or `;`.
                        let mut last_upper = None;
                        m += 1;
                        while let Some(x) = t.get(m) {
                            if x.is_punct('=') || x.is_punct(';') {
                                break;
                            }
                            if x.kind == TokKind::Ident
                                && x.text.chars().next().is_some_and(char::is_uppercase)
                            {
                                last_upper = Some(x.text.clone());
                            }
                            m += 1;
                        }
                        ty = last_upper;
                    } else if t.get(m).is_some_and(|x| x.is_punct('=')) {
                        // `= Type::ctor(…)` — first segment if capitalized.
                        if let Some(x) = t.get(m + 1) {
                            if x.kind == TokKind::Ident
                                && x.text.chars().next().is_some_and(char::is_uppercase)
                                && t.get(m + 2).is_some_and(|c| c.is_punct(':'))
                            {
                                ty = Some(x.text.clone());
                            }
                        }
                    }
                    // `let [mut] name = [move] |…|` — a local closure:
                    // calls through `name` stay inside this body.
                    if t.get(m).is_some_and(|x| x.is_punct('=')) {
                        let mut r = m + 1;
                        if t.get(r).is_some_and(|x| x.is_ident("move")) {
                            r += 1;
                        }
                        if t.get(r).is_some_and(|x| x.is_punct('|')) {
                            facts.local_callables.insert(name.clone());
                        }
                    }
                    if let Some(ty) = ty {
                        facts.locals.insert(name, ty);
                    }
                }
            }
        }

        // Items declared inside the body: `fn f`, `struct S`, `enum E`.
        // Record the name as locally callable and step past it so the
        // declaration header is not misread as a call site.
        if tok.kind == TokKind::Ident && matches!(tok.text.as_str(), "fn" | "struct" | "enum") {
            if let Some(n) = t.get(k + 1) {
                if n.kind == TokKind::Ident {
                    facts.local_callables.insert(n.text.clone());
                    k += 2;
                    continue;
                }
            }
        }

        // Macro invocation: Ident `!` (not `!=`).
        if tok.kind == TokKind::Ident
            && t.get(k + 1).is_some_and(|x| x.is_punct('!'))
            && !t.get(k + 2).is_some_and(|x| x.is_punct('='))
        {
            facts.sites.push(RawSite::Macro {
                name: tok.text.clone(),
                line: tok.line,
            });
            k += 2;
            continue;
        }

        // `Ordering::X` — find the owning atomic op by backward scan.
        if tok.is_ident("Ordering")
            && t.get(k + 1).is_some_and(|x| x.is_punct(':'))
            && t.get(k + 2).is_some_and(|x| x.is_punct(':'))
        {
            if let Some(ord) = t.get(k + 3) {
                if ord.kind == TokKind::Ident {
                    let op = t[..k]
                        .iter()
                        .rev()
                        .take(14)
                        .find(|x| x.kind == TokKind::Ident && is_atomic_op(&x.text))
                        .map_or_else(|| "?".to_string(), |x| x.text.clone());
                    facts.sites.push(RawSite::Atomic {
                        op,
                        ordering: ord.text.clone(),
                        line: ord.line,
                    });
                    k += 4;
                    continue;
                }
            }
        }

        // Method call: `.name(` or `.name::<…>(`.
        if tok.is_punct('.') {
            if let Some(name_tok) = t.get(k + 1) {
                if name_tok.kind == TokKind::Ident {
                    let mut j = k + 2;
                    // Turbofish.
                    if t.get(j).is_some_and(|x| x.is_punct(':'))
                        && t.get(j + 1).is_some_and(|x| x.is_punct(':'))
                        && t.get(j + 2).is_some_and(|x| x.is_punct('<'))
                    {
                        j = skip_angle(t, j + 2);
                    }
                    if t.get(j).is_some_and(|x| x.is_punct('(')) {
                        let recv = match k.checked_sub(1).and_then(|p| t.get(p)) {
                            Some(p) if p.is_ident("self") => Recv::OnSelf,
                            Some(p) if p.kind == TokKind::Ident => Recv::Named(p.text.clone()),
                            _ => Recv::Unknown,
                        };
                        facts.sites.push(RawSite::Method {
                            name: name_tok.text.clone(),
                            recv,
                            line: name_tok.line,
                        });
                        k += 2;
                        continue;
                    }
                }
            }
        }

        // Path or plain call: Ident (`::` Ident | `::<…>`)* `(`.
        if tok.kind == TokKind::Ident && !is_keyword(&tok.text) {
            // A single `.` means field/method access; `..` is the range
            // operator, after which a fresh path expression may start
            // (`..Self::base()` in struct-update syntax).
            let prev_dot = k.checked_sub(1).is_some_and(|p| t[p].is_punct('.'))
                && !k.checked_sub(2).is_some_and(|p| t[p].is_punct('.'));
            if !prev_dot {
                let mut segs = vec![tok.text.clone()];
                let mut j = k + 1;
                loop {
                    if t.get(j).is_some_and(|x| x.is_punct(':'))
                        && t.get(j + 1).is_some_and(|x| x.is_punct(':'))
                    {
                        if t.get(j + 2).is_some_and(|x| x.is_punct('<')) {
                            j = skip_angle(t, j + 2);
                            continue;
                        }
                        if let Some(x) = t.get(j + 2) {
                            if x.kind == TokKind::Ident {
                                segs.push(x.text.clone());
                                j += 3;
                                continue;
                            }
                        }
                        break;
                    }
                    break;
                }
                if t.get(j).is_some_and(|x| x.is_punct('(')) {
                    facts.sites.push(RawSite::Path {
                        segs,
                        line: tok.line,
                    });
                    k = j;
                    continue;
                }
                // `name:` is a struct-literal field or a binding's type.
                if !t.get(j).is_some_and(|x| x.is_punct(':'))
                    && segs
                        .last()
                        .is_some_and(|s| s.starts_with(|c: char| c.is_lowercase() || c == '_'))
                {
                    facts.sites.push(RawSite::Value { segs });
                }
                k = j.max(k + 1);
                continue;
            }
        }

        // Indexing: `[` after an expression tail.
        if tok.is_punct('[') {
            let prev = k.checked_sub(1).and_then(|p| t.get(p));
            let is_index = prev.is_some_and(|p| {
                (p.kind == TokKind::Ident && !is_keyword(&p.text))
                    || p.is_punct(')')
                    || p.is_punct(']')
            });
            if is_index {
                let literal = t.get(k + 1).is_some_and(|x| x.kind == TokKind::Num)
                    && t.get(k + 2).is_some_and(|x| x.is_punct(']'));
                facts.sites.push(RawSite::Index {
                    line: tok.line,
                    literal,
                });
            }
        }

        k += 1;
    }
    facts
}

/// Skips a balanced `<…>` starting at index `open` (which must be `<`);
/// returns the index just past the matching `>`.
fn skip_angle(t: &[Tok], open: usize) -> usize {
    let mut depth = 0isize;
    let mut j = open;
    while let Some(x) = t.get(j) {
        if x.is_punct('<') {
            depth += 1;
        } else if x.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

fn is_atomic_op(s: &str) -> bool {
    matches!(
        s,
        "load"
            | "store"
            | "swap"
            | "fetch_add"
            | "fetch_sub"
            | "fetch_and"
            | "fetch_or"
            | "fetch_xor"
            | "fetch_max"
            | "fetch_min"
            | "fetch_update"
            | "compare_exchange"
            | "compare_exchange_weak"
    )
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "fn"
            | "in"
            | "as"
            | "break"
            | "continue"
            | "where"
            | "impl"
            | "dyn"
            | "pub"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "trait"
            | "const"
            | "static"
            | "type"
            | "unsafe"
            | "extern"
    )
}

/// Built-in constructor names that look like calls but are not.
const BUILTIN_CTORS: [&str; 4] = ["Some", "Ok", "Err", "None"];

/// Crate-path roots that belong to the standard library.
fn is_std_root(s: &str) -> bool {
    matches!(s, "std" | "core" | "alloc")
        || matches!(
            s,
            "u8" | "u16"
                | "u32"
                | "u64"
                | "u128"
                | "usize"
                | "i8"
                | "i16"
                | "i32"
                | "i64"
                | "i128"
                | "isize"
                | "f32"
                | "f64"
                | "bool"
                | "char"
                | "str"
        )
}

/// Std types whose associated functions are classified by the rule
/// lists rather than resolved in-workspace.
fn is_std_type(s: &str) -> bool {
    matches!(
        s,
        "Vec"
            | "VecDeque"
            | "String"
            | "Box"
            | "Rc"
            | "Arc"
            | "HashMap"
            | "HashSet"
            | "BTreeMap"
            | "BTreeSet"
            | "Option"
            | "Result"
            | "Instant"
            | "Duration"
            | "SystemTime"
            | "AtomicU64"
            | "AtomicU32"
            | "AtomicUsize"
            | "AtomicBool"
            | "Ordering"
            | "PathBuf"
            | "Path"
            | "OsString"
            | "Cell"
            | "RefCell"
            | "Mutex"
            | "RwLock"
            | "PhantomData"
            | "Default"
            | "Iterator"
            | "ExitCode"
    )
}

/// A call edge target after resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// One or more workspace functions (indices into [`Workspace::fns`]).
    Fns(Vec<usize>),
    /// A standard-library (or otherwise external) call; carries the
    /// joined path (`"Vec::new"`, `".push"`) for the rule lists.
    Std(String),
    /// Constructor — not a call.
    Ctor,
    /// Could not be resolved; carries a display name for the bucket.
    Unresolved(String),
}

/// One resolved call site: where it is and what it targets.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Calling function (index into [`Workspace::fns`]).
    pub caller: usize,
    /// Source line of the call.
    pub line: u32,
    /// Resolution result.
    pub target: Target,
    /// Display form of what was written at the call site.
    pub written: String,
    /// True for a method call with an alloc-capable name whose receiver
    /// type could not be determined: even if workspace methods matched
    /// by name, the real receiver could be a `Vec`/`String`, so XA101
    /// must treat the site as a potential allocation.
    pub alloc_risk: bool,
}

/// Method names that allocate (or can allocate) on std collection and
/// string types. Used both to classify std calls and to dual-flag
/// untyped-receiver method calls.
pub fn is_alloc_risk_name(name: &str) -> bool {
    matches!(
        name,
        "push"
            | "push_str"
            | "extend"
            | "extend_from_slice"
            | "insert"
            | "reserve"
            | "reserve_exact"
            | "resize"
            | "append"
            | "collect"
            | "to_vec"
            | "to_string"
            | "to_owned"
            | "into_owned"
            | "with_capacity"
            | "split_off"
            | "repeat"
            | "join"
            | "concat"
    )
}

/// The resolved call graph plus per-function extracted facts.
#[derive(Debug)]
pub struct CallGraph {
    /// `facts[i]` are the extracted sites of `ws.fns[i]` (empty for
    /// bodyless signatures).
    pub facts: Vec<BodyFacts>,
    /// Resolved workspace-level call edges: `edges[i]` = callee indices.
    pub edges: Vec<Vec<usize>>,
    /// The edges a resolution by name alone adds: from a method call
    /// whose receiver type is only guessed (a field of that name
    /// somewhere), or from a call left unresolved, to every workspace fn
    /// of the called name. The hot-path proofs walk `edges` only; XA104,
    /// which must never call a live fn dead, walks both.
    pub name_edges: Vec<Vec<usize>>,
    /// The workspace fns that the non-test `const` and `static`
    /// initializers ([`Workspace::inits`]) call or name, by both kinds
    /// of edge: reached with no fn to reach them from.
    pub init_callees: Vec<usize>,
    /// Every resolved call site (workspace, std, and unresolved).
    pub sites: Vec<CallSite>,
    /// Unresolved bucket: display name → (site count, example site).
    pub unresolved: BTreeMap<String, (usize, String)>,
}

/// Indexes used during resolution, built once per workspace.
struct Indexes {
    /// Method name → fn indices (functions with a self type).
    methods: HashMap<String, Vec<usize>>,
    /// (self type, method name) → fn indices.
    typed_methods: HashMap<(String, String), Vec<usize>>,
    /// Free fn name → indices, per crate.
    free_by_crate: HashMap<(String, String), Vec<usize>>,
    /// Free fn name → indices, workspace-wide.
    free_by_name: HashMap<String, Vec<usize>>,
    /// Struct field name → outer type idents (workspace-wide).
    fields: HashMap<String, Vec<String>>,
    /// Trait name → impl self-type names (workspace-wide).
    trait_impls: HashMap<String, Vec<String>>,
    /// Type name → trait names it implements.
    type_traits: HashMap<String, Vec<String>>,
    /// All constructor-position names (workspace tuple structs, enum
    /// variants, and builtins).
    ctors: HashSet<String>,
    /// All workspace type names.
    types: HashSet<String>,
    /// Known workspace crate names (underscore form).
    crate_names: HashSet<String>,
}

fn build_indexes(ws: &Workspace) -> Indexes {
    let mut ix = Indexes {
        methods: HashMap::new(),
        typed_methods: HashMap::new(),
        free_by_crate: HashMap::new(),
        free_by_name: HashMap::new(),
        fields: HashMap::new(),
        trait_impls: HashMap::new(),
        type_traits: HashMap::new(),
        ctors: BUILTIN_CTORS.iter().map(|s| s.to_string()).collect(),
        types: HashSet::new(),
        crate_names: HashSet::new(),
    };
    for (i, f) in ws.fns.iter().enumerate() {
        if f.in_cfg_test || ws.files[f.file].kind == FileKind::Outside {
            continue; // test helpers and outside fns never join the candidate sets
        }
        ix.crate_names.insert(f.krate.clone());
        match &f.self_type {
            Some(t) => {
                ix.methods.entry(f.name.clone()).or_default().push(i);
                ix.typed_methods
                    .entry((t.clone(), f.name.clone()))
                    .or_default()
                    .push(i);
            }
            None => {
                ix.free_by_crate
                    .entry((f.krate.clone(), f.name.clone()))
                    .or_default()
                    .push(i);
                ix.free_by_name.entry(f.name.clone()).or_default().push(i);
            }
        }
    }
    for file in ws.files.iter().filter(|f| f.kind != FileKind::Outside) {
        ix.crate_names.insert(file.krate.clone());
        for t in &file.types {
            ix.types.insert(t.clone());
        }
        for c in &file.ctors {
            ix.ctors.insert(c.clone());
        }
        for (f, ty) in &file.fields {
            let v = ix.fields.entry(f.clone()).or_default();
            if !v.contains(ty) {
                v.push(ty.clone());
            }
        }
        for d in &file.impls {
            if let Some(tr) = &d.trait_name {
                ix.trait_impls
                    .entry(tr.clone())
                    .or_default()
                    .push(d.self_type.clone());
                ix.type_traits
                    .entry(d.self_type.clone())
                    .or_default()
                    .push(tr.clone());
            }
        }
    }
    ix
}

/// Builds the resolved call graph for a parsed workspace.
pub fn build(ws: &Workspace) -> CallGraph {
    let ix = build_indexes(ws);
    // The fns, then the initializers: `i >= n` is `ws.inits[i - n]`.
    let n = ws.fns.len();
    let bodies: Vec<&FnItem> = ws.fns.iter().chain(&ws.inits).collect();
    let mut facts: Vec<BodyFacts> = bodies
        .iter()
        .map(|f| match f.body {
            Some(range) => extract_body(&ws.files[f.file].toks, range),
            None => BodyFacts::default(),
        })
        .collect();

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); bodies.len()];
    let mut name_edges: Vec<Vec<usize>> = vec![Vec::new(); bodies.len()];
    let mut sites: Vec<CallSite> = Vec::new();
    let mut unresolved: BTreeMap<String, (usize, String)> = BTreeMap::new();

    for (i, f) in bodies.iter().copied().enumerate() {
        if f.in_cfg_test {
            continue;
        }
        // Calls through body-local closures / nested items or callable
        // parameters (`F: FnMut(…)`) are inline — their effects are
        // already scanned with this body.
        let local = |segs: &[String]| {
            segs.len() == 1
                && (facts[i].local_callables.contains(&segs[0])
                    || f.params.iter().any(|(n, _)| n == &segs[0]))
        };
        for site in &facts[i].sites {
            let (line, written, target, alloc_risk, guessed) = match site {
                RawSite::Path { segs, .. } if local(segs) => continue,
                RawSite::Path { segs, line } => (
                    *line,
                    segs.join("::"),
                    resolve_path(ws, &ix, f, segs),
                    false,
                    false,
                ),
                RawSite::Value { segs, .. } => {
                    if local(segs) || segs.len() == 1 && facts[i].locals.contains_key(&segs[0]) {
                        continue;
                    }
                    // A fn named as a value is reached like a call; any
                    // other lowercase path is a local or a field.
                    if let Target::Fns(callees) = resolve_path(ws, &ix, f, segs) {
                        add_edges(&mut edges[i], &callees);
                    }
                    continue;
                }
                RawSite::Method { name, recv, line } => {
                    let mut typed = false;
                    let target = resolve_method(ws, &ix, f, &facts[i], name, recv, &mut typed);
                    let risk = !typed && is_alloc_risk_name(name);
                    // A receiver typed only by a guess: a field of that
                    // name somewhere, or a local whose initializer names a
                    // workspace type without this method (`let r =
                    // Sim::new(…).run(); r.exec_time_ns()`).
                    let guessed = match recv {
                        Recv::Named(n) => match facts[i].locals.get(n) {
                            Some(ty) => ix.types.contains(ty) && !matches!(target, Target::Fns(_)),
                            None => !f.params.iter().any(|(p, _)| p == n),
                        },
                        _ => false,
                    };
                    (*line, format!(".{name}"), target, risk, guessed)
                }
                _ => continue,
            };
            if guessed || matches!(target, Target::Unresolved(_)) {
                let name = written.rsplit(['.', ':']).next().unwrap_or_default();
                let by_name = (ix.methods.get(name).into_iter().flatten())
                    .chain(ix.free_by_name.get(name).into_iter().flatten());
                add_edges(&mut name_edges[i], &by_name.copied().collect::<Vec<_>>());
            }
            if let Target::Fns(callees) = &target {
                add_edges(&mut edges[i], callees);
            }
            // An initializer is no caller, and an outside file is no code
            // the proofs cover: both count only through their edges.
            if i >= n {
                continue;
            }
            if let Target::Unresolved(name) = &target {
                if ws.files[f.file].kind != FileKind::Outside {
                    let e = unresolved
                        .entry(name.clone())
                        .or_insert_with(|| (0, format!("{}:{}", ws.files[f.file].rel_path, line)));
                    e.0 += 1;
                }
            }
            sites.push(CallSite {
                caller: i,
                line,
                target,
                written,
                alloc_risk,
            });
        }
    }

    let mut init_callees: Vec<usize> = Vec::new();
    for callees in edges.split_off(n).iter().chain(&name_edges.split_off(n)) {
        add_edges(&mut init_callees, callees);
    }
    facts.truncate(n);
    CallGraph {
        facts,
        edges,
        name_edges,
        init_callees,
        sites,
        unresolved,
    }
}

fn add_edges(edges: &mut Vec<usize>, callees: &[usize]) {
    for &c in callees {
        if !edges.contains(&c) {
            edges.push(c);
        }
    }
}

/// Resolves a path call `a::b::c(…)` from inside `caller`.
fn resolve_path(ws: &Workspace, ix: &Indexes, caller: &FnItem, segs: &[String]) -> Target {
    if segs.is_empty() {
        return Target::Unresolved("<empty>".to_string());
    }
    let last = segs.last().map(String::as_str).unwrap_or_default();

    // Constructors (tuple structs, enum variants) are not calls.
    if segs.len() <= 2 && ix.ctors.contains(last) {
        return Target::Ctor;
    }

    // Expand a leading `use` alias (`Alias::rest…` → full path + rest).
    let file = &ws.files[caller.file];
    let first = segs[0].as_str();
    let expanded: Vec<String>;
    let segs = if !matches!(first, "crate" | "self" | "super" | "Self")
        && !ix.crate_names.contains(first)
        && !is_std_root(first)
    {
        if let Some(u) = file.uses.iter().find(|u| u.alias == first) {
            expanded = u
                .path
                .iter()
                .cloned()
                .chain(segs[1..].iter().cloned())
                .collect();
            &expanded[..]
        } else {
            segs
        }
    } else {
        segs
    };
    let first = segs[0].as_str();

    // Std / primitive roots and std types: external, classified later.
    if is_std_root(first) || is_std_type(first) {
        return Target::Std(segs.join("::"));
    }

    // Determine target crate.
    let (krate, rest): (&str, &[String]) = match first {
        "crate" | "self" | "super" => (caller.krate.as_str(), &segs[1..]),
        "Self" => {
            let ty = caller.self_type.clone().unwrap_or_default();
            let name = segs.get(1).cloned().unwrap_or_default();
            return resolve_typed(ws, ix, &ty, &name, &segs.join("::"));
        }
        f if ix.crate_names.contains(f) => (f, &segs[1..]),
        _ => (caller.krate.as_str(), segs),
    };
    if rest.is_empty() {
        return Target::Unresolved(segs.join("::"));
    }
    let name = rest.last().map(String::as_str).unwrap_or_default();

    // `…::Type::method` — typed resolution (workspace-wide by type name).
    if rest.len() >= 2 {
        let ty = &rest[rest.len() - 2];
        if ty.chars().next().is_some_and(char::is_uppercase) {
            if ix.types.contains(ty.as_str())
                || ix
                    .typed_methods
                    .contains_key(&(ty.clone(), name.to_string()))
            {
                return resolve_typed(ws, ix, ty, name, &segs.join("::"));
            }
            // Unknown capitalized type: external.
            return Target::Std(segs.join("::"));
        }
    }

    // Free function in the target crate.
    if let Some(v) = ix.free_by_crate.get(&(krate.to_string(), name.to_string())) {
        return Target::Fns(v.clone());
    }
    // Maybe a constructor after alias expansion.
    if ix.ctors.contains(name) {
        return Target::Ctor;
    }
    // The prelude's `drop` free function (no workspace crate defines
    // one — `Drop::drop` is a method and indexed separately).
    if segs.len() == 1 && name == "drop" {
        return Target::Std("std::mem::drop".to_string());
    }
    Target::Unresolved(segs.join("::"))
}

/// Resolves `Type::method` (or trait `Trait::method`) to workspace fns.
fn resolve_typed(ws: &Workspace, ix: &Indexes, ty: &str, name: &str, written: &str) -> Target {
    let _ = ws;
    let mut out: Vec<usize> = Vec::new();
    if let Some(v) = ix.typed_methods.get(&(ty.to_string(), name.to_string())) {
        out.extend_from_slice(v);
    }
    // Trait-qualified: every impl of the trait plus the default.
    if let Some(impls) = ix.trait_impls.get(ty) {
        for t in impls {
            if let Some(v) = ix.typed_methods.get(&(t.clone(), name.to_string())) {
                out.extend_from_slice(v);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    if out.is_empty() {
        if ix.types.contains(ty) {
            // Known workspace type, unknown method: probably a derived or
            // std-trait method (`clone`, `default`, `fmt`).
            return Target::Std(written.to_string());
        }
        return Target::Unresolved(written.to_string());
    }
    Target::Fns(out)
}

/// Resolves a `.method(…)` call by receiver shape. Sets `*typed` when
/// the receiver's type was determined (even if it turned out external) —
/// untyped alloc-capable names are dual-flagged by the caller.
fn resolve_method(
    ws: &Workspace,
    ix: &Indexes,
    caller: &FnItem,
    facts: &BodyFacts,
    name: &str,
    recv: &Recv,
    typed: &mut bool,
) -> Target {
    // Candidate receiver types, most specific source first: `self`, a
    // typed local/param, then any same-named struct field workspace-wide.
    let recv_tys: Vec<String> = match recv {
        Recv::OnSelf => caller.self_type.clone().into_iter().collect(),
        Recv::Named(n) => {
            if let Some(t) = facts.locals.get(n) {
                vec![t.clone()]
            } else if let Some((_, t)) = caller.params.iter().find(|(p, _)| p == n) {
                vec![t.clone()]
            } else if let Some(ts) = ix.fields.get(n) {
                ts.clone()
            } else {
                Vec::new()
            }
        }
        Recv::Unknown => Vec::new(),
    };

    let mut out: Vec<usize> = Vec::new();
    for ty in &recv_tys {
        // Generic parameter: resolve through its trait bounds.
        if let Some((_, bounds)) = caller.generics.iter().find(|(g, _)| g == ty) {
            *typed = true;
            for tr in bounds {
                if let Target::Fns(v) = resolve_typed(ws, ix, tr, name, name) {
                    out.extend(v);
                }
            }
            continue;
        }
        if is_std_type(ty) || is_std_root(ty) {
            *typed = true;
            continue; // external receiver; classified below if no hit
        }
        // Concrete workspace type (or trait object/receiver): inherent
        // and trait-impl methods — `resolve_typed` also fans a trait
        // receiver out to every impl. If nothing matched, fall back to
        // trait defaults of traits the type implements.
        let before = out.len();
        if let Target::Fns(v) = resolve_typed(ws, ix, ty, name, name) {
            out.extend(v);
        }
        if out.len() == before {
            if let Some(traits) = ix.type_traits.get(ty) {
                for tr in traits {
                    if let Some(v) = ix.typed_methods.get(&(tr.clone(), name.to_string())) {
                        // Trait-default methods have self_type == trait name.
                        out.extend(v.iter().copied().filter(|&i| ws.fns[i].is_trait_default));
                    }
                }
            }
        }
        if out.len() > before
            || ix.types.contains(ty.as_str())
            || ix.trait_impls.contains_key(ty.as_str())
        {
            *typed = true;
        }
    }
    out.sort_unstable();
    out.dedup();
    if !out.is_empty() {
        return Target::Fns(out);
    }
    if *typed {
        // Receiver type known but the method is external (std trait,
        // derived impl, or a std collection method).
        return classify_external_method(ix, name);
    }

    // Unknown receiver: every workspace method with this name.
    if let Some(v) = ix.methods.get(name) {
        return Target::Fns(v.clone());
    }
    classify_external_method(ix, name)
}

/// A method with no workspace candidate is external (std).
fn classify_external_method(_ix: &Indexes, name: &str) -> Target {
    Target::Std(format!(".{name}"))
}

/// Computes the reachable closure from a set of root fn indices.
pub fn reachable(edges: &[Vec<usize>], roots: &[usize]) -> BTreeSet<usize> {
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let mut stack: Vec<usize> = roots.to_vec();
    while let Some(i) = stack.pop() {
        if !seen.insert(i) {
            continue;
        }
        for &c in &edges[i] {
            if !seen.contains(&c) {
                stack.push(c);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        let mut ws = Workspace::default();
        for (path, src) in files {
            // crates/<name>/src/<file>.rs convention.
            let krate = path.split('/').nth(1).unwrap_or("x").to_string();
            let module: Vec<String> = {
                let f = path.split('/').next_back().unwrap_or("lib.rs");
                if f == "lib.rs" || f == "main.rs" {
                    vec![]
                } else {
                    vec![f.trim_end_matches(".rs").to_string()]
                }
            };
            ws.add_file(path, &krate, &module, src);
        }
        ws
    }

    fn idx(ws: &Workspace, name: &str) -> usize {
        ws.fns
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("fn {name} not found"))
    }

    #[test]
    fn direct_and_path_calls_resolve() {
        let ws = ws_of(&[(
            "crates/a/src/lib.rs",
            "fn top() { helper(); crate::helper(); }\nfn helper() {}",
        )]);
        let g = build(&ws);
        let top = idx(&ws, "top");
        let helper = idx(&ws, "helper");
        assert_eq!(g.edges[top], vec![helper]);
    }

    #[test]
    fn name_edges_follow_guesses_not_std_calls() {
        let src = "struct Sim; struct Res;\n\
                   impl Sim { fn new() -> Sim { Sim } fn run(&self) -> Res { Res } }\n\
                   impl Res { fn time(&self) -> u64 { 0 } }\n\
                   fn top() { let v: Vec<u8> = Vec::new(); v.len(); let r = Sim::new().run(); r.time(); }\n\
                   fn seed() -> u8 { 1 }\n\
                   static SEED: u8 = seed();";
        let ws = ws_of(&[("crates/a/src/lib.rs", src)]);
        let g = build(&ws);
        let top = idx(&ws, "top");
        // `Vec::new()` and `.len()` resolve to std: no edge to `Sim::new`
        // by name. `r` is typed `Sim` by a guess that has no `time`, so
        // `.time()` fans out by name.
        assert_eq!(g.edges[top], vec![idx(&ws, "new"), idx(&ws, "run")]);
        assert_eq!(g.name_edges[top], vec![idx(&ws, "time")]);
        assert_eq!(g.init_callees, vec![idx(&ws, "seed")]);
    }

    #[test]
    fn cross_crate_path_and_use_alias() {
        let ws = ws_of(&[
            (
                "crates/a/src/lib.rs",
                "use b::util::grind;\nfn top() { grind(); b::util::grind(); }",
            ),
            ("crates/b/src/util.rs", "pub fn grind() {}"),
        ]);
        let g = build(&ws);
        let top = idx(&ws, "top");
        let grind = idx(&ws, "grind");
        assert_eq!(g.edges[top], vec![grind]);
        assert!(g.unresolved.is_empty(), "{:?}", g.unresolved);
    }

    #[test]
    fn self_method_calls_resolve_to_impl() {
        let src = "struct Foo;\nimpl Foo {\n fn a(&self) { self.b(); }\n fn b(&self) {}\n}";
        let ws = ws_of(&[("crates/a/src/lib.rs", src)]);
        let g = build(&ws);
        assert_eq!(g.edges[idx(&ws, "a")], vec![idx(&ws, "b")]);
    }

    #[test]
    fn generic_bound_dispatches_to_all_impls_and_default() {
        let src = "trait Code { fn dec(&self) -> u32 { 0 } }\n\
                   struct A; struct B;\n\
                   impl Code for A { fn dec(&self) -> u32 { 1 } }\n\
                   impl Code for B {}\n\
                   fn run<C: Code>(c: &C) { c.dec(); }";
        let ws = ws_of(&[("crates/a/src/lib.rs", src)]);
        let g = build(&ws);
        let run = idx(&ws, "run");
        let mut callees: Vec<String> = g.edges[run]
            .iter()
            .map(|&i| {
                format!(
                    "{}::{}",
                    ws.fns[i].self_type.clone().unwrap_or_default(),
                    ws.fns[i].name
                )
            })
            .collect();
        callees.sort();
        assert_eq!(callees, vec!["A::dec", "Code::dec"]);
    }

    #[test]
    fn typed_local_receiver_narrows_candidates() {
        let src = "struct X; struct Y;\n\
                   impl X { fn go(&self) {} }\n\
                   impl Y { fn go(&self) {} }\n\
                   fn f() { let x = X::new(); x.go(); }\n\
                   impl X { fn new() -> X { X } }";
        let ws = ws_of(&[("crates/a/src/lib.rs", src)]);
        let g = build(&ws);
        let f = idx(&ws, "f");
        let callees: Vec<&str> = g.edges[f]
            .iter()
            .map(|&i| ws.fns[i].self_type.as_deref().unwrap_or(""))
            .collect();
        assert!(callees.contains(&"X"), "{callees:?}");
        assert!(!callees.contains(&"Y"), "{callees:?}");
    }

    #[test]
    fn unknown_receiver_over_approximates() {
        let src = "struct X; struct Y;\n\
                   impl X { fn go(&self) {} }\n\
                   impl Y { fn go(&self) {} }\n\
                   fn f(v: &[u32]) { v.first().map(|_| ()).unwrap_or(()); maker().go(); }\n\
                   fn maker() -> X { X }";
        let ws = ws_of(&[("crates/a/src/lib.rs", src)]);
        let g = build(&ws);
        let f = idx(&ws, "f");
        let callees: Vec<&str> = g.edges[f]
            .iter()
            .map(|&i| ws.fns[i].self_type.as_deref().unwrap_or("-"))
            .collect();
        // `.go()` over-approximates to both X::go and Y::go.
        assert!(
            callees.contains(&"X") && callees.contains(&"Y"),
            "{callees:?}"
        );
    }

    #[test]
    fn constructors_are_not_calls() {
        let src = "struct Wrap(u32);\nenum E { V(u32) }\n\
                   fn f() { let a = Wrap(1); let b = E::V(2); let c = Some(3); }";
        let ws = ws_of(&[("crates/a/src/lib.rs", src)]);
        let g = build(&ws);
        assert!(g.unresolved.is_empty(), "{:?}", g.unresolved);
        assert!(g.edges[idx(&ws, "f")].is_empty());
    }

    #[test]
    fn std_calls_classify_not_unresolved() {
        let src = "fn f() { let v = u64::try_from(3u32); let s = std::mem::take(&mut 0); }";
        let ws = ws_of(&[("crates/a/src/lib.rs", src)]);
        let g = build(&ws);
        assert!(g.unresolved.is_empty(), "{:?}", g.unresolved);
    }

    #[test]
    fn truly_unknown_calls_land_in_the_bucket() {
        let src = "fn f() { mystery_external(); }";
        let ws = ws_of(&[("crates/a/src/lib.rs", src)]);
        let g = build(&ws);
        assert_eq!(g.unresolved.len(), 1);
        assert!(g.unresolved.contains_key("mystery_external"));
    }

    #[test]
    fn atomics_and_indexing_and_macros_extracted() {
        let src = "fn f(a: &AtomicU64, xs: &[u32], i: usize) {\n\
                     a.fetch_add(1, Ordering::Relaxed);\n\
                     let x = xs[i];\n\
                     let y = xs[0];\n\
                     let v = vec![1, 2];\n\
                   }";
        let ws = ws_of(&[("crates/a/src/lib.rs", src)]);
        let g = build(&ws);
        let facts = &g.facts[idx(&ws, "f")];
        let atomics: Vec<_> = facts
            .sites
            .iter()
            .filter_map(|s| match s {
                RawSite::Atomic { op, ordering, .. } => Some((op.clone(), ordering.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            atomics,
            vec![("fetch_add".to_string(), "Relaxed".to_string())]
        );
        let idxs: Vec<bool> = facts
            .sites
            .iter()
            .filter_map(|s| match s {
                RawSite::Index { literal, .. } => Some(*literal),
                _ => None,
            })
            .collect();
        assert_eq!(idxs, vec![false, true]);
        assert!(facts
            .sites
            .iter()
            .any(|s| matches!(s, RawSite::Macro { name, .. } if name == "vec")));
    }

    #[test]
    fn reachability_closure() {
        let edges = vec![vec![1], vec![2], vec![], vec![0]];
        let r = reachable(&edges, &[3]);
        assert_eq!(r.into_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let r2 = reachable(&edges, &[1]);
        assert_eq!(r2.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }
}
