//! Item extraction: from a token stream to per-file `fn`/`impl`/`trait`
//! records, `use` maps, and declared type names.
//!
//! This is a *recognizer*, not a parser: it walks the token stream once,
//! tracking brace depth and a scope stack (modules, `impl` blocks,
//! `trait` blocks), and records every `fn` it sees at item position
//! together with the token range of its body. Function bodies are not
//! descended into here — call extraction over body ranges happens in
//! [`crate::analyze::graph`].
//!
//! Recognized context (the resolution heuristics feed on all of it):
//!
//! * `use` declarations, including nested groups and `as` renames —
//!   per-file alias → path map;
//! * `impl Type` / `impl Trait for Type` — methods get a self type and
//!   an optional trait name;
//! * `trait Name` — default-bodied methods are recorded as trait
//!   defaults (callable through any implementor);
//! * `struct` / `enum` declarations — their names (and tuple-variant
//!   names) form the constructor set, so `Shard(x)` or `Some(x)` is
//!   never mistaken for a function call;
//! * `#[cfg(test)]` — the attributed item (a `mod`, `fn`, `impl`, `use`,
//!   …) becomes a test region of the token stream, which every rule
//!   skips; a `#[cfg(test)] mod name;` declaration makes the file that
//!   holds `name` test code as a whole (see
//!   [`Workspace::mark_test_modules`]);
//! * visibility — which fns are bare `pub`, and every bare-`pub` `const`,
//!   `static`, `struct`, `enum` and `type` with its token range (XA104's
//!   two arms).

use super::lexer::{Tok, TokKind};

/// One `use` alias: `alias` names `path` in this file.
#[derive(Debug, Clone)]
pub struct UseEntry {
    /// The name the file refers to (`last segment` or the `as` rename).
    pub alias: String,
    /// Full path segments, e.g. `["xed_ecc", "secded", "SecDed"]`.
    pub path: Vec<String>,
}

/// One extracted function (free fn, inherent/trait-impl method, or
/// trait default method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Crate name (underscore form, e.g. `xed_ecc`).
    pub krate: String,
    /// Module path within the crate (file modules + inline `mod`s).
    pub module: Vec<String>,
    /// `Some(type)` for methods in an `impl` block, `Some(trait)` for
    /// trait-default methods.
    pub self_type: Option<String>,
    /// `true` for a default-bodied method in a `trait` block.
    pub is_trait_default: bool,
    /// Function name.
    pub name: String,
    /// File index into [`Workspace::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body (including the outer braces) in the
    /// file's token vec; `None` for bodyless trait signatures.
    pub body: Option<(usize, usize)>,
    /// `(param name, main type ident)` — the last capitalized ident of
    /// each parameter's type, e.g. `("rng", "R")`, `("beats", "CodeWord72")`.
    pub params: Vec<(String, String)>,
    /// Generic parameters with their trait bounds' last idents, e.g.
    /// `("R", ["Rng"])`.
    pub generics: Vec<(String, Vec<String>)>,
    /// Inside a `#[cfg(test)]` region or a test-only file.
    pub in_cfg_test: bool,
    /// Declared bare `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// A method of an `impl Trait for Type` block.
    pub in_trait_impl: bool,
}

impl FnItem {
    /// `crate::module::Type::name`-style display path.
    pub fn qualified(&self) -> String {
        let mut s = self.krate.clone();
        for m in &self.module {
            s.push_str("::");
            s.push_str(m);
        }
        if let Some(t) = &self.self_type {
            s.push_str("::");
            s.push_str(t);
        }
        s.push_str("::");
        s.push_str(&self.name);
        s
    }
}

/// One `impl` block: the implementing type and the trait, if any.
#[derive(Debug, Clone)]
pub struct ImplDecl {
    /// Self type name.
    pub self_type: String,
    /// `Some(trait)` for `impl Trait for Type`.
    pub trait_name: Option<String>,
}

/// One bare-`pub` `const`, `static`, `struct`, `enum` or `type` item.
#[derive(Debug, Clone)]
pub struct PubItem {
    /// Item keyword, e.g. `const`.
    pub kind: String,
    /// Item name.
    pub name: String,
    /// 1-based line of the name.
    pub line: u32,
    /// Token range `[start, end)` of the whole definition.
    pub span: (usize, usize),
}

/// What a loaded file is to the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code: `crates/*/src` and the root `src/`, bins excepted.
    Lib,
    /// A bin (`src/main.rs`, `src/bin/`, or every file of a crate with
    /// no `src/lib.rs`): code every rule reads, and a root of XA104.
    Bin,
    /// A root of XA104 outside every crate's `src/` (the root `tests/`
    /// and `examples/`, every `crates/*/tests`, `perfbench/src`): only
    /// XA104 and XL011 read it, and its fns are never candidates of the
    /// call graph.
    Outside,
}

/// One parsed source file with its token stream and extracted context.
#[derive(Debug)]
pub struct FileAst {
    /// Path relative to the workspace root.
    pub rel_path: String,
    /// Library code, a bin, or a file outside every crate's `src/`.
    pub kind: FileKind,
    /// Crate name (underscore form).
    pub krate: String,
    /// Module path of the file within its crate.
    pub module: Vec<String>,
    /// The full token stream.
    pub toks: Vec<Tok>,
    /// `//` comments as `(line, text)` — where waivers live.
    pub comments: Vec<(u32, String)>,
    /// Token ranges `[start, end)` of `#[cfg(test)]` items; the whole
    /// stream for a test-only file.
    pub test_regions: Vec<(usize, usize)>,
    /// Crate-relative module paths declared `#[cfg(test)] mod name;`
    /// here (their files are test code).
    pub test_mods: Vec<Vec<String>>,
    /// `use` alias map.
    pub uses: Vec<UseEntry>,
    /// Token ranges of the `use` declarations: a `use` names an item
    /// without using it.
    pub use_spans: Vec<(usize, usize)>,
    /// Bare-`pub` non-fn items, test code included.
    pub pub_items: Vec<PubItem>,
    /// `struct`/`enum` type names declared in this file.
    pub types: Vec<String>,
    /// Constructor-position names: tuple structs and enum variants.
    pub ctors: Vec<String>,
    /// `impl` blocks declared in this file.
    pub impls: Vec<ImplDecl>,
    /// Named struct fields and item-level statics as `(name, outer type
    /// ident)` — the receiver typing source for `x.field.method(…)` and
    /// `STATIC.method(…)` call sites.
    pub fields: Vec<(String, String)>,
    /// Raw source lines (1-based via `line - 1` indexing); kept so the
    /// rules can look up `justification:`-style comments near a site.
    pub raw: Vec<String>,
}

impl FileAst {
    fn new(rel_path: &str, krate: &str, module: &[String], src: &str) -> FileAst {
        FileAst {
            rel_path: rel_path.to_string(),
            kind: FileKind::Lib,
            krate: krate.to_string(),
            module: module.to_vec(),
            toks: super::lexer::tokenize(src),
            comments: super::lexer::line_comments(src),
            test_regions: Vec::new(),
            test_mods: Vec::new(),
            uses: Vec::new(),
            use_spans: Vec::new(),
            pub_items: Vec::new(),
            types: Vec::new(),
            ctors: Vec::new(),
            impls: Vec::new(),
            fields: Vec::new(),
            raw: src.lines().map(str::to_string).collect(),
        }
    }

    /// `true` if token `k` is test code.
    pub fn is_test(&self, k: usize) -> bool {
        in_regions(&self.test_regions, k)
    }
}

fn in_regions(regions: &[(usize, usize)], k: usize) -> bool {
    regions.iter().any(|&(s, e)| s <= k && k < e)
}

/// The parsed workspace: all files plus the global function list.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Parsed source files: `crates/*/src` and the root `src/`, then the
    /// outside files (see [`FileKind`]).
    pub files: Vec<FileAst>,
    /// Every extracted function, across all files.
    pub fns: Vec<FnItem>,
    /// The initializers of every `const` and `static` item outside fn
    /// bodies, each as a body with no fn: the item's name, and its whole
    /// definition as the body. They run at compile time or on first use,
    /// so what they call is reached with no call site in any fn.
    pub inits: Vec<FnItem>,
}

impl Workspace {
    /// Parses one library file's source text into the workspace: the
    /// unit tests' shorthand for [`Workspace::add_file_as`].
    #[cfg(test)]
    pub fn add_file(&mut self, rel_path: &str, krate: &str, module: &[String], src: &str) {
        self.add_file_as(FileKind::Lib, rel_path, krate, module, src);
    }

    /// Parses one file of the given kind into the workspace.
    pub fn add_file_as(
        &mut self,
        kind: FileKind,
        rel_path: &str,
        krate: &str,
        module: &[String],
        src: &str,
    ) {
        let file_idx = self.files.len();
        let mut file = FileAst::new(rel_path, krate, module, src);
        file.kind = kind;
        let (mut fns, mut inits) = (Vec::new(), Vec::new());
        extract(&mut file, krate, module, file_idx, &mut fns, &mut inits);
        self.files.push(file);
        self.fns.extend(fns);
        self.inits.extend(inits);
    }

    /// Marks every file declared through a `#[cfg(test)] mod name;` (and
    /// its submodules) as test code, fns included. Run once after the
    /// last library or bin file is added.
    pub fn mark_test_modules(&mut self) {
        let decls: Vec<(String, Vec<String>)> = self
            .files
            .iter()
            .flat_map(|f| f.test_mods.iter().map(|m| (f.krate.clone(), m.clone())))
            .collect();
        for (i, file) in self.files.iter_mut().enumerate() {
            if decls
                .iter()
                .any(|(k, m)| *k == file.krate && file.module.starts_with(m))
            {
                file.test_regions = vec![(0, file.toks.len())];
                for f in (self.fns.iter_mut().chain(&mut self.inits)).filter(|f| f.file == i) {
                    f.in_cfg_test = true;
                }
            }
        }
    }

    /// Qualified name of the innermost fn whose body holds token `k` of
    /// file `file` (empty outside every fn body).
    pub fn enclosing_fn(&self, file: usize, k: usize) -> String {
        self.fns
            .iter()
            .filter(|f| f.file == file && f.body.is_some_and(|(s, e)| s <= k && k < e))
            .min_by_key(|f| f.body.map_or(usize::MAX, |(s, e)| e - s))
            .map(FnItem::qualified)
            .unwrap_or_default()
    }

    /// Finds a function by `Type::name` or plain `name` within a crate,
    /// returning all matches.
    pub fn find_fns(&self, krate: &str, self_type: Option<&str>, name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.krate == krate
                    && f.name == name
                    && match self_type {
                        Some(t) => f.self_type.as_deref() == Some(t),
                        None => f.self_type.is_none(),
                    }
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// Scope kinds tracked during the walk.
#[derive(Debug)]
enum Scope {
    Module(String),
    Impl(ImplDecl),
    Trait(String),
    /// A brace the walker entered but does not model (static initializer,
    /// macro body, …).
    Opaque,
}

struct Walker<'a> {
    toks: &'a [Tok],
    i: usize,
    scopes: Vec<(Scope, usize)>, // (scope, depth at open)
    depth: usize,
}

impl<'a> Walker<'a> {
    fn peek(&self, k: usize) -> Option<&Tok> {
        self.toks.get(self.i + k)
    }

    fn bump(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.i);
        self.i += 1;
        t
    }

    /// Skips a balanced `(…)`, `[…]`, or `{…}` group whose opener is the
    /// current token. No-op if the current token is not an opener.
    fn skip_group(&mut self) {
        let Some(open) = self.peek(0) else { return };
        let (o, c) = match open.text.as_str() {
            "(" => ('(', ')'),
            "[" => ('[', ']'),
            "{" => ('{', '}'),
            _ => return,
        };
        let mut depth = 0usize;
        while let Some(t) = self.bump() {
            if t.is_punct(o) {
                depth += 1;
            } else if t.is_punct(c) {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    /// Skips a balanced generic argument list starting at `<`. Handles
    /// nesting and ignores `->`'s `>`.
    fn skip_generics(&mut self) {
        if !self.peek(0).is_some_and(|t| t.is_punct('<')) {
            return;
        }
        let mut depth = 0isize;
        let mut prev_minus = false;
        while let Some(t) = self.bump() {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !prev_minus {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                self.i -= 1;
                self.skip_group();
            }
            prev_minus = t.is_punct('-');
        }
    }
}

fn extract(
    file: &mut FileAst,
    krate: &str,
    base_module: &[String],
    file_idx: usize,
    fns: &mut Vec<FnItem>,
    inits: &mut Vec<FnItem>,
) {
    let toks = std::mem::take(&mut file.toks);
    let mut w = Walker {
        toks: &toks,
        i: 0,
        scopes: Vec::new(),
        depth: 0,
    };
    let mut watchdog = (0usize, 0usize); // (last index, stuck count)

    while w.i < w.toks.len() {
        if w.i == watchdog.0 {
            watchdog.1 += 1;
            // invariant: every branch below either bumps or breaks; a
            // token revisited this often means a parser bug, and skipping
            // it is strictly better than hanging the gate.
            if watchdog.1 > 16 {
                w.bump();
                continue;
            }
        } else {
            watchdog = (w.i, 0);
        }
        // Attributes: `#[...]` / `#![...]` — a cfg(test) one opens a test
        // region over the item it is attached to; skip the group.
        if w.peek(0).is_some_and(|t| t.is_punct('#')) {
            let bang = usize::from(w.peek(1).is_some_and(|t| t.is_punct('!')));
            if w.peek(1 + bang).is_some_and(|t| t.is_punct('[')) {
                let hash = w.i;
                w.bump(); // '#'
                if bang == 1 {
                    w.bump(); // '!'
                }
                let start = w.i;
                w.skip_group(); // [...]
                let attr: Vec<&str> = w.toks[start..w.i].iter().map(|t| t.text.as_str()).collect();
                if attr
                    .windows(3)
                    .any(|s| s[0] == "cfg" && s[1] == "(" && s[2] == "test")
                {
                    file.test_regions.push((hash, item_end(w.toks, w.i)));
                }
                continue;
            }
        }

        let Some(t) = w.peek(0) else { break };
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "use") => {
                let at = w.i;
                w.bump();
                parse_use(&mut w, &mut file.uses);
                file.use_spans.push((at, w.i));
            }
            (TokKind::Ident, "mod") => {
                let at = w.i;
                w.bump();
                let name = match w.peek(0) {
                    Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                    _ => String::new(),
                };
                w.bump();
                if w.peek(0).is_some_and(|t| t.is_punct('{')) {
                    w.bump();
                    w.depth += 1;
                    w.scopes.push((Scope::Module(name), w.depth));
                } else if in_regions(&file.test_regions, at) {
                    // `#[cfg(test)] mod name;` — the file is test code.
                    let mut path = base_module.to_vec();
                    path.extend(w.scopes.iter().filter_map(|(s, _)| match s {
                        Scope::Module(m) => Some(m.clone()),
                        _ => None,
                    }));
                    path.push(name);
                    file.test_mods.push(path);
                }
            }
            (TokKind::Ident, "struct") => {
                record_item(&w, file, krate, base_module, file_idx, inits);
                w.bump();
                if let Some(t) = w.peek(0) {
                    if t.kind == TokKind::Ident {
                        let name = t.text.clone();
                        file.types.push(name.clone());
                        w.bump();
                        w.skip_generics();
                        if w.peek(0).is_some_and(|t| t.is_punct('(')) {
                            file.ctors.push(name);
                        } else {
                            extract_fields(w.toks, w.i, &mut file.fields);
                        }
                    }
                }
                skip_item_rest(&mut w);
            }
            (TokKind::Ident, "enum") => {
                record_item(&w, file, krate, base_module, file_idx, inits);
                w.bump();
                if let Some(t) = w.peek(0) {
                    if t.kind == TokKind::Ident {
                        file.types.push(t.text.clone());
                        w.bump();
                    }
                }
                w.skip_generics();
                // Record variant names as constructors (conservative: all
                // of them; unit variants never appear call-position).
                if w.peek(0).is_some_and(|t| t.is_punct('{')) {
                    let start = w.i;
                    w.skip_group();
                    let body = &w.toks[start..w.i];
                    let mut d = 0usize;
                    for (k, t) in body.iter().enumerate() {
                        match t.text.as_str() {
                            "{" | "(" | "[" => d += 1,
                            "}" | ")" | "]" => d = d.saturating_sub(1),
                            _ => {
                                if d == 1
                                    && t.kind == TokKind::Ident
                                    && t.text.chars().next().is_some_and(char::is_uppercase)
                                    && body.get(k + 1).is_some_and(|n| n.is_punct('('))
                                {
                                    file.ctors.push(t.text.clone());
                                }
                            }
                        }
                    }
                }
            }
            (TokKind::Ident, "const" | "type") => {
                record_item(&w, file, krate, base_module, file_idx, inits);
                w.bump();
            }
            (TokKind::Ident, "static") => {
                record_item(&w, file, krate, base_module, file_idx, inits);
                w.bump();
                if w.peek(0).is_some_and(|t| t.is_ident("mut")) {
                    w.bump();
                }
                if let (Some(name), true) = (w.peek(0), w.peek(1).is_some_and(|t| t.is_punct(':')))
                {
                    if let Some(ty) = outer_type(w.toks, w.i + 2) {
                        file.fields.push((name.text.clone(), ty));
                    }
                }
            }
            (TokKind::Ident, "trait") => {
                w.bump();
                let name = match w.peek(0) {
                    Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                    _ => String::new(),
                };
                w.bump();
                // Skip generics / supertrait bounds / where clause.
                while let Some(t) = w.peek(0) {
                    if t.is_punct('{') {
                        break;
                    }
                    if t.is_punct('<') {
                        w.skip_generics();
                    } else {
                        w.bump();
                    }
                }
                if w.peek(0).is_some_and(|t| t.is_punct('{')) {
                    w.bump();
                    w.depth += 1;
                    w.scopes.push((Scope::Trait(name), w.depth));
                }
            }
            (TokKind::Ident, "impl") => {
                w.bump();
                w.skip_generics();
                let decl = parse_impl_header(&mut w);
                if w.peek(0).is_some_and(|t| t.is_punct('{')) {
                    w.bump();
                    w.depth += 1;
                    if let Some(d) = &decl {
                        file.impls.push(d.clone());
                        w.scopes.push((Scope::Impl(d.clone()), w.depth));
                    } else {
                        w.scopes.push((Scope::Opaque, w.depth));
                    }
                }
            }
            (TokKind::Ident, "fn") => {
                let line = t.line;
                let in_test = in_regions(&file.test_regions, w.i);
                let public = is_pub(w.toks, w.i);
                w.bump();
                let item = parse_fn(&mut w, krate, base_module, file_idx, line, in_test);
                if let Some(f) = item {
                    fns.push(FnItem {
                        is_pub: public,
                        ..f
                    });
                }
            }
            (TokKind::Punct, "{") => {
                w.bump();
                w.depth += 1;
                w.scopes.push((Scope::Opaque, w.depth));
            }
            (TokKind::Punct, "}") => {
                w.bump();
                if let Some((_, d)) = w.scopes.last() {
                    if *d == w.depth {
                        w.scopes.pop();
                    }
                }
                w.depth = w.depth.saturating_sub(1);
            }
            _ => {
                w.bump();
            }
        }
    }
    file.toks = toks;
}

/// `true` if the item whose keyword is token `k` is declared bare
/// `pub`: the surface other crates can name. `pub(crate)` and friends
/// end in `)`, so they never match.
fn is_pub(toks: &[Tok], mut k: usize) -> bool {
    while k > 0
        && (toks[k - 1].kind == TokKind::Str
            || ["const", "unsafe", "async", "extern"]
                .iter()
                .any(|q| toks[k - 1].is_ident(q)))
    {
        k -= 1;
    }
    k > 0 && toks[k - 1].is_ident("pub")
}

/// The name of the item at keyword `k` (`const`, `static`, `struct`,
/// `enum` or `type`); `None` for `const fn` and `const {…}`.
fn item_name(toks: &[Tok], k: usize) -> Option<&Tok> {
    let mut at = k + 1;
    if toks[k].is_ident("static") && toks.get(at).is_some_and(|t| t.is_ident("mut")) {
        at += 1;
    }
    let name = toks
        .get(at)
        .filter(|t| t.kind == TokKind::Ident && t.text != "fn")?;
    // A `const` item reads `const NAME:`.
    let item = !toks[k].is_ident("const") || toks.get(at + 1).is_some_and(|t| t.is_punct(':'));
    item.then_some(name)
}

/// Records the item at the walker's keyword (`const`, `static`,
/// `struct`, `enum` or `type`): a bare-`pub` one in
/// [`FileAst::pub_items`], and a `const` or `static` one's initializer
/// in `inits` (see [`Workspace::inits`]).
fn record_item(
    w: &Walker<'_>,
    file: &mut FileAst,
    krate: &str,
    base_module: &[String],
    file_idx: usize,
    inits: &mut Vec<FnItem>,
) {
    let (toks, k) = (w.toks, w.i);
    let Some(name) = item_name(toks, k) else {
        return;
    };
    let (span, line, name) = ((k, item_end(toks, k)), name.line, name.text.clone());
    if toks[k].is_ident("const") || toks[k].is_ident("static") {
        let in_test = in_regions(&file.test_regions, k);
        let (params, generics) = (Vec::new(), Vec::new());
        let init = make_fn(
            w,
            krate,
            base_module,
            file_idx,
            line,
            name.clone(),
            Some(span),
            params,
            generics,
            in_test,
        );
        inits.push(init);
    }
    if is_pub(toks, k) {
        let kind = toks[k].text.clone();
        file.pub_items.push(PubItem {
            kind,
            name,
            line,
            span,
        });
    }
}

/// Index just past the item that starts at token `k` (after the
/// attribute being attached): its first `;` outside any group, or its
/// first top-level brace group plus a trailing `;`.
fn item_end(toks: &[Tok], mut k: usize) -> usize {
    let mut depth = 0usize;
    while let Some(t) = toks.get(k) {
        k += 1;
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return k + usize::from(toks.get(k).is_some_and(|t| t.is_punct(';')));
                }
            }
            ";" if depth == 0 => return k,
            _ => {}
        }
    }
    k
}

/// Extracts `name: Type` pairs from a braced struct body starting at or
/// after token index `from` (the walker position just past the struct
/// name/generics). Does not consume — `skip_item_rest` still walks the
/// group. The recorded type is the *outer* type ident (`Vec` for
/// `Vec<Event>`), which is what receiver classification needs.
fn extract_fields(toks: &[Tok], from: usize, fields: &mut Vec<(String, String)>) {
    // Find the `{` before any `;` (a `;` first means unit struct).
    let mut j = from;
    loop {
        match toks.get(j) {
            Some(t) if t.is_punct('{') => break,
            Some(t) if t.is_punct(';') => return,
            Some(_) => j += 1,
            None => return,
        }
    }
    let mut depth = 0usize;
    let mut k = j;
    while let Some(t) = toks.get(k) {
        match t.text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return;
                }
            }
            _ => {
                // A field starts at depth 1 as `name :` preceded by `{`,
                // `,`, or visibility tokens.
                if depth == 1
                    && t.kind == TokKind::Ident
                    && !matches!(t.text.as_str(), "pub" | "crate" | "super")
                    && toks.get(k + 1).is_some_and(|x| x.is_punct(':'))
                    && !toks.get(k + 2).is_some_and(|x| x.is_punct(':'))
                {
                    if let Some(ty) = outer_type(toks, k + 2) {
                        fields.push((t.text.clone(), ty));
                    }
                }
            }
        }
        k += 1;
    }
}

/// After a `struct Name…`: skips the remainder (tuple body + `;`, brace
/// body, or bare `;`).
/// The outer type ident of the type starting at token `m` (`Vec` for
/// `&'a mut Vec<Event>`), if it is a capitalized name.
fn outer_type(toks: &[Tok], mut m: usize) -> Option<String> {
    while toks.get(m).is_some_and(|x| {
        x.is_punct('&') || x.kind == TokKind::Lifetime || x.is_ident("mut") || x.is_ident("dyn")
    }) {
        m += 1;
    }
    toks.get(m)
        .filter(|ty| {
            ty.kind == TokKind::Ident && ty.text.chars().next().is_some_and(char::is_uppercase)
        })
        .map(|ty| ty.text.clone())
}

fn skip_item_rest(w: &mut Walker<'_>) {
    while let Some(t) = w.peek(0) {
        if t.is_punct(';') {
            w.bump();
            return;
        }
        if t.is_punct('{') || t.is_punct('(') {
            w.skip_group();
            if w.peek(0).is_some_and(|t| t.is_punct(';')) {
                w.bump();
            }
            return;
        }
        if t.is_punct('<') {
            w.skip_generics();
        } else {
            w.bump();
        }
    }
}

/// Parses the `Path` or `Trait for Path` part of an impl header, leaving
/// the walker at the opening `{`.
fn parse_impl_header(w: &mut Walker<'_>) -> Option<ImplDecl> {
    let mut first: Vec<String> = Vec::new();
    let mut second: Vec<String> = Vec::new();
    let mut saw_for = false;
    while let Some(t) = w.peek(0) {
        if t.is_punct('{') {
            break;
        }
        if t.is_ident("where") {
            // Skip the where clause up to the `{`.
            while let Some(t) = w.peek(0) {
                if t.is_punct('{') {
                    break;
                }
                if t.is_punct('<') {
                    w.skip_generics();
                } else {
                    w.bump();
                }
            }
            break;
        }
        if t.is_ident("for") {
            saw_for = true;
            w.bump();
            continue;
        }
        if t.is_punct('<') {
            w.skip_generics();
            continue;
        }
        if t.kind == TokKind::Ident {
            if saw_for {
                second.push(t.text.clone());
            } else {
                first.push(t.text.clone());
            }
        }
        w.bump();
    }
    let (trait_path, type_path) = if saw_for {
        (Some(first), second)
    } else {
        (None, first)
    };
    let self_type = type_path.last()?.clone();
    Some(ImplDecl {
        self_type,
        trait_name: trait_path.and_then(|p| p.last().cloned()),
    })
}

/// Parses one `fn` after the keyword: name, generics, params, body range.
fn parse_fn(
    w: &mut Walker<'_>,
    krate: &str,
    base_module: &[String],
    file_idx: usize,
    line: u32,
    in_cfg_test: bool,
) -> Option<FnItem> {
    let name = match w.peek(0) {
        Some(t) if t.kind == TokKind::Ident => t.text.clone(),
        _ => return None,
    };
    w.bump();

    // Generics: `<R: Rng + ?Sized, const N: usize>` → bound map.
    let mut generics = Vec::new();
    if w.peek(0).is_some_and(|t| t.is_punct('<')) {
        let start = w.i;
        w.skip_generics();
        generics = parse_generic_bounds(&w.toks[start..w.i]);
    }

    // Params.
    let mut params = Vec::new();
    if w.peek(0).is_some_and(|t| t.is_punct('(')) {
        let start = w.i;
        w.skip_group();
        params = parse_params(&w.toks[start..w.i]);
    }

    // Return type / where clause: scan to the body `{` or a `;`.
    loop {
        match w.peek(0) {
            None => return None,
            Some(t) if t.is_punct(';') => {
                w.bump();
                return Some(make_fn(
                    w,
                    krate,
                    base_module,
                    file_idx,
                    line,
                    name,
                    None,
                    params,
                    generics,
                    in_cfg_test,
                ));
            }
            Some(t) if t.is_punct('{') => break,
            Some(t) if t.is_punct('<') => w.skip_generics(),
            Some(t) if t.is_punct('(') || t.is_punct('[') => w.skip_group(),
            _ => {
                w.bump();
            }
        }
    }
    let body_start = w.i;
    w.skip_group();
    let body = Some((body_start, w.i));
    Some(make_fn(
        w,
        krate,
        base_module,
        file_idx,
        line,
        name,
        body,
        params,
        generics,
        in_cfg_test,
    ))
}

#[allow(clippy::too_many_arguments)]
fn make_fn(
    w: &Walker<'_>,
    krate: &str,
    base_module: &[String],
    file_idx: usize,
    line: u32,
    name: String,
    body: Option<(usize, usize)>,
    params: Vec<(String, String)>,
    generics: Vec<(String, Vec<String>)>,
    in_cfg_test: bool,
) -> FnItem {
    let mut module: Vec<String> = base_module.to_vec();
    let mut self_type = None;
    let mut is_trait_default = false;
    let mut in_trait_impl = false;
    for (scope, _) in &w.scopes {
        match scope {
            Scope::Module(m) => module.push(m.clone()),
            Scope::Impl(d) => {
                self_type = Some(d.self_type.clone());
                in_trait_impl = d.trait_name.is_some();
            }
            Scope::Trait(t) => {
                self_type = Some(t.clone());
                is_trait_default = body.is_some();
            }
            Scope::Opaque => {}
        }
    }
    FnItem {
        krate: krate.to_string(),
        module,
        self_type,
        is_trait_default,
        name,
        file: file_idx,
        line,
        body,
        params,
        generics,
        in_cfg_test,
        is_pub: false,
        in_trait_impl,
    }
}

/// `<R: Rng + ?Sized, const N: usize, 'a>` → `[("R", ["Rng"])]`.
fn parse_generic_bounds(toks: &[Tok]) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = Vec::new();
    let mut depth = 0isize;
    let mut k = 0usize;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
        } else if depth == 1 && t.kind == TokKind::Ident {
            if t.text == "const" {
                // `const N: usize` — skip name and type.
                k += 1;
                while k < toks.len() && !toks[k].is_punct(',') && !toks[k].is_punct('>') {
                    k += 1;
                }
                continue;
            }
            let name = t.text.clone();
            let mut bounds = Vec::new();
            if !toks.get(k + 1).is_some_and(|n| n.is_punct(':')) {
                // Unbounded parameter (`<T, …>`): record and move on —
                // failing to advance here used to hang the parser.
                out.push((name, bounds));
                k += 1;
                continue;
            }
            {
                // Collect bound idents until `,` or the closing `>`.
                let mut j = k + 2;
                let mut d2 = 0isize;
                let mut last_ident: Option<String> = None;
                while j < toks.len() {
                    let b = &toks[j];
                    if b.is_punct('<') {
                        d2 += 1;
                    } else if b.is_punct('>') {
                        if d2 == 0 {
                            break;
                        }
                        d2 -= 1;
                    } else if d2 == 0 && b.is_punct(',') {
                        break;
                    } else if d2 == 0 && b.kind == TokKind::Ident {
                        last_ident = Some(b.text.clone());
                    } else if d2 == 0 && b.is_punct('+') {
                        if let Some(li) = last_ident.take() {
                            bounds.push(li);
                        }
                    }
                    j += 1;
                }
                if let Some(li) = last_ident {
                    bounds.push(li);
                }
                k = j;
            }
            bounds.retain(|b| b != "Sized" && b != "Send" && b != "Sync");
            out.push((name, bounds));
            continue;
        }
        k += 1;
    }
    out
}

/// `(self, rng: &mut R, beats: &[CodeWord72; N])` →
/// `[("rng", "R"), ("beats", "CodeWord72")]`. The "main type ident" is
/// the last capitalized identifier of the parameter's type.
fn parse_params(toks: &[Tok]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    // Split on top-level commas (depth 1 = inside the parens).
    let mut depth = 0isize;
    let mut cur: Vec<&Tok> = Vec::new();
    let mut groups: Vec<Vec<&Tok>> = Vec::new();
    for t in toks {
        match t.text.as_str() {
            "(" | "[" | "{" => {
                depth += 1;
                if depth > 1 {
                    cur.push(t);
                }
            }
            ")" | "]" | "}" => {
                depth -= 1;
                if depth >= 1 {
                    cur.push(t);
                }
            }
            "," if depth == 1 => groups.push(std::mem::take(&mut cur)),
            _ => {
                if depth >= 1 {
                    cur.push(t);
                }
            }
        }
    }
    if !cur.is_empty() {
        groups.push(cur);
    }
    for g in groups {
        let Some(colon) = g.iter().position(|t| t.is_punct(':')) else {
            continue; // `self`, `&mut self`, …
        };
        let name = match g[..colon].iter().rev().find(|t| t.kind == TokKind::Ident) {
            Some(t) => t.text.clone(),
            None => continue,
        };
        let ty = g[colon + 1..]
            .iter()
            .rev()
            .find(|t| {
                t.kind == TokKind::Ident && t.text.chars().next().is_some_and(char::is_uppercase)
            })
            .map(|t| t.text.clone());
        if let Some(ty) = ty {
            out.push((name, ty));
        }
    }
    out
}

/// Parses a `use` tree after the keyword, pushing alias entries.
/// Handles `a::b::C`, `a::{B, c::D}`, `a::B as E`, and glob `a::*`
/// (recorded with alias `*`).
fn parse_use(w: &mut Walker<'_>, out: &mut Vec<UseEntry>) {
    let mut prefix: Vec<String> = Vec::new();
    parse_use_tree(w, &mut prefix, out);
    if w.peek(0).is_some_and(|t| t.is_punct(';')) {
        w.bump();
    }
}

fn parse_use_tree(w: &mut Walker<'_>, prefix: &mut Vec<String>, out: &mut Vec<UseEntry>) {
    let base_len = prefix.len();
    loop {
        match w.peek(0) {
            Some(t) if t.kind == TokKind::Ident && t.text == "as" => {
                w.bump();
                if let Some(t) = w.peek(0) {
                    if t.kind == TokKind::Ident {
                        out.push(UseEntry {
                            alias: t.text.clone(),
                            path: prefix.clone(),
                        });
                        w.bump();
                    }
                }
                prefix.truncate(base_len);
                return;
            }
            Some(t) if t.kind == TokKind::Ident => {
                prefix.push(t.text.clone());
                w.bump();
            }
            Some(t) if t.is_punct('*') => {
                w.bump();
                out.push(UseEntry {
                    alias: "*".to_string(),
                    path: prefix.clone(),
                });
                prefix.truncate(base_len);
                return;
            }
            Some(t) if t.is_punct(':') => {
                w.bump(); // consume both colons of `::`
                if w.peek(0).is_some_and(|t| t.is_punct(':')) {
                    w.bump();
                }
                if w.peek(0).is_some_and(|t| t.is_punct('{')) {
                    w.bump();
                    loop {
                        parse_use_tree(w, prefix, out);
                        match w.peek(0) {
                            Some(t) if t.is_punct(',') => {
                                w.bump();
                                if w.peek(0).is_some_and(|t| t.is_punct('}')) {
                                    w.bump();
                                    break;
                                }
                            }
                            Some(t) if t.is_punct('}') => {
                                w.bump();
                                break;
                            }
                            _ => break,
                        }
                    }
                    prefix.truncate(base_len);
                    return;
                }
            }
            _ => {
                // End of this tree node: emit the leaf (last segment). A
                // `self` leaf (`use a::b::{self, C}`) names the parent
                // module, so drop the keyword and alias the segment above.
                let had_self =
                    prefix.len() > base_len && prefix.last().is_some_and(|s| s == "self");
                if had_self {
                    prefix.pop();
                }
                if prefix.len() > base_len || (had_self && !prefix.is_empty()) {
                    if let Some(last) = prefix.last() {
                        out.push(UseEntry {
                            alias: last.clone(),
                            path: prefix.clone(),
                        });
                    }
                }
                prefix.truncate(base_len);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Workspace {
        let mut ws = Workspace::default();
        ws.add_file("crates/x/src/lib.rs", "x", &[], src);
        ws
    }

    #[test]
    fn extracts_free_fns_and_bodies() {
        let ws = parse("pub fn alpha() -> u32 { beta() }\nfn beta() -> u32 { 7 }\n");
        assert_eq!(ws.fns.len(), 2);
        assert_eq!(ws.fns[0].name, "alpha");
        assert_eq!(ws.fns[0].line, 1);
        assert!(ws.fns[0].body.is_some());
        assert_eq!(ws.fns[1].name, "beta");
        assert!(ws.fns[1].self_type.is_none());
    }

    #[test]
    fn impl_methods_get_self_type_and_trait() {
        let src = "struct Foo(u32);\nimpl Foo { fn m(&self) {} }\n\
                   impl Clone for Foo { fn clone(&self) -> Self { Foo(self.0) } }";
        let ws = parse(src);
        let m = ws.fns.iter().find(|f| f.name == "m").expect("m");
        assert_eq!(m.self_type.as_deref(), Some("Foo"));
        let c = ws.fns.iter().find(|f| f.name == "clone").expect("clone");
        assert_eq!(c.self_type.as_deref(), Some("Foo"));
        let traits: Vec<Option<&str>> = ws.files[0]
            .impls
            .iter()
            .map(|d| d.trait_name.as_deref())
            .collect();
        assert_eq!(traits, vec![None, Some("Clone")]);
        assert!(ws.files[0].ctors.contains(&"Foo".to_string()));
    }

    #[test]
    fn trait_default_methods_are_flagged() {
        let src = "trait T { fn req(&self); fn def(&self) -> u32 { 1 } }";
        let ws = parse(src);
        let req = ws.fns.iter().find(|f| f.name == "req").expect("req");
        assert!(req.body.is_none());
        assert!(!req.is_trait_default);
        let def = ws.fns.iter().find(|f| f.name == "def").expect("def");
        assert!(def.body.is_some());
        assert!(def.is_trait_default);
        assert_eq!(def.self_type.as_deref(), Some("T"));
    }

    #[test]
    fn generic_impls_resolve_to_base_type_name() {
        let src = "impl<const N: usize> Buf<N> { fn push(&mut self) {} }\n\
                   impl<'a> Drop for Guard<'a> { fn drop(&mut self) {} }";
        let ws = parse(src);
        let p = ws.fns.iter().find(|f| f.name == "push").expect("push");
        assert_eq!(p.self_type.as_deref(), Some("Buf"));
        let d = ws.fns.iter().find(|f| f.name == "drop").expect("drop");
        assert_eq!(d.self_type.as_deref(), Some("Guard"));
        assert_eq!(ws.files[0].impls[1].trait_name.as_deref(), Some("Drop"));
    }

    #[test]
    fn params_and_generic_bounds() {
        let src = "fn eval<R: Rng + ?Sized>(rng: &mut R, e: &FaultEvent, n: usize) {}";
        let ws = parse(src);
        let f = &ws.fns[0];
        assert_eq!(
            f.params,
            vec![
                ("rng".to_string(), "R".to_string()),
                ("e".to_string(), "FaultEvent".to_string())
            ]
        );
        assert_eq!(f.generics, vec![("R".to_string(), vec!["Rng".to_string()])]);
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn inside() {}\n}\nfn after() {}";
        let ws = parse(src);
        let live = ws.fns.iter().find(|f| f.name == "live").expect("live");
        assert!(!live.in_cfg_test);
        let inside = ws.fns.iter().find(|f| f.name == "inside").expect("in");
        assert!(inside.in_cfg_test);
        assert_eq!(inside.module, vec!["tests"]);
        let after = ws.fns.iter().find(|f| f.name == "after").expect("after");
        assert!(!after.in_cfg_test);
    }

    #[test]
    fn cfg_test_regions_cover_the_attributed_item_only() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nconst A: u8 = 1;\n\
                   impl S {\n#[cfg(test)]\n#[allow(dead_code)]\nfn t(&self) {}\nfn l(&self) {}\n}\n\
                   #[cfg(test)]\nconst B: [u8; 2] = [1, 2];\nfn live() {}";
        let ws = parse(src);
        let f = &ws.files[0];
        let test_lines: Vec<u32> = (0..f.toks.len())
            .filter(|&k| f.is_test(k))
            .map(|k| f.toks[k].line)
            .collect();
        let mut lines = test_lines.clone();
        lines.dedup();
        assert_eq!(lines, vec![1, 2, 5, 6, 7, 10, 11], "{test_lines:?}");
        let in_test = |n: &str| ws.fns.iter().find(|f| f.name == n).expect(n).in_cfg_test;
        assert!(in_test("t") && !in_test("l") && !in_test("live"));
    }

    #[test]
    fn test_module_declarations_mark_their_files() {
        let mut ws = Workspace::default();
        let decl = "#[cfg(test)]\nmod reference;\nmod live;\nfn tick() {}\n";
        ws.add_file(
            "crates/m/src/scheduler.rs",
            "m",
            &["scheduler".into()],
            decl,
        );
        let body = "fn oracle() {}";
        let reference = ["scheduler".to_string(), "reference".to_string()];
        ws.add_file("crates/m/src/scheduler/reference.rs", "m", &reference, body);
        let live = ["scheduler".to_string(), "live".to_string()];
        ws.add_file("crates/m/src/scheduler/live.rs", "m", &live, "fn work() {}");
        ws.add_file("crates/n/src/scheduler/reference.rs", "n", &reference, body);
        ws.mark_test_modules();
        let test_files: Vec<bool> = ws
            .files
            .iter()
            .map(|f| f.is_test(f.toks.len() - 1))
            .collect();
        assert_eq!(test_files, vec![false, true, false, false]);
        let in_test: Vec<bool> = ws.fns.iter().map(|f| f.in_cfg_test).collect();
        assert_eq!(in_test, vec![false, true, false, false]);
    }

    #[test]
    fn use_trees_flatten_with_renames_and_groups() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                   use crate::event::LifetimeSampler;\n\
                   use xed_ecc::secded::SecDed as Code;\n\
                   use rand::rngs::*;\n";
        let ws = parse(src);
        let find = |a: &str| {
            ws.files[0]
                .uses
                .iter()
                .find(|u| u.alias == a)
                .map(|u| u.path.join("::"))
        };
        assert_eq!(
            find("AtomicU64"),
            Some("std::sync::atomic::AtomicU64".into())
        );
        assert_eq!(find("Ordering"), Some("std::sync::atomic::Ordering".into()));
        assert_eq!(
            find("LifetimeSampler"),
            Some("crate::event::LifetimeSampler".into())
        );
        assert_eq!(find("Code"), Some("xed_ecc::secded::SecDed".into()));
        assert_eq!(find("*"), Some("rand::rngs".into()));
    }

    #[test]
    fn use_group_self_aliases_the_parent_module() {
        let src = "use xed_testkit::analytic_gate::{self, GateScope};\n";
        let ws = parse(src);
        let find = |a: &str| {
            ws.files[0]
                .uses
                .iter()
                .find(|u| u.alias == a)
                .map(|u| u.path.join("::"))
        };
        assert_eq!(
            find("analytic_gate"),
            Some("xed_testkit::analytic_gate".into())
        );
        assert_eq!(
            find("GateScope"),
            Some("xed_testkit::analytic_gate::GateScope".into())
        );
        assert_eq!(find("self"), None);
    }

    #[test]
    fn enum_variants_join_the_constructor_set() {
        let src = "enum Verdict { Benign, Corrected }\n\
                   enum Outcome { Clean { data: u64 }, Hit(u32) }";
        let ws = parse(src);
        assert!(ws.files[0].types.contains(&"Verdict".to_string()));
        assert!(ws.files[0].types.contains(&"Outcome".to_string()));
        assert!(ws.files[0].ctors.contains(&"Hit".to_string()));
    }

    #[test]
    fn bare_pub_items_and_fns_are_recorded() {
        let src = "pub fn a() {}\npub(crate) fn b() {}\npub const fn c() {}\nfn d() {}\n\
                   impl S { pub fn m(&self) {} }\nimpl Clone for S { fn clone(&self) -> S { S } }\n\
                   pub const X: u8 = 1;\npub(crate) const Y: u8 = 2;\npub static Z: u8 = 3;\n\
                   pub struct S;\npub enum E { V }\npub type T = u8;\nuse crate::X;\n";
        let ws = parse(src);
        let public: Vec<&str> = ws
            .fns
            .iter()
            .filter(|f| f.is_pub)
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(public, ["a", "c", "m"]);
        let clone = ws.fns.iter().find(|f| f.name == "clone").expect("clone");
        assert!(clone.in_trait_impl);
        let items: Vec<(&str, &str)> = ws.files[0]
            .pub_items
            .iter()
            .map(|i| (i.kind.as_str(), i.name.as_str()))
            .collect();
        assert_eq!(
            items,
            [
                ("const", "X"),
                ("static", "Z"),
                ("struct", "S"),
                ("enum", "E"),
                ("type", "T")
            ]
        );
        // The `use` is one span; the definition of `X` spans its tokens.
        let f = &ws.files[0];
        assert_eq!(f.use_spans.len(), 1);
        let (s, e) = f.pub_items[0].span;
        assert!(f.toks[s].is_ident("const") && f.toks[e - 1].is_punct(';'));
    }

    #[test]
    fn qualified_names() {
        let src = "impl Foo { fn m(&self) {} }";
        let mut ws = Workspace::default();
        ws.add_file("crates/x/src/sub.rs", "x_crate", &["sub".into()], src);
        assert_eq!(ws.fns[0].qualified(), "x_crate::sub::Foo::m");
    }
}
