//! A minimal Rust lexer: the token-stream foundation of `xed-analyze`.
//!
//! The whole point of this layer is to see Rust the way the compiler
//! does where it matters for static analysis: comments (line, doc, and
//! *nested* block comments), string/char/byte literals, and raw strings
//! with arbitrary `#` fences are recognized and never leak their
//! contents into the token stream: `// .unwrap()` in a comment or
//! `"panic!"` in a string literal produces no `unwrap` or `panic` token.
//!
//! Guarantees (pinned by the unit tests below and the adversarial
//! fixtures in `tests/analyze_fixtures.rs`):
//!
//! * comment text yields no tokens; nested `/* /* */ */` terminates
//!   correctly; unterminated block comments consume to EOF (never
//!   panic);
//! * string-ish literals (`"…"`, `b"…"`, `c"…"`, `r"…"`, `r#"…"#`,
//!   `br#"…"#`, char `'x'`, byte `b'\n'`) each become a single literal
//!   token whose *body is not tokenized*;
//! * lifetimes (`'a`, `'static`) are distinguished from char literals;
//! * every token carries its 1-based source line;
//! * [`line_comments`] returns the text of every `//` comment with its
//!   line, which is where in-source waivers live.
//!
//! Known limits (documented in DESIGN.md §13): float literals are
//! lexed permissively (`1.0e-9` is one token, but so would be some
//! malformed forms — the input is `rustc`-accepted code, so this never
//! matters), and `#` in attribute position is a plain punct token.

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, `r#type`).
    Ident,
    /// A lifetime, e.g. `'a` (without the quote in `text`).
    Lifetime,
    /// String-ish literal: string, raw string, byte string, C string.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Numeric literal.
    Num,
    /// A single punctuation character.
    Punct,
}

/// One lexed token: kind, text, and 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Token text. For [`TokKind::Str`]/[`TokKind::Char`] this is the
    /// whole literal as written, quotes included; it is one token, so
    /// its body never reaches the rules as code.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// `true` if this is an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// `true` if this is this punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }

    /// The body of a plain string literal (`"a.b"` → `a.b`), escapes
    /// left as written; `None` for any other token.
    pub fn str_body(&self) -> Option<&str> {
        if self.kind != TokKind::Str {
            return None;
        }
        self.text.strip_prefix('"')?.strip_suffix('"')
    }
}

/// `true` if the identifiers and punctuation at `toks[k..]` read
/// `texts`, e.g. `[".", "unwrap", "(", ")"]`; literals and lifetimes
/// never match.
pub fn matches_at(toks: &[Tok], k: usize, texts: &[&str]) -> bool {
    texts.iter().enumerate().all(|(i, want)| {
        toks.get(k + i)
            .is_some_and(|t| matches!(t.kind, TokKind::Ident | TokKind::Punct) && t.text == *want)
    })
}

/// Byte-region classification used by both outputs of the scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    Code,
    Comment,
    /// The body of a string/char literal (quotes/fences excluded).
    LiteralBody,
}

/// The single low-level scanner: classifies every byte of `src` as
/// code, comment, or literal-body. Both [`tokenize`] and
/// [`line_comments`] are thin layers over this, so they can never
/// disagree about where a comment ends.
fn classify(src: &str) -> Vec<Region> {
    let b = src.as_bytes();
    let n = b.len();
    let mut out = vec![Region::Code; n];
    let mut i = 0;
    while i < n {
        let c = b[i];
        // Line comment (also `///` and `//!` doc comments).
        if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            while i < n && b[i] != b'\n' {
                out[i] = Region::Comment;
                i += 1;
            }
            continue;
        }
        // Block comment, nested.
        if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            let mut depth = 0usize;
            while i < n {
                if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                    depth += 1;
                    out[i] = Region::Comment;
                    out[i + 1] = Region::Comment;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                    depth -= 1;
                    out[i] = Region::Comment;
                    out[i + 1] = Region::Comment;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out[i] = Region::Comment;
                    i += 1;
                }
            }
            continue;
        }
        // Raw / byte / C string prefixes: r" r#" br" br#" b" c" cr#" …
        if matches!(c, b'r' | b'b' | b'c') && !prev_is_ident_char(b, i) {
            if let Some(next) = scan_string_prefix(b, i, &mut out) {
                i = next;
                continue;
            }
        }
        // Plain string literal.
        if c == b'"' {
            i = scan_quoted(b, i, b'"', &mut out);
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            if let Some(next) = scan_char_literal(b, i, &mut out) {
                i = next;
                continue;
            }
            // Lifetime: leave as code (the tokenizer handles it).
            i += 1;
            continue;
        }
        i += 1;
    }
    out
}

/// `true` if the byte before `i` continues an identifier — then a
/// leading `r`/`b`/`c` at `i` is the tail of an ident, not a prefix.
fn prev_is_ident_char(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

/// Tries to scan a (raw/byte/C) string starting at a prefix letter.
/// Returns the index just past the literal, or `None` if this is not a
/// string prefix (e.g. `r` starting the ident `rate`, or `r#type`).
fn scan_string_prefix(b: &[u8], start: usize, out: &mut [Region]) -> Option<usize> {
    let n = b.len();
    let mut j = start;
    // Consume up to two prefix letters (`br`, `cr`).
    while j < n && matches!(b[j], b'r' | b'b' | b'c') && j - start < 2 {
        j += 1;
    }
    // Count raw-string hashes.
    let mut hashes = 0usize;
    while j + hashes < n && b[j + hashes] == b'#' {
        hashes += 1;
    }
    let qi = j + hashes;
    if qi >= n || b[qi] != b'"' {
        return None; // not a string literal (could be `r#ident`)
    }
    let raw = b[start..j].contains(&b'r');
    if hashes > 0 && !raw {
        return None; // `b#` is not a thing
    }
    // Mark the prefix+fence as literal body too: the tokenizer emits one
    // Str token for the whole region, prefix included.
    let mut i = start;
    while i < qi {
        out[i] = Region::LiteralBody;
        i += 1;
    }
    if raw {
        // Raw string: ends at `"` followed by `hashes` hashes; no escapes.
        let mut i = qi + 1;
        out[qi] = Region::LiteralBody;
        while i < n {
            if b[i] == b'"' && i + hashes < n && b[i + 1..].len() >= hashes {
                let fence_ok = (0..hashes).all(|k| b[i + 1 + k] == b'#');
                if fence_ok {
                    for r in out.iter_mut().take(i + 1 + hashes).skip(i) {
                        *r = Region::LiteralBody;
                    }
                    return Some(i + 1 + hashes);
                }
            }
            out[i] = Region::LiteralBody;
            i += 1;
        }
        Some(n) // unterminated: consume to EOF, never panic
    } else if qi < n && b[qi] == b'"' {
        Some(scan_quoted(b, qi, b'"', out))
    } else {
        None
    }
}

/// Scans a quoted literal with backslash escapes starting at the
/// opening quote; returns the index just past the closing quote.
fn scan_quoted(b: &[u8], start: usize, quote: u8, out: &mut [Region]) -> usize {
    let n = b.len();
    out[start] = Region::LiteralBody;
    let mut i = start + 1;
    while i < n {
        if b[i] == b'\\' && i + 1 < n {
            out[i] = Region::LiteralBody;
            out[i + 1] = Region::LiteralBody;
            i += 2;
            continue;
        }
        out[i] = Region::LiteralBody;
        if b[i] == quote {
            return i + 1;
        }
        i += 1;
    }
    n
}

/// Distinguishes `'x'` / `'\n'` / `b'x'` (char literal) from `'a`
/// (lifetime). Returns the index past the literal, or `None` for a
/// lifetime.
fn scan_char_literal(b: &[u8], start: usize, out: &mut [Region]) -> Option<usize> {
    let n = b.len();
    // `'\...'` is always a char literal.
    if start + 1 < n && b[start + 1] == b'\\' {
        return Some(scan_quoted(b, start, b'\'', out));
    }
    // `'c'` (anything then a closing quote) is a char literal; `'a` with
    // no closing quote right after is a lifetime.
    if start + 2 < n && b[start + 2] == b'\'' {
        return Some(scan_quoted(b, start, b'\'', out));
    }
    None
}

/// Lexes `src` into a token stream. Comment and literal bodies are
/// guaranteed absent (see module docs).
pub fn tokenize(src: &str) -> Vec<Tok> {
    let regions = classify(src);
    let b = src.as_bytes();
    let n = b.len();
    let mut toks = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;
    while i < n {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        match regions[i] {
            Region::Comment => {
                i += 1;
            }
            Region::LiteralBody => {
                // One placeholder token per literal region; classify by
                // its first byte (quote kind).
                let start_line = line;
                let start = i;
                while i < n && regions[i] == Region::LiteralBody {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                toks.push(Tok {
                    kind: if c == b'\'' {
                        TokKind::Char
                    } else {
                        TokKind::Str
                    },
                    text: src[start..i].to_string(),
                    line: start_line,
                });
            }
            Region::Code => {
                if c.is_ascii_whitespace() {
                    i += 1;
                } else if c == b'\'' {
                    // Lifetime (char literals were classified already).
                    let start = i + 1;
                    let mut j = start;
                    while j < n && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: src[start..j].to_string(),
                        line,
                    });
                    i = j;
                } else if c.is_ascii_alphabetic() || c == b'_' {
                    let start = i;
                    let mut j = i;
                    while j < n && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    // Raw identifier `r#type`.
                    if j == i + 1
                        && b[i] == b'r'
                        && j + 1 < n
                        && b[j] == b'#'
                        && (b[j + 1].is_ascii_alphabetic() || b[j + 1] == b'_')
                    {
                        j += 1;
                        while j < n && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                            j += 1;
                        }
                    }
                    toks.push(Tok {
                        kind: TokKind::Ident,
                        text: src[start..j].to_string(),
                        line,
                    });
                    i = j;
                } else if c.is_ascii_digit() {
                    let start = i;
                    let mut j = i;
                    while j < n {
                        let d = b[j];
                        if d.is_ascii_alphanumeric() || d == b'_' {
                            j += 1;
                        } else if d == b'.' {
                            // `1.0` continues the number; `1..n` does not.
                            if j + 1 < n && b[j + 1] == b'.' {
                                break;
                            }
                            // `1.method()` — treat the dot as punct.
                            if j + 1 < n && (b[j + 1].is_ascii_alphabetic() || b[j + 1] == b'_') {
                                break;
                            }
                            j += 1;
                        } else if (d == b'+' || d == b'-')
                            && j > start
                            && (b[j - 1] == b'e' || b[j - 1] == b'E')
                        {
                            j += 1;
                        } else {
                            break;
                        }
                    }
                    toks.push(Tok {
                        kind: TokKind::Num,
                        text: src[start..j].to_string(),
                        line,
                    });
                    i = j;
                } else {
                    toks.push(Tok {
                        kind: TokKind::Punct,
                        text: (c as char).to_string(),
                        line,
                    });
                    i += 1;
                }
            }
        }
    }
    toks
}

/// Every `//` comment in `src` (doc comments included) as `(1-based
/// line, text after the two slashes)`. Block comments are not returned:
/// waivers are line comments by definition.
pub fn line_comments(src: &str) -> Vec<(u32, String)> {
    let regions = classify(src);
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'\n' {
            line += 1;
        } else if regions[i] == Region::Comment
            && (i == 0 || regions[i - 1] != Region::Comment)
            && b[i..].starts_with(b"//")
        {
            let end = b[i..]
                .iter()
                .position(|&c| c == b'\n')
                .map_or(b.len(), |p| i + p);
            out.push((line, src[i + 2..end].to_string()));
            i = end;
            continue;
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_yield_no_tokens() {
        assert!(idents("// x.unwrap() panic!\n").is_empty());
        assert!(idents("/* vec![1] */").is_empty());
        assert!(idents("/// doc .unwrap()\n//! inner panic!\n").is_empty());
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let src = "/* outer /* inner */ still comment */ real";
        assert_eq!(idents(src), vec!["real"]);
    }

    #[test]
    fn unterminated_block_comment_consumes_to_eof() {
        assert!(idents("/* never closed\ncode_here()").is_empty());
    }

    #[test]
    fn string_bodies_are_not_tokenized() {
        assert_eq!(idents(r#"let s = "panic!(x.unwrap())";"#), vec!["let", "s"]);
        assert_eq!(idents(r#"let s = b"vec![0]";"#), vec!["let", "s"]);
    }

    #[test]
    fn raw_strings_with_fences() {
        let src = r##"let s = r#"say "panic!" loudly"#; after()"##;
        assert_eq!(idents(src), vec!["let", "s", "after"]);
        let src2 = "let s = r\"no hash .unwrap()\"; tail";
        assert_eq!(idents(src2), vec!["let", "s", "tail"]);
    }

    #[test]
    fn escaped_quotes_inside_strings() {
        let src = r#"let s = "a \" .unwrap() \" b"; next"#;
        assert_eq!(idents(src), vec!["let", "s", "next"]);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let toks = tokenize("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Char).count(),
            2,
            "{toks:?}"
        );
    }

    #[test]
    fn ident_prefix_letters_not_eaten_as_string_prefixes() {
        // `r`, `b`, `c` starting ordinary identifiers must stay idents.
        assert_eq!(
            idents("let rate = beats + cost;"),
            vec!["let", "rate", "beats", "cost"]
        );
        // And a `b` at the *end* of an ident followed by a string is not
        // a byte-string prefix.
        assert_eq!(idents(r#"grub"text""#), vec!["grub"]);
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "r#type"]);
    }

    #[test]
    fn numbers_including_floats_and_ranges() {
        let toks = tokenize("for i in 0..72 { let x = 1.0e-9; let m = 0xFF_u8; }");
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["0", "72", "1.0e-9", "0xFF_u8"]);
    }

    #[test]
    fn line_numbers_are_one_based_and_track_newlines() {
        let toks = tokenize("a\nb\n\nc \"multi\nline\" d");
        let find = |s: &str| toks.iter().find(|t| t.is_ident(s)).map(|t| t.line);
        assert_eq!(find("a"), Some(1));
        assert_eq!(find("b"), Some(2));
        assert_eq!(find("c"), Some(4));
        assert_eq!(find("d"), Some(5));
    }

    #[test]
    fn literal_tokens_keep_their_text() {
        let toks = tokenize(r#"c("faultsim.runs", &metrics::X)"#);
        let lit = toks
            .iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("literal");
        assert_eq!(lit.text, "\"faultsim.runs\"");
        assert_eq!(lit.str_body(), Some("faultsim.runs"));
        assert_eq!(toks[0].str_body(), None);
    }

    #[test]
    fn line_comments_are_collected_with_their_lines() {
        let src = "let a = 1; // trailing\n/* block // not a line comment */\n/// doc\nlet s = \"// in a string\";\n";
        assert_eq!(
            line_comments(src),
            vec![(1, " trailing".to_string()), (3, "/ doc".to_string())]
        );
    }
}
