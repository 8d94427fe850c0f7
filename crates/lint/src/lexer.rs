//! A hand-rolled Rust lexer, exactly deep enough for token-stream linting.
//!
//! The rules in [`crate::rules`] match on identifier/punctuation sequences,
//! so the lexer's one job is to never misclassify text: a `HashMap` inside
//! a string literal, a `//` inside a raw string, or an apostrophe that is a
//! lifetime rather than a `char` must all come out as the right token kind.
//! It therefore handles the full set of Rust literal forms that can contain
//! confusing bytes:
//!
//! * line comments (`//`) and **nested** block comments (`/* /* */ */`);
//! * regular strings with escapes (`"a\"b"`), raw strings with any hash
//!   depth (`r#"..."#`), byte strings (`b"..."`), raw byte strings
//!   (`br##"..."##`), and C strings (`c"..."`);
//! * char literals incl. escapes (`'\''`, `'\u{1F600}'`) vs lifetimes
//!   (`'a`, `'static`);
//! * numeric literals, classifying int vs float (`1.`, `1.0`, `1e9`,
//!   `0x1f`, `1_000.5f64`) so the float-equality rule can key on them.
//!
//! It does **not** build an AST: rules operate on the flat token stream
//! plus a per-token "inside `#[cfg(test)]` / `#[test]` item" flag computed
//! by [`test_regions`].
//!
//! Suppression pragmas (`// dcm-lint: allow(rule-id) reason`) are comments,
//! which the token stream drops, so the lexer surfaces them out-of-band as
//! [`Pragma`] records carrying their line and whether the comment stood on
//! a line of its own (in which case it covers the *next* line).

/// What a token is; rules only ever need these distinctions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`HashMap`, `as`, `fn`, ...).
    Ident(String),
    /// Integer literal (`42`, `0xff`, `1_000u64`).
    Int,
    /// Float literal (`1.0`, `1.`, `3e8`, `2.5f32`).
    Float,
    /// Any string-like literal (regular, raw, byte, C); contents dropped.
    Str,
    /// Char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`) or a loop label.
    Lifetime,
    /// Punctuation, possibly multi-character (`==`, `::`, `->`, `.`).
    Punct(&'static str),
    /// Single character punctuation not in the multi-char table.
    PunctChar(char),
}

/// One lexed token with its 1-indexed source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    #[must_use]
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Whether this token is the punctuation `p`.
    #[must_use]
    pub fn is_punct(&self, p: &str) -> bool {
        match &self.kind {
            TokenKind::Punct(s) => *s == p,
            TokenKind::PunctChar(c) => {
                let mut b = [0u8; 4];
                c.encode_utf8(&mut b) == p
            }
            _ => false,
        }
    }
}

/// An inline suppression comment: `// dcm-lint: allow(D1, P1) reason text`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// 1-indexed line the comment sits on.
    pub line: u32,
    /// Rule ids listed inside `allow(...)`, verbatim.
    pub rules: Vec<String>,
    /// Free-text justification after the closing parenthesis.
    pub reason: String,
    /// True when no token shares the pragma's line, i.e. the comment
    /// stands alone and therefore covers the *next* source line.
    pub own_line: bool,
}

/// A fully lexed file: tokens, pragmas, and the raw source lines (reports
/// quote the trimmed line of each finding).
#[derive(Debug)]
pub struct LexedFile {
    pub tokens: Vec<Token>,
    pub pragmas: Vec<Pragma>,
    pub lines: Vec<String>,
}

/// Multi-character operators, longest first so maximal munch works by
/// scanning the table in order.
const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "...", "..=", "==", "!=", "<=", ">=", "=>", "->", "::", "&&", "||", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Lex `src` into tokens + pragmas. Never fails: unterminated literals
/// are tolerated by consuming to end-of-file (the linter must not crash
/// on a file rustc would reject; rustc will report it anyway).
#[must_use]
pub fn lex(src: &str) -> LexedFile {
    let chars: Vec<char> = src.chars().collect();
    let mut tokens = Vec::new();
    let mut pragmas = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if peek(&chars, i + 1) == Some('/') => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                if let Some(p) = parse_pragma(&text, line) {
                    pragmas.push(p);
                }
            }
            '/' if peek(&chars, i + 1) == Some('*') => {
                // Nested block comment: track depth, count newlines.
                let mut depth = 1usize;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && peek(&chars, i + 1) == Some('*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && peek(&chars, i + 1) == Some('/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                i = skip_string(&chars, i, &mut line);
                tokens.push(Token {
                    kind: TokenKind::Str,
                    line,
                });
            }
            '\'' => {
                // Lifetime vs char literal. A lifetime is ' followed by an
                // ident char NOT closed by a ' right after one char
                // ('a vs 'a'); an escape or multi-char body means char.
                let is_lifetime = match (peek(&chars, i + 1), peek(&chars, i + 2)) {
                    (Some(n), after) => {
                        (n.is_alphabetic() || n == '_') && n != '\\' && after != Some('\'')
                    }
                    _ => false,
                };
                if is_lifetime {
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        line,
                    });
                } else {
                    i = skip_char_literal(&chars, i, &mut line);
                    tokens.push(Token {
                        kind: TokenKind::Char,
                        line,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let (next, kind) = lex_number(&chars, i);
                i = next;
                tokens.push(Token { kind, line });
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                // String-prefix forms: r"", r#"", b"", br"", c"", b''.
                let next = peek(&chars, i);
                let starts_string = matches!(next, Some('"') | Some('#'))
                    && matches!(word.as_str(), "r" | "b" | "br" | "rb" | "c" | "cr");
                let starts_byte_char = next == Some('\'') && word == "b";
                if starts_string {
                    if let Some(end) = skip_raw_or_prefixed_string(&chars, i, &mut line) {
                        i = end;
                        tokens.push(Token {
                            kind: TokenKind::Str,
                            line,
                        });
                        continue;
                    }
                }
                if starts_byte_char {
                    i = skip_char_literal(&chars, i, &mut line);
                    tokens.push(Token {
                        kind: TokenKind::Char,
                        line,
                    });
                    continue;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(word),
                    line,
                });
            }
            _ => {
                let mut matched = false;
                for p in MULTI_PUNCT {
                    let pc: Vec<char> = p.chars().collect();
                    if chars[i..].starts_with(&pc) {
                        tokens.push(Token {
                            kind: TokenKind::Punct(p),
                            line,
                        });
                        i += pc.len();
                        matched = true;
                        break;
                    }
                }
                if !matched {
                    tokens.push(Token {
                        kind: TokenKind::PunctChar(c),
                        line,
                    });
                    i += 1;
                }
            }
        }
    }

    // A pragma is "own line" when no token landed on its line.
    let token_lines: std::collections::BTreeSet<u32> = tokens.iter().map(|t| t.line).collect();
    for p in &mut pragmas {
        p.own_line = !token_lines.contains(&p.line);
    }

    LexedFile {
        tokens,
        pragmas,
        lines: src.lines().map(str::to_owned).collect(),
    }
}

fn peek(chars: &[char], i: usize) -> Option<char> {
    chars.get(i).copied()
}

/// Skip a regular `"..."` string starting at the opening quote; returns
/// the index past the closing quote. Handles `\"` and `\\` escapes and
/// counts newlines (multi-line strings).
fn skip_string(chars: &[char], start: usize, line: &mut u32) -> usize {
    let mut i = start + 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skip a char/byte-char literal starting at the opening `'`; returns the
/// index past the closing `'`.
fn skip_char_literal(chars: &[char], start: usize, line: &mut u32) -> usize {
    let mut i = start;
    while i < chars.len() && chars[i] != '\'' {
        i += 1; // skip the b prefix if called at it
    }
    i += 1; // opening quote
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '\n' => {
                // A stray apostrophe (unterminated). Treat as done so the
                // lexer cannot run away; rustc rejects such a file anyway.
                *line += 1;
                return i;
            }
            '\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skip a raw / prefixed string whose prefix word (`r`, `br`, ...) ends at
/// `i` (so `chars[i]` is `#` or `"`). Returns `None` if this is not
/// actually a string start (e.g. `r#foo` raw identifier).
fn skip_raw_or_prefixed_string(chars: &[char], i: usize, line: &mut u32) -> Option<usize> {
    let mut j = i;
    let mut hashes = 0usize;
    while peek(chars, j) == Some('#') {
        hashes += 1;
        j += 1;
    }
    if peek(chars, j) != Some('"') {
        return None; // raw identifier like r#match
    }
    j += 1;
    if hashes == 0 {
        // r"..." — no hash guard, but raw: backslashes are literal.
        while j < chars.len() {
            match chars[j] {
                '\n' => {
                    *line += 1;
                    j += 1;
                }
                '"' => return Some(j + 1),
                _ => j += 1,
            }
        }
        return Some(j);
    }
    // r#"..."# with `hashes` guards: find `"` followed by that many `#`.
    while j < chars.len() {
        if chars[j] == '\n' {
            *line += 1;
            j += 1;
            continue;
        }
        if chars[j] == '"' {
            let mut k = 0usize;
            while k < hashes && peek(chars, j + 1 + k) == Some('#') {
                k += 1;
            }
            if k == hashes {
                return Some(j + 1 + hashes);
            }
        }
        j += 1;
    }
    Some(j)
}

/// Lex a numeric literal starting at `start`; returns (index past it,
/// kind). Floats are: a `.` followed by a digit or end-of-number, or a
/// decimal exponent, or an `f32`/`f64` suffix.
fn lex_number(chars: &[char], start: usize) -> (usize, TokenKind) {
    let mut i = start;
    let mut is_float = false;

    // Radix prefixes are always integers (rust has no hex floats).
    if chars[i] == '0' && matches!(peek(chars, i + 1), Some('x' | 'o' | 'b' | 'X' | 'O' | 'B')) {
        i += 2;
        while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
            i += 1;
        }
        return (i, TokenKind::Int);
    }

    while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
        i += 1;
    }
    // Fractional part: `1.5`, or trailing `1.` (but not `1..2` or `1.foo`).
    if peek(chars, i) == Some('.') {
        let after = peek(chars, i + 1);
        let fractional = match after {
            Some(c) if c.is_ascii_digit() => true,
            Some('.') => false,                                // range 1..2
            Some(c) if c.is_alphabetic() || c == '_' => false, // method 1.foo()
            _ => true,                                         // bare `1.`
        };
        if fractional {
            is_float = true;
            i += 1;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                i += 1;
            }
        }
    }
    // Exponent: `1e9`, `1.5e-3`.
    if matches!(peek(chars, i), Some('e' | 'E')) {
        let mut j = i + 1;
        if matches!(peek(chars, j), Some('+' | '-')) {
            j += 1;
        }
        if matches!(peek(chars, j), Some(c) if c.is_ascii_digit()) {
            is_float = true;
            i = j;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                i += 1;
            }
        }
    }
    // Type suffix: `1f64` is a float, `1u64` an int.
    if matches!(peek(chars, i), Some(c) if c.is_alphabetic()) {
        let s = i;
        let mut j = i;
        while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
        let suffix: String = chars[s..j].iter().collect();
        if suffix == "f32" || suffix == "f64" {
            is_float = true;
            i = j;
        } else if suffix.starts_with('u') || suffix.starts_with('i') {
            i = j;
        }
        // Any other trailing word (e.g. the `e` in a malformed literal)
        // is left for the next token.
    }
    (
        i,
        if is_float {
            TokenKind::Float
        } else {
            TokenKind::Int
        },
    )
}

/// Parse a `// dcm-lint: allow(RULE[, RULE]*) reason` comment. Returns
/// `None` for ordinary comments. A malformed pragma (no parens) is
/// returned with empty `rules` so the engine can flag it instead of
/// silently ignoring a typo.
fn parse_pragma(comment: &str, line: u32) -> Option<Pragma> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("dcm-lint:")?.trim();
    let rest = match rest.strip_prefix("allow") {
        Some(r) => r.trim_start(),
        None => {
            // `dcm-lint:` followed by something other than allow(...).
            return Some(Pragma {
                line,
                rules: Vec::new(),
                reason: String::new(),
                own_line: false,
            });
        }
    };
    let Some(inner_start) = rest.strip_prefix('(') else {
        return Some(Pragma {
            line,
            rules: Vec::new(),
            reason: String::new(),
            own_line: false,
        });
    };
    let Some(close) = inner_start.find(')') else {
        return Some(Pragma {
            line,
            rules: Vec::new(),
            reason: String::new(),
            own_line: false,
        });
    };
    let rules = inner_start[..close]
        .split(',')
        .map(|r| r.trim().to_owned())
        .filter(|r| !r.is_empty())
        .collect();
    let reason = inner_start[close + 1..].trim().to_owned();
    Some(Pragma {
        line,
        rules,
        reason,
        own_line: false,
    })
}

/// Per-token flag: is this token inside a `#[cfg(test)]` item or a
/// `#[test]` function? Computed by scanning for those attributes and
/// skipping the attributed item (to its closing brace, or `;`).
///
/// This is a token-level approximation of item structure, which is all a
/// linter needs: the repo convention is `#[cfg(test)] mod tests { ... }`
/// at the end of each file, and the approximation handles any attributed
/// item (fn, mod, use, struct) plus stacked attributes.
#[must_use]
pub fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if is_test_attr_at(tokens, i) {
            // Skip this attribute (to its `]`) and any further attributes,
            // then mark the item that follows.
            let mut j = skip_attr(tokens, i);
            while j < tokens.len() && tokens[j].is_punct("#") {
                j = skip_attr(tokens, j);
            }
            let end = skip_item(tokens, j);
            for flag in in_test.iter_mut().take(end).skip(i) {
                *flag = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    in_test
}

/// Does `#[...]` starting at `i` contain the ident `test` (covers
/// `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ...))]`)?
fn is_test_attr_at(tokens: &[Token], i: usize) -> bool {
    if !tokens[i].is_punct("#") || !tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
        return false;
    }
    let mut depth = 0usize;
    for t in &tokens[i + 1..] {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if t.ident() == Some("test") {
            return true;
        }
    }
    false
}

/// Skip the attribute `#[...]` starting at `i`; returns index past `]`.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1; // at `[`
    let mut depth = 0usize;
    while j < tokens.len() {
        if tokens[j].is_punct("[") {
            depth += 1;
        } else if tokens[j].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Skip one item starting at `i`: consume to the first `;` at brace depth
/// zero, or through the matching `}` of the first `{`. Returns the index
/// past the item.
fn skip_item(tokens: &[Token], i: usize) -> usize {
    let mut j = i;
    let mut depth = 0usize;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        } else if t.is_punct(";") && depth == 0 {
            return j + 1;
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        // Idents inside every string form must not leak into the stream.
        let src = r####"
            let a = "HashMap inside";
            let b = r#"raw HashMap with // comment"#;
            let c = b"byte HashMap";
            let d = br##"raw byte HashMap "# nested"##;
            let e = r"raw no hash HashMap";
        "####;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_owned()), "{ids:?}");
        assert_eq!(ids.iter().filter(|s| *s == "let").count(), 5);
    }

    #[test]
    fn raw_identifier_is_not_a_string() {
        let ids = idents("let r#match = r#struct;");
        // The prefix word `r` is lexed as an ident, then `#`, then the
        // keyword body — good enough for rule matching, and crucially not
        // swallowed as an unterminated raw string.
        assert!(ids.contains(&"r".to_owned()));
        assert!(ids.contains(&"match".to_owned()));
    }

    #[test]
    fn nested_block_comments_terminate() {
        let src = "a /* x /* y */ z */ b /* /* */ */ c";
        assert_eq!(idents(src), ["a", "b", "c"]);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "a\n/* 1\n2\n3 */\nb\n\"s\nt\"\nc";
        let f = lex(src);
        let find = |name: &str| f.tokens.iter().find(|t| t.ident() == Some(name)).unwrap();
        assert_eq!(find("a").line, 1);
        assert_eq!(find("b").line, 5);
        assert_eq!(find("c").line, 8);
    }

    #[test]
    fn chars_vs_lifetimes() {
        let f = lex("fn f<'a>(x: &'a str) { let c = 'x'; let e = '\\''; let u = '\\u{1F600}'; }");
        let lifetimes = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 3);
    }

    #[test]
    fn byte_char_is_a_char() {
        let f = lex("let x = b'a'; let y = b\"str\";");
        assert_eq!(
            f.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            1
        );
        assert_eq!(
            f.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            1
        );
    }

    #[test]
    fn number_classification() {
        let cases: &[(&str, TokenKind)] = &[
            ("42", TokenKind::Int),
            ("42u64", TokenKind::Int),
            ("0xffff", TokenKind::Int),
            ("0b1010", TokenKind::Int),
            ("1_000_000", TokenKind::Int),
            ("1.0", TokenKind::Float),
            ("1.", TokenKind::Float),
            ("1e9", TokenKind::Float),
            ("1.5e-3", TokenKind::Float),
            ("2f64", TokenKind::Float),
            ("1_000.5", TokenKind::Float),
        ];
        for (src, want) in cases {
            let f = lex(src);
            assert_eq!(&f.tokens[0].kind, want, "{src}");
        }
    }

    #[test]
    fn range_and_method_on_int_are_not_floats() {
        let f = lex("for i in 1..10 { x = 3.max(i); }");
        assert!(f.tokens.iter().all(|t| t.kind != TokenKind::Float));
    }

    #[test]
    fn multi_char_punct_is_single_token() {
        let f = lex("a == b != c -> d => e :: f");
        let puncts: Vec<&str> = f
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Punct(p) => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(puncts, ["==", "!=", "->", "=>", "::"]);
    }

    #[test]
    fn pragma_parsing() {
        let f = lex("let x = m.get(&k); // dcm-lint: allow(D1, P1) keyed lookup only\n");
        assert_eq!(f.pragmas.len(), 1);
        let p = &f.pragmas[0];
        assert_eq!(p.rules, ["D1", "P1"]);
        assert_eq!(p.reason, "keyed lookup only");
        assert!(!p.own_line, "tokens share the line");
    }

    #[test]
    fn own_line_pragma_detected() {
        let f = lex("// dcm-lint: allow(F2) exact sentinel comparison\nif a == 0.0 {}\n");
        assert_eq!(f.pragmas.len(), 1);
        assert!(f.pragmas[0].own_line);
        assert_eq!(f.pragmas[0].line, 1);
    }

    #[test]
    fn malformed_pragma_is_surfaced_not_dropped() {
        let f = lex("// dcm-lint: allow D1 forgot parens\n");
        assert_eq!(f.pragmas.len(), 1);
        assert!(f.pragmas[0].rules.is_empty());
    }

    #[test]
    fn pragma_inside_string_is_ignored() {
        let f = lex("let s = \"// dcm-lint: allow(D1) fake\";");
        assert!(f.pragmas.is_empty());
    }

    #[test]
    fn cfg_test_region_covers_the_module() {
        let src = "fn lib() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { b.unwrap(); }\n}\nfn tail() { c.unwrap(); }";
        let f = lex(src);
        let regions = test_regions(&f.tokens);
        let flag_of = |name: &str| {
            let idx = f
                .tokens
                .iter()
                .position(|t| t.ident() == Some(name))
                .unwrap();
            regions[idx]
        };
        assert!(!flag_of("lib"));
        assert!(flag_of("tests"));
        assert!(flag_of("b"));
        assert!(!flag_of("tail"));
    }

    #[test]
    fn test_attr_with_stacked_attributes() {
        let src = "#[test]\n#[should_panic(expected = \"boom\")]\nfn t() { x.unwrap(); }\nfn lib() { y.unwrap(); }";
        let f = lex(src);
        let regions = test_regions(&f.tokens);
        let x = f
            .tokens
            .iter()
            .position(|t| t.ident() == Some("x"))
            .unwrap();
        let y = f
            .tokens
            .iter()
            .position(|t| t.ident() == Some("y"))
            .unwrap();
        assert!(regions[x]);
        assert!(!regions[y]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        // A `test` ident anywhere inside the attr marks it; `cfg(feature =
        // "test-utils")` contains no `test` *ident* (it is a string).
        let src = "#[cfg(feature = \"test-utils\")]\nfn lib() { x.unwrap(); }";
        let f = lex(src);
        let regions = test_regions(&f.tokens);
        assert!(regions.iter().all(|f| !f));
    }
}
