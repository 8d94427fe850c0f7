//! Item-level structural parser over the lexer's token stream.
//!
//! The token-stream rules in [`crate::rules`] see text; the call-graph
//! rules (`D3`, `A1`) need *structure*: which function a token lives in,
//! and which functions that function calls. This module recovers exactly
//! that much — modules, `impl` blocks, `fn` items with their body token
//! spans, `use` trees, and call expressions — without a full expression
//! grammar. It is deliberately approximate where approximation is safe
//! for the rules built on top:
//!
//! * **Recovered faithfully:** nesting of `mod`/`impl`/`fn` (including
//!   functions nested in function bodies), the `impl` target type (last
//!   path segment, trait impls resolve to the type after `for`), fn
//!   qualifiers (`const`/`async`/`unsafe`/`extern`), generics and
//!   `where` clauses (skipped with correct `<`/`>` nesting, `>>`/`<<`
//!   counted as two), raw identifiers (`r#match`), turbofish call syntax
//!   (`f::<T>()`), `use` trees with groups, globs and `as` renames, and
//!   the named fields of each `struct` with the head of each field's
//!   declared type (`queue: EventQueue<Complete>` → `EventQueue`), which
//!   `fn`s are declared plain `pub`, and which sit in an
//!   `impl Trait for Type` block.
//! * **Approximate by design:** call sites are recovered as *names* —
//!   `Bare` (`f(...)`), `Path` (`Type::f(...)`, qualifier = the segment
//!   directly before the name, `Self` read as the enclosing impl type; a
//!   lowercase path named as a value, `map(Type::f)`, counts too),
//!   `Method` (`x.f(...)`, qualifier = the
//!   impl type when the receiver is literally `self` or a field of
//!   `self`, whose name is then recorded too, or the declared type head
//!   of a parameter the body names only as a receiver or as a whole call
//!   argument), and `Macro`
//!   (`name!(...)`). Resolution to definitions happens in
//!   [`crate::callgraph`], conservatively.
//! * **Skipped soundly:** `macro_rules!` definitions are consumed
//!   whole (their bodies are token soup, not items); macro *invocation*
//!   arguments are still scanned for call expressions, since in this
//!   codebase they are ordinary expressions (`format!("{}", x.f())`).
//!
//! Closures are transparent: a call inside `|x| ...` is attributed to
//! the enclosing `fn`, which is the conservative choice for reachability
//! (the closure may run whenever its definer does).

use crate::lexer::{Token, TokenKind};
use std::ops::Range;

/// Keywords that can directly precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "let", "mut", "ref", "move", "in",
    "as", "break", "continue", "where", "unsafe", "async", "await", "dyn", "impl", "fn", "use",
    "pub", "crate", "super", "const", "static", "enum", "struct", "union", "trait", "type", "mod",
    "extern", "box", "yield",
];

/// How a call site was written at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `f(...)` — resolves against free functions.
    Bare,
    /// `Qual::f(...)` — resolves against `impl Qual` methods, falling
    /// back to free functions when `Qual` names a module, not a type.
    Path,
    /// `recv.f(...)` — resolves against methods; when the receiver is
    /// literally `self`, the enclosing impl type is the qualifier.
    Method,
    /// `name!(...)` — not resolved (macros are graph leaves), but rule
    /// `A1` matches allocation macros (`format!`, `vec!`) by name.
    Macro,
}

/// One call expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    pub kind: CallKind,
    /// `Path`: the path segment directly before the name (`ServingEngine`
    /// in `ServingEngine::run`; the enclosing impl type for `Self::run`).
    /// `Method`: the enclosing impl type when
    /// the receiver is `self` or `self.<field>`; the declared type head
    /// when it is a parameter the body names only as a receiver (`x.`) or
    /// as a whole call argument (`f(&x)`), and so never rebinds; else
    /// `None`.
    pub qual: Option<String>,
    /// `Method` on a field of `self` (`self.queue.push(..)`): the field,
    /// declared by the struct `qual` names.
    pub field: Option<String>,
    /// Callee name; macros keep their `!` (`format!`).
    pub name: String,
    /// 1-indexed source line of the callee name token.
    pub line: u32,
    /// Number of arguments at the call site; `None` when counting is
    /// unreliable (closure `|..|` or comparison operators in the list),
    /// for macros, and for a path named as a value (`map(Type::f)`).
    /// Used to prune name-collision resolution.
    pub arity: Option<usize>,
}

/// One `fn` item (top-level, in an `impl`/`trait` block, or nested in
/// another function's body).
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// Enclosing `impl`/`trait` target type (last path segment), if any.
    pub self_ty: Option<String>,
    /// Enclosing `mod` names within the file, outermost first.
    pub module: Vec<String>,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Inside a `#[cfg(test)]`/`#[test]` region.
    pub is_test: bool,
    /// Declared plain `pub` (not `pub(crate)` or another restriction).
    pub is_pub: bool,
    /// A method of an `impl Trait for Type` block: callers reach it
    /// through the trait (operators, `for` loops, formatting, `dyn`), at
    /// call sites the parser cannot see.
    pub in_trait_impl: bool,
    pub is_async: bool,
    pub is_unsafe: bool,
    pub is_const: bool,
    /// Number of parameters excluding any `self` receiver; `None` when
    /// the list could not be counted confidently.
    pub arity: Option<usize>,
    /// Token index range of the body *contents* (exclusive of both
    /// braces); `None` for bodyless signatures (trait methods, externs).
    pub body: Option<(usize, usize)>,
    /// Call expressions in the body, excluding those of nested `fn`s
    /// (which get their own `FnDef`).
    pub calls: Vec<Call>,
}

impl FnDef {
    /// Display name for diagnostics: `Type::name` or `name`.
    #[must_use]
    pub fn display(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One leaf of a `use` tree: the name it binds locally, and the full
/// path it refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseEntry {
    pub alias: String,
    pub path: Vec<String>,
}

/// One `struct` item with named fields.
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    /// Inside a `#[cfg(test)]`/`#[test]` region.
    pub is_test: bool,
    /// Each named field with the head of its declared type: the last path
    /// segment before any generic arguments, through references
    /// (`&'a mut Foo<T>` → `Foo`). `None` when the type has no such head
    /// (tuple, array, slice, function pointer, trait object) or is one of
    /// the struct's own type parameters.
    pub fields: Vec<(String, Option<String>)>,
}

/// Structural view of one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnDef>,
    pub uses: Vec<UseEntry>,
    pub structs: Vec<StructDef>,
}

/// Parse a lexed token stream into items. `in_test` is the per-token
/// test-region flag from [`crate::lexer::test_regions`]; it must be the
/// same length as `tokens`. Never fails: unparseable stretches are
/// skipped token by token (the linter must not crash on code rustc
/// would reject).
#[must_use]
pub fn parse(tokens: &[Token], in_test: &[bool]) -> ParsedFile {
    debug_assert_eq!(tokens.len(), in_test.len());
    let mut p = Parser {
        toks: tokens,
        in_test,
        out: ParsedFile::default(),
        module: Vec::new(),
        self_ty: None,
        in_trait_impl: false,
        receivers: Vec::new(),
    };
    p.items(0, tokens.len());
    p.out
}

struct Parser<'a> {
    toks: &'a [Token],
    in_test: &'a [bool],
    out: ParsedFile,
    module: Vec<String>,
    self_ty: Option<String>,
    /// Inside an `impl Trait for Type` block.
    in_trait_impl: bool,
    /// The parameters of the `fn` whose body is being scanned that pin
    /// their method calls: name and declared type head.
    receivers: Vec<(String, String)>,
}

/// Pending `fn` qualifiers seen while walking an item list.
#[derive(Default, Clone, Copy)]
struct Quals {
    is_pub: bool,
    is_async: bool,
    is_unsafe: bool,
    is_const: bool,
}

impl<'a> Parser<'a> {
    fn ident(&self, i: usize) -> Option<&'a str> {
        self.toks.get(i).and_then(Token::ident)
    }

    fn is_punct(&self, i: usize, p: &str) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_punct(p))
    }

    /// Parse an identifier at `i`, accepting raw form `r # ident`.
    /// Returns `(name, next_index)`.
    fn ident_maybe_raw(&self, i: usize) -> Option<(String, usize)> {
        let first = self.ident(i)?;
        if first == "r" && self.is_punct(i + 1, "#") {
            if let Some(body) = self.ident(i + 2) {
                return Some((body.to_owned(), i + 3));
            }
        }
        Some((first.to_owned(), i + 1))
    }

    /// Walk one item list spanning `[start, end)` (a file, `mod` body,
    /// or `impl` body).
    fn items(&mut self, start: usize, end: usize) {
        let mut i = start;
        let mut quals = Quals::default();
        while i < end {
            let Some(word) = self.ident(i) else {
                if self.is_punct(i, "#") {
                    i = self.skip_attr(i);
                } else if self.is_punct(i, "{") {
                    // A stray block at item level (e.g. inside a skipped
                    // construct): recurse so nested items are still found.
                    let close = self.matching_brace(i);
                    self.items(i + 1, close);
                    i = close + 1;
                } else {
                    i += 1;
                }
                quals = Quals::default();
                continue;
            };
            match word {
                "async" => {
                    quals.is_async = true;
                    i += 1;
                }
                "unsafe" => {
                    quals.is_unsafe = true;
                    i += 1;
                }
                "const" if self.ident(i + 1) == Some("fn") => {
                    quals.is_const = true;
                    i += 1;
                }
                "pub" => {
                    // `pub(crate)` and other restrictions are not public.
                    quals.is_pub = !self.is_punct(i + 1, "(");
                    i += 1;
                }
                "extern" | "default" => i += 1, // ABI noise
                "fn" => {
                    i = self.parse_fn(i, quals);
                    quals = Quals::default();
                }
                "mod" => {
                    i = self.parse_mod(i);
                    quals = Quals::default();
                }
                "impl" => {
                    i = self.parse_impl_or_trait(i, false);
                    quals = Quals::default();
                }
                "trait" => {
                    i = self.parse_impl_or_trait(i, true);
                    quals = Quals::default();
                }
                "use" => {
                    i = self.parse_use(i);
                    quals = Quals::default();
                }
                "struct" => {
                    i = self.parse_struct(i);
                    quals = Quals::default();
                }
                "macro_rules" => {
                    // `macro_rules! name { ... }` — consume whole, the
                    // body is not item syntax.
                    let mut j = i + 1;
                    while j < self.toks.len() && !self.is_punct(j, "{") {
                        j += 1;
                    }
                    i = if j < self.toks.len() {
                        self.matching_brace(j) + 1
                    } else {
                        j
                    };
                    quals = Quals::default();
                }
                _ => {
                    // Other items (struct/enum/static/const X/type/...)
                    // and anything unrecognized: advance one token. Item
                    // bodies reached via `{` are recursed above, so a
                    // nested fn inside e.g. a const initializer block is
                    // still found.
                    i += 1;
                    quals = Quals::default();
                }
            }
        }
    }

    /// Parse `fn name<G>(params) -> Ret where ... { body }` with the
    /// `fn` keyword at `i`; registers the item and (recursively) any
    /// nested functions. Returns the index past the item.
    fn parse_fn(&mut self, i: usize, quals: Quals) -> usize {
        let line = self.toks[i].line;
        let Some((name, mut j)) = self.ident_maybe_raw(i + 1) else {
            return i + 1;
        };
        // Generic parameters.
        let generics = j..if self.is_punct(j, "<") {
            self.skip_angles(j)
        } else {
            j
        };
        j = generics.end;
        // Parameter list.
        let mut arity = None;
        let mut params = Vec::new();
        if self.is_punct(j, "(") {
            arity = self.count_params(j);
            let close = self.matching(j, "(", ")");
            params = self.typed_params(j + 1, close, generics);
            j = close + 1;
        }
        // Return type / where clause: scan to the body `{` or a `;`,
        // ignoring any `{`…`}` braces nested in const-generic positions
        // is unnecessary here — a `{` at this level is the body.
        while j < self.toks.len() && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
            if self.is_punct(j, "<") {
                j = self.skip_angles(j);
            } else {
                j += 1;
            }
        }
        let mut def = FnDef {
            name,
            self_ty: self.self_ty.clone(),
            module: self.module.clone(),
            line,
            is_test: self.in_test.get(i).copied().unwrap_or(false),
            is_pub: quals.is_pub,
            in_trait_impl: self.in_trait_impl,
            is_async: quals.is_async,
            is_unsafe: quals.is_unsafe,
            is_const: quals.is_const,
            arity,
            body: None,
            calls: Vec::new(),
        };
        if j >= self.toks.len() || self.is_punct(j, ";") {
            self.out.fns.push(def);
            return (j + 1).min(self.toks.len());
        }
        let close = self.matching_brace(j);
        def.body = Some((j + 1, close));
        // A parameter the body names other than as a receiver (`x.`) or a
        // whole call argument may be rebound (`let x`, a pattern, a
        // closure's `|x|`), so its type no longer pins `x.m()`.
        params.retain(|(name, _)| {
            (j + 1..close).all(|k| {
                self.ident(k) != Some(name)
                    || self.is_punct(k + 1, ".")
                    || self.is_call_argument(k, j + 1)
            })
        });
        let outer = std::mem::replace(&mut self.receivers, params);
        def.calls = self.scan_body(j + 1, close);
        self.receivers = outer;
        self.out.fns.push(def);
        close + 1
    }

    /// Is the identifier at `k` a whole call argument, `f(x, ..)`,
    /// `T::f(&x)` or `y.m(.., &mut x)`, whose `(` follows a lowercase
    /// non-keyword name? No pattern has such a `(` (`Some(x)`,
    /// `let (a, x)`, `|a, x|`, `Foo { x }`), so an argument never rebinds
    /// `x`. The search for the `(` stops at the body's first token,
    /// `body_start`, and gives up at a `|` outside brackets (a closure's
    /// parameters, or an `|` operator inside the argument list).
    fn is_call_argument(&self, k: usize, body_start: usize) -> bool {
        let mut start = k;
        if self.ident(start.wrapping_sub(1)) == Some("mut")
            && self.is_punct(start.wrapping_sub(2), "&")
        {
            start -= 2;
        } else if self.is_punct(start.wrapping_sub(1), "&") {
            start -= 1;
        }
        if start <= body_start
            || !(self.is_punct(start - 1, ",") || self.is_punct(start - 1, "("))
            || !(self.is_punct(k + 1, ",") || self.is_punct(k + 1, ")"))
        {
            return false;
        }
        let mut depth = 0usize;
        for i in (body_start..start).rev() {
            let t = &self.toks[i];
            if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth += 1;
            } else if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                if depth == 0 {
                    return t.is_punct("(")
                        && self.ident(i.wrapping_sub(1)).is_some_and(|w| {
                            w.starts_with(|c: char| c.is_ascii_lowercase())
                                && !NON_CALL_KEYWORDS.contains(&w)
                        });
                }
                depth -= 1;
            } else if depth == 0 && (t.is_punct("|") || t.is_punct("||")) {
                return false;
            }
        }
        false
    }

    /// Scan a function body `[start, end)` for call expressions,
    /// parsing nested `fn` items as their own definitions (their calls
    /// are excluded from the enclosing function).
    fn scan_body(&mut self, start: usize, end: usize) -> Vec<Call> {
        let mut calls = Vec::new();
        let mut i = start;
        while i < end {
            let Some(word) = self.ident(i) else {
                i += 1;
                continue;
            };
            if word == "fn" {
                i = self.parse_fn(i, Quals::default());
                continue;
            }
            if word == "macro_rules" {
                let mut j = i + 1;
                while j < end && !self.is_punct(j, "{") {
                    j += 1;
                }
                i = if j < end {
                    self.matching_brace(j) + 1
                } else {
                    j
                };
                continue;
            }
            // Resolve raw identifiers to their body name.
            let (name, after) = match self.ident_maybe_raw(i) {
                Some(v) => v,
                None => {
                    i += 1;
                    continue;
                }
            };
            // Macro invocation: `name ! ( | [ | {`.
            if self.is_punct(after, "!")
                && (self.is_punct(after + 1, "(")
                    || self.is_punct(after + 1, "[")
                    || self.is_punct(after + 1, "{"))
            {
                calls.push(Call {
                    kind: CallKind::Macro,
                    qual: None,
                    field: None,
                    name: format!("{name}!"),
                    line: self.toks[i].line,
                    arity: None,
                });
                // Do NOT skip the arguments: they are expressions and may
                // contain further calls.
                i = after + 2;
                continue;
            }
            // Optional turbofish between name and argument list.
            let mut call_paren = after;
            if self.is_punct(after, "::") && self.is_punct(after + 1, "<") {
                call_paren = self.skip_angles(after + 1);
            }
            let is_call = self.is_punct(call_paren, "(") && !NON_CALL_KEYWORDS.contains(&word);
            // A path named as a value (`map(Type::f)`, `resize_with(n,
            // Vec::new)`) is called wherever the value goes, so the naming
            // site stands in for the call, with no argument count.
            if is_call || self.is_fn_value_path(i, after) {
                let (kind, qual, field) = self.classify_call(i);
                calls.push(Call {
                    kind,
                    qual,
                    field,
                    name,
                    line: self.toks[i].line,
                    arity: if is_call {
                        self.count_args(call_paren)
                    } else {
                        None
                    },
                });
            }
            i = after;
        }
        calls
    }

    /// Is the identifier at `i` (ending at `after`) the last segment of a
    /// path named as a value, `Type::f` or `module::f`? Only a lowercase
    /// final segment counts: `Kind::Decode` and `f64::MAX` are an enum
    /// variant and a constant, not functions.
    fn is_fn_value_path(&self, i: usize, after: usize) -> bool {
        i >= 1
            && self.toks[i - 1].is_punct("::")
            && self
                .ident(i)
                .is_some_and(|w| w.starts_with(|c: char| c.is_ascii_lowercase()))
            && !["::", "(", "!", "{", "<"]
                .iter()
                .any(|p| self.is_punct(after, p))
    }

    /// Classify the call whose name token sits at `i` by looking at what
    /// precedes it: its kind, qualifier and receiver field.
    fn classify_call(&self, i: usize) -> (CallKind, Option<String>, Option<String>) {
        if i >= 1 && self.toks[i - 1].is_punct(".") {
            // Method call; receiver `self` pins the impl type, receiver
            // `self.<field>` names the field whose declared type may.
            if i >= 2 && self.ident(i - 2) == Some("self") {
                return (CallKind::Method, self.self_ty.clone(), None);
            }
            if i >= 4 && self.is_punct(i - 3, ".") && self.ident(i - 4) == Some("self") {
                if let (Some(ty), Some(field)) = (&self.self_ty, self.ident(i - 2)) {
                    return (CallKind::Method, Some(ty.clone()), Some(field.to_owned()));
                }
            }
            // A bare parameter receiver (not `a.x`, not `m::x`) pins the
            // call to its declared type.
            let bare = i < 3 || !(self.is_punct(i - 3, ".") || self.is_punct(i - 3, "::"));
            let recv = i
                .checked_sub(2)
                .and_then(|r| self.ident(r))
                .filter(|_| bare);
            let param = recv
                .and_then(|recv| self.receivers.iter().find(|(name, _)| name == recv))
                .map(|(_, ty)| ty.clone());
            return (CallKind::Method, param, None);
        }
        if i >= 1 && self.toks[i - 1].is_punct("::") {
            // Path call: the qualifier is the segment directly before,
            // skipping a turbofish on the *type* (`Vec::<T>::new`).
            let mut k = i - 1;
            if k >= 1 && self.toks[k - 1].is_punct(">") {
                // Walk back over `< ... >`.
                let mut depth = 0i32;
                let mut m = k - 1;
                loop {
                    if self.toks[m].is_punct(">") {
                        depth += 1;
                    } else if self.toks[m].is_punct(">>") {
                        depth += 2;
                    } else if self.toks[m].is_punct("<") {
                        depth -= 1;
                    } else if self.toks[m].is_punct("<<") {
                        depth -= 2;
                    }
                    if depth <= 0 || m == 0 {
                        break;
                    }
                    m -= 1;
                }
                // `m` is at the opening `<`; skip a preceding `::`.
                k = m;
                if k >= 1 && self.toks[k - 1].is_punct("::") {
                    k -= 1;
                }
            }
            // The segment ident directly before `::`; a raw-identifier
            // qualifier (`r#mod::f`) ends in the same ident token.
            let qual = if k >= 1 {
                self.toks[k - 1].ident()
            } else {
                None
            };
            let qual = match qual {
                // `Self::f` names the enclosing impl type, which no
                // type is literally called.
                Some("Self") => self.self_ty.clone(),
                q => q.map(str::to_owned),
            };
            return (CallKind::Path, qual, None);
        }
        (CallKind::Bare, None, None)
    }

    /// Parse `struct Name<G> where .. { field: Type, .. }` with `struct`
    /// at `i`, recording each named field's type head. Tuple and unit
    /// structs record no fields. Returns the index past the item.
    fn parse_struct(&mut self, i: usize) -> usize {
        let Some((name, mut j)) = self.ident_maybe_raw(i + 1) else {
            return i + 1;
        };
        // Any ident in the generics list is taken for a type parameter
        // (bounds too: a field typed by one then resolves nothing).
        let generics = j..if self.is_punct(j, "<") {
            self.skip_angles(j)
        } else {
            j
        };
        j = generics.end;
        while j < self.toks.len() && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
            if self.is_punct(j, "(") {
                // Tuple struct: no named fields.
                return self.matching(j, "(", ")") + 1;
            }
            j = if self.is_punct(j, "<") {
                self.skip_angles(j)
            } else {
                j + 1
            };
        }
        if j >= self.toks.len() || self.is_punct(j, ";") {
            return (j + 1).min(self.toks.len());
        }
        let close = self.matching_brace(j);
        let mut fields = Vec::new();
        let mut start = j + 1;
        while start < close {
            // One field runs to the next top-level `,`; its name is the
            // ident before its first `:`, past any attribute or `pub`.
            let end = self.list_item_end(start, close);
            let colon = (start..end).find(|&k| self.is_punct(k, ":"));
            if let Some((field, colon)) = colon.and_then(|c| Some((self.ident(c - 1)?, c))) {
                let head = self
                    .type_head(colon + 1, end)
                    .filter(|h| !generics.clone().any(|g| self.ident(g) == Some(h)));
                fields.push((field.to_owned(), head));
            }
            start = end + 1;
        }
        self.out.structs.push(StructDef {
            name,
            is_test: self.in_test.get(i).copied().unwrap_or(false),
            fields,
        });
        close + 1
    }

    /// The index of the first top-level `,` in `[start, end)`, or `end`:
    /// where one item of a field or parameter list ends.
    fn list_item_end(&self, start: usize, end: usize) -> usize {
        let mut k = start;
        while k < end && !self.is_punct(k, ",") {
            k = if self.is_punct(k, "<") {
                self.skip_angles(k)
            } else if self.is_punct(k, "(") {
                self.matching(k, "(", ")") + 1
            } else if self.is_punct(k, "[") {
                self.matching(k, "[", "]") + 1
            } else {
                k + 1
            };
        }
        k
    }

    /// The parameters in `[start, end)`, a `fn`'s parameter list, that
    /// declare a type with a head: each `name: Type` or `mut name: Type`
    /// with the head of `Type` (see [`Self::type_head`]), unless the head
    /// is one of the fn's own type parameters in `generics`. A `self`
    /// receiver, a pattern and a trait type (`impl T`, `dyn T`) give none.
    fn typed_params(
        &self,
        start: usize,
        end: usize,
        generics: Range<usize>,
    ) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let mut k = start;
        while k < end {
            let item_end = self.list_item_end(k, end);
            let at = k + usize::from(self.ident(k) == Some("mut"));
            let name = self
                .ident(at)
                .filter(|&n| n != "self" && self.is_punct(at + 1, ":"));
            let head = name.and_then(|_| self.type_head(at + 2, item_end));
            if let (Some(name), Some(head)) = (name, head) {
                if !generics.clone().any(|g| self.ident(g) == Some(&head)) {
                    out.push((name.to_owned(), head));
                }
            }
            k = item_end + 1;
        }
        out
    }

    /// The head of the type spanning `[start, end)`: its last path
    /// segment before any generic arguments, read through references
    /// and lifetimes. `None` for tuple, array, slice, function-pointer
    /// and trait-object types.
    fn type_head(&self, start: usize, end: usize) -> Option<String> {
        let mut k = start;
        while k < end
            && (self.is_punct(k, "&")
                || self.is_punct(k, "&&")
                || self.toks[k].kind == TokenKind::Lifetime
                || self.ident(k) == Some("mut"))
        {
            k += 1;
        }
        let mut head = None;
        while k < end {
            let seg = self.ident(k)?;
            if matches!(seg, "dyn" | "impl" | "fn") {
                return None;
            }
            head = Some(seg.to_owned());
            if !self.is_punct(k + 1, "::") {
                break;
            }
            k += 2;
        }
        head
    }

    /// Parse `mod name { ... }` or `mod name;` with `mod` at `i`.
    fn parse_mod(&mut self, i: usize) -> usize {
        let Some((name, j)) = self.ident_maybe_raw(i + 1) else {
            return i + 1;
        };
        if self.is_punct(j, "{") {
            let close = self.matching_brace(j);
            self.module.push(name);
            let saved_ty = self.self_ty.take();
            let saved_trait_impl = std::mem::take(&mut self.in_trait_impl);
            self.items(j + 1, close);
            self.self_ty = saved_ty;
            self.in_trait_impl = saved_trait_impl;
            self.module.pop();
            return close + 1;
        }
        // `mod name;` — external file, nothing to do here.
        (j + 1).min(self.toks.len())
    }

    /// Parse `impl<G> Type { ... }` / `impl Trait for Type { ... }` /
    /// `trait Name { ... }` with the keyword at `i`. Sets the impl-type
    /// context for the items inside.
    fn parse_impl_or_trait(&mut self, i: usize, is_trait: bool) -> usize {
        let mut j = i + 1;
        if self.is_punct(j, "<") {
            j = self.skip_angles(j);
        }
        // Collect path segments up to `{`, `;`, or `where`; the target
        // type is the last segment seen, after `for` when present.
        let mut last_seg: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut seen_for = false;
        while j < self.toks.len() && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
            if let Some(w) = self.ident(j) {
                if w == "where" {
                    // Bounds only from here on.
                    while j < self.toks.len() && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
                        if self.is_punct(j, "<") {
                            j = self.skip_angles(j);
                        } else {
                            j += 1;
                        }
                    }
                    break;
                }
                if w == "for" {
                    seen_for = true;
                    j += 1;
                    continue;
                }
                let (name, next) = self.ident_maybe_raw(j).unwrap_or((w.to_owned(), j + 1));
                if seen_for {
                    after_for = Some(name);
                } else {
                    last_seg = Some(name);
                }
                j = next;
                continue;
            }
            if self.is_punct(j, "<") {
                j = self.skip_angles(j);
            } else {
                j += 1;
            }
        }
        if j >= self.toks.len() || self.is_punct(j, ";") {
            return (j + 1).min(self.toks.len());
        }
        let close = self.matching_brace(j);
        let trait_impl = !is_trait && after_for.is_some();
        let ty = after_for.or(last_seg);
        let saved = self.self_ty.clone();
        let saved_trait_impl = self.in_trait_impl;
        // `trait Name` also provides default method bodies under `Name`.
        self.self_ty = if is_trait { ty.or(saved.clone()) } else { ty };
        self.in_trait_impl = trait_impl;
        self.items(j + 1, close);
        self.self_ty = saved;
        self.in_trait_impl = saved_trait_impl;
        close + 1
    }

    /// Parse a `use` declaration with `use` at `i`, flattening the tree
    /// into [`UseEntry`] leaves. Returns the index past the `;`.
    fn parse_use(&mut self, i: usize) -> usize {
        let mut j = i + 1;
        let mut prefix: Vec<String> = Vec::new();
        let end = self.parse_use_tree(&mut j, &mut prefix);
        // Consume through the terminating `;` if present.
        let mut k = end;
        while k < self.toks.len() && !self.is_punct(k, ";") {
            k += 1;
        }
        (k + 1).min(self.toks.len())
    }

    /// Parse one use-tree node at `*j` with the accumulated `prefix`.
    /// Returns the index just past the node.
    fn parse_use_tree(&mut self, j: &mut usize, prefix: &mut Vec<String>) -> usize {
        let depth_at_entry = prefix.len();
        loop {
            if self.is_punct(*j, "{") {
                // Group: parse comma-separated subtrees.
                let close = self.matching_brace(*j);
                *j += 1;
                while *j < close {
                    let mut sub = prefix.clone();
                    self.parse_use_tree(j, &mut sub);
                    if self.is_punct(*j, ",") {
                        *j += 1;
                    }
                }
                *j = close + 1;
                prefix.truncate(depth_at_entry);
                return *j;
            }
            if self.toks.get(*j).is_some_and(|t| t.is_punct("*")) {
                // Glob: nothing bindable to record.
                *j += 1;
                prefix.truncate(depth_at_entry);
                return *j;
            }
            let Some((seg, next)) = self.ident_maybe_raw(*j) else {
                prefix.truncate(depth_at_entry);
                return *j;
            };
            *j = next;
            prefix.push(seg);
            if self.is_punct(*j, "::") {
                *j += 1;
                continue;
            }
            // `leaf as Alias`: the path is complete, the binding renamed.
            if self.toks.get(*j).and_then(Token::ident) == Some("as") {
                if let Some((alias, next2)) = self.ident_maybe_raw(*j + 1) {
                    *j = next2;
                    self.out.uses.push(UseEntry {
                        alias,
                        path: prefix.clone(),
                    });
                    prefix.truncate(depth_at_entry);
                    return *j;
                }
            }
            // Leaf segment: binds its own name.
            self.out.uses.push(UseEntry {
                alias: prefix.last().cloned().unwrap_or_default(),
                path: prefix.clone(),
            });
            prefix.truncate(depth_at_entry);
            return *j;
        }
    }

    /// Skip an attribute `# [ ... ]` (or `# ! [ ... ]`) starting at the
    /// `#`; returns the index past the `]`.
    fn skip_attr(&self, i: usize) -> usize {
        let mut j = i + 1;
        if self.is_punct(j, "!") {
            j += 1;
        }
        if !self.is_punct(j, "[") {
            return i + 1;
        }
        self.matching(j, "[", "]") + 1
    }

    /// Index of the `}` matching the `{` at `open`.
    fn matching_brace(&self, open: usize) -> usize {
        self.matching(open, "{", "}")
    }

    /// Index of the closer matching the opener at `open`; tolerant of
    /// truncated input (returns the last index).
    fn matching(&self, open: usize, op: &str, cl: &str) -> usize {
        let mut depth = 0usize;
        let mut j = open;
        while j < self.toks.len() {
            if self.toks[j].is_punct(op) {
                depth += 1;
            } else if self.toks[j].is_punct(cl) {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            j += 1;
        }
        self.toks.len().saturating_sub(1)
    }

    /// Count the arguments of a call whose `(` sits at `open`. `None`
    /// when the list contains constructs that make top-level comma
    /// counting unreliable: closures (`|a, b|`), comparisons, or
    /// turbofish (`<`/`>` outside nesting). Under-claiming (`None`)
    /// merely skips the arity pruning — it never drops an edge.
    fn count_args(&self, open: usize) -> Option<usize> {
        let close = self.matching(open, "(", ")");
        if close <= open {
            return None;
        }
        if close == open + 1 {
            return Some(0);
        }
        let mut depth = 0i32;
        let mut count = 1usize;
        for j in open + 1..close {
            let t = &self.toks[j];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth -= 1;
            } else if depth == 0 {
                if t.is_punct("|")
                    || t.is_punct("||")
                    || t.is_punct("<")
                    || t.is_punct(">")
                    || t.is_punct("<<")
                    || t.is_punct(">>")
                {
                    return None;
                }
                // A trailing comma does not open another argument.
                if t.is_punct(",") && j + 1 < close {
                    count += 1;
                }
            }
        }
        Some(count)
    }

    /// Count the parameters of a `fn` whose parameter-list `(` sits at
    /// `open`, excluding any `self` receiver. Unlike call sites, `<`/`>`
    /// here are always generics, so angle depth is tracked rather than
    /// bailed on.
    fn count_params(&self, open: usize) -> Option<usize> {
        let close = self.matching(open, "(", ")");
        if close <= open {
            return None;
        }
        if close == open + 1 {
            return Some(0);
        }
        let mut depth = 0i32;
        let mut angles = 0i32;
        let mut count = 1usize;
        let mut first_comma = close;
        for j in open + 1..close {
            let t = &self.toks[j];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth -= 1;
            } else if t.is_punct("<") {
                angles += 1;
            } else if t.is_punct("<<") {
                angles += 2;
            } else if t.is_punct(">") {
                angles -= 1;
            } else if t.is_punct(">>") {
                angles -= 2;
            } else if t.is_punct(",") && depth == 0 && angles == 0 && j + 1 < close {
                count += 1;
                first_comma = first_comma.min(j);
            }
        }
        // A `self` receiver (`self`, `&self`, `&mut self`, `self: T`)
        // occupies the first slot but is not a parameter.
        let has_self = (open + 1..first_comma).any(|j| self.ident(j) == Some("self"));
        Some(count - usize::from(has_self))
    }

    /// Skip a generic-argument list with `<` at `i`; returns the index
    /// past the matching `>`. `>>`/`<<` count twice (nested generic
    /// closers and `Foo<<T as Trait>::Item>` qualified paths); `->` is a
    /// single distinct token and never miscounts.
    fn skip_angles(&self, i: usize) -> usize {
        let mut depth = 0i32;
        let mut brackets = 0i32;
        let mut j = i;
        while j < self.toks.len() {
            let t = &self.toks[j];
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct("<<") {
                depth += 2;
            } else if t.is_punct(">") {
                depth -= 1;
            } else if t.is_punct(">>") {
                depth -= 2;
            } else if t.is_punct("[") {
                brackets += 1;
            } else if t.is_punct("]") {
                brackets -= 1;
            } else if (t.is_punct(";") && brackets == 0) || t.is_punct("{") {
                // Safety valve: a `;` outside an array type (`[usize; N]`)
                // or any `{` never occurs inside generics in this
                // codebase; bail rather than swallow the file.
                return j;
            }
            j += 1;
            if depth <= 0 {
                return j;
            }
        }
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_regions};

    fn parse_src(src: &str) -> ParsedFile {
        let f = lex(src);
        let regions = test_regions(&f.tokens);
        parse(&f.tokens, &regions)
    }

    fn fn_named<'a>(p: &'a ParsedFile, name: &str) -> &'a FnDef {
        p.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn `{name}` in {:?}", p.fns))
    }

    fn call_names(f: &FnDef) -> Vec<&str> {
        f.calls.iter().map(|c| c.name.as_str()).collect()
    }

    #[test]
    fn free_fn_and_method_are_distinguished() {
        let p = parse_src(
            "fn free() { helper(); }\n\
             struct S;\n\
             impl S { fn method(&self) { self.other(); } }",
        );
        assert_eq!(fn_named(&p, "free").self_ty, None);
        assert_eq!(fn_named(&p, "method").self_ty.as_deref(), Some("S"));
        let m = fn_named(&p, "method");
        assert_eq!(m.calls.len(), 1);
        assert_eq!(m.calls[0].kind, CallKind::Method);
        assert_eq!(m.calls[0].qual.as_deref(), Some("S"));
    }

    #[test]
    fn trait_impl_resolves_to_the_type_after_for() {
        let p = parse_src("impl Ord for TensorSide { fn cmp(&self, o: &Self) -> O { x() } }");
        assert_eq!(fn_named(&p, "cmp").self_ty.as_deref(), Some("TensorSide"));
    }

    #[test]
    fn generic_impl_headers_are_handled() {
        let p = parse_src(
            "impl<T: Clone, const N: usize> Queue<T, N> { fn push(&mut self, t: T) {} }\n\
             impl<'a, T> Iterator for Iter<'a, T> { fn next(&mut self) -> Option<T> { None } }",
        );
        assert_eq!(fn_named(&p, "push").self_ty.as_deref(), Some("Queue"));
        assert_eq!(fn_named(&p, "next").self_ty.as_deref(), Some("Iter"));
    }

    #[test]
    fn nested_modules_accumulate_the_module_path() {
        let p = parse_src("mod a { mod b { fn deep() {} } fn mid() {} } fn top() {}");
        assert_eq!(fn_named(&p, "deep").module, ["a", "b"]);
        assert_eq!(fn_named(&p, "mid").module, ["a"]);
        assert!(fn_named(&p, "top").module.is_empty());
    }

    #[test]
    fn call_kinds_and_qualifiers() {
        let p = parse_src(
            "fn f() {\n\
               bare();\n\
               Engine::run(x);\n\
               std::mem::swap(a, b);\n\
               x.method(1);\n\
               vec.push(2);\n\
             }",
        );
        let f = fn_named(&p, "f");
        let kinds: Vec<(CallKind, Option<&str>, &str)> = f
            .calls
            .iter()
            .map(|c| (c.kind, c.qual.as_deref(), c.name.as_str()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (CallKind::Bare, None, "bare"),
                (CallKind::Path, Some("Engine"), "run"),
                (CallKind::Path, Some("mem"), "swap"),
                (CallKind::Method, None, "method"),
                (CallKind::Method, None, "push"),
            ]
        );
    }

    #[test]
    fn turbofish_calls_are_calls() {
        let p = parse_src("fn f() { parse::<u32>(s); it.collect::<Vec<Vec<u8>>>(); }");
        let f = fn_named(&p, "f");
        assert_eq!(call_names(f), ["parse", "collect"]);
        assert_eq!(f.calls[1].kind, CallKind::Method);
    }

    #[test]
    fn nested_closures_attribute_calls_to_the_enclosing_fn() {
        let p = parse_src(
            "fn f() { items.iter().map(|x| g(x)).filter(|y| inner.iter().any(|z| h(z))); }",
        );
        let f = fn_named(&p, "f");
        for name in ["map", "g", "filter", "any", "h"] {
            assert!(call_names(f).contains(&name), "missing {name}");
        }
    }

    #[test]
    fn nested_fn_gets_its_own_def_and_calls() {
        let p = parse_src("fn outer() { before(); fn inner() { deep(); } after(); }");
        assert_eq!(call_names(fn_named(&p, "outer")), ["before", "after"]);
        assert_eq!(call_names(fn_named(&p, "inner")), ["deep"]);
    }

    #[test]
    fn where_clauses_and_return_types_do_not_confuse_the_body() {
        let p = parse_src(
            "fn f<T>(x: T) -> Vec<Box<dyn Fn() -> T>> where T: Clone + Ord, Vec<T>: Default { body(); }",
        );
        assert_eq!(call_names(fn_named(&p, "f")), ["body"]);
    }

    #[test]
    fn async_unsafe_const_qualifiers_are_recorded() {
        let p = parse_src(
            "async fn a() {}\nunsafe fn u() {}\nconst fn c() {}\npub async unsafe fn au() {}\nfn plain() {}",
        );
        assert!(fn_named(&p, "a").is_async);
        assert!(fn_named(&p, "u").is_unsafe);
        assert!(fn_named(&p, "c").is_const);
        let au = fn_named(&p, "au");
        assert!(au.is_async && au.is_unsafe);
        let plain = fn_named(&p, "plain");
        assert!(!plain.is_async && !plain.is_unsafe && !plain.is_const);
    }

    #[test]
    fn const_items_are_not_const_fns() {
        let p = parse_src("const MAX: usize = 8;\nfn f() {}\n");
        assert!(!fn_named(&p, "f").is_const);
        assert_eq!(p.fns.len(), 1);
    }

    #[test]
    fn raw_identifiers_parse_as_their_body_name() {
        let p = parse_src("fn r#match(r#type: u32) { r#loop(); x.r#await(); }");
        let f = fn_named(&p, "match");
        assert_eq!(call_names(f), ["loop", "await"]);
        assert_eq!(f.calls[1].kind, CallKind::Method);
    }

    #[test]
    fn macro_invocations_are_recorded_and_their_args_still_scanned() {
        let p = parse_src("fn f() { let s = format!(\"{}\", x.compute()); assert!(check(s)); }");
        let f = fn_named(&p, "f");
        assert_eq!(call_names(f), ["format!", "compute", "assert!", "check"]);
    }

    #[test]
    fn macro_rules_definitions_are_skipped_soundly() {
        let p =
            parse_src("macro_rules! m { ($x:expr) => { $x.unwrap() }; }\nfn after() { real(); }");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(call_names(fn_named(&p, "after")), ["real"]);
    }

    #[test]
    fn trait_method_signatures_have_no_body() {
        let p = parse_src("trait T { fn sig(&self) -> u32; fn with_default(&self) { d(); } }");
        assert!(fn_named(&p, "sig").body.is_none());
        let d = fn_named(&p, "with_default");
        assert!(d.body.is_some());
        assert_eq!(d.self_ty.as_deref(), Some("T"));
    }

    #[test]
    fn test_region_flag_is_carried() {
        let p = parse_src("fn lib() {}\n#[cfg(test)]\nmod tests { fn helper() {} }\n");
        assert!(!fn_named(&p, "lib").is_test);
        assert!(fn_named(&p, "helper").is_test);
    }

    #[test]
    fn use_trees_flatten_with_groups_and_renames() {
        let p = parse_src(
            "use std::collections::{BTreeMap, BTreeSet as Set};\nuse dcm_core::cast::usize_to_f64;\nuse a::b::*;",
        );
        let find = |alias: &str| p.uses.iter().find(|u| u.alias == alias);
        assert_eq!(
            find("BTreeMap").unwrap().path,
            ["std", "collections", "BTreeMap"]
        );
        assert_eq!(
            find("Set").unwrap().path,
            ["std", "collections", "BTreeSet"]
        );
        assert_eq!(
            find("usize_to_f64").unwrap().path,
            ["dcm_core", "cast", "usize_to_f64"]
        );
        assert!(find("*").is_none());
    }

    #[test]
    fn array_type_generics_keep_the_impl_self_ty() {
        // The `;` inside `[usize; N]` must not trip the angle-skipping
        // safety valve and orphan the impl's fns as free functions.
        let p = parse_src(
            "impl<const N: usize> From<[usize; N]> for Shape {\n\
                 fn from(d: [usize; N]) -> Self { Shape(d.to_vec()) }\n\
             }",
        );
        assert_eq!(fn_named(&p, "from").self_ty.as_deref(), Some("Shape"));
    }

    #[test]
    fn self_receiver_pins_the_impl_type_other_receivers_do_not() {
        let p = parse_src("impl Engine { fn step(&mut self) { self.admit(); queue.pop(); } }");
        let f = fn_named(&p, "step");
        assert_eq!(f.calls[0].qual.as_deref(), Some("Engine"));
        assert_eq!(f.calls[1].qual, None);
    }

    #[test]
    fn struct_fields_record_their_type_heads() {
        let p = parse_src(
            "pub struct S<'a, T: Clone> {\n\
                 #[allow(dead_code)]\n\
                 pub queue: EventQueue<Complete>,\n\
                 pub(crate) flows: Vec<FlowRec>,\n\
                 topo: &'a mut dcm_net::Topology,\n\
                 item: T,\n\
                 pair: (u32, u32),\n\
                 hook: fn(u32) -> u32,\n\
                 boxed: Box<dyn Fn()>,\n\
             }\n\
             struct Tuple(u32);\n\
             struct Unit;",
        );
        assert_eq!(p.structs.len(), 1, "tuple and unit structs name no fields");
        let s = &p.structs[0];
        assert_eq!(s.name, "S");
        let fields: Vec<(&str, Option<&str>)> = s
            .fields
            .iter()
            .map(|(f, t)| (f.as_str(), t.as_deref()))
            .collect();
        assert_eq!(
            fields,
            [
                ("queue", Some("EventQueue")),
                ("flows", Some("Vec")),
                ("topo", Some("Topology")),
                ("item", None),
                ("pair", None),
                ("hook", None),
                ("boxed", Some("Box")),
            ]
        );
    }

    #[test]
    fn a_field_of_self_is_recorded_as_the_receiver() {
        let p = parse_src(
            "impl Sim { fn step(&mut self) {\n\
                 self.queue.push(1);\n\
                 self.flows[0].children.push(2);\n\
                 other.queue.push(3);\n\
             } }",
        );
        let got: Vec<(Option<&str>, Option<&str>)> = fn_named(&p, "step")
            .calls
            .iter()
            .map(|c| (c.qual.as_deref(), c.field.as_deref()))
            .collect();
        assert_eq!(
            got,
            [(Some("Sim"), Some("queue")), (None, None), (None, None)]
        );
    }

    #[test]
    fn typed_parameters_qualify_their_method_calls() {
        let p = parse_src(
            "impl S { fn f<T: Tr>(&mut self, mut a: &'a mut Alpha<u8>, t: T, i: impl Tr, (p, q): (u8, u8), r: Rebound) {\n\
                 a.go(); t.go(); i.go(); p.go(); x.a.go(); m::a.go();\n\
                 let r = 0; r.go();\n\
             } }",
        );
        let got: Vec<Option<&str>> = fn_named(&p, "f")
            .calls
            .iter()
            .filter(|c| c.name == "go")
            .map(|c| c.qual.as_deref())
            .collect();
        assert_eq!(got, [Some("Alpha"), None, None, None, None, None, None]);
    }

    #[test]
    fn parameters_passed_whole_to_calls_keep_their_pin() {
        // `a` is only a receiver and whole call arguments. `Some(b)` and
        // `let (z, c)` may be patterns, `|d|` and `|x, e, y|` are closure
        // parameters, `Wrap(g)` has an uppercase name and `println!(.., h)`
        // a macro's `(`: each of those drops its pin.
        let p = parse_src(
            "fn f(a: Alpha, b: B, c: C, d: D, e: E, g: G, h: H) {\n\
                 a.go(); take(a); Timeline::new(&a, 1); sink.put(0, &mut a);\n\
                 b.go(); let y = Some(b);\n\
                 c.go(); let (z, c) = pair();\n\
                 d.go(); run(|d| 1);\n\
                 e.go(); run(|x, e, y| 1);\n\
                 g.go(); hold(g.len(), Wrap(g));\n\
                 h.go(); println!(\"{}\", h);\n\
             }",
        );
        let got: Vec<Option<&str>> = fn_named(&p, "f")
            .calls
            .iter()
            .filter(|c| c.name == "go")
            .map(|c| c.qual.as_deref())
            .collect();
        assert_eq!(got, [Some("Alpha"), None, None, None, None, None, None]);
    }

    #[test]
    fn self_paths_name_the_enclosing_impl() {
        let p = parse_src("impl Device { fn a100() -> Self { Self::a100_like(spec()) } }");
        let f = fn_named(&p, "a100");
        assert_eq!(f.calls[0].kind, CallKind::Path);
        assert_eq!(f.calls[0].qual.as_deref(), Some("Device"));
    }

    #[test]
    fn function_paths_named_as_values_are_calls() {
        let p = parse_src(
            "fn f() {\n\
               sims.iter().all(SimState::is_drained);\n\
               rows.resize_with(n, Vec::new);\n\
               xs.map(Self::from_stats);\n\
               let k = Kind::Decode;\n\
               let m = f64::MAX;\n\
             }",
        );
        let got: Vec<(CallKind, Option<&str>, &str, Option<usize>)> = fn_named(&p, "f")
            .calls
            .iter()
            .filter(|c| c.kind == CallKind::Path)
            .map(|c| (c.kind, c.qual.as_deref(), c.name.as_str(), c.arity))
            .collect();
        assert_eq!(
            got,
            [
                (CallKind::Path, Some("SimState"), "is_drained", None),
                (CallKind::Path, Some("Vec"), "new", None),
                (CallKind::Path, None, "from_stats", None),
            ],
            "a variant or a constant is not a function"
        );
    }

    #[test]
    fn visibility_and_trait_impls_are_recorded() {
        let p = parse_src(
            "pub fn open() {}\n\
             pub(crate) fn crate_only() {}\n\
             fn private() {}\n\
             impl Iterator for Walk { fn next(&mut self) -> Option<u32> { None } }\n\
             impl Walk { pub const fn new() -> Self { Walk } }",
        );
        let flags = |n: &str| {
            let f = fn_named(&p, n);
            (f.is_pub, f.in_trait_impl)
        };
        assert_eq!(flags("open"), (true, false));
        assert_eq!(flags("crate_only"), (false, false));
        assert_eq!(flags("private"), (false, false));
        assert_eq!(flags("next"), (false, true));
        assert_eq!(flags("new"), (true, false));
    }

    #[test]
    fn struct_literals_and_keywords_are_not_calls() {
        let p = parse_src(
            "fn f() { let s = S { a: 1 }; if (x) { g(); } match (y) { _ => {} } return (z); }",
        );
        assert_eq!(call_names(fn_named(&p, "f")), ["g"]);
    }

    #[test]
    fn shift_operators_in_bodies_do_not_derail_parsing() {
        let p = parse_src("fn f(x: u64) -> u64 { let y = x << 2 >> 1; g(y); y }");
        assert_eq!(call_names(fn_named(&p, "f")), ["g"]);
    }

    #[test]
    fn qualified_path_generics_in_signatures() {
        let p = parse_src("fn f(x: Foo<<T as Trait>::Item>) { g(); }");
        assert_eq!(call_names(fn_named(&p, "f")), ["g"]);
    }

    #[test]
    fn bodiless_and_truncated_input_do_not_panic() {
        parse_src("fn truncated(");
        parse_src("impl {");
        parse_src("fn f() { unclosed(");
        parse_src("use ;");
        parse_src("mod m {");
    }
}
