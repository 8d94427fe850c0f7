//! The rule table and the token-stream rule engine.
//!
//! Every rule has a stable id and fires as a [`Finding`] with `file:line`
//! diagnostics. A finding is fixed, or suppressed by an inline
//! `// dcm-lint: allow(rule-id) reason` pragma on the same line (or alone
//! on the line above) that states the invariant making it safe.
//!
//! A pragma must carry a non-empty reason and name only known rule ids;
//! violations surface as `LINT` findings, which no pragma can suppress.

use crate::callgraph::{CallGraph, Node};
use crate::lexer::{lex, test_regions, LexedFile, Token, TokenKind};
use crate::parser::{self, CallKind, ParsedFile};
use std::collections::BTreeMap;

/// Crates whose results are pinned bit-identically (the five golden
/// serving reports, CSV diffs, paper-figure crossovers). Rules D1 and C1
/// apply only here; P1 treats these as the "library crates".
pub const SIM_CRATES: &[&str] = &[
    "core",
    "vllm",
    "mme",
    "tpc",
    "mem",
    "net",
    "embedding",
    "workloads",
    "compiler",
];

/// Wall-clock and entropy identifiers banned outside test code.
const NONDETERMINISM_SOURCES: &[&str] = &["Instant", "SystemTime", "thread_rng", "from_entropy"];

/// Numeric primitive type names — the target set for rule C1.
const NUMERIC_TYPES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128", "f32",
    "f64",
];

/// One rule's identity and documentation, surfaced in the JSON report.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
}

/// The rule table. `LINT` (meta-diagnostics) is engine-internal and not
/// listed: it cannot be suppressed.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        summary: "no HashMap/HashSet in simulation crates: hash iteration order is \
                  nondeterministic and order-dependent float accumulation breaks bit-identity",
    },
    RuleInfo {
        id: "D2",
        summary: "no wall-clock (Instant::now, SystemTime) or entropy (thread_rng, from_entropy) \
                  outside test code: every workspace binary is a deterministic artifact (host \
                  timing lives in dcmbench/, outside the scan)",
    },
    RuleInfo {
        id: "F1",
        summary: "no partial_cmp on floats: use f64::total_cmp (the EventQueue total-order rule, \
                  generalized)",
    },
    RuleInfo {
        id: "F2",
        summary: "no bare f64 == f64 outside tests/goldens: exact float comparison must be \
                  justified",
    },
    RuleInfo {
        id: "C1",
        summary: "numeric `as` casts in simulation crates must use the dcm_core::cast checked \
                  helpers or justify range safety in a pragma",
    },
    RuleInfo {
        id: "P1",
        summary: "no unwrap()/expect() in library crates outside tests (bench binaries exempt): \
                  return Result or document the invariant",
    },
    RuleInfo {
        id: "D3",
        summary: "call-graph purity: no call path from a sim entry point (ServingEngine::run*, \
                  Cluster::run*, FlowSim methods) may reach wall-clock/entropy sources or \
                  hash-ordered containers — the transitive closure of D1/D2, crossing crate \
                  boundaries the textual rules cannot see",
    },
    RuleInfo {
        id: "U1",
        summary: "unit-suffix consistency: identifiers carrying _s/_bytes/_tokens/_tps/_flops \
                  (and _per_<unit>) suffixes must not mix across +/-/comparison operands in the \
                  same expression",
    },
    RuleInfo {
        id: "A1",
        summary: "no allocation calls (Vec::new/with_capacity, Box::new, push/insert/collect/\
                  to_vec, vec!/format!) in functions reachable from the per-event hot paths of \
                  DESIGN.md §3.6/§3.8: the steady state must be allocation-free, statically",
    },
];

/// `D3` entry points: `(impl type, method-name prefix)`. An empty prefix
/// matches every method of the type.
const SIM_ENTRY_POINTS: &[(&str, &str)] = &[
    ("ServingEngine", "run"),
    ("Cluster", "run"),
    ("FlowSim", ""),
];

/// `A1` roots: the per-event hot-path functions DESIGN.md §3.6/§3.8
/// names in its steady-state allocation contract (`(impl type, method)`;
/// the runtime half is `tests/tests/alloc_steady_state.rs`).
const HOT_PATH_ROOTS: &[(&str, &str)] = &[
    ("EventQueue", "push"),
    ("EventQueue", "pop"),
    ("EventQueue", "pop_due"),
    ("EventQueue", "peek_time"),
    ("SeqSlab", "insert"),
    ("SeqSlab", "remove"),
    ("SeqSlab", "set_remaining"),
    ("SeqSlab", "set_produced"),
    ("SeqSlab", "set_kv_tokens"),
    ("SimState", "batch_insert"),
    ("BatchStats", "add"),
    ("BatchStats", "remove"),
    ("BatchStats", "grow"),
    ("BatchStats", "grow_by"),
    ("BatchGrowth", "insert"),
    ("BatchGrowth", "remove"),
    ("BatchGrowth", "grow_all"),
    ("BatchGrowth", "clear"),
    ("BatchGrowth", "blocks_after"),
    ("BatchGrowth", "after"),
    ("PagedAttention", "decode_cost"),
    ("PagedAttention", "decode_cost_from_stats"),
    ("PagedAttention", "decode_cost_of"),
    ("PagedAttention", "decode_time_of"),
    ("StretchPricer", "step"),
    ("ServingEngine", "exact_steps"),
    ("SimState", "settle_stretch"),
    ("Timeline", "pop"),
    ("GaudiMme", "batched_gemm"),
    ("KvPool", "fits"),
    ("KvPool", "take"),
    ("KvPool", "give"),
    ("KvPool", "append"),
    ("LatencyRecorder", "record"),
];

/// Method names `A1` treats as allocation markers.
const ALLOC_METHODS: &[&str] = &["push", "insert", "collect", "to_vec"];

/// `Type::fn` path calls `A1` treats as allocation markers.
const ALLOC_PATH_CALLS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "with_capacity"),
    ("String", "from"),
];

/// Macro invocations `A1` treats as allocation markers.
const ALLOC_MACROS: &[&str] = &["vec!", "format!", "to_string!"];

/// Is `id` a suppressible rule id?
#[must_use]
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// One diagnostic: rule, location, message, and the offending source line
/// (trimmed).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-indexed line; 0 for file-level diagnostics.
    pub line: u32,
    /// Stable rule id (`D1`, ..., `LINT`).
    pub rule: &'static str,
    pub message: String,
    /// Trimmed source line text, quoted in reports.
    pub excerpt: String,
}

/// How a file is classified for rule applicability, derived purely from
/// its workspace-relative path.
#[derive(Debug, Clone, Copy)]
pub struct FileClass<'a> {
    /// `crates/<name>/...` → `<name>`; the `tests/` crate → `"tests"`.
    pub crate_name: &'a str,
    /// Inside a `tests/` or `benches/` directory, or the workspace-level
    /// `tests` crate: every rule treats this as test code.
    pub is_test_path: bool,
    /// One of [`SIM_CRATES`].
    pub is_sim: bool,
}

impl<'a> FileClass<'a> {
    /// Classify a workspace-relative, `/`-separated path.
    #[must_use]
    pub fn of(rel_path: &'a str) -> Self {
        let mut parts = rel_path.split('/');
        let crate_name = match parts.next() {
            Some("crates") => parts.next().unwrap_or(""),
            Some("tests") => "tests",
            other => other.unwrap_or(""),
        };
        let is_test_path = crate_name == "tests"
            || rel_path
                .split('/')
                .any(|seg| seg == "tests" || seg == "benches");
        FileClass {
            crate_name,
            is_test_path,
            is_sim: SIM_CRATES.contains(&crate_name),
        }
    }
}

/// Cross-file statistics of one workspace analysis; the counts are
/// surfaced in the JSON report (since `schema_version` 2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Non-test functions indexed into the call graph.
    pub functions_indexed: usize,
    /// Resolved caller→callee edges (deduplicated per caller).
    pub call_edges: usize,
    /// `D3` entry points and `A1` roots that name no indexed function,
    /// as `"D3 Type::prefix*"` / `"A1 Type::method"`. Not a finding: a
    /// fixture workspace names few of them, while the real workspace must
    /// name every one, or a rename silently drops coverage.
    pub unmatched_roots: Vec<String>,
}

/// One lexed+parsed file, ready for both token-stream and call-graph
/// analysis.
struct FileData<'a> {
    rel_path: &'a str,
    class: FileClass<'a>,
    lexed: LexedFile,
    in_test: Vec<bool>,
    parsed: ParsedFile,
}

/// Lint a whole workspace's sources (`(rel_path, source)` pairs): the
/// per-file token rules (D1/D2/F1/F2/C1/P1/U1), the pragma hygiene
/// meta-rule, and the workspace-wide call-graph rules (D3/A1). Returns
/// the sorted findings surviving pragma suppression plus call-graph
/// statistics.
#[must_use]
pub fn lint_workspace(files: &[(String, String)]) -> (Vec<Finding>, WorkspaceStats) {
    let data: Vec<FileData<'_>> = files
        .iter()
        .map(|(path, src)| {
            let lexed = lex(src);
            let in_test = test_regions(&lexed.tokens);
            let parsed = parser::parse(&lexed.tokens, &in_test);
            FileData {
                rel_path: path,
                class: FileClass::of(path),
                lexed,
                in_test,
                parsed,
            }
        })
        .collect();

    let mut findings = Vec::new();
    for fd in &data {
        findings.extend(scan_rules(fd.rel_path, &fd.lexed, &fd.in_test, fd.class));
        findings.extend(unit_findings(fd.rel_path, &fd.lexed, &fd.in_test, fd.class));
        findings.extend(pragma_diagnostics(fd.rel_path, &fd.lexed));
    }
    let (graph_findings, stats) = graph_rules(&data);
    findings.extend(graph_findings);

    // Pragma suppression and excerpts are per-file; graph findings are
    // attributed to concrete file:line sites, so the same machinery
    // covers them.
    let by_path: BTreeMap<&str, &FileData<'_>> = data.iter().map(|fd| (fd.rel_path, fd)).collect();
    findings.retain(|f| {
        if f.rule == "LINT" {
            return true;
        }
        let Some(fd) = by_path.get(f.path.as_str()) else {
            return true;
        };
        !fd.lexed.pragmas.iter().any(|p| {
            let covers_line = if p.own_line {
                p.line + 1 == f.line
            } else {
                p.line == f.line
            };
            covers_line && !p.reason.is_empty() && p.rules.iter().any(|r| r == f.rule)
        })
    });
    for f in findings.iter_mut() {
        if f.line >= 1 {
            if let Some(fd) = by_path.get(f.path.as_str()) {
                if let Some(l) = fd.lexed.lines.get(f.line as usize - 1) {
                    f.excerpt = l.trim().to_owned();
                }
            }
        }
    }
    findings.sort();
    (findings, stats)
}

/// Lint one file's source as a single-file workspace. Kept as the unit
/// seam: token rules behave identically, and call-graph rules see only
/// this file's functions.
#[must_use]
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let (findings, _) = lint_workspace(&[(rel_path.to_owned(), src.to_owned())]);
    findings
}

/// Run every pattern rule over the token stream.
fn scan_rules(
    rel_path: &str,
    file: &LexedFile,
    in_test: &[bool],
    class: FileClass<'_>,
) -> Vec<Finding> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    let mut push = |rule: &'static str, line: u32, message: String| {
        out.push(Finding {
            path: rel_path.to_owned(),
            line,
            rule,
            message,
            excerpt: String::new(),
        });
    };

    for (i, t) in toks.iter().enumerate() {
        // Test code is exempt from every pattern rule: the hazards guarded
        // here are about simulation *results*, which tests only consume.
        if class.is_test_path || in_test[i] {
            continue;
        }
        match &t.kind {
            TokenKind::Ident(name) => match name.as_str() {
                "HashMap" | "HashSet" if class.is_sim => push(
                    "D1",
                    t.line,
                    format!(
                        "`{name}` in simulation crate `{}`: hash iteration order is \
                         nondeterministic; use BTreeMap/BTreeSet or an index-ordered scan",
                        class.crate_name
                    ),
                ),
                s if NONDETERMINISM_SOURCES.contains(&s) => push(
                    "D2",
                    t.line,
                    format!(
                        "wall-clock/entropy source `{s}` outside test code: \
                         simulation output must be a pure function of seeded inputs"
                    ),
                ),
                "partial_cmp" if prev_is_dot(toks, i) => push(
                    "F1",
                    t.line,
                    "`partial_cmp` call on floats: use `total_cmp` for a total order \
                     (NaN-safe, deterministic)"
                        .to_owned(),
                ),
                "as" if class.is_sim => {
                    if let Some(ty) = toks.get(i + 1).and_then(Token::ident) {
                        if NUMERIC_TYPES.contains(&ty) {
                            push(
                                "C1",
                                t.line,
                                format!(
                                    "numeric `as {ty}` cast in simulation crate `{}`: float<->int \
                                     casts silently truncate/saturate; use dcm_core::cast helpers \
                                     or justify range safety",
                                    class.crate_name
                                ),
                            );
                        }
                    }
                }
                "unwrap" | "expect"
                    if class.is_sim && prev_is_dot(toks, i) && next_is_open_paren(toks, i) =>
                {
                    push(
                        "P1",
                        t.line,
                        format!(
                            "`.{name}()` in library crate `{}`: return a Result or document the \
                             invariant with a pragma",
                            class.crate_name
                        ),
                    );
                }
                _ => {}
            },
            TokenKind::Punct(op @ ("==" | "!=")) => {
                let lhs_float = i > 0 && toks[i - 1].kind == TokenKind::Float;
                let rhs_float = toks.get(i + 1).is_some_and(|t| t.kind == TokenKind::Float);
                if lhs_float || rhs_float {
                    push(
                        "F2",
                        t.line,
                        format!(
                            "bare float `{op}` comparison: exact float equality outside tests \
                             must be justified (tolerance, sentinel, or bit pattern?)"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
    out
}

fn prev_is_dot(toks: &[Token], i: usize) -> bool {
    i > 0 && toks[i - 1].is_punct(".")
}

fn next_is_open_paren(toks: &[Token], i: usize) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct("("))
}

/// Validate the pragmas themselves: unknown rule ids and missing reasons
/// are `LINT` findings (never suppressible — a bad suppression must not be
/// able to hide itself).
fn pragma_diagnostics(rel_path: &str, file: &LexedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for p in &file.pragmas {
        if p.rules.is_empty() {
            out.push(Finding {
                path: rel_path.to_owned(),
                line: p.line,
                rule: "LINT",
                message: "malformed dcm-lint pragma: expected \
                          `// dcm-lint: allow(rule-id) reason`"
                    .to_owned(),
                excerpt: String::new(),
            });
            continue;
        }
        for r in &p.rules {
            if !is_known_rule(r) {
                out.push(Finding {
                    path: rel_path.to_owned(),
                    line: p.line,
                    rule: "LINT",
                    message: format!("pragma names unknown rule id `{r}`"),
                    excerpt: String::new(),
                });
            }
        }
        if p.reason.is_empty() {
            out.push(Finding {
                path: rel_path.to_owned(),
                line: p.line,
                rule: "LINT",
                message: "suppression pragma without a reason: every allow() must say why"
                    .to_owned(),
                excerpt: String::new(),
            });
        }
    }
    out
}

/// Rule `U1` — unit-suffix consistency. The parse is token-local, no
/// expression grammar: an operand is read off as the identifier (or the
/// final identifier of a `a.b.c` field chain) directly adjacent to a
/// `+`/`-`/comparison operator. Both operands must carry *known* unit
/// suffixes for the rule to fire, and any adjacent `*`/`/` (which
/// legitimately changes units) or call/paren boundary (unknown result
/// unit) silences it — conservative in the direction of false
/// negatives, never spurious noise.
fn unit_findings(
    rel_path: &str,
    file: &LexedFile,
    in_test: &[bool],
    class: FileClass<'_>,
) -> Vec<Finding> {
    if !class.is_sim || class.is_test_path {
        return Vec::new();
    }
    const OPS: &[&str] = &["+", "-", "<", ">", "<=", ">=", "==", "!="];
    let toks = &file.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let Some(op) = OPS.iter().find(|op| t.is_punct(op)) else {
            continue;
        };
        let Some(left) = unit_operand_left(toks, i) else {
            continue;
        };
        let Some(right) = unit_operand_right(toks, i) else {
            continue;
        };
        if left.1 != right.1 {
            out.push(Finding {
                path: rel_path.to_owned(),
                line: t.line,
                rule: "U1",
                message: format!(
                    "unit mismatch across `{op}`: `{}` carries unit `{}` but `{}` carries \
                     `{}` — adding or comparing different units is a semantics bug (convert \
                     explicitly, or pragma with the invariant)",
                    left.0, left.1, right.0, right.1
                ),
                excerpt: String::new(),
            });
        }
    }
    out
}

/// The recognized unit of an identifier's trailing suffix, if any.
/// `_per_<unit>` forms a distinct rate unit so `tokens_per_s` never
/// collides with a plain `_s` duration.
fn unit_of(name: &str) -> Option<String> {
    const UNITS: &[&str] = &["s", "bytes", "tokens", "tps", "flops"];
    let lower = name.to_ascii_lowercase();
    let (stem, last) = lower.rsplit_once('_')?;
    if !UNITS.contains(&last) {
        return None;
    }
    let rate = match stem.rsplit_once('_') {
        Some((_, prev)) => prev == "per",
        None => stem == "per",
    };
    Some(if rate {
        format!("per_{last}")
    } else {
        last.to_owned()
    })
}

/// The left operand's `(name, unit)` when it is an unambiguous
/// unit-suffixed identifier (or field chain ending in one).
fn unit_operand_left(toks: &[Token], op: usize) -> Option<(String, String)> {
    if op == 0 {
        return None;
    }
    let carrier = toks[op - 1].ident()?;
    let unit = unit_of(carrier)?;
    // Walk back over a `recv.field.field` chain to its head.
    let mut k = op - 1;
    while k >= 2 && toks[k - 1].is_punct(".") && toks[k - 2].ident().is_some() {
        k -= 2;
    }
    // A `*`/`/` ahead of the chain changes the unit; a `.` means the
    // chain hangs off a call/index result we cannot see through.
    if k >= 1 {
        let before = &toks[k - 1];
        if before.is_punct("*") || before.is_punct("/") || before.is_punct(".") {
            return None;
        }
    }
    Some((carrier.to_owned(), unit))
}

/// The right operand's `(name, unit)` — mirror of
/// [`unit_operand_left`], additionally skipping a unary minus.
fn unit_operand_right(toks: &[Token], op: usize) -> Option<(String, String)> {
    let mut j = op + 1;
    if toks.get(j).is_some_and(|t| t.is_punct("-")) {
        j += 1;
    }
    toks.get(j)?.ident()?;
    // Follow the field chain to its final segment.
    let mut last = j;
    while toks.get(last + 1).is_some_and(|t| t.is_punct("."))
        && toks.get(last + 2).and_then(Token::ident).is_some()
    {
        last += 2;
    }
    let carrier = toks[last].ident()?;
    let unit = unit_of(carrier)?;
    if let Some(after) = toks.get(last + 1) {
        // A call's result unit is unknown; `*`/`/` transforms the unit.
        if after.is_punct("(") || after.is_punct("*") || after.is_punct("/") {
            return None;
        }
    }
    Some((carrier.to_owned(), unit))
}

/// The workspace-wide call-graph rules `D3` and `A1`.
fn graph_rules(data: &[FileData<'_>]) -> (Vec<Finding>, WorkspaceStats) {
    // Test-path files never contribute nodes: the hazards policed here
    // are about simulation results, which tests only consume.
    let graph_files: Vec<(String, &ParsedFile)> = data
        .iter()
        .filter(|fd| !fd.class.is_test_path)
        .map(|fd| (fd.rel_path.to_owned(), &fd.parsed))
        .collect();
    // Alloc-named method calls on unpinned receivers are std-container
    // calls in practice; they stay visible as A1 call sites but do not
    // become traversal edges (see `CallGraph::build`).
    let graph = CallGraph::build(&graph_files, ALLOC_METHODS);
    let is_entry = |n: &Node, (ty, prefix): &(&str, &str)| {
        n.def.self_ty.as_deref() == Some(*ty) && n.def.name.starts_with(prefix)
    };
    let is_root = |n: &Node, (ty, m): &(&str, &str)| {
        n.def.self_ty.as_deref() == Some(*ty) && n.def.name == *m
    };
    let mut unmatched_roots: Vec<String> = SIM_ENTRY_POINTS
        .iter()
        .filter(|e| !graph.nodes.iter().any(|n| is_entry(n, e)))
        .map(|(ty, prefix)| format!("D3 {ty}::{prefix}*"))
        .collect();
    unmatched_roots.extend(
        HOT_PATH_ROOTS
            .iter()
            .filter(|r| !graph.nodes.iter().any(|n| is_root(n, r)))
            .map(|(ty, m)| format!("A1 {ty}::{m}")),
    );
    let stats = WorkspaceStats {
        functions_indexed: graph.nodes.len(),
        call_edges: graph.edge_count(),
        unmatched_roots,
    };
    let by_path: BTreeMap<&str, &FileData<'_>> = data.iter().map(|fd| (fd.rel_path, fd)).collect();

    let mut out = Vec::new();

    // D3 — purity of everything reachable from the sim entry points.
    let entries = graph.find(|n| SIM_ENTRY_POINTS.iter().any(|e| is_entry(n, e)));
    let reach = graph.reachable_from(&entries);
    for (i, node) in graph.nodes.iter().enumerate() {
        if reach[i].is_none() {
            continue;
        }
        let Some(fd) = by_path.get(node.path.as_str()) else {
            continue;
        };
        let Some((start, end)) = node.def.body else {
            continue;
        };
        for t in &fd.lexed.tokens[start..end] {
            let Some(name) = t.ident() else { continue };
            let hazard = if NONDETERMINISM_SOURCES.contains(&name) {
                "wall-clock/entropy source"
            } else if name == "HashMap" || name == "HashSet" {
                "hash-ordered container"
            } else {
                continue;
            };
            out.push(Finding {
                path: node.path.clone(),
                line: t.line,
                rule: "D3",
                message: format!(
                    "{hazard} `{name}` is reachable from a sim entry point via \
                     `{}`: simulation output must be a pure function of seeded \
                     inputs on every call path",
                    graph.chain(&reach, i)
                ),
                excerpt: String::new(),
            });
        }
    }

    // A1 — allocation calls reachable from the per-event hot paths.
    let roots = graph.find(|n| HOT_PATH_ROOTS.iter().any(|r| is_root(n, r)));
    let hot = graph.reachable_from(&roots);
    for (i, node) in graph.nodes.iter().enumerate() {
        if hot[i].is_none() {
            continue;
        }
        for call in &node.def.calls {
            let marker = match call.kind {
                CallKind::Macro => ALLOC_MACROS.contains(&call.name.as_str()),
                CallKind::Method => ALLOC_METHODS.contains(&call.name.as_str()),
                CallKind::Path => ALLOC_PATH_CALLS
                    .iter()
                    .any(|(q, m)| call.qual.as_deref() == Some(*q) && call.name == *m),
                CallKind::Bare => false,
            };
            if !marker {
                continue;
            }
            let shown = match (call.kind, &call.qual) {
                (CallKind::Path, Some(q)) => format!("{q}::{}", call.name),
                (CallKind::Method, _) => format!(".{}()", call.name),
                _ => call.name.clone(),
            };
            out.push(Finding {
                path: node.path.clone(),
                line: call.line,
                rule: "A1",
                message: format!(
                    "allocation call `{shown}` in a function reachable from the per-event \
                     hot paths via `{}`: the steady state must be allocation-free \
                     (DESIGN.md §3.6/§3.8) — pre-size, reuse, or pragma with the \
                     amortization argument",
                    graph.chain(&hot, i)
                ),
                excerpt: String::new(),
            });
        }
    }

    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM: &str = "crates/vllm/src/engine.rs";
    const BENCH: &str = "crates/bench/src/bin/fig05_gemm_util.rs";
    const NON_SIM: &str = "crates/examples/src/lib.rs";

    fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn d1_fires_only_in_sim_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules_fired(SIM, src), ["D1"]);
        assert!(rules_fired(NON_SIM, src).is_empty());
        assert!(rules_fired("tests/tests/prop_x.rs", src).is_empty());
    }

    #[test]
    fn d2_fires_in_the_bench_crate() {
        // Every bench binary is a deterministic paper artifact; only test
        // code may read the wall clock.
        let src = "let t0 = std::time::Instant::now();\n";
        assert_eq!(rules_fired(SIM, src), ["D2"]);
        assert_eq!(rules_fired(NON_SIM, src), ["D2"]);
        assert_eq!(rules_fired(BENCH, src), ["D2"]);
        assert!(rules_fired("crates/bench/tests/timing.rs", src).is_empty());
    }

    #[test]
    fn f1_fires_on_calls_not_definitions() {
        assert_eq!(
            rules_fired(SIM, "v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n"),
            ["F1", "P1"]
        );
        // Implementing PartialOrd *defines* partial_cmp; that is not a call.
        assert!(rules_fired(
            SIM,
            "fn partial_cmp(&self, other: &Self) -> Option<Ordering> { None }\n"
        )
        .is_empty());
    }

    #[test]
    fn f2_fires_on_float_literal_equality_either_side() {
        assert_eq!(rules_fired(SIM, "if x == 0.0 {}\n"), ["F2"]);
        assert_eq!(rules_fired(SIM, "if 1.5 != y {}\n"), ["F2"]);
        assert!(rules_fired(SIM, "if x <= 0.0 {}\n").is_empty());
        assert!(rules_fired(SIM, "if n == 0 {}\n").is_empty());
    }

    #[test]
    fn c1_fires_on_numeric_casts_in_sim_crates_only() {
        let src = "let x = n as f64;\nlet y = t as usize;\n";
        assert_eq!(rules_fired(SIM, src), ["C1", "C1"]);
        assert!(rules_fired(NON_SIM, src).is_empty());
        // Non-numeric casts are not C1's business.
        assert!(rules_fired(SIM, "let d = e as Box<dyn Error>;\n").is_empty());
    }

    #[test]
    fn p1_fires_in_library_crates_only() {
        let src = "let v = m.get(&k).unwrap();\nlet w = o.expect(\"invariant\");\n";
        assert_eq!(rules_fired(SIM, src), ["P1", "P1"]);
        assert!(rules_fired(BENCH, src).is_empty());
        assert!(rules_fired(NON_SIM, src).is_empty());
        // A function *named* unwrap, or the Result type's docs, don't fire.
        assert!(rules_fired(SIM, "fn unwrap() {}\n").is_empty());
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n use std::collections::HashMap;\n fn t() { x.unwrap(); }\n}\n";
        assert!(rules_fired(SIM, src).is_empty());
    }

    #[test]
    fn same_line_pragma_suppresses() {
        let src = "use std::collections::HashMap; // dcm-lint: allow(D1) keyed lookups only\n";
        assert!(rules_fired(SIM, src).is_empty());
    }

    #[test]
    fn own_line_pragma_covers_next_line() {
        let src =
            "// dcm-lint: allow(F2) exact sentinel: 0.0 disables the feature\nif alpha == 0.0 {}\n";
        assert!(rules_fired(SIM, src).is_empty());
        // ...but not two lines down.
        let src2 = "// dcm-lint: allow(F2) exact sentinel\nlet ok = 1;\nif alpha == 0.0 {}\n";
        assert_eq!(rules_fired(SIM, src2), ["F2"]);
    }

    #[test]
    fn pragma_without_reason_is_a_lint_error_and_does_not_suppress() {
        let src = "use std::collections::HashMap; // dcm-lint: allow(D1)\n";
        let fired = rules_fired(SIM, src);
        assert!(fired.contains(&"LINT"), "{fired:?}");
        assert!(fired.contains(&"D1"), "reasonless pragma must not suppress");
    }

    #[test]
    fn pragma_with_unknown_rule_is_a_lint_error() {
        let src = "let x = 1; // dcm-lint: allow(D9) no such rule\n";
        assert_eq!(rules_fired(SIM, src), ["LINT"]);
    }

    #[test]
    fn pragma_suppresses_only_named_rules() {
        let src = "let x = m.unwrap() as f64; // dcm-lint: allow(P1) checked above\n";
        // C1 still fires: the pragma named only P1.
        assert_eq!(rules_fired(SIM, src), ["C1"]);
    }

    #[test]
    fn findings_are_sorted_and_carry_excerpts() {
        let src = "let b = y as usize;\nlet a = x as f64;\n";
        let f = lint_source(SIM, src);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[0].excerpt, "let b = y as usize;");
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn hazards_inside_strings_do_not_fire() {
        let src =
            "let s = \"HashMap Instant partial_cmp 1.0 == 2.0\";\nlet r = r#\"x.unwrap()\"#;\n";
        assert!(rules_fired(SIM, src).is_empty());
    }
}
