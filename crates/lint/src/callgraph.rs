//! Workspace-wide approximate call graph over [`crate::parser`] output.
//!
//! Resolution is **name + receiver based** and deliberately one-sided:
//! the graph may contain edges the real program never takes, but must
//! not be missing edges the real program has (within the constructs the
//! parser sees). The rules built on it (`D3` reachability of
//! nondeterminism, `A1` allocation in hot paths) are "no path may
//! exist" rules, so over-approximation yields false positives — which a
//! human reviews and pragmas — never silent false negatives. For `R1`
//! (every public function must be reached) the same over-approximation
//! can hide dead code, and live code reads as dead only when one of the
//! unsound cases below makes its call.
//!
//! Resolution policy, in order:
//!
//! * `Qual::name(...)` (path call): every `fn name` in an `impl Qual`
//!   block, anywhere in the workspace; when no type `Qual` is known
//!   (e.g. `Qual` is a module or an std type), every *free* `fn name`
//!   instead (`mod helpers { pub fn f() }` called as `helpers::f()`).
//!   The parser reads `Self::name` as the enclosing impl type, and a
//!   lowercase path named as a value (`map(Qual::name)`) as a call.
//! * `recv.name(...)` (method call): when the receiver is literally
//!   `self`, the enclosing impl type's `name` method if it exists; when
//!   it is a field of `self` whose declared type is a workspace type
//!   with a `name` method (`self.queue.push(..)` with
//!   `queue: EventQueue<_>`), that method; likewise when it is a
//!   parameter the body names only as a receiver or as a whole call
//!   argument (`list.blocks_of(i)` with `list: &BlockList`, beside
//!   `attend(&list)`), since neither can rebind it. Otherwise — and for
//!   every other receiver (a local, a generic or trait-typed parameter,
//!   one the body names in a pattern, a closure's parameters, a macro's
//!   arguments or any other expression) — **every** workspace method
//!   named `name` (the conservative step: receiver types are not
//!   inferred).
//! * `name(...)` (bare call): every free `fn name` in the workspace.
//! * Calls that resolve to nothing are external (std or shims) and
//!   become graph leaves; macro invocations are always leaves.
//!
//! Unsound by design (documented in DESIGN.md §3.7): calls materialized
//! by macro *expansion*, a bare function name or a closure passed as a
//! value and invoked elsewhere, and trait-object dispatch to impls whose
//! method name differs from the call-site name (impossible in Rust) are
//! the only ways a real call escapes the graph. Test code (`tests/`
//! paths and `#[cfg(test)]` regions) is excluded entirely: the hazards
//! policed here are about simulation results, which tests only consume.

use crate::parser::{Call, CallKind, FnDef, ParsedFile};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// One function in the graph: where it lives plus its parsed definition.
#[derive(Debug)]
pub struct Node {
    /// Workspace-relative path of the defining file.
    pub path: String,
    pub def: FnDef,
}

/// `type → method → node indices`, and likewise `struct → field →
/// declared type heads`. `BTreeMap` keeps edge order and diagnostics
/// deterministic.
type Index<T> = BTreeMap<String, BTreeMap<String, Vec<T>>>;

/// The resolved workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<Node>,
    /// Adjacency: `edges[i]` = sorted, deduplicated callee node indices.
    edges: Vec<Vec<usize>>,
    /// Methods by impl type and name.
    typed: Index<usize>,
    /// Declared field types by struct and field. A struct name defined
    /// more than once (in different crates) lists every declaration's
    /// type.
    fields: Index<String>,
}

impl CallGraph {
    /// Build the graph from parsed files (`(path, parsed)` pairs).
    /// Functions in test regions are excluded; callers pass only
    /// non-test-path files.
    ///
    /// `opaque_methods` are method names treated as external when the
    /// receiver cannot be pinned (not `self`, not a known type path):
    /// names like `push`/`insert`/`collect` are overwhelmingly std
    /// container calls, and resolving them to every same-named workspace
    /// method would wire, say, a `Vec::push` on a local into
    /// `EventQueue::push` — an edge the program cannot take. Call *sites*
    /// with these names are still visible to rules (they stay in
    /// `FnDef::calls`); only the traversal edge is dropped.
    #[must_use]
    pub fn build(files: &[(String, &ParsedFile)], opaque_methods: &[&str]) -> Self {
        let mut nodes = Vec::new();
        for (path, parsed) in files {
            for def in &parsed.fns {
                if def.is_test {
                    continue;
                }
                nodes.push(Node {
                    path: path.clone(),
                    def: def.clone(),
                });
            }
        }

        // Name indices. BTreeMap keeps iteration (and therefore edge
        // order and any diagnostics) deterministic.
        fn add<T>(index: &mut Index<T>, outer: &str, inner: &str, v: T) {
            let inner_map = index.entry(outer.to_owned()).or_default();
            inner_map.entry(inner.to_owned()).or_default().push(v);
        }
        let mut graph = CallGraph::default();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            match &n.def.self_ty {
                Some(ty) => {
                    add(&mut graph.typed, ty, &n.def.name, i);
                    methods.entry(&n.def.name).or_default().push(i);
                }
                None => free.entry(&n.def.name).or_default().push(i),
            }
        }
        for s in files.iter().flat_map(|(_, f)| &f.structs) {
            if s.is_test {
                continue;
            }
            for (field, ty) in &s.fields {
                // A field of no nameable type resolves nothing; record it
                // as the empty head, which no impl type matches.
                add(
                    &mut graph.fields,
                    &s.name,
                    field,
                    ty.clone().unwrap_or_default(),
                );
            }
        }

        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
        for n in &nodes {
            let mut out: Vec<usize> = Vec::new();
            for call in &n.def.calls {
                out.extend(graph.resolve(call, opaque_methods, &nodes, &methods, &free));
            }
            out.sort_unstable();
            out.dedup();
            edges.push(out);
        }
        graph.nodes = nodes;
        graph.edges = edges;
        graph
    }

    /// The workspace methods a call on a field of `self` resolves to
    /// through the field's declared type: `self.queue.push(..)` with
    /// `queue: EventQueue<_>` gives `EventQueue::push`. Empty unless the
    /// call's receiver is a field of `self` and every declaration of that
    /// field names a workspace type with the method.
    #[must_use]
    pub fn field_callees(&self, call: &Call) -> Vec<usize> {
        let (Some(owner), Some(field)) = (&call.qual, &call.field) else {
            return Vec::new();
        };
        let Some(types) = self.fields.get(owner).and_then(|f| f.get(field)) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for ty in types {
            match self.typed.get(ty).and_then(|m| m.get(&call.name)) {
                Some(v) => out.extend_from_slice(v),
                None => return Vec::new(),
            }
        }
        out
    }

    /// Resolve one call site to candidate definition indices (see the
    /// module docs for the policy).
    fn resolve(
        &self,
        call: &Call,
        opaque_methods: &[&str],
        nodes: &[Node],
        methods: &BTreeMap<&str, Vec<usize>>,
        free: &BTreeMap<&str, Vec<usize>>,
    ) -> Vec<usize> {
        // Name-only fallback sets are pruned by argument count: a
        // 0-argument `.time()` cannot land on a 3-parameter
        // `FlowTransport::time`. Pruning only applies when both sides
        // counted confidently; pinned (type-matched) resolutions are
        // never pruned — there a mismatch means *our* count is wrong, not
        // the edge.
        let by_arity = |v: Option<&Vec<usize>>| -> Vec<usize> {
            let v = v.cloned().unwrap_or_default();
            let Some(a) = call.arity else { return v };
            v.into_iter()
                .filter(|&i| nodes[i].def.arity.is_none_or(|d| d == a))
                .collect()
        };
        let name = call.name.as_str();
        let typed = |ty: &str| self.typed.get(ty).and_then(|m| m.get(name));
        match call.kind {
            CallKind::Macro => Vec::new(),
            CallKind::Bare => by_arity(free.get(name)),
            CallKind::Path => match &call.qual {
                Some(q) => {
                    if let Some(v) = typed(q) {
                        v.clone()
                    } else if self.typed.contains_key(q) {
                        // `Qual` is a known type but has no such method in
                        // the workspace (inherent std impl, derive, etc.):
                        // external.
                        Vec::new()
                    } else {
                        // `Qual` is a module (or an external type): try
                        // free functions by name.
                        by_arity(free.get(name))
                    }
                }
                None => by_arity(free.get(name)),
            },
            CallKind::Method => {
                // `self.name()`: the enclosing impl's method wins when it
                // exists; `param.name()`: the method of the parameter's
                // workspace type; `self.field.name()`: the method of the
                // field's workspace type. Otherwise fall through to the
                // conservative set (the method may come from a trait
                // impl'd elsewhere) — except for the opaque std-container
                // names.
                let pinned = match (&call.qual, &call.field) {
                    (Some(ty), None) => typed(ty).cloned().unwrap_or_default(),
                    _ => self.field_callees(call),
                };
                if !pinned.is_empty() {
                    pinned
                } else if opaque_methods.contains(&name) {
                    Vec::new()
                } else {
                    by_arity(methods.get(name))
                }
            }
        }
    }

    /// Total number of resolved call edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Node indices whose display name (`Type::name` / `name`) satisfies
    /// `pred`.
    pub fn find<F: Fn(&Node) -> bool>(&self, pred: F) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| pred(&self.nodes[i]))
            .collect()
    }

    /// BFS from `roots`; returns, for every node, `Some(parent)` when
    /// reachable (roots point to themselves). Deterministic: roots are
    /// visited in sorted order and adjacency lists are sorted.
    #[must_use]
    pub fn reachable_from(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut sorted_roots: Vec<usize> = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in &sorted_roots {
            if parent[r].is_none() {
                parent[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &j in &self.edges[i] {
                if parent[j].is_none() {
                    parent[j] = Some(i);
                    queue.push_back(j);
                }
            }
        }
        parent
    }

    /// The call chain `root → ... → node` implied by a parent map, as
    /// display names. Truncated in the middle past 6 hops.
    #[must_use]
    pub fn chain(&self, parent: &[Option<usize>], node: usize) -> String {
        let mut rev = vec![node];
        let mut cur = node;
        while let Some(p) = parent[cur] {
            if p == cur {
                break;
            }
            rev.push(p);
            cur = p;
        }
        rev.reverse();
        let names: Vec<String> = rev.iter().map(|&i| self.nodes[i].def.display()).collect();
        if names.len() > 6 {
            let head = &names[..3];
            let tail = &names[names.len() - 2..];
            format!("{} → … → {}", head.join(" → "), tail.join(" → "))
        } else {
            names.join(" → ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_regions};
    use crate::parser::parse;

    fn graph(srcs: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<(String, ParsedFile)> = srcs
            .iter()
            .map(|(p, s)| {
                let f = lex(s);
                let r = test_regions(&f.tokens);
                ((*p).to_owned(), parse(&f.tokens, &r))
            })
            .collect();
        let refs: Vec<(String, &ParsedFile)> = parsed.iter().map(|(p, f)| (p.clone(), f)).collect();
        CallGraph::build(&refs, &[])
    }

    fn idx(g: &CallGraph, display: &str) -> usize {
        g.find(|n| n.def.display() == display)
            .first()
            .copied()
            .unwrap_or_else(|| panic!("no node {display}"))
    }

    #[test]
    fn bare_calls_resolve_to_free_fns_across_files() {
        let g = graph(&[
            ("a.rs", "fn caller() { helper(); }"),
            ("b.rs", "pub fn helper() { leaf(); } fn leaf() {}"),
        ]);
        let reach = g.reachable_from(&[idx(&g, "caller")]);
        assert!(reach[idx(&g, "helper")].is_some());
        assert!(reach[idx(&g, "leaf")].is_some());
    }

    #[test]
    fn self_method_calls_prefer_the_impl_type() {
        let g = graph(&[(
            "a.rs",
            "impl A { fn go(&self) { self.step(); } fn step(&self) {} }\n\
             impl B { fn step(&self) { bad(); } }\n\
             fn bad() {}",
        )]);
        let reach = g.reachable_from(&[idx(&g, "A::go")]);
        assert!(reach[idx(&g, "A::step")].is_some());
        assert!(
            reach[idx(&g, "B::step")].is_none(),
            "self.step() must pin to the impl type"
        );
    }

    #[test]
    fn unknown_receiver_methods_resolve_conservatively_to_all() {
        let g = graph(&[(
            "a.rs",
            "fn caller(x: Thing) { x.step(); }\n\
             impl A { fn step(&self) {} }\n\
             impl B { fn step(&self) {} }",
        )]);
        let reach = g.reachable_from(&[idx(&g, "caller")]);
        assert!(reach[idx(&g, "A::step")].is_some());
        assert!(reach[idx(&g, "B::step")].is_some());
    }

    /// `Sim`'s fields, and two workspace types with a `push` method.
    const FIELDS: &str = "struct Sim { queue: EventQueue<u32>, items: Vec<u32>, topo: Topology }\n\
                          impl EventQueue { fn push(&mut self, t: u32) {} }\n\
                          impl Stack { fn push(&mut self, t: u32) {} }\n\
                          impl Topology { fn links(&self) {} }";

    #[test]
    fn a_field_of_a_workspace_type_pins_the_call_to_its_method() {
        let src = format!("{FIELDS}\nimpl Sim {{ fn step(&mut self) {{ self.queue.push(1); }} }}");
        let g = graph(&[("a.rs", &src)]);
        let reach = g.reachable_from(&[idx(&g, "Sim::step")]);
        assert!(reach[idx(&g, "EventQueue::push")].is_some());
        assert!(
            reach[idx(&g, "Stack::push")].is_none(),
            "the field's declared type pins the call"
        );
    }

    #[test]
    fn a_field_of_a_std_type_resolves_conservatively() {
        let src = format!("{FIELDS}\nimpl Sim {{ fn step(&mut self) {{ self.items.push(1); }} }}");
        let g = graph(&[("a.rs", &src)]);
        let reach = g.reachable_from(&[idx(&g, "Sim::step")]);
        assert!(reach[idx(&g, "EventQueue::push")].is_some());
        assert!(reach[idx(&g, "Stack::push")].is_some());
    }

    #[test]
    fn a_workspace_field_type_without_the_method_resolves_conservatively() {
        // `Topology` has no `push`: a trait or deref may supply it.
        let src = format!("{FIELDS}\nimpl Sim {{ fn step(&mut self) {{ self.topo.push(1); }} }}");
        let g = graph(&[("a.rs", &src)]);
        let reach = g.reachable_from(&[idx(&g, "Sim::step")]);
        assert!(reach[idx(&g, "EventQueue::push")].is_some());
        assert!(reach[idx(&g, "Stack::push")].is_some());
    }

    #[test]
    fn a_typed_parameter_pins_the_call_to_its_types_method() {
        // `list` in `attend` names a `BlockList`, so its `blocks_of` is
        // that type's alone. A generic parameter, and one the body
        // rebinds, resolve by name to both.
        let g = graph(&[(
            "a.rs",
            "impl BlockList { fn blocks_of(&self, i: usize) {} }\n\
             impl PagedKvCache { fn blocks_of(&self, id: u64) {} }\n\
             fn attend(query: &Tensor, list: &BlockList) { list.blocks_of(0); }\n\
             fn generic<L: Blocks>(list: &L) { list.blocks_of(0); }\n\
             fn rebound(list: &BlockList) { let list = PagedKvCache; list.blocks_of(0); }",
        )]);
        let from = |root: &str| g.reachable_from(&[idx(&g, root)]);
        let (list, cache) = (
            idx(&g, "BlockList::blocks_of"),
            idx(&g, "PagedKvCache::blocks_of"),
        );
        let attend = from("attend");
        assert!(attend[list].is_some());
        assert!(attend[cache].is_none(), "the declared type pins the call");
        for root in ["generic", "rebound"] {
            let reach = from(root);
            assert!(reach[list].is_some() && reach[cache].is_some(), "{root}");
        }
    }

    #[test]
    fn a_parameter_passed_on_whole_keeps_its_pin() {
        // `serve` also hands `plan` to `Timeline::new`, which rebinds
        // nothing: `plan.validate(1)` is `FaultPlan::validate` alone. In
        // `wrapped`, `Some(plan)` could be a pattern, so it resolves by
        // name to both.
        let g = graph(&[(
            "a.rs",
            "impl FaultPlan { fn validate(&self, n: usize) {} }\n\
             impl LookupBatch { fn validate(&self, n: usize) {} }\n\
             impl Timeline { fn new(plan: &FaultPlan) {} }\n\
             fn serve(plan: &FaultPlan) { plan.validate(1); Timeline::new(plan); }\n\
             fn wrapped(plan: &FaultPlan) { plan.validate(1); let p = Some(plan); }",
        )]);
        let (plan, batch) = (
            idx(&g, "FaultPlan::validate"),
            idx(&g, "LookupBatch::validate"),
        );
        let serve = g.reachable_from(&[idx(&g, "serve")]);
        assert!(serve[plan].is_some() && serve[idx(&g, "Timeline::new")].is_some());
        assert!(serve[batch].is_none(), "the declared type pins the call");
        let wrapped = g.reachable_from(&[idx(&g, "wrapped")]);
        assert!(wrapped[plan].is_some() && wrapped[batch].is_some());
    }

    #[test]
    fn path_calls_resolve_typed_first_then_free() {
        let g = graph(&[(
            "a.rs",
            "fn caller() { Engine::run(); helpers::tick(); }\n\
             impl Engine { fn run() {} }\n\
             mod helpers { pub fn tick() {} }",
        )]);
        let reach = g.reachable_from(&[idx(&g, "caller")]);
        assert!(reach[idx(&g, "Engine::run")].is_some());
        assert!(reach[idx(&g, "tick")].is_some());
    }

    #[test]
    fn self_paths_resolve_to_the_enclosing_impl() {
        // `Self::a100_like` must land on `Device::a100_like`, not on a
        // free fn that happens to share the name.
        let g = graph(&[(
            "a.rs",
            "impl Device { fn a100() { Self::a100_like(); } fn a100_like() {} }\n\
             fn a100_like() {}",
        )]);
        let reach = g.reachable_from(&[idx(&g, "Device::a100")]);
        assert!(reach[idx(&g, "Device::a100_like")].is_some());
        assert!(reach[idx(&g, "a100_like")].is_none());
    }

    #[test]
    fn function_paths_passed_as_values_are_edges() {
        let g = graph(&[(
            "a.rs",
            "impl Cluster { fn drained(&self) { self.sims.iter().all(SimState::is_drained); } }\n\
             impl SimState { fn is_drained(&self) -> bool { true } }",
        )]);
        let reach = g.reachable_from(&[idx(&g, "Cluster::drained")]);
        assert!(reach[idx(&g, "SimState::is_drained")].is_some());
    }

    #[test]
    fn known_type_without_the_method_is_external_not_free() {
        // `Engine::new` with no workspace `impl Engine { fn new }` but a
        // free fn `new` elsewhere: Engine is a known type, so the call
        // must NOT leak to the unrelated free fn.
        let g = graph(&[(
            "a.rs",
            "fn caller() { Engine::new(); }\n\
             impl Engine { fn run() {} }\n\
             fn new() { hazard(); }\n\
             fn hazard() {}",
        )]);
        let reach = g.reachable_from(&[idx(&g, "caller")]);
        assert!(reach[idx(&g, "hazard")].is_none());
    }

    #[test]
    fn test_functions_are_excluded_from_the_graph() {
        let g = graph(&[(
            "a.rs",
            "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { lib(); } }",
        )]);
        assert_eq!(g.nodes.len(), 1);
    }

    #[test]
    fn chains_render_root_to_node() {
        let g = graph(&[(
            "a.rs",
            "impl E { fn run(&self) { a(); } }\nfn a() { b(); }\nfn b() {}",
        )]);
        let reach = g.reachable_from(&[idx(&g, "E::run")]);
        assert_eq!(g.chain(&reach, idx(&g, "b")), "E::run → a → b");
    }

    #[test]
    fn unreachable_nodes_stay_unreachable() {
        let g = graph(&[("a.rs", "fn island() { own(); } fn own() {} fn root() {}")]);
        let reach = g.reachable_from(&[idx(&g, "root")]);
        assert!(reach[idx(&g, "island")].is_none());
        assert!(reach[idx(&g, "own")].is_none());
    }
}
