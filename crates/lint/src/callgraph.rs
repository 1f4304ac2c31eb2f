//! A name-based intra-workspace call graph.
//!
//! Nodes are crate-qualified function names (`serve:Batcher::submit`,
//! `tensor:gemm_nt`), matching the `crate:Type.field` vocabulary the
//! lock graph uses. Edges come from three call shapes, resolved with
//! decreasing precision:
//!
//! - `Foo::bar(…)` / `Self::bar(…)` — resolved to the nodes whose
//!   qualified name is `Foo::bar` (with `Self` rewritten to the
//!   caller's impl type); unknown qualifiers fall back to a free
//!   function named `bar`.
//! - `bar(…)` — a free call: the caller's own crate's free `bar` wins,
//!   then free `bar`s in dependency crates, then (callback-style
//!   over-approximation) every method named `bar`.
//! - `x.bar(…)` — a method call with an unknowable receiver type,
//!   linked to *every* reachable workspace method named `bar`.
//!
//! Two filters keep the name merging honest. First, an edge from crate
//! A to crate B only exists when A (transitively) depends on B — the
//! store crate cannot call into serve no matter how the names collide.
//! Second, method names dominated by std receivers (`insert`, `len`,
//! `store`, … — see `AMBIENT_METHODS`) never form unqualified edges:
//! a `HashMap::insert` call site says nothing about which workspace
//! `insert` runs, and every such site would otherwise fabricate an
//! edge. Both filters trade a sliver of recall for most of the false
//! positives; the runtime lock-order sanitizer in the `parking_lot`
//! shim covers the residual blind spot.

use crate::ast::FnItem;
use crate::file::FileContext;
use crate::lexer::Tok;
use std::collections::{HashMap, HashSet, VecDeque};

/// Identifiers that look like calls (`if (…)`, `match (…)`) but are
/// control flow, plus declaration keywords that precede `(`.
const NON_CALL_KEYWORDS: [&str; 10] = [
    "if", "while", "match", "for", "loop", "return", "fn", "where", "move", "in",
];

/// Method names dominated by std receivers (containers, atomics, io,
/// guards). An unqualified call to one of these says nothing about
/// which workspace function runs, so it never becomes an edge;
/// qualified calls (`Registry::insert(…)`) still resolve precisely.
const AMBIENT_METHODS: [&str; 31] = [
    // containers and iterators
    "new",
    "default",
    "clone",
    "insert",
    "remove",
    "get",
    "get_mut",
    "take",
    "len",
    "is_empty",
    "push",
    "pop",
    "next",
    "iter",
    "clear",
    "contains",
    "contains_key",
    "entry",
    "extend",
    "retain",
    "drain",
    // sync, atomics, io, formatting
    "drop",
    "store",
    "load",
    "swap",
    "read",
    "write",
    "flush",
    "lock",
    "join",
    "fmt",
];

/// Is `name` too common on std types to mean anything unqualified?
pub fn is_ambient(name: &str) -> bool {
    AMBIENT_METHODS.contains(&name)
}

/// The crate a node string belongs to (`serve:Batcher::submit` →
/// `serve`).
fn node_crate(node: &str) -> &str {
    node.split_once(':').map(|(c, _)| c).unwrap_or("")
}

/// The workspace call graph over crate-qualified function names.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Crate-qualified names of every function in the analysed set.
    pub defined: HashSet<String>,
    /// simple name → every node carrying it.
    by_simple: HashMap<String, Vec<String>>,
    /// `Type::fn` qualified name → every node carrying it.
    by_qual: HashMap<String, Vec<String>>,
    /// caller node → callee nodes.
    pub calls: HashMap<String, HashSet<String>>,
    /// crate → crates it may call into (transitive deps + itself).
    /// Empty ⇒ no dependency information ⇒ every edge is allowed.
    dep_closure: HashMap<String, HashSet<String>>,
}

impl CallGraph {
    /// Build the graph over the functions of all files. `files` pairs
    /// each file's context with its parsed items; `crate_deps` maps
    /// each crate to its *direct* path dependencies (an empty map
    /// disables dependency-direction filtering).
    pub fn build(
        files: &[(&FileContext<'_>, &[FnItem])],
        crate_deps: &HashMap<String, Vec<String>>,
    ) -> CallGraph {
        let mut graph = CallGraph {
            dep_closure: transitive_deps(crate_deps),
            ..CallGraph::default()
        };
        for (ctx, items) in files {
            for item in *items {
                let node = format!("{}:{}", ctx.file.crate_name, item.qual_name());
                graph
                    .by_simple
                    .entry(item.name.clone())
                    .or_default()
                    .push(node.clone());
                graph
                    .by_qual
                    .entry(item.qual_name())
                    .or_default()
                    .push(node.clone());
                graph.defined.insert(node);
            }
        }
        for (ctx, items) in files {
            for item in *items {
                let Some((start, end)) = item.body else {
                    continue;
                };
                let node = format!("{}:{}", ctx.file.crate_name, item.qual_name());
                let callees = graph.callees_in_range(ctx, start, end, item);
                graph.calls.entry(node).or_default().extend(callees);
            }
        }
        graph
    }

    /// May code in `caller_crate` call into `node`'s crate?
    fn can_call(&self, caller_crate: &str, node: &str) -> bool {
        let target = node_crate(node);
        caller_crate == target
            || self
                .dep_closure
                .get(caller_crate)
                .is_none_or(|deps| deps.contains(target))
    }

    /// Resolve an *unqualified* callee name seen from `caller_crate`:
    /// own-crate free function first, then dependency crates' free
    /// functions, then the method-name merge. Ambient names resolve to
    /// nothing.
    pub fn candidates(&self, caller_crate: &str, simple: &str) -> Vec<String> {
        if is_ambient(simple) {
            return Vec::new();
        }
        let frees: Vec<String> = self
            .by_qual
            .get(simple)
            .into_iter()
            .flatten()
            .filter(|n| self.can_call(caller_crate, n))
            .cloned()
            .collect();
        let own = format!("{caller_crate}:{simple}");
        if frees.contains(&own) {
            return vec![own];
        }
        if !frees.is_empty() {
            return frees;
        }
        self.by_simple
            .get(simple)
            .into_iter()
            .flatten()
            .filter(|n| self.can_call(caller_crate, n))
            .cloned()
            .collect()
    }

    /// Calls inside one body range, resolved to graph nodes.
    fn callees_in_range(
        &self,
        ctx: &FileContext<'_>,
        start: usize,
        end: usize,
        caller: &FnItem,
    ) -> HashSet<String> {
        let toks = &ctx.lexed.tokens;
        let caller_crate = ctx.file.crate_name.as_str();
        let mut out = HashSet::new();
        for i in start..end.min(toks.len()) {
            let Tok::Ident(name) = &toks[i].kind else {
                continue;
            };
            if !toks.get(i + 1).is_some_and(|t| t.kind.is_punct(b'(')) {
                continue;
            }
            if NON_CALL_KEYWORDS.contains(&name.as_str()) {
                continue;
            }
            let prev = i.checked_sub(1).map(|j| &toks[j].kind);
            // `fn name(` declares, does not call.
            if prev.and_then(|k| k.ident()) == Some("fn") {
                continue;
            }
            if prev.is_some_and(|k| k.is_punct(b':')) {
                // Qualified call `Foo::bar(` — resolve exactly.
                let qualifier = i
                    .checked_sub(3)
                    .and_then(|j| toks[j].kind.ident())
                    .filter(|_| toks[i - 2].kind.is_punct(b':'));
                let qualifier = match qualifier {
                    Some("Self") => caller.impl_type.as_deref(),
                    q => q,
                };
                let qual_hits: Vec<String> = qualifier
                    .and_then(|q| self.by_qual.get(&format!("{q}::{name}")))
                    .into_iter()
                    .flatten()
                    .filter(|n| self.can_call(caller_crate, n))
                    .cloned()
                    .collect();
                if !qual_hits.is_empty() {
                    out.extend(qual_hits);
                } else if !qualifier
                    .is_some_and(|q| q.chars().next().is_some_and(char::is_uppercase))
                {
                    // `module::free_fn(` — fall back to the free fn.
                    // A type-like qualifier (`File::open`) with no
                    // workspace match is an external call, not a
                    // merge candidate.
                    out.extend(self.candidates(caller_crate, name));
                }
            } else if prev.is_some_and(|k| k.is_punct(b'.')) {
                // Method call with unknown receiver: merge by name,
                // unless the name is ambient std vocabulary.
                if !is_ambient(name) {
                    out.extend(
                        self.by_simple
                            .get(name.as_str())
                            .into_iter()
                            .flatten()
                            .filter(|n| self.can_call(caller_crate, n))
                            .cloned(),
                    );
                }
            } else {
                out.extend(self.candidates(caller_crate, name));
            }
        }
        out
    }

    /// Every node reachable from `from` (inclusive) by following call
    /// edges.
    pub fn reachable(&self, from: &str) -> HashSet<String> {
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        seen.insert(from.to_string());
        queue.push_back(from.to_string());
        while let Some(f) = queue.pop_front() {
            if let Some(callees) = self.calls.get(&f) {
                for c in callees {
                    if seen.insert(c.clone()) {
                        queue.push_back(c.clone());
                    }
                }
            }
        }
        seen
    }

    /// Shortest call path `from → … → to`, as a list of node names
    /// including both endpoints. `None` when unreachable.
    pub fn path(&self, from: &str, to: &str) -> Option<Vec<String>> {
        if from == to {
            return Some(vec![from.to_string()]);
        }
        let mut parent: HashMap<String, String> = HashMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(from.to_string());
        parent.insert(from.to_string(), String::new());
        while let Some(f) = queue.pop_front() {
            if let Some(callees) = self.calls.get(&f) {
                for c in callees {
                    if parent.contains_key(c) {
                        continue;
                    }
                    parent.insert(c.clone(), f.clone());
                    if c == to {
                        let mut path = vec![c.clone()];
                        let mut cur = f;
                        while !cur.is_empty() {
                            path.push(cur.clone());
                            cur = parent.get(&cur).cloned().unwrap_or_default();
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(c.clone());
                }
            }
        }
        None
    }
}

/// Transitive closure of the direct-dependency map, each crate
/// including itself.
fn transitive_deps(direct: &HashMap<String, Vec<String>>) -> HashMap<String, HashSet<String>> {
    let mut out = HashMap::new();
    for name in direct.keys() {
        let mut seen: HashSet<String> = HashSet::new();
        let mut queue = VecDeque::new();
        seen.insert(name.clone());
        queue.push_back(name.clone());
        while let Some(c) = queue.pop_front() {
            for d in direct.get(&c).into_iter().flatten() {
                if seen.insert(d.clone()) {
                    queue.push_back(d.clone());
                }
            }
        }
        out.insert(name.clone(), seen);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_fns;
    use crate::file::{FileClass, SourceFile};

    fn files_of(sources: &[(&str, &str)]) -> Vec<SourceFile> {
        sources
            .iter()
            .map(|(krate, src)| SourceFile {
                path: format!("crates/{krate}/src/lib.rs"),
                crate_name: krate.to_string(),
                class: FileClass::Library,
                text: src.to_string(),
            })
            .collect()
    }

    fn graph_with_deps(sources: &[(&str, &str)], deps: &[(&str, &[&str])]) -> CallGraph {
        let files = files_of(sources);
        let ctxs: Vec<FileContext<'_>> = files.iter().map(FileContext::new).collect();
        let parsed: Vec<Vec<FnItem>> = ctxs.iter().map(|c| parse_fns(&c.lexed)).collect();
        let input: Vec<(&FileContext<'_>, &[FnItem])> = ctxs
            .iter()
            .zip(parsed.iter())
            .map(|(c, p)| (c, p.as_slice()))
            .collect();
        let dep_map: HashMap<String, Vec<String>> = deps
            .iter()
            .map(|(k, v)| (k.to_string(), v.iter().map(|s| s.to_string()).collect()))
            .collect();
        CallGraph::build(&input, &dep_map)
    }

    fn graph_of(src: &str) -> CallGraph {
        graph_with_deps(&[("x", src)], &[])
    }

    #[test]
    fn direct_and_method_calls_are_edges() {
        let g = graph_of(
            "fn a() { b(); }\n\
             impl S { fn b(&self) { self.c(); } fn c(&self) {} }\n",
        );
        assert!(g.calls["x:a"].contains("x:S::b"));
        assert!(g.calls["x:S::b"].contains("x:S::c"));
        assert!(g.reachable("x:a").contains("x:S::c"));
    }

    #[test]
    fn external_and_ambient_calls_are_not_edges() {
        let g = graph_of(
            "fn a(v: &mut Vec<u32>) { v.push(1); m.insert(0, 1); b(); }\n\
             fn b() {}\n\
             impl M { fn insert(&self) {} }",
        );
        assert_eq!(g.calls["x:a"], HashSet::from(["x:b".to_string()]));
    }

    #[test]
    fn qualified_calls_resolve_exactly() {
        let g = graph_of(
            "impl A { fn go(&self) { B::init(); Self::halt(); HashMap::new(); } fn halt() {} }\n\
             impl B { fn init() {} }\n\
             impl C { fn other() {} }",
        );
        assert_eq!(
            g.calls["x:A::go"],
            HashSet::from(["x:B::init".to_string(), "x:A::halt".to_string()])
        );
    }

    #[test]
    fn same_named_free_fns_in_unrelated_crates_do_not_merge() {
        // `serve` and `tensor` both define a private free `dispatch`;
        // tensor does not depend on serve, so tensor's caller must not
        // gain an edge into serve's dispatch.
        let g = graph_with_deps(
            &[
                (
                    "serve",
                    "fn handle() { dispatch(); } fn dispatch() { hot(); } fn hot() {}",
                ),
                ("tensor", "fn gemm() { dispatch(); } fn dispatch() {}"),
            ],
            &[("serve", &["tensor"]), ("tensor", &[])],
        );
        assert_eq!(
            g.calls["tensor:gemm"],
            HashSet::from(["tensor:dispatch".to_string()])
        );
        assert_eq!(
            g.calls["serve:handle"],
            HashSet::from(["serve:dispatch".to_string()])
        );
        assert!(!g.reachable("tensor:gemm").contains("serve:hot"));
    }

    #[test]
    fn dependency_direction_gates_method_merges() {
        // store does not depend on serve: its `.sweep()` call cannot
        // resolve to serve's method.
        let g = graph_with_deps(
            &[
                ("serve", "impl A { fn sweep(&self) {} }"),
                ("store", "impl B { fn go(&self) { self.x.sweep(); } }"),
            ],
            &[("serve", &["store"]), ("store", &[])],
        );
        assert!(g
            .calls
            .get("store:B::go")
            .map(|c| c.is_empty())
            .unwrap_or(true));
        let g2 = graph_with_deps(
            &[
                ("serve", "impl A { fn go(&self) { self.x.sweep(); } }"),
                ("store", "impl B { fn sweep(&self) {} }"),
            ],
            &[("serve", &["store"]), ("store", &[])],
        );
        assert!(g2.calls["serve:A::go"].contains("store:B::sweep"));
    }

    #[test]
    fn control_flow_parens_are_not_calls() {
        let g = graph_of("fn a(x: bool) { if (x) { } match (x) { _ => {} } }");
        assert!(g.calls.get("x:a").map(|c| c.is_empty()).unwrap_or(true));
    }

    #[test]
    fn path_reconstruction() {
        let g = graph_of("fn a() { b(); } fn b() { c(); } fn c() {} fn d() {}");
        assert_eq!(
            g.path("x:a", "x:c"),
            Some(vec![
                "x:a".to_string(),
                "x:b".to_string(),
                "x:c".to_string()
            ])
        );
        assert_eq!(g.path("x:a", "x:d"), None);
    }

    #[test]
    fn recursion_terminates() {
        let g = graph_of("fn a() { a(); b(); } fn b() { a(); }");
        let r = g.reachable("x:a");
        assert!(r.contains("x:a") && r.contains("x:b"));
    }
}
