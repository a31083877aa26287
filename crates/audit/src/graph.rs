//! Over-approximate workspace call graph.
//!
//! Call sites are extracted from each function's body token range and
//! resolved by name (plus impl type and arity when available). The
//! resolution is deliberately over-approximate — a `.method(` call with
//! an unknown receiver links to *every* workspace function of that name
//! — with one pressure valve: a "std shadow" list of ubiquitous
//! container/iterator method names that resolve to the standard library
//! (assumed total) unless the call is type- or path-qualified. Without
//! it, every `.push(` in the workspace would link to `BoundedQueue::push`
//! and the reachable set would be the whole workspace.

use crate::lexer::{Tok, Token};
use crate::parser::{matching_close, Func, ParsedFile};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Method names resolved to std (assumed total) when called with
/// `.name(` receiver syntax. Type-qualified calls (`Type::name(`) still
/// resolve precisely. `read`/`write`-like names are deliberately absent
/// so workspace codecs stay linked.
const STD_SHADOW: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_deref",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "borrow",
    "borrow_mut",
    "bytes",
    "capacity",
    "chain",
    "chars",
    "clamp",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "extend_from_slice",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "fold",
    "for_each",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "map",
    "map_err",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "nth",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_else",
    "or_insert",
    "or_insert_with",
    "partition",
    "peek",
    "peekable",
    "pop",
    "position",
    "pow",
    "product",
    "push",
    "push_str",
    "remove",
    "repeat",
    "replace",
    "replacen",
    "resize",
    "retain",
    "rev",
    "rfind",
    "rposition",
    "skip",
    "skip_while",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "splitn",
    "split",
    "split_whitespace",
    "starts_with",
    "step_by",
    "strip_prefix",
    "strip_suffix",
    "sum",
    "take",
    "take_while",
    "to_ascii_lowercase",
    "to_le_bytes",
    "to_be_bytes",
    "to_lowercase",
    "to_owned",
    "to_string",
    "to_uppercase",
    "to_vec",
    "trim",
    "trim_end",
    "trim_start",
    "trim_end_matches",
    "trim_start_matches",
    "truncate",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "windows",
    "zip",
    "rsplitn",
    "ends_with",
    "parse",
    "finish",
    "fmt",
    "from_str",
    "saturating_sub",
    "saturating_add",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "checked_rem",
    "leading_zeros",
    "min_by",
    "rotate_left",
    "rotate_right",
    "swap",
    "swap_remove",
    "reserve",
    "with_capacity",
    "is_ascii_digit",
    "is_ascii_hexdigit",
    "is_ascii_alphanumeric",
    "is_char_boundary",
    "char_indices",
    "chunks",
    "chunks_exact",
    "rchunks",
    "concat",
    "into_inner",
    "take_while",
];

/// Keywords that never start a call even when followed by `(`.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "for", "match", "return", "in", "as", "let", "mut", "ref", "move", "loop",
    "else", "fn", "impl", "where", "pub", "use", "mod", "struct", "enum", "trait", "type",
    "static", "const", "unsafe", "async", "await", "dyn", "box", "break", "continue", "crate",
    "super", "Some", "Ok", "Err", "None",
];

/// A call site found in a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Caller function index.
    pub caller: usize,
    /// Called name.
    pub name: String,
    /// Qualifying path segments before the name (`a::b::name(` → [a,b]);
    /// empty for bare and `.method(` calls.
    pub path: Vec<String>,
    /// `.name(` receiver-method syntax.
    pub is_method: bool,
    /// Argument count at the call (None when unparsable/closure-laden).
    pub nargs: Option<usize>,
    pub line: u32,
    /// Token index of the called name (orders call events for the
    /// guard-held-region analysis).
    pub idx: usize,
}

/// The resolved workspace graph.
pub struct Graph {
    /// All functions, indexed across all files.
    pub funcs: Vec<Func>,
    /// file index of each function (parallel to `funcs`).
    pub file_of: Vec<usize>,
    /// Adjacency: edges[f] = callee function indices (sorted, deduped).
    pub edges: Vec<Vec<usize>>,
    /// Call sites per function (for diagnostics).
    pub calls: Vec<Vec<CallSite>>,
}

fn count_args(tokens: &[Token], open: usize) -> Option<usize> {
    let close = matching_close(tokens, open);
    if close <= open + 1 {
        return Some(0);
    }
    let mut depth = 0usize;
    let mut commas = 0usize;
    for t in &tokens[open + 1..close] {
        match &t.tok {
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => depth = depth.saturating_sub(1),
            Tok::Punct(",") if depth == 0 => commas += 1,
            Tok::Punct("|") => return None, // closure arg: skip arity filter
            _ => {}
        }
    }
    Some(commas + 1)
}

/// Extract call sites from a function body token range.
pub fn extract_calls(
    tokens: &[Token],
    caller: usize,
    body: std::ops::Range<usize>,
) -> Vec<CallSite> {
    let mut out = Vec::new();
    let mut i = body.start;
    while i < body.end.min(tokens.len()) {
        let Tok::Ident(name) = &tokens[i].tok else {
            i += 1;
            continue;
        };
        if NON_CALL_IDENTS.contains(&name.as_str()) {
            i += 1;
            continue;
        }
        // Macro invocation `name!(`/`name![`/`name!{` — not a call edge
        // (panic macros are handled by the panic pass; arguments are
        // scanned for calls naturally by this linear walk).
        if matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct("!"))) {
            i += 2;
            continue;
        }
        // Optional turbofish: name::<...>(
        let mut after = i + 1;
        if matches!(tokens.get(after).map(|t| &t.tok), Some(Tok::Punct("::")))
            && matches!(tokens.get(after + 1).map(|t| &t.tok), Some(Tok::Punct("<")))
        {
            let mut depth = 0i32;
            let mut j = after + 1;
            while let Some(t) = tokens.get(j) {
                match t.tok {
                    Tok::Punct("<") => depth += 1,
                    Tok::Punct(">") => {
                        depth -= 1;
                        if depth <= 0 {
                            break;
                        }
                    }
                    Tok::Punct(">>") => {
                        depth -= 2;
                        if depth <= 0 {
                            break;
                        }
                    }
                    Tok::Punct(";") | Tok::Open('{') => break,
                    _ => {}
                }
                j += 1;
            }
            after = j + 1;
        }
        if !matches!(tokens.get(after).map(|t| &t.tok), Some(Tok::Open('('))) {
            i += 1;
            continue;
        }
        // Walk back the qualification.
        let mut path: Vec<String> = Vec::new();
        let mut is_method = false;
        let mut back = i;
        if matches!(
            tokens.get(i.wrapping_sub(1)).map(|t| &t.tok),
            Some(Tok::Punct("."))
        ) && i >= 1
        {
            is_method = true;
        } else {
            while back >= 2
                && matches!(tokens.get(back - 1).map(|t| &t.tok), Some(Tok::Punct("::")))
            {
                if let Some(Tok::Ident(seg)) = tokens.get(back - 2).map(|t| &t.tok) {
                    path.insert(0, seg.clone());
                    back -= 2;
                } else {
                    break;
                }
            }
        }
        let nargs = count_args(tokens, after);
        out.push(CallSite {
            caller,
            name: name.clone(),
            path,
            is_method,
            nargs,
            line: tokens[i].line,
            idx: i,
        });
        i = after + 1;
    }
    out
}

impl Graph {
    /// Build the graph from parsed files.
    pub fn build(files: &[ParsedFile]) -> Graph {
        let mut funcs: Vec<Func> = Vec::new();
        let mut file_of: Vec<usize> = Vec::new();
        for (fi, pf) in files.iter().enumerate() {
            // The workspace's own verified infrastructure — the sync
            // facade, the model-checker runtime it bridges into, the obs
            // layer, and the auditor itself — is an implicit trust
            // boundary: reachable, but neither scanned nor expanded.
            // Without this, every facade `.lock()` would drag the whole
            // checker runtime into each entry's audited set.
            let infra = crate::rules::facade_allowlisted(&pf.rel);
            for f in &pf.funcs {
                let mut f = f.clone();
                if infra && f.trusted.is_none() {
                    f.trusted = Some("workspace infrastructure layer".to_string());
                }
                funcs.push(f);
                file_of.push(fi);
            }
        }
        // Name index: name → func ids; type-method index: (type, name).
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_type_method: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, f) in funcs.iter().enumerate() {
            if f.in_test {
                continue;
            }
            by_name.entry(f.name.as_str()).or_default().push(id);
            if let Some(t) = &f.impl_type {
                by_type_method
                    .entry((t.as_str(), f.name.as_str()))
                    .or_default()
                    .push(id);
            }
        }
        let crate_names: BTreeSet<&str> = files.iter().map(|pf| pf.crate_name.as_str()).collect();

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); funcs.len()];
        let mut calls: Vec<Vec<CallSite>> = vec![Vec::new(); funcs.len()];
        for (id, f) in funcs.iter().enumerate() {
            if f.in_test || f.body.is_empty() {
                continue;
            }
            let pf = &files[file_of[id]];
            let sites = extract_calls(&pf.tokens, id, f.body.clone());
            for site in &sites {
                let mut candidates: Vec<usize>;
                if site.is_method {
                    if STD_SHADOW.contains(&site.name.as_str()) {
                        continue; // std container/iterator method
                    }
                    candidates = by_name.get(site.name.as_str()).cloned().unwrap_or_default();
                    // Receiver methods must actually take self.
                    candidates.retain(|&c| funcs[c].has_self);
                } else if site.path.is_empty() {
                    // Bare call: use-alias first, then same-crate name.
                    if let Some(full) = pf.uses.get(&site.name) {
                        candidates = resolve_path(
                            full,
                            &site.name,
                            f,
                            &by_name,
                            &by_type_method,
                            &crate_names,
                            &funcs,
                        );
                    } else {
                        candidates = by_name
                            .get(site.name.as_str())
                            .map(|v| {
                                v.iter()
                                    .copied()
                                    .filter(|&c| funcs[c].crate_name == f.crate_name)
                                    .collect()
                            })
                            .unwrap_or_default();
                    }
                } else {
                    // Qualified call a::b::name( or Type::name(.
                    let mut full: Vec<String> = Vec::new();
                    if let Some(first) = site.path.first() {
                        if let Some(expansion) = pf.uses.get(first) {
                            full.extend(expansion.iter().cloned());
                            full.extend(site.path.iter().skip(1).cloned());
                        } else {
                            full.extend(site.path.iter().cloned());
                        }
                    }
                    full.push(site.name.clone());
                    candidates = resolve_path(
                        &full,
                        &site.name,
                        f,
                        &by_name,
                        &by_type_method,
                        &crate_names,
                        &funcs,
                    );
                }
                // Arity filter (skipped for closure-laden calls): keep
                // candidates whose param count matches. For receiver
                // methods a known arity with zero matches means the call
                // is a std trait method that merely shares a workspace
                // name (`stream.write(buf)` vs a 2-arg codec `write`) —
                // link nowhere rather than everywhere. Path-qualified
                // calls keep the conservative keep-all fallback, since
                // their resolution is already precise.
                if let Some(n) = site.nargs {
                    let matching: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&c| funcs[c].params.len() == n)
                        .collect();
                    if !matching.is_empty() || site.is_method {
                        candidates = matching;
                    }
                }
                for c in candidates {
                    if c != id {
                        edges[id].push(c);
                    }
                }
            }
            calls[id] = sites;
        }
        for e in &mut edges {
            e.sort_unstable();
            e.dedup();
        }
        Graph {
            funcs,
            file_of,
            edges,
            calls,
        }
    }

    /// BFS from `no_panic_zone` entry functions; `trusted` functions
    /// terminate the walk (they are reachable but neither scanned nor
    /// expanded). Returns (reachable-and-audited ids, witness parents).
    pub fn reachable(&self) -> (Vec<usize>, BTreeMap<usize, usize>) {
        let entries: Vec<usize> = (0..self.funcs.len())
            .filter(|&i| self.funcs[i].entry && !self.funcs[i].in_test)
            .collect();
        self.reachable_from(entries)
    }

    /// BFS from the given entry set; `trusted` functions terminate the
    /// walk (reachable but neither scanned nor expanded).
    pub fn reachable_from(&self, mut entries: Vec<usize>) -> (Vec<usize>, BTreeMap<usize, usize>) {
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        entries.sort_unstable();
        for e in entries {
            if seen.insert(e) {
                queue.push_back(e);
            }
        }
        while let Some(u) = queue.pop_front() {
            if self.funcs[u].trusted.is_some() {
                continue; // boundary: not expanded
            }
            for &v in &self.edges[u] {
                if self.funcs[v].in_test {
                    continue;
                }
                if seen.insert(v) {
                    parent.insert(v, u);
                    queue.push_back(v);
                }
            }
        }
        let audited: Vec<usize> = seen
            .into_iter()
            .filter(|&i| self.funcs[i].trusted.is_none())
            .collect();
        (audited, parent)
    }

    /// The entry an audited function is reachable from (via parents).
    pub fn witness_entry(&self, parent: &BTreeMap<usize, usize>, mut id: usize) -> usize {
        let mut hops = 0usize;
        while let Some(&p) = parent.get(&id) {
            id = p;
            hops += 1;
            if hops > self.funcs.len() {
                break;
            }
        }
        id
    }
}

/// Resolve a full path (`[mh_hub, protocol, parse_manifest]` or
/// `[Type, method]` or `[self/crate/super.., name]`) to candidates.
fn resolve_path(
    full: &[String],
    name: &str,
    caller: &Func,
    by_name: &BTreeMap<&str, Vec<usize>>,
    by_type_method: &BTreeMap<(&str, &str), Vec<usize>>,
    crate_names: &BTreeSet<&str>,
    funcs: &[Func],
) -> Vec<usize> {
    if full.len() < 2 {
        return by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&c| funcs[c].crate_name == caller.crate_name)
                    .collect()
            })
            .unwrap_or_default();
    }
    let first = full[0].as_str();
    let qualifier = full[full.len() - 2].as_str();
    // `Type::method` or `Self::method` — the segment right before the
    // name, when it looks like a type (capitalized), selects the impl.
    let type_seg = if qualifier == "Self" {
        caller.impl_type.as_deref()
    } else if qualifier.chars().next().is_some_and(|c| c.is_uppercase()) {
        Some(qualifier)
    } else {
        None
    };
    if let Some(t) = type_seg {
        return by_type_method.get(&(t, name)).cloned().unwrap_or_default();
    }
    if first == "std" || first == "core" || first == "alloc" {
        return Vec::new();
    }
    // Crate-qualified: restrict by crate; module segments must be a
    // subsequence-suffix match of the function's module path.
    let in_crate: Option<&str> = if crate_names.contains(first) {
        Some(first)
    } else if first == "crate" || first == "self" || first == "super" {
        Some(caller.crate_name.as_str())
    } else {
        None
    };
    let mods: Vec<&str> = full[..full.len() - 1]
        .iter()
        .map(String::as_str)
        .filter(|s| {
            !crate_names.contains(s)
                && !matches!(*s, "crate" | "self" | "super")
                && !s.chars().next().is_some_and(|c| c.is_uppercase())
        })
        .collect();
    by_name
        .get(name)
        .map(|v| {
            v.iter()
                .copied()
                .filter(|&c| {
                    let f = &funcs[c];
                    if let Some(cr) = in_crate {
                        if f.crate_name != cr {
                            return false;
                        }
                    }
                    mods.iter().all(|m| f.module.iter().any(|fm| fm == m))
                })
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn graph_of(srcs: &[(&str, &str, &str)]) -> Graph {
        // (rel, crate, src)
        let files: Vec<ParsedFile> = srcs
            .iter()
            .map(|(rel, krate, src)| parse(rel, krate, &[], lex(src)))
            .collect();
        Graph::build(&files)
    }

    fn idx(g: &Graph, name: &str) -> usize {
        g.funcs.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn bare_calls_link_within_crate() {
        let g = graph_of(&[("a.rs", "c1", "fn a() { b(); } fn b() {}")]);
        assert_eq!(g.edges[idx(&g, "a")], vec![idx(&g, "b")]);
    }

    #[test]
    fn std_shadow_methods_do_not_link() {
        let g = graph_of(&[(
            "a.rs",
            "c1",
            "struct Q; impl Q { fn push(&self, x: u32) {} }\n\
             fn a(v: &mut Vec<u32>) { v.push(1); }",
        )]);
        assert!(g.edges[idx(&g, "a")].is_empty());
    }

    #[test]
    fn non_shadow_methods_link_by_name() {
        let g = graph_of(&[(
            "a.rs",
            "c1",
            "struct Q; impl Q { fn enqueue(&self, x: u32) {} }\n\
             fn a(q: &Q) { q.enqueue(1); }",
        )]);
        assert_eq!(g.edges[idx(&g, "a")], vec![idx(&g, "enqueue")]);
    }

    #[test]
    fn type_qualified_calls_resolve_precisely() {
        let g = graph_of(&[(
            "a.rs",
            "c1",
            "struct A; struct B;\n\
             impl A { fn go() {} }\n\
             impl B { fn go() {} }\n\
             fn main2() { A::go(); }",
        )]);
        let callees = &g.edges[idx(&g, "main2")];
        assert_eq!(callees.len(), 1);
        assert_eq!(g.funcs[callees[0]].impl_type.as_deref(), Some("A"));
    }

    #[test]
    fn cross_crate_via_use() {
        let g = graph_of(&[
            ("c2/lib.rs", "c2", "pub fn helper(x: u32) {}"),
            ("c1/lib.rs", "c1", "use c2::helper;\nfn a() { helper(3); }"),
        ]);
        assert_eq!(g.edges[idx(&g, "a")], vec![idx(&g, "helper")]);
    }

    #[test]
    fn arity_filter_prunes() {
        let g = graph_of(&[(
            "a.rs",
            "c1",
            "struct A; struct B;\n\
             impl A { fn go(&self, x: u32) {} }\n\
             impl B { fn go(&self, x: u32, y: u32) {} }\n\
             fn f(a: &A) { a.go(1); }",
        )]);
        let callees = &g.edges[idx(&g, "f")];
        assert_eq!(callees.len(), 1);
        assert_eq!(g.funcs[callees[0]].impl_type.as_deref(), Some("A"));
    }

    #[test]
    fn reachability_stops_at_trusted() {
        let marker = crate::lexer::MARKER;
        let src = format!(
            "// {marker} no_panic_zone\nfn entry() {{ mid(); }}\n\
             // {marker} trusted(total)\nfn mid() {{ deep(); }}\nfn deep() {{}}"
        );
        let g = graph_of(&[("a.rs", "c1", &src)]);
        let (audited, _) = g.reachable();
        let names: Vec<&str> = audited.iter().map(|&i| g.funcs[i].name.as_str()).collect();
        assert_eq!(names, vec!["entry"]);
    }

    #[test]
    fn test_code_is_excluded() {
        let marker = crate::lexer::MARKER;
        let src = format!(
            "// {marker} no_panic_zone\nfn entry() {{ helper(); }}\n\
             #[cfg(test)]\nmod tests {{ fn helper() {{ }} }}"
        );
        let g = graph_of(&[("a.rs", "c1", &src)]);
        let (audited, _) = g.reachable();
        assert_eq!(audited.len(), 1);
    }

    #[test]
    fn macro_names_are_not_calls() {
        let g = graph_of(&[(
            "a.rs",
            "c1",
            "fn panic_helper() {} fn a() { println!(\"{}\", 1); }",
        )]);
        assert!(g.edges[idx(&g, "a")].is_empty());
    }
}
