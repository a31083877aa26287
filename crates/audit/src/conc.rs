//! Pass R — static concurrency analysis.
//!
//! Two layers on top of [`crate::effects`] blocking-effect inference:
//!
//! * **Guard-held regions** — tracks `let g = m.lock()` bindings through
//!   their lexical scope (early `drop(g)` aware; a region dies when its
//!   enclosing block closes). Guards are only *created* when the acquire
//!   is the whole initializer (`let g = m.lock();`); a chained
//!   `m.lock().len()` is a statement-temporary and holds nothing here.
//!   While a guard is live, every call made and every direct blocking
//!   seed is recorded: guard-held blocking I/O is R004, guard-held
//!   pool-wait (worker-exhaustion deadlock) is R005.
//! * **Lock-order graph** (R003) — lock identities are static classes
//!   derived from the acquire's receiver chain (`self.state.lock()` in
//!   an `impl BoundedQueue` → `mh_par::BoundedQueue.state`; local
//!   receivers key on the crate + variable name). Every acquisition
//!   made while another guard is held — directly or transitively through
//!   calls — adds an order edge; a strongly-connected component of two
//!   or more classes is a potential ABBA deadlock.
//!
//! Known false-negative shapes (documented in DESIGN.md): calls through
//! closures carry no edges, same-class distinct-instance ordering is not
//! modeled (self-edges are dropped), and `trusted` boundaries are
//! assumed nonblocking.

use crate::effects::{self, Effects};
use crate::graph::Graph;
use crate::lexer::{Tok, Token};
use crate::parser::{matching_close, Func, ParsedFile};
use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// A live guard binding during the region walk.
struct Guard {
    name: String,
    class: String,
    brace_depth: usize,
}

/// Order-graph edge witnesses: (from, to) → (file index, line, note).
type EdgeMap = BTreeMap<(String, String), (usize, u32, String)>;

/// Walk back from the receiver of `.lock()`/`.read()`/`.write()` (the
/// ident at `name_idx`, preceded by `.`) and derive a static lock class.
fn receiver_class(tokens: &[Token], name_idx: usize, f: &Func) -> Option<String> {
    if name_idx < 2 || !matches!(tokens[name_idx - 1].tok, Tok::Punct(".")) {
        return None;
    }
    let mut segments: Vec<String> = Vec::new();
    let mut j = name_idx - 2;
    loop {
        match &tokens[j].tok {
            Tok::Ident(s) => segments.push(s.clone()),
            Tok::Close(')') => {
                // Receiver is a call result: scan back to the matching
                // open paren and use `callee()` as the segment.
                let mut depth = 0usize;
                let mut k = j;
                loop {
                    match tokens[k].tok {
                        Tok::Close(_) => depth += 1,
                        Tok::Open(_) => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                }
                if k == 0 {
                    break;
                }
                match &tokens[k - 1].tok {
                    Tok::Ident(callee) => {
                        segments.push(format!("{callee}()"));
                        j = k - 1;
                    }
                    _ => break,
                }
            }
            _ => break,
        }
        if j >= 2 && matches!(tokens[j - 1].tok, Tok::Punct(".")) {
            j -= 2;
        } else {
            break;
        }
    }
    if segments.is_empty() {
        return None;
    }
    segments.reverse();
    let class = if segments[0] == "self" {
        let owner = f.impl_type.as_deref().unwrap_or(&f.name);
        if segments.len() == 1 {
            format!("{}::{owner}", f.crate_name)
        } else {
            format!("{}::{owner}.{}", f.crate_name, segments[1..].join("."))
        }
    } else {
        format!("{}::{}", f.crate_name, segments.join("."))
    };
    Some(class)
}

/// Lock classes a function acquires directly (method-syntax acquires).
fn direct_acquires(
    graph: &Graph,
    files: &[ParsedFile],
    eff: &Effects,
    id: usize,
) -> BTreeSet<String> {
    let f = &graph.funcs[id];
    let tokens = &files[graph.file_of[id]].tokens;
    eff.seeds[id]
        .iter()
        .filter(|s| s.kind == effects::LOCK)
        .filter_map(|s| receiver_class(tokens, s.idx, f))
        .collect()
}

/// Per-function region walk: emits R004/R005 findings and order edges.
#[allow(clippy::too_many_arguments)]
fn analyze_regions(
    graph: &Graph,
    files: &[ParsedFile],
    eff: &Effects,
    acq: &[BTreeSet<String>],
    id: usize,
    edges_out: &mut EdgeMap,
    findings: &mut BTreeMap<usize, Vec<Finding>>,
) {
    let f = &graph.funcs[id];
    let fi = graph.file_of[id];
    let tokens = &files[fi].tokens;
    let body = f.body.clone();
    let seed_at: BTreeMap<usize, &effects::Seed> =
        eff.seeds[id].iter().map(|s| (s.idx, s)).collect();
    let site_at: BTreeMap<usize, &crate::graph::CallSite> =
        graph.calls[id].iter().map(|s| (s.idx, s)).collect();

    let mut guards: Vec<Guard> = Vec::new();
    let mut brace_depth = 0usize;
    let mut delim_depth = 0usize;
    // (binding name, delim depth of its statement), cleared at `;`.
    let mut pending_let: Option<(String, usize)> = None;

    let mut add_edge = |from: &str, to: &str, line: u32, note: String| {
        if from != to {
            edges_out
                .entry((from.to_string(), to.to_string()))
                .or_insert((fi, line, note));
        }
    };

    let end = body.end.min(tokens.len());
    let mut i = body.start;
    while i < end {
        match &tokens[i].tok {
            Tok::Open(c) => {
                delim_depth += 1;
                if *c == '{' {
                    brace_depth += 1;
                }
            }
            Tok::Close(c) => {
                if *c == '}' {
                    guards.retain(|g| g.brace_depth < brace_depth);
                    brace_depth = brace_depth.saturating_sub(1);
                }
                delim_depth = delim_depth.saturating_sub(1);
            }
            Tok::Punct(";") => {
                if let Some((_, d)) = &pending_let {
                    if delim_depth <= *d {
                        pending_let = None;
                    }
                }
            }
            Tok::Ident(kw) if kw == "let" => {
                let mut k = i + 1;
                while matches!(tokens.get(k).map(|t| &t.tok), Some(Tok::Ident(s)) if s == "mut") {
                    k += 1;
                }
                if let Some(Tok::Ident(nm)) = tokens.get(k).map(|t| &t.tok) {
                    // Only a simple `let name =`/`let name:` binding —
                    // `let Some(g) =` patterns are not guard bindings.
                    if matches!(
                        tokens.get(k + 1).map(|t| &t.tok),
                        Some(Tok::Punct("=")) | Some(Tok::Punct(":"))
                    ) {
                        pending_let = Some((nm.clone(), delim_depth));
                    }
                }
            }
            Tok::Ident(kw)
                if kw == "drop"
                    && matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Open('(')))
                    && matches!(tokens.get(i + 3).map(|t| &t.tok), Some(Tok::Close(')'))) =>
            {
                if let Some(Tok::Ident(nm)) = tokens.get(i + 2).map(|t| &t.tok) {
                    guards.retain(|g| g.name != *nm);
                }
            }
            _ => {}
        }

        if let Some(site) = site_at.get(&i) {
            let line = tokens[i].line;
            if let Some(seed) = seed_at.get(&i) {
                match seed.kind {
                    effects::LOCK => {
                        if let Some(class) = receiver_class(tokens, i, f) {
                            for g in &guards {
                                add_edge(&g.class, &class, line, format!("in `{}`", f.qualified()));
                            }
                            // Bind a guard only when the acquire is the
                            // whole initializer: `let g = m.lock();`.
                            let close = matching_close(tokens, i + 1);
                            let ends_stmt = matches!(
                                tokens.get(close + 1).map(|t| &t.tok),
                                Some(Tok::Punct(";"))
                            );
                            if ends_stmt {
                                if let Some((nm, _)) = pending_let.take() {
                                    guards.retain(|g| g.name != nm);
                                    guards.push(Guard {
                                        name: nm,
                                        class,
                                        brace_depth,
                                    });
                                }
                            }
                        }
                    }
                    effects::IO => {
                        for g in &guards {
                            findings.entry(fi).or_default().push(Finding::new(
                                line,
                                "R004",
                                format!(
                                    "blocking I/O ({}) while `{}` guard is held in `{}`",
                                    seed.what,
                                    g.class,
                                    f.qualified()
                                ),
                            ));
                        }
                    }
                    effects::POOL => {
                        for g in &guards {
                            findings.entry(fi).or_default().push(Finding::new(
                                line,
                                "R005",
                                format!(
                                    "pool/thread wait ({}) while `{}` guard is held in `{}` \
                                     (worker-exhaustion deadlock risk)",
                                    seed.what,
                                    g.class,
                                    f.qualified()
                                ),
                            ));
                        }
                    }
                    // Condvar waits release the guard while parked —
                    // the canonical pattern, not a finding.
                    _ => {}
                }
            } else if !guards.is_empty() {
                // Plain call while a guard is held: recover this site's
                // candidates from the deduped edge set by name.
                let mut agg = 0u8;
                let mut acq_union: BTreeSet<&str> = BTreeSet::new();
                for &c in &graph.edges[id] {
                    if graph.funcs[c].name == site.name {
                        agg |= eff.may_block[c];
                        acq_union.extend(acq[c].iter().map(String::as_str));
                    }
                }
                for g in &guards {
                    for b in &acq_union {
                        add_edge(
                            &g.class,
                            b,
                            line,
                            format!("via call to `{}` in `{}`", site.name, f.qualified()),
                        );
                    }
                    if agg & effects::IO != 0 {
                        findings.entry(fi).or_default().push(Finding::new(
                            line,
                            "R004",
                            format!(
                                "call to `{}` (may do blocking I/O) while `{}` guard is held in `{}`",
                                site.name,
                                g.class,
                                f.qualified()
                            ),
                        ));
                    }
                    if agg & effects::POOL != 0 {
                        findings.entry(fi).or_default().push(Finding::new(
                            line,
                            "R005",
                            format!(
                                "call to `{}` (may wait on the pool) while `{}` guard is held in `{}` \
                                 (worker-exhaustion deadlock risk)",
                                site.name,
                                g.class,
                                f.qualified()
                            ),
                        ));
                    }
                }
            }
        }
        i += 1;
    }
}

/// Kosaraju SCC over the order graph; components of ≥2 classes cycle.
fn lock_order_cycles(edges: &EdgeMap) -> Vec<Vec<String>> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut radj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        nodes.insert(from);
        nodes.insert(to);
        adj.entry(from).or_default().push(to);
        radj.entry(to).or_default().push(from);
    }
    // First pass: DFS finish order.
    let mut order: Vec<&str> = Vec::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for &n in &nodes {
        if seen.contains(n) {
            continue;
        }
        // Iterative DFS with an explicit done-marker stack.
        let mut stack: Vec<(&str, bool)> = vec![(n, false)];
        while let Some((u, done)) = stack.pop() {
            if done {
                order.push(u);
                continue;
            }
            if !seen.insert(u) {
                continue;
            }
            stack.push((u, true));
            if let Some(vs) = adj.get(u) {
                for &v in vs {
                    if !seen.contains(v) {
                        stack.push((v, false));
                    }
                }
            }
        }
    }
    // Second pass: reverse graph in reverse finish order.
    let mut comp_of: BTreeMap<&str, usize> = BTreeMap::new();
    let mut comps: Vec<Vec<String>> = Vec::new();
    for &n in order.iter().rev() {
        if comp_of.contains_key(n) {
            continue;
        }
        let cid = comps.len();
        let mut members: Vec<String> = Vec::new();
        let mut stack = vec![n];
        while let Some(u) = stack.pop() {
            if comp_of.contains_key(u) {
                continue;
            }
            comp_of.insert(u, cid);
            members.push(u.to_string());
            if let Some(vs) = radj.get(u) {
                for &v in vs {
                    if !comp_of.contains_key(v) {
                        stack.push(v);
                    }
                }
            }
        }
        members.sort();
        comps.push(members);
    }
    comps.retain(|c| c.len() >= 2);
    comps.sort();
    comps
}

/// Run pass R; findings keyed by file index.
pub fn run(graph: &Graph, files: &[ParsedFile]) -> BTreeMap<usize, Vec<Finding>> {
    let eff = effects::infer(graph, files);
    let mut out: BTreeMap<usize, Vec<Finding>> = BTreeMap::new();

    // Transitive acquires, then guard-held regions and the order graph.
    let n = graph.funcs.len();
    let mut acq: Vec<BTreeSet<String>> = (0..n)
        .map(|id| {
            let f = &graph.funcs[id];
            if f.in_test || f.trusted.is_some() || f.body.is_empty() {
                BTreeSet::new()
            } else {
                direct_acquires(graph, files, &eff, id)
            }
        })
        .collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            if graph.funcs[id].in_test || graph.funcs[id].trusted.is_some() {
                continue;
            }
            let mut extra: Vec<String> = Vec::new();
            for &c in &graph.edges[id] {
                if graph.funcs[c].trusted.is_none() && !graph.funcs[c].in_test {
                    for cl in &acq[c] {
                        if !acq[id].contains(cl) {
                            extra.push(cl.clone());
                        }
                    }
                }
            }
            if !extra.is_empty() {
                acq[id].extend(extra);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut edges: EdgeMap = EdgeMap::new();
    for id in 0..n {
        let f = &graph.funcs[id];
        if f.in_test || f.trusted.is_some() || f.body.is_empty() {
            continue;
        }
        analyze_regions(graph, files, &eff, &acq, id, &mut edges, &mut out);
    }

    // R003 — lock-order cycles.
    for comp in lock_order_cycles(&edges) {
        // Anchor at the smallest internal edge's witness.
        let member: BTreeSet<&str> = comp.iter().map(String::as_str).collect();
        let witness = edges
            .iter()
            .find(|((a, b), _)| member.contains(a.as_str()) && member.contains(b.as_str()));
        let Some(((from, to), (fi, line, note))) = witness else {
            continue;
        };
        out.entry(*fi).or_default().push(Finding::new(
            *line,
            "R003",
            format!(
                "lock-order cycle between {} (potential ABBA deadlock); \
                 `{from}` -> `{to}` acquired here, {note}",
                comp.join(", ")
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn run_on(src: &str) -> Vec<Finding> {
        let files = vec![parse("a.rs", "c1", &[], lex(src))];
        let g = Graph::build(&files);
        run(&g, &files).into_values().flatten().collect()
    }

    fn codes(src: &str) -> Vec<&'static str> {
        let mut c: Vec<&'static str> = run_on(src).iter().map(|f| f.code).collect();
        c.sort();
        c
    }

    const ABBA: &str = "struct S { a: M, b: M }\n\
         impl S {\n\
           fn fwd(&self) { let g1 = self.a.lock(); let g2 = self.b.lock(); }\n\
           fn rev(&self) { let g1 = self.b.lock(); let g2 = self.a.lock(); }\n\
         }";

    #[test]
    fn abba_cycle_is_r003() {
        assert_eq!(codes(ABBA), vec!["R003"]);
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "struct S { a: M, b: M }\n\
             impl S {\n\
               fn f1(&self) { let g1 = self.a.lock(); let g2 = self.b.lock(); }\n\
               fn f2(&self) { let g1 = self.a.lock(); let g2 = self.b.lock(); }\n\
             }";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn transitive_acquire_makes_cycle() {
        // fwd holds a then calls inner() which takes b; rev is b→a.
        let src = "struct S { a: M, b: M }\n\
             impl S {\n\
               fn inner_take(&self) { let g = self.b.lock(); }\n\
               fn fwd(&self) { let g1 = self.a.lock(); self.inner_take(); }\n\
               fn rev(&self) { let g1 = self.b.lock(); let g2 = self.a.lock(); }\n\
             }";
        assert_eq!(codes(src), vec!["R003"]);
    }

    #[test]
    fn early_drop_ends_region() {
        let src = "struct S { a: M }\n\
             impl S {\n\
               fn f(&self, p: &P) { let g = self.a.lock(); drop(g); std::fs::write(p, b); }\n\
             }";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn guard_held_io_is_r004() {
        let src = "struct S { a: M }\n\
             impl S {\n\
               fn f(&self, p: &P) { let g = self.a.lock(); std::fs::write(p, b); }\n\
             }";
        assert_eq!(codes(src), vec!["R004"]);
    }

    #[test]
    fn guard_held_pool_wait_is_r005() {
        let src = "struct S { a: M }\n\
             impl S {\n\
               fn f(&self, h: H) { let g = self.a.lock(); h.join(); }\n\
             }";
        assert_eq!(codes(src), vec!["R005"]);
    }

    #[test]
    fn block_scope_ends_region() {
        let src = "struct S { a: M }\n\
             impl S {\n\
               fn f(&self, p: &P) { { let g = self.a.lock(); } std::fs::write(p, b); }\n\
             }";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn statement_temporary_holds_nothing() {
        let src = "struct S { a: M }\n\
             impl S {\n\
               fn f(&self, p: &P) { let n = self.a.lock().len(); std::fs::write(p, b); }\n\
             }";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn condvar_wait_under_guard_is_not_flagged() {
        let src = "struct Q { state: M, cv: C }\n\
             impl Q {\n\
               fn pop(&self) { let mut guard = self.state.lock(); guard = self.cv.wait(guard); }\n\
             }";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn r003_message_names_both_classes() {
        let f = run_on(ABBA);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("c1::S.a"), "{}", f[0].message);
        assert!(f[0].message.contains("c1::S.b"), "{}", f[0].message);
    }
}
