//! Solvers for the Optimal Parameter Archival Storage problem (§IV-C).
//!
//! The problem (minimize total storage subject to per-snapshot co-retrieval
//! budgets) is NP-hard (Theorem 1); for the Independent and Parallel
//! schemes the optimum is a spanning tree (Lemma 2). Implemented here:
//!
//! * [`mst`] — Prim's minimum spanning tree on storage cost (the
//!   unconstrained storage optimum; one extreme of the trade-off).
//! * [`spt`] — Dijkstra's shortest-path tree on recreation cost (full
//!   materialization bias; the other extreme).
//! * [`last`] — the Khuller–Raghavachari–Young balanced tree baseline,
//!   which bounds each vertex's path to (1+ε)·dist but is blind to group
//!   constraints.
//! * [`pas_mt`] — iterative refinement: start at the MST and swap parent
//!   edges with the best marginal gain (Eq. 1 / Eq. 2) until all snapshot
//!   budgets hold.
//! * [`pas_pt`] — priority-based construction: grow the tree cheapest-
//!   storage-first, checking group feasibility with lower-bound estimates,
//!   then repair.

use crate::graph::{EdgeId, StorageGraph, VertexId, NULL_VERTEX};
use crate::plan::{PlanError, RetrievalScheme, StoragePlan};
use std::collections::BTreeSet;

/// Nominal cost in "payload bytes" of scoring one candidate edge (or
/// scanning one violated member), fed to the byte-batched pool map so a
/// scoring task amortizes its queue round-trip over thousands of edge
/// evaluations. Small graphs coalesce into a single chunk and run inline.
const SCORING_EDGE_WEIGHT: usize = 64;

/// Minimum-storage spanning arborescence rooted at ν₀ (Chu-Liu/Edmonds).
///
/// The storage graph is directed (deltas may be asymmetric and materialize
/// edges only leave ν₀), so Prim's undirected MST is not optimal here; the
/// paper's "minimum spanning tree" corresponds to the minimum arborescence
/// in our directed formulation.
pub fn mst(graph: &StorageGraph) -> Result<StoragePlan, PlanError> {
    #[derive(Clone, Debug)]
    struct E {
        u: usize,
        v: usize,
        w: f64,
        orig: EdgeId,
    }

    /// Returns the original edges of a minimum arborescence of `edges`
    /// over vertices `0..n` rooted at `root`, or None if some vertex is
    /// unreachable. `to_level` maps original graph vertices to this
    /// contraction level's vertex ids.
    fn solve(
        n: usize,
        root: usize,
        edges: &[E],
        to_level: &[usize],
        graph: &StorageGraph,
    ) -> Option<Vec<EdgeId>> {
        if n <= 1 {
            return Some(Vec::new());
        }
        // Cheapest incoming edge per non-root vertex.
        let mut inc: Vec<Option<&E>> = vec![None; n];
        for e in edges {
            if e.v != root && e.u != e.v && inc[e.v].is_none_or(|b| e.w < b.w) {
                inc[e.v] = Some(e);
            }
        }
        for (v, i) in inc.iter().enumerate() {
            if v != root && i.is_none() {
                return None;
            }
        }
        // Detect a cycle among the chosen in-edges.
        let mut color = vec![0u8; n]; // 0 unvisited, 1 in progress, 2 done
        let mut cycle: Option<Vec<usize>> = None;
        for start in 0..n {
            if color[start] != 0 || start == root {
                continue;
            }
            let mut path = Vec::new();
            let mut cur = start;
            while cur != root && color[cur] == 0 {
                color[cur] = 1;
                path.push(cur);
                cur = inc[cur].expect("non-root has in-edge").u;
            }
            if cur != root && color[cur] == 1 {
                // Found a cycle: the suffix of `path` from `cur`.
                let pos = path.iter().position(|&x| x == cur).expect("on path");
                cycle = Some(path[pos..].to_vec());
            }
            for &p in &path {
                color[p] = 2;
            }
            if cycle.is_some() {
                break;
            }
        }
        let Some(cycle) = cycle else {
            // Acyclic: the chosen in-edges are the arborescence.
            return Some(
                (0..n)
                    .filter(|&v| v != root)
                    .map(|v| inc[v].expect("chosen").orig)
                    .collect(),
            );
        };

        // Contract the cycle into a fresh vertex.
        let in_cycle = {
            let mut m = vec![false; n];
            for &c in &cycle {
                m[c] = true;
            }
            m
        };
        let mut map = vec![0usize; n];
        let mut next = 0usize;
        for v in 0..n {
            if !in_cycle[v] {
                map[v] = next;
                next += 1;
            }
        }
        let nc = next; // contracted vertex id
        for &c in &cycle {
            map[c] = nc;
        }
        let new_n = next + 1;
        let new_root = map[root];
        let mut new_edges = Vec::with_capacity(edges.len());
        for e in edges {
            let (u2, v2) = (map[e.u], map[e.v]);
            if u2 == v2 {
                continue;
            }
            let w = if v2 == nc {
                e.w - inc[e.v].expect("cycle vertex has in-edge").w
            } else {
                e.w
            };
            new_edges.push(E {
                u: u2,
                v: v2,
                w,
                orig: e.orig,
            });
        }
        let new_to_level: Vec<usize> = to_level.iter().map(|&lv| map[lv]).collect();
        let chosen = solve(new_n, new_root, &new_edges, &new_to_level, graph)?;
        // Exactly one chosen edge enters the cycle; its target (translated
        // into this level's vertex space) tells us which cycle in-edge to
        // drop.
        let entered = chosen
            .iter()
            .map(|&id| to_level[graph.edge(id).to])
            .find(|t| in_cycle[*t])
            .expect("one edge enters the contracted cycle");
        let mut out = chosen;
        for &c in &cycle {
            if c != entered {
                out.push(inc[c].expect("chosen").orig);
            }
        }
        Some(out)
    }

    let edges: Vec<E> = graph
        .edges()
        .iter()
        .map(|e| E {
            u: e.from,
            v: e.to,
            w: e.storage_cost,
            orig: e.id,
        })
        .collect();
    let identity: Vec<usize> = (0..graph.num_vertices()).collect();
    let chosen = solve(graph.num_vertices(), NULL_VERTEX, &edges, &identity, graph)
        .ok_or(PlanError::Infeasible)?;
    let mut parent: Vec<Option<EdgeId>> = vec![None; graph.num_vertices()];
    for id in chosen {
        parent[graph.edge(id).to] = Some(id);
    }
    StoragePlan::from_parents(graph, parent)
}

/// Prim-style greedy spanning tree on storage cost (kept as a fast
/// approximation and for cost-model experiments; exact only when delta
/// costs are symmetric).
pub fn greedy_mst(graph: &StorageGraph) -> Result<StoragePlan, PlanError> {
    grow_tree(graph, |e| e.storage_cost)
}

/// Dijkstra shortest-path tree on recreation cost from ν₀.
pub fn spt(graph: &StorageGraph) -> Result<StoragePlan, PlanError> {
    let n = graph.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<EdgeId>> = vec![None; n];
    let mut done = vec![false; n];
    dist[NULL_VERTEX] = 0.0;
    for _ in 0..n {
        // Extract the unfinished vertex with minimum distance.
        let u = (0..n)
            .filter(|&v| !done[v] && dist[v].is_finite())
            .min_by(|&a, &b| dist[a].total_cmp(&dist[b]));
        let Some(u) = u else { break };
        done[u] = true;
        for &eid in graph.outgoing(u) {
            let e = graph.edge(eid);
            let nd = dist[u] + e.recreation_cost;
            if nd < dist[e.to] {
                dist[e.to] = nd;
                parent[e.to] = Some(eid);
            }
        }
    }
    if graph.matrix_vertices().any(|v| parent[v].is_none()) {
        return Err(PlanError::Infeasible);
    }
    StoragePlan::from_parents(graph, parent)
}

/// Generic greedy tree growth minimizing `weight` on the crossing edge.
fn grow_tree(
    graph: &StorageGraph,
    weight: impl Fn(&crate::graph::Edge) -> f64,
) -> Result<StoragePlan, PlanError> {
    let n = graph.num_vertices();
    let mut in_tree = vec![false; n];
    in_tree[NULL_VERTEX] = true;
    let mut parent: Vec<Option<EdgeId>> = vec![None; n];
    let mut best: Vec<Option<EdgeId>> = vec![None; n];
    for &eid in graph.outgoing(NULL_VERTEX) {
        let e = graph.edge(eid);
        if best[e.to].is_none_or(|b| weight(graph.edge(b)) > weight(e)) {
            best[e.to] = Some(eid);
        }
    }
    for _ in 1..n {
        let next = (0..n)
            .filter(|&v| !in_tree[v])
            .filter_map(|v| best[v].map(|e| (v, e)))
            .min_by(|&(_, a), &(_, b)| weight(graph.edge(a)).total_cmp(&weight(graph.edge(b))))
            .map(|(v, _)| v);
        let Some(v) = next else {
            return Err(PlanError::Infeasible);
        };
        in_tree[v] = true;
        parent[v] = best[v];
        for &eid in graph.outgoing(v) {
            let e = graph.edge(eid);
            if !in_tree[e.to] && best[e.to].is_none_or(|b| weight(graph.edge(b)) > weight(e)) {
                best[e.to] = Some(eid);
            }
        }
    }
    StoragePlan::from_parents(graph, parent)
}

/// LAST (Khuller et al. 1995): start from the MST, DFS, and re-hang any
/// vertex whose tree path exceeds (1+ε) times its shortest-path distance
/// onto its SPT parent. Ignores group constraints entirely — the baseline
/// the paper compares against in Fig 6(c).
pub fn last(graph: &StorageGraph, epsilon: f64) -> Result<StoragePlan, PlanError> {
    let mst_plan = mst(graph)?;
    let spt_plan = spt(graph)?;
    let n = graph.num_vertices();
    let mut dist = vec![0.0f64; n];
    for v in graph.matrix_vertices() {
        dist[v] = spt_plan.matrix_recreation_cost(graph, v);
    }
    let mut parent: Vec<Option<EdgeId>> = (0..n).map(|v| mst_plan.parent_edge(v)).collect();

    // DFS from ν₀ over the MST, tracking the current path cost with the
    // relinks applied so far.
    let mut cost = vec![0.0f64; n];
    let mut stack: Vec<VertexId> = mst_plan.children(graph, NULL_VERTEX).into_iter().collect();
    let mut order = Vec::new();
    // Pre-compute DFS order (children lists don't change during the scan —
    // a relink only redirects a vertex's parent pointer upward).
    while let Some(v) = stack.pop() {
        order.push(v);
        stack.extend(mst_plan.children(graph, v));
    }
    // Tracks which vertices have been switched onto their SPT parent; once
    // switched, a vertex's whole root path is SPT edges (SPT parents are
    // unique and never reverted), so its cost is exactly dist[v].
    let mut on_spt = vec![false; n];
    for &v in &order {
        let e = parent[v].expect("spanning MST");
        let p = graph.edge(e).from;
        let via_tree = cost[p] + graph.edge(e).recreation_cost;
        if via_tree > (1.0 + epsilon) * dist[v] + 1e-12 {
            // Re-hang the *entire* shortest path from ν₀ to v: relinking
            // only v's parent edge would leave MST edges upstream and void
            // the (1+ε) guarantee.
            for pe in spt_plan.path_edges(graph, v) {
                let u = graph.edge(pe).to;
                parent[u] = Some(pe);
                if !on_spt[u] {
                    on_spt[u] = true;
                    cost[u] = dist[u];
                }
            }
        } else if !on_spt[v] {
            cost[v] = via_tree;
        }
    }
    StoragePlan::from_parents(graph, parent)
}

/// The marginal-gain repair loop shared by PAS-MT and PAS-PT.
///
/// While any snapshot budget is violated, evaluate every legal parent swap
/// `(p(v) → v)  ⇒  (s → v)` and apply the one with the largest gain:
/// recreation improvement summed over violated groups (Eq. 1, independent)
/// or max-based (Eq. 2, parallel), divided by the storage increase.
pub fn repair(
    graph: &StorageGraph,
    plan: &mut StoragePlan,
    scheme: RetrievalScheme,
    max_rounds: usize,
) {
    let mut sp = mh_obs::span("pas.solver.repair");
    let rounds = repair_impl(graph, plan, scheme, max_rounds);
    mh_obs::counter!("pas_repair_rounds_total").add(rounds as u64);
    if sp.is_recording() {
        sp.field("rounds", rounds);
    }
}

/// [`repair`] body, returning the number of swap rounds executed so the
/// wrapper can report it.
fn repair_impl(
    graph: &StorageGraph,
    plan: &mut StoragePlan,
    scheme: RetrievalScheme,
    max_rounds: usize,
) -> usize {
    for round in 0..max_rounds {
        let violated = plan.violated_snapshots(graph, scheme);
        if violated.is_empty() {
            return round;
        }
        let n = graph.num_vertices();
        // One O(V + E) pass per round: children adjacency, recreation costs
        // via a preorder walk, and Euler-tour in/out times so subtree
        // membership is an O(1) interval check (the naive per-vertex
        // subtree sets made large instances quadratic).
        let mut children: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for v in graph.matrix_vertices() {
            let p = plan.parent(graph, v).expect("spanning plan");
            children[p].push(v);
        }
        let mut cr = vec![0.0f64; n];
        let mut tin = vec![0usize; n];
        let mut tout = vec![0usize; n];
        let mut clock = 0usize;
        // Iterative DFS from ν₀ computing costs and Euler intervals.
        enum Ev {
            Enter(VertexId),
            Exit(VertexId),
        }
        let mut stack = vec![Ev::Enter(NULL_VERTEX)];
        while let Some(ev) = stack.pop() {
            match ev {
                Ev::Enter(v) => {
                    clock += 1;
                    tin[v] = clock;
                    if v != NULL_VERTEX {
                        let e = graph.edge(plan.parent_edge(v).expect("spanning"));
                        cr[v] = cr[e.from] + e.recreation_cost;
                    }
                    stack.push(Ev::Exit(v));
                    for &c in &children[v] {
                        stack.push(Ev::Enter(c));
                    }
                }
                Ev::Exit(v) => {
                    clock += 1;
                    tout[v] = clock;
                }
            }
        }
        let in_subtree = |root: VertexId, v: VertexId| tin[root] <= tin[v] && tout[v] <= tout[root];

        // Members of violated groups, for the gain numerator.
        let violated_members: Vec<(usize, &[VertexId])> = violated
            .iter()
            .map(|&gi| (gi, graph.snapshots[gi].members.as_slice()))
            .collect();

        // Best swap for one vertex, scanning its candidate edges in order
        // with strict `>` (first maximum wins — the serial tie-break).
        let score_vertex = |v: VertexId| -> Option<(f64, VertexId, EdgeId)> {
            let cur_edge = plan.parent_edge(v).expect("spanning plan");
            // Members of violated groups inside v's subtree (shared across
            // all candidate edges into v).
            let mut affected_independent = 0usize;
            let mut affected_groups = 0usize;
            for (_, members) in &violated_members {
                let c = members.iter().filter(|&&m| in_subtree(v, m)).count();
                affected_independent += c;
                affected_groups += usize::from(c > 0);
            }
            if affected_independent == 0 {
                return None; // swapping v cannot help any violated group
            }
            let mut best: Option<(f64, VertexId, EdgeId)> = None;
            for &eid in graph.incoming(v) {
                if eid == cur_edge {
                    continue;
                }
                let e = graph.edge(eid);
                if in_subtree(v, e.from) {
                    continue; // would create a cycle
                }
                // Recreation change for v and every descendant:
                // new - old = (cr[from] + cr(e)) - cr[v].
                let delta = cr[e.from] + e.recreation_cost - cr[v];
                if delta >= 0.0 {
                    continue; // no improvement
                }
                let improvement = -delta;
                let num = match scheme {
                    RetrievalScheme::Independent | RetrievalScheme::Reusable => {
                        improvement * affected_independent as f64
                    }
                    RetrievalScheme::Parallel => improvement * affected_groups as f64,
                };
                let denom = e.storage_cost - graph.edge(cur_edge).storage_cost;
                let gain = if denom <= 0.0 {
                    f64::INFINITY
                } else {
                    num / denom
                };
                if best.as_ref().is_none_or(|(g, _, _)| gain > *g) {
                    best = Some((gain, v, eid));
                }
            }
            best
        };
        // Scoring is read-only per vertex, so large instances fan out to
        // the pool in byte-batched chunks (weight ≈ candidate edges plus
        // violated-member scans); the serial reduce below (vertex order,
        // strict `>`) reproduces the serial scan's first-maximum choice
        // exactly at any thread count or batch budget.
        let verts: Vec<VertexId> = graph.matrix_vertices().collect();
        let members_scanned: usize = violated_members.iter().map(|(_, m)| m.len()).sum();
        let per_vertex: Vec<Option<(f64, VertexId, EdgeId)>> = mh_par::parallel_map_batched(
            &verts,
            |&v| SCORING_EDGE_WEIGHT * (graph.incoming(v).len() + members_scanned),
            || (),
            |(), &v| score_vertex(v),
        )
        .expect("scoring workers");
        let mut best: Option<(f64, VertexId, EdgeId)> = None;
        for cand in per_vertex.into_iter().flatten() {
            if best.as_ref().is_none_or(|(g, _, _)| cand.0 > *g) {
                best = Some(cand);
            }
        }
        match best {
            Some((_, v, eid)) => plan.set_parent(v, eid),
            None => {
                // Greedy swaps are stuck with violations remaining: fall
                // back to shortest paths for every member of a violated
                // group. Re-hanging the entire SPT path of a vertex sets
                // its recreation cost to the graph minimum, so if the SPT
                // satisfies the budgets at all, this terminates feasible.
                let Ok(spt_plan) = spt(graph) else {
                    return round + 1;
                };
                for gi in violated {
                    for &m in &graph.snapshots[gi].members {
                        for eid in spt_plan.path_edges(graph, m) {
                            plan.set_parent(graph.edge(eid).to, eid);
                        }
                    }
                }
                return round + 1;
            }
        }
    }
    max_rounds
}

/// PAS-MT: MST followed by iterative constraint repair.
pub fn pas_mt(graph: &StorageGraph, scheme: RetrievalScheme) -> Result<StoragePlan, PlanError> {
    let _sp = mh_obs::span("pas.solver.pas_mt");
    let mut plan = mst(graph)?;
    let bound = graph.num_edges().max(16) * 4;
    repair(graph, &mut plan, scheme, bound);
    Ok(plan)
}

/// PAS-PT: grow the tree cheapest-storage-first with group feasibility
/// estimates, then repair any residual violations.
pub fn pas_pt(graph: &StorageGraph, scheme: RetrievalScheme) -> Result<StoragePlan, PlanError> {
    let _sp = mh_obs::span("pas.solver.pas_pt");
    let n = graph.num_vertices();
    let mut in_tree = vec![false; n];
    in_tree[NULL_VERTEX] = true;
    let mut plan = StoragePlan::empty(graph);
    let mut cr = vec![0.0f64; n];

    // Candidate heap keyed by storage cost (BTreeSet used as an ordered
    // queue to keep determinism).
    let mut queue: BTreeSet<(u64, EdgeId)> = BTreeSet::new();
    let key = |c: f64, id: EdgeId| -> (u64, EdgeId) { (c.max(0.0).to_bits(), id) };
    for &eid in graph.outgoing(NULL_VERTEX) {
        queue.insert(key(graph.edge(eid).storage_cost, eid));
    }

    // Estimated group recreation cost if `cand` joins with recreation cost
    // `cand_cr`: in-tree members use actual cost, out-of-tree members use
    // the direct-edge lower bound.
    let estimate = |group: &crate::graph::SnapshotGroup,
                    in_tree: &[bool],
                    cr: &[f64],
                    cand: VertexId,
                    cand_cr: f64|
     -> f64 {
        let member_cost = |&v: &VertexId| -> f64 {
            if v == cand {
                cand_cr
            } else if in_tree[v] {
                cr[v]
            } else {
                let b = graph.direct_recreation_bound(v);
                if b.is_finite() {
                    b
                } else {
                    0.0 // no lower bound available: optimistic
                }
            }
        };
        match scheme {
            RetrievalScheme::Independent | RetrievalScheme::Reusable => {
                group.members.iter().map(member_cost).sum()
            }
            RetrievalScheme::Parallel => group.members.iter().map(member_cost).fold(0.0, f64::max),
        }
    };

    while let Some(&(k, eid)) = queue.iter().next() {
        queue.remove(&(k, eid));
        let e = graph.edge(eid);
        if in_tree[e.to] || !in_tree[e.from] {
            continue;
        }
        let cand_cr = cr[e.from] + e.recreation_cost;
        // Feasibility estimate for every group containing the candidate.
        let feasible = graph.groups_of(e.to).into_iter().all(|gi| {
            let g = &graph.snapshots[gi];
            estimate(g, &in_tree, &cr, e.to, cand_cr) <= g.budget + 1e-9
        });
        if !feasible {
            continue; // this option is discarded; another edge will cover e.to
        }
        // Accept.
        in_tree[e.to] = true;
        plan.set_parent(e.to, eid);
        cr[e.to] = cand_cr;
        for &out in graph.outgoing(e.to) {
            let oe = graph.edge(out);
            if !in_tree[oe.to] {
                queue.insert(key(oe.storage_cost, out));
            }
        }
        // Improvement: re-hang existing vertices through the newcomer when
        // it strictly reduces storage without increasing recreation.
        for &out in graph.outgoing(e.to) {
            let oe = graph.edge(out);
            if oe.to == NULL_VERTEX || !in_tree[oe.to] {
                continue;
            }
            let vk = oe.to;
            let cur = plan.parent_edge(vk).expect("in-tree vertex has parent");
            let cur_e = graph.edge(cur);
            let new_cr = cr[e.to] + oe.recreation_cost;
            if oe.storage_cost < cur_e.storage_cost && new_cr <= cr[vk] + 1e-12 {
                // Must not create a cycle: e.to cannot be in vk's subtree.
                if !plan.subtree(graph, vk).contains(&e.to) {
                    plan.set_parent(vk, out);
                    cr[vk] = new_cr;
                }
            }
        }
    }

    // Any vertices the feasibility filter starved: attach via the
    // lowest-recreation in-tree edge (preferring direct materialization).
    for v in graph.matrix_vertices() {
        if in_tree[v] {
            continue;
        }
        let mut best: Option<(f64, EdgeId)> = None;
        for &eid in graph.incoming(v) {
            let e = graph.edge(eid);
            if !in_tree[e.from] {
                continue;
            }
            let c = cr[e.from] + e.recreation_cost;
            if best.is_none_or(|(bc, _)| c < bc) {
                best = Some((c, eid));
            }
        }
        let (c, eid) = best.ok_or(PlanError::Infeasible)?;
        in_tree[v] = true;
        cr[v] = c;
        plan.set_parent(v, eid);
    }
    plan.validate(graph)?;
    let bound = graph.num_edges().max(16) * 4;
    repair(graph, &mut plan, scheme, bound);
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{fig5_example, StorageGraph};

    fn fig5_complete() -> (StorageGraph, Vec<VertexId>) {
        // The example already carries direct materialize options for every
        // matrix, so solvers always have a feasible fallback.
        fig5_example()
    }

    #[test]
    fn mst_matches_fig5b() {
        let (g, _) = fig5_example();
        let plan = mst(&g).unwrap();
        assert_eq!(plan.storage_cost(&g), 19.0);
    }

    #[test]
    fn spt_minimizes_recreation() {
        let (g, m) = fig5_complete();
        let plan = spt(&g).unwrap();
        for v in g.matrix_vertices() {
            // SPT distance is the minimum over any plan; check against MST.
            let d = plan.matrix_recreation_cost(&g, v);
            let mst_plan = mst(&g).unwrap();
            assert!(
                d <= mst_plan.matrix_recreation_cost(&g, v) + 1e-9,
                "vertex {v}"
            );
        }
        // m3's shortest path: ν0→m1→m3 = 1.5 (cheaper than direct 2).
        assert_eq!(plan.matrix_recreation_cost(&g, m[2]), 1.5);
    }

    #[test]
    fn pas_mt_satisfies_fig5c_budgets() {
        let (mut g, _) = fig5_example();
        g.snapshots[0].budget = 3.0;
        g.snapshots[1].budget = 6.0;
        let plan = pas_mt(&g, RetrievalScheme::Independent).unwrap();
        assert!(
            plan.satisfies_budgets(&g, RetrievalScheme::Independent),
            "costs: {:?}",
            plan.all_snapshot_costs(&g, RetrievalScheme::Independent)
        );
        // The optimum under these budgets is Cs = 23 (materialize m5,
        // keep the m1→m3→m4 delta chain); the heuristic should land there.
        assert!(
            plan.storage_cost(&g) <= 23.0 + 1e-9,
            "storage {} exceeds the known optimum 23",
            plan.storage_cost(&g)
        );
    }

    #[test]
    fn pas_pt_satisfies_fig5c_budgets() {
        let (mut g, _) = fig5_complete();
        g.snapshots[0].budget = 3.0;
        g.snapshots[1].budget = 6.0;
        let plan = pas_pt(&g, RetrievalScheme::Independent).unwrap();
        assert!(
            plan.satisfies_budgets(&g, RetrievalScheme::Independent),
            "costs: {:?}",
            plan.all_snapshot_costs(&g, RetrievalScheme::Independent)
        );
    }

    #[test]
    fn unconstrained_solvers_agree_with_mst() {
        let (g, _) = fig5_complete();
        let m = mst(&g).unwrap();
        for plan in [
            pas_mt(&g, RetrievalScheme::Independent).unwrap(),
            pas_pt(&g, RetrievalScheme::Independent).unwrap(),
        ] {
            assert!(
                plan.storage_cost(&g) <= m.storage_cost(&g) * 1.5 + 1e-9,
                "unconstrained plan should be near the MST"
            );
            assert!(plan.satisfies_budgets(&g, RetrievalScheme::Independent));
        }
    }

    #[test]
    fn last_interpolates_between_mst_and_spt() {
        let (g, _) = fig5_complete();
        let mst_cost = mst(&g).unwrap().storage_cost(&g);
        let spt_cost = spt(&g).unwrap().storage_cost(&g);
        // Large ε: behaves like the MST.
        let loose = last(&g, 100.0).unwrap();
        assert!((loose.storage_cost(&g) - mst_cost).abs() < 1e-9);
        // ε = 0: every path must be shortest, storage approaches SPT's.
        let tight = last(&g, 0.0).unwrap();
        for v in g.matrix_vertices() {
            let d = spt(&g).unwrap().matrix_recreation_cost(&g, v);
            assert!(tight.matrix_recreation_cost(&g, v) <= d + 1e-9);
        }
        assert!(tight.storage_cost(&g) <= spt_cost.max(mst_cost) + 1e-9);
    }

    #[test]
    fn parallel_scheme_constraints() {
        let (mut g, _) = fig5_complete();
        g.snapshots[1].budget = 2.5; // max path in s2 must be <= 2.5
        for plan in [
            pas_mt(&g, RetrievalScheme::Parallel).unwrap(),
            pas_pt(&g, RetrievalScheme::Parallel).unwrap(),
        ] {
            assert!(
                plan.satisfies_budgets(&g, RetrievalScheme::Parallel),
                "costs: {:?}",
                plan.all_snapshot_costs(&g, RetrievalScheme::Parallel)
            );
        }
    }

    #[test]
    fn infeasible_graph_reported() {
        let mut g = StorageGraph::new();
        let _a = g.add_vertex("isolated");
        assert!(matches!(mst(&g), Err(PlanError::Infeasible)));
        assert!(matches!(spt(&g), Err(PlanError::Infeasible)));
    }

    #[test]
    fn tight_budgets_drive_plans_toward_spt() {
        let (mut g, _) = fig5_complete();
        let spt_plan = spt(&g).unwrap();
        for (i, s) in g.snapshots.clone().iter().enumerate() {
            let c = spt_plan.snapshot_recreation_cost(&g, &s.members, RetrievalScheme::Independent);
            g.snapshots[i].budget = c; // tightest satisfiable budget
        }
        for plan in [
            pas_mt(&g, RetrievalScheme::Independent).unwrap(),
            pas_pt(&g, RetrievalScheme::Independent).unwrap(),
        ] {
            assert!(
                plan.satisfies_budgets(&g, RetrievalScheme::Independent),
                "PAS solvers must meet SPT-tight budgets; got {:?} vs budgets {:?}",
                plan.all_snapshot_costs(&g, RetrievalScheme::Independent),
                g.snapshots.iter().map(|s| s.budget).collect::<Vec<_>>()
            );
        }
    }
}
