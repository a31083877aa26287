//! The matrix storage graph (Definition 1 of the paper).
//!
//! Vertices are the parameter matrices of every snapshot of every model
//! version, plus the distinguished empty matrix ν₀. Edges are *storage
//! options*: materializing a matrix (an edge from ν₀) or storing a delta
//! against another matrix. Each edge carries a storage cost and a
//! recreation cost.

/// Index of a vertex in the storage graph. `NULL_VERTEX` (0) is ν₀.
pub type VertexId = usize;

/// The empty-matrix vertex ν₀.
pub const NULL_VERTEX: VertexId = 0;

/// Index of an edge.
pub type EdgeId = usize;

/// What an edge physically stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeKind {
    /// Store the target matrix itself (compressed). Only valid from ν₀.
    Materialize,
    /// Store a delta; recreating the target requires the source first.
    Delta,
}

/// One storage option.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    pub id: EdgeId,
    pub from: VertexId,
    pub to: VertexId,
    pub kind: EdgeKind,
    /// Bytes this option occupies.
    pub storage_cost: f64,
    /// Cost of recreating `to` given `from` (abstract units; the builder
    /// uses estimated decode work).
    pub recreation_cost: f64,
}

/// A group of matrices that are always retrieved together (one snapshot),
/// with its recreation budget θ.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotGroup {
    pub name: String,
    pub members: Vec<VertexId>,
    /// Recreation budget θᵢ (f64::INFINITY = unconstrained).
    pub budget: f64,
}

/// The matrix storage graph GV(V, E, cs, cr).
#[derive(Debug, Clone, Default)]
pub struct StorageGraph {
    /// Human-readable vertex labels; index 0 is ν₀.
    labels: Vec<String>,
    edges: Vec<Edge>,
    /// Outgoing edge ids per vertex.
    out: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per vertex.
    incoming: Vec<Vec<EdgeId>>,
    pub snapshots: Vec<SnapshotGroup>,
}

impl StorageGraph {
    /// A graph containing only ν₀.
    pub fn new() -> Self {
        Self {
            labels: vec!["ν0".to_string()],
            edges: Vec::new(),
            out: vec![Vec::new()],
            incoming: vec![Vec::new()],
            snapshots: Vec::new(),
        }
    }

    /// Add a matrix vertex.
    pub fn add_vertex(&mut self, label: &str) -> VertexId {
        let id = self.labels.len();
        self.labels.push(label.to_string());
        self.out.push(Vec::new());
        self.incoming.push(Vec::new());
        id
    }

    /// Add a directed storage option.
    pub fn add_edge(
        &mut self,
        from: VertexId,
        to: VertexId,
        kind: EdgeKind,
        storage_cost: f64,
        recreation_cost: f64,
    ) -> EdgeId {
        assert!(
            from < self.labels.len() && to < self.labels.len(),
            "edge endpoints exist"
        );
        assert!(to != NULL_VERTEX, "ν0 is never a target");
        assert!(
            kind != EdgeKind::Materialize || from == NULL_VERTEX,
            "materialize edges start at ν0"
        );
        let id = self.edges.len();
        self.edges.push(Edge {
            id,
            from,
            to,
            kind,
            storage_cost,
            recreation_cost,
        });
        self.out[from].push(id);
        self.incoming[to].push(id);
        id
    }

    /// Convenience: add symmetric delta options in both directions.
    pub fn add_delta_pair(
        &mut self,
        a: VertexId,
        b: VertexId,
        storage_cost: f64,
        recreation_cost: f64,
    ) -> (EdgeId, EdgeId) {
        (
            self.add_edge(a, b, EdgeKind::Delta, storage_cost, recreation_cost),
            self.add_edge(b, a, EdgeKind::Delta, storage_cost, recreation_cost),
        )
    }

    /// Register a co-usage group.
    pub fn add_snapshot(&mut self, name: &str, members: Vec<VertexId>, budget: f64) {
        self.snapshots.push(SnapshotGroup {
            name: name.to_string(),
            members,
            budget,
        });
    }

    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Matrix vertices (excluding ν₀).
    pub fn matrix_vertices(&self) -> impl Iterator<Item = VertexId> {
        1..self.num_vertices()
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id]
    }

    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    pub fn label(&self, v: VertexId) -> &str {
        &self.labels[v]
    }

    pub fn outgoing(&self, v: VertexId) -> &[EdgeId] {
        &self.out[v]
    }

    pub fn incoming(&self, v: VertexId) -> &[EdgeId] {
        &self.incoming[v]
    }

    /// Whether every matrix vertex has at least one incoming edge from ν₀
    /// (guarantees a feasible plan exists).
    pub fn is_complete(&self) -> bool {
        self.matrix_vertices().all(|v| {
            self.incoming(v)
                .iter()
                .any(|&e| self.edges[e].from == NULL_VERTEX)
        })
    }

    /// The snapshot groups containing a vertex.
    pub fn groups_of(&self, v: VertexId) -> Vec<usize> {
        self.snapshots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.members.contains(&v))
            .map(|(i, _)| i)
            .collect()
    }

    /// Cheapest (by recreation cost) direct edge ν₀→v, used as the lower
    /// bound `cr(ν0, vk)` in PAS-PT feasibility estimation.
    pub fn direct_recreation_bound(&self, v: VertexId) -> f64 {
        self.incoming(v)
            .iter()
            .map(|&e| &self.edges[e])
            .filter(|e| e.from == NULL_VERTEX)
            .map(|e| e.recreation_cost)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Build a toy instance in the spirit of the paper's Fig. 5: two snapshots
/// s1 = {m1, m2}, s2 = {m3, m4, m5}, edge weights chosen so the figure's
/// headline numbers hold exactly — the unconstrained optimum (the MST) has
/// Cs = 19 with Cr(s1) = 3 and Cr(s2) = 7.5 under the independent scheme,
/// and tightening to θ = (3, 6) forces a strictly costlier plan.
/// Returns (graph, [m1..m5]).
pub fn fig5_example() -> (StorageGraph, Vec<VertexId>) {
    let mut g = StorageGraph::new();
    let m: Vec<VertexId> = (1..=5).map(|i| g.add_vertex(&format!("m{i}"))).collect();
    // Materialize edges (storage, recreation).
    g.add_edge(NULL_VERTEX, m[0], EdgeKind::Materialize, 2.0, 1.0); // m1 (2,1)
    g.add_edge(NULL_VERTEX, m[1], EdgeKind::Materialize, 8.0, 2.0); // m2 (8,2)
    g.add_edge(NULL_VERTEX, m[2], EdgeKind::Materialize, 8.0, 2.0); // m3 (8,2)
    g.add_edge(NULL_VERTEX, m[3], EdgeKind::Materialize, 9.0, 2.0); // m4 (9,2)
    g.add_edge(NULL_VERTEX, m[4], EdgeKind::Materialize, 8.0, 2.0); // m5 (8,2)
                                                                    // Delta edges.
    g.add_delta_pair(m[0], m[2], 1.0, 0.5); // m1-m3 (1,0.5)
    g.add_delta_pair(m[2], m[3], 4.0, 1.0); // m3-m4 (4,1)
    g.add_delta_pair(m[3], m[4], 4.0, 1.0); // m4-m5 (4,1)
    g.add_snapshot("s1", vec![m[0], m[1]], f64::INFINITY);
    g.add_snapshot("s2", vec![m[2], m[3], m[4]], f64::INFINITY);
    (g, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let (g, m) = fig5_example();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 5 + 3 * 2);
        assert!(
            g.is_complete(),
            "every matrix has a direct materialize option"
        );
        assert_eq!(g.groups_of(m[0]), vec![0]);
        assert_eq!(g.groups_of(m[3]), vec![1]);
        assert_eq!(g.label(NULL_VERTEX), "ν0");
    }

    #[test]
    fn direct_bound() {
        let (g, m) = fig5_example();
        assert_eq!(g.direct_recreation_bound(m[0]), 1.0);
        assert_eq!(g.direct_recreation_bound(m[4]), 2.0);
    }

    #[test]
    #[should_panic(expected = "materialize edges start at ν0")]
    fn materialize_must_start_at_null() {
        let mut g = StorageGraph::new();
        let a = g.add_vertex("a");
        let b = g.add_vertex("b");
        g.add_edge(a, b, EdgeKind::Materialize, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "ν0 is never a target")]
    fn null_vertex_never_target() {
        let mut g = StorageGraph::new();
        let a = g.add_vertex("a");
        g.add_edge(a, NULL_VERTEX, EdgeKind::Delta, 1.0, 1.0);
    }
}
