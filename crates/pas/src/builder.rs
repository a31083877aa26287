//! Build a [`StorageGraph`] from the weight artifacts of a model
//! repository.
//!
//! The builder registers one vertex per (version, snapshot, layer) matrix
//! and one co-usage group per snapshot, then generates storage options:
//!
//! * a materialize edge ν₀ → v for every matrix (cost = measured compressed
//!   size of its byte planes);
//! * delta edges between matching layers of **adjacent snapshots** within
//!   a version (both directions);
//! * delta edges between matching layers of the **latest snapshots** of
//!   lineage-related versions (the fine-tuning case) — exactly where §IV-B
//!   found deltas to pay off.
//!
//! Costs are measured by actually compressing the candidate payloads, so
//! the optimization operates on real footprints rather than guesses.

use crate::graph::{EdgeKind, StorageGraph, VertexId, NULL_VERTEX};
use crate::plan::RetrievalScheme;
use crate::solver;
use mh_compress::Level;
use mh_delta::{Delta, DeltaOp};
use mh_dnn::Weights;
use mh_tensor::{Matrix, SegmentedMatrix};
use std::collections::BTreeMap;

/// Weight of compressed bytes read in a recreation cost.
const READ_WEIGHT: f64 = 1.0;
/// Weight of uncompressed bytes reassembled in a recreation cost.
const APPLY_WEIGHT: f64 = 0.25;

/// Recreation cost of one storage option: the compressed bytes it reads
/// plus the uncompressed bytes it reassembles, weighted.
fn recreation_cost(compressed: f64, uncompressed: f64) -> f64 {
    READ_WEIGHT * compressed + APPLY_WEIGHT * uncompressed
}

/// Cost-model knobs.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Compression level used when measuring storage costs.
    pub level: Level,
    /// Delta operator whose footprint defines delta edge costs.
    pub delta_op: DeltaOp,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            level: Level::Fast,
            delta_op: DeltaOp::Sub,
        }
    }
}

/// Incrementally assembles the storage graph for a repository.
#[derive(Debug)]
pub struct GraphBuilder {
    cost: CostModel,
    graph: StorageGraph,
    matrices: BTreeMap<VertexId, Matrix>,
    /// (version, snapshot index) -> layer name -> vertex.
    snapshots: BTreeMap<(String, usize), BTreeMap<String, VertexId>>,
}

impl GraphBuilder {
    pub fn new(cost: CostModel) -> Self {
        Self {
            cost,
            graph: StorageGraph::new(),
            matrices: BTreeMap::new(),
            snapshots: BTreeMap::new(),
        }
    }

    /// Register a snapshot's weights. Creates vertices, the co-usage group,
    /// and materialize edges. Returns the vertices per layer.
    pub fn add_snapshot(
        &mut self,
        version: &str,
        snap_idx: usize,
        weights: &Weights,
    ) -> BTreeMap<String, VertexId> {
        // Cost measurement actually compresses every byte plane — the
        // builder's hot loop. Measure all layers on the pool in
        // byte-batched chunks (weight = matrix payload bytes, so small
        // layers coalesce), then mutate the graph serially in layer order.
        let layers: Vec<(&String, &Matrix)> = weights.layers().collect();
        let level = self.cost.level;
        let measured = mh_par::parallel_map_batched(
            &layers,
            |(_, m)| m.len() * 4,
            mh_compress::Scratch::new,
            |scratch, (_, m)| {
                let seg = SegmentedMatrix::from_matrix(m);
                (0..4)
                    .map(|p| mh_compress::compressed_len_with(seg.plane(p), level, scratch))
                    .sum::<usize>() as f64
            },
        )
        .expect("cost measurement workers");
        let mut layer_vertices = BTreeMap::new();
        for ((layer, m), compressed) in layers.into_iter().zip(measured) {
            let label = format!("{version}/s{snap_idx}/{layer}");
            let v = self.graph.add_vertex(&label);
            // Materialize option: segmented planes, individually compressed.
            let uncompressed = (m.len() * 4) as f64;
            self.graph.add_edge(
                NULL_VERTEX,
                v,
                EdgeKind::Materialize,
                compressed,
                recreation_cost(compressed, uncompressed),
            );
            self.matrices.insert(v, m.clone());
            layer_vertices.insert(layer.clone(), v);
        }
        let members: Vec<VertexId> = layer_vertices.values().copied().collect();
        self.graph
            .add_snapshot(&format!("{version}/s{snap_idx}"), members, f64::INFINITY);
        self.snapshots
            .insert((version.to_string(), snap_idx), layer_vertices.clone());
        layer_vertices
    }

    /// Add delta edges between two registered snapshots for every layer
    /// name they share.
    pub fn link_snapshots(
        &mut self,
        version_a: &str,
        snap_a: usize,
        version_b: &str,
        snap_b: usize,
    ) {
        let Some(a) = self
            .snapshots
            .get(&(version_a.to_string(), snap_a))
            .cloned()
        else {
            return;
        };
        let Some(b) = self
            .snapshots
            .get(&(version_b.to_string(), snap_b))
            .cloned()
        else {
            return;
        };
        let jobs: Vec<(VertexId, VertexId)> = a
            .iter()
            .filter_map(|(layer, &va)| b.get(layer).map(|&vb| (va, vb)))
            .collect();
        // Delta computation + plane compression per shared layer is
        // independent work: measure on the pool in byte-batched chunks
        // (weight = both endpoint payloads), add edges serially.
        let level = self.cost.level;
        let op = self.cost.delta_op;
        let matrices = &self.matrices;
        let measured = mh_par::parallel_map_batched(
            &jobs,
            |&(va, vb)| {
                4 * (matrices.get(&va).map_or(0, |m| m.len())
                    + matrices.get(&vb).map_or(0, |m| m.len()))
            },
            mh_compress::Scratch::new,
            |scratch, &(va, vb)| {
                let planes_size = |bytes: &[u8], scratch: &mut mh_compress::Scratch| {
                    mh_tensor::split_byte_planes(bytes, 4)
                        .iter()
                        .map(|p| mh_compress::compressed_len_with(p, level, scratch))
                        .sum::<usize>() as f64
                };
                let (ma, mb) = (&matrices[&va], &matrices[&vb]);
                // Forward delta a -> b.
                let dab = Delta::compute(ma, mb, op);
                let s_ab = planes_size(&dab.word_bytes(), scratch);
                let rc_ab = recreation_cost(s_ab, (mb.len() * 4) as f64);
                // Backward delta b -> a.
                let dba = Delta::compute(mb, ma, op);
                let s_ba = planes_size(&dba.word_bytes(), scratch);
                let rc_ba = recreation_cost(s_ba, (ma.len() * 4) as f64);
                (s_ab, rc_ab, s_ba, rc_ba)
            },
        )
        .expect("delta measurement workers");
        for (&(va, vb), (s_ab, rc_ab, s_ba, rc_ba)) in jobs.iter().zip(measured) {
            self.graph.add_edge(va, vb, EdgeKind::Delta, s_ab, rc_ab);
            self.graph.add_edge(vb, va, EdgeKind::Delta, s_ba, rc_ba);
        }
    }

    /// Link all adjacent snapshot pairs of one version (checkpoint chain).
    pub fn link_version_chain(&mut self, version: &str, snapshot_indices: &[usize]) {
        for pair in snapshot_indices.windows(2) {
            self.link_snapshots(version, pair[0], version, pair[1]);
        }
    }

    /// Members of a registered snapshot group.
    pub fn snapshot_members(&self, version: &str, snap_idx: usize) -> Option<Vec<VertexId>> {
        self.snapshots
            .get(&(version.to_string(), snap_idx))
            .map(|m| m.values().copied().collect())
    }

    /// Finish, returning the graph and the matrix contents.
    pub fn finish(self) -> (StorageGraph, BTreeMap<VertexId, Matrix>) {
        (self.graph, self.matrices)
    }
}

/// Set every snapshot budget to `alpha ×` its SPT recreation cost — the
/// constraint sweep of Fig 6(c): `Cr(T, sᵢ) ≤ α · Cr(SPT, sᵢ)`.
pub fn apply_alpha_budgets(
    graph: &mut StorageGraph,
    alpha: f64,
    scheme: RetrievalScheme,
) -> Result<(), crate::plan::PlanError> {
    let spt = solver::spt(graph)?;
    let costs: Vec<f64> = graph
        .snapshots
        .iter()
        .map(|s| spt.snapshot_recreation_cost(graph, &s.members, scheme))
        .collect();
    for (s, c) in graph.snapshots.iter_mut().zip(costs) {
        s.budget = alpha * c;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mh_dnn::{zoo, Weights};

    fn snapshot_weights(seed: u64, jitter: f32) -> Weights {
        let net = zoo::lenet_s(4);
        let base = Weights::init(&net, seed).unwrap();
        if jitter == 0.0 {
            base
        } else {
            base.layers()
                .map(|(n, m)| (n.clone(), m.map(|x| x + jitter)))
                .collect()
        }
    }

    #[test]
    fn builder_registers_vertices_and_groups() {
        let mut b = GraphBuilder::new(CostModel::default());
        let w = snapshot_weights(1, 0.0);
        let lv = b.add_snapshot("v1", 0, &w);
        assert_eq!(lv.len(), w.len());
        let (g, mats) = b.finish();
        assert_eq!(g.num_vertices(), 1 + w.len());
        assert_eq!(g.snapshots.len(), 1);
        assert!(g.is_complete());
        assert_eq!(mats.len(), w.len());
    }

    #[test]
    fn close_snapshots_get_cheap_delta_edges() {
        let mut b = GraphBuilder::new(CostModel::default());
        let w0 = snapshot_weights(1, 0.0);
        let w1 = snapshot_weights(1, 1e-4); // adjacent checkpoint: tiny drift
        b.add_snapshot("v1", 0, &w0);
        b.add_snapshot("v1", 1, &w1);
        b.link_version_chain("v1", &[0, 1]);
        let (g, _) = b.finish();
        // Delta edges must be cheaper than materialize edges for the same
        // target (that's why delta encoding wins for checkpoints).
        for e in g.edges().iter().filter(|e| e.kind == EdgeKind::Delta) {
            let mat_cost = g
                .edges()
                .iter()
                .find(|o| o.kind == EdgeKind::Materialize && o.to == e.to)
                .unwrap()
                .storage_cost;
            assert!(
                e.storage_cost < mat_cost,
                "delta {} !< materialize {}",
                e.storage_cost,
                mat_cost
            );
        }
    }

    #[test]
    fn unrelated_versions_get_expensive_deltas() {
        let mut b = GraphBuilder::new(CostModel::default());
        let w0 = snapshot_weights(1, 0.0);
        let w1 = snapshot_weights(999, 0.0); // retrained: unrelated weights
        b.add_snapshot("a", 0, &w0);
        b.add_snapshot("b", 0, &w1);
        b.link_snapshots("a", 0, "b", 0);
        let (g, _) = b.finish();
        // For uncorrelated parameters the delta is roughly as expensive as
        // materializing (the Fig 6(b) "Similar models" finding).
        for e in g.edges().iter().filter(|e| e.kind == EdgeKind::Delta) {
            let mat = g
                .edges()
                .iter()
                .find(|o| o.kind == EdgeKind::Materialize && o.to == e.to)
                .unwrap()
                .storage_cost;
            assert!(
                e.storage_cost > 0.7 * mat,
                "unrelated delta unexpectedly cheap: {} vs {}",
                e.storage_cost,
                mat
            );
        }
    }

    #[test]
    fn end_to_end_solve_and_store() {
        let mut b = GraphBuilder::new(CostModel::default());
        let w0 = snapshot_weights(7, 0.0);
        let w1 = snapshot_weights(7, 5e-5);
        let w2 = snapshot_weights(7, 1e-4);
        b.add_snapshot("v1", 0, &w0);
        b.add_snapshot("v1", 1, &w1);
        b.add_snapshot("v1", 2, &w2);
        b.link_version_chain("v1", &[0, 1, 2]);
        let (mut g, mats) = b.finish();
        apply_alpha_budgets(&mut g, 2.0, RetrievalScheme::Independent).unwrap();
        let plan = solver::pas_mt(&g, RetrievalScheme::Independent).unwrap();
        assert!(plan.satisfies_budgets(&g, RetrievalScheme::Independent));
        // Storage should beat the all-materialized plan.
        let spt = solver::spt(&g).unwrap();
        assert!(plan.storage_cost(&g) <= spt.storage_cost(&g));
        assert_eq!(mats.len(), g.num_vertices() - 1);
    }

    #[test]
    fn alpha_budget_scaling() {
        let mut b = GraphBuilder::new(CostModel::default());
        let w0 = snapshot_weights(3, 0.0);
        b.add_snapshot("v", 0, &w0);
        let (mut g, _) = b.finish();
        apply_alpha_budgets(&mut g, 1.5, RetrievalScheme::Independent).unwrap();
        let spt = solver::spt(&g).unwrap();
        let base =
            spt.snapshot_recreation_cost(&g, &g.snapshots[0].members, RetrievalScheme::Independent);
        assert!((g.snapshots[0].budget - 1.5 * base).abs() < 1e-6);
    }
}
