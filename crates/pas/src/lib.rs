//! # mh-pas
//!
//! PAS — the read-optimized Parameter Archival Storage of the ModelHub
//! paper (§IV). Maintains large collections of versioned float matrices
//! compactly without compromising query performance:
//!
//! * [`graph`] — the matrix storage graph: matrices ⊎ ν₀, with materialize
//!   and delta storage options weighted by storage/recreation cost;
//! * [`plan`] — spanning-tree storage plans and the Independent / Parallel
//!   / Reusable recreation cost model;
//! * [`solver`] — MST, SPT, the LAST baseline, and the paper's PAS-MT and
//!   PAS-PT heuristics for the NP-hard constrained archival problem;
//! * [`builder`] — constructs the graph from model-repository artifacts
//!   with measured compression costs;
//! * [`segstore`] — the physical byte-plane chunk store; every read, full
//!   or interval-bounded, one vertex or a group, is a plane-prefix
//!   refinement;
//! * [`progressive`] — progressive query evaluation: fetch high-order
//!   planes, interval-evaluate, fetch more only when the prediction is not
//!   yet determined (Lemma 4), keeping every refinement level for the
//!   evaluator's later queries.
//!
//! ```
//! use mh_pas::{apply_alpha_budgets, solver, CostModel, GraphBuilder, RetrievalScheme};
//! use mh_dnn::{zoo, Weights};
//!
//! // Two adjacent checkpoints of one model become a storage graph ...
//! let mut b = GraphBuilder::new(CostModel::default());
//! let net = zoo::lenet_s(4);
//! let w0 = Weights::init(&net, 1).unwrap();
//! let w1: Weights = w0.layers().map(|(n, m)| (n.clone(), m.map(|x| x + 1e-4))).collect();
//! b.add_snapshot("v", 0, &w0);
//! b.add_snapshot("v", 1, &w1);
//! b.link_version_chain("v", &[0, 1]);
//! let (mut graph, _matrices) = b.finish();
//!
//! // ... solved under a 2x recreation budget.
//! apply_alpha_budgets(&mut graph, 2.0, RetrievalScheme::Independent).unwrap();
//! let plan = solver::pas_mt(&graph, RetrievalScheme::Independent).unwrap();
//! assert!(plan.satisfies_budgets(&graph, RetrievalScheme::Independent));
//! // Deltas make the plan cheaper than materializing both snapshots.
//! let spt = solver::spt(&graph).unwrap();
//! assert!(plan.storage_cost(&graph) <= spt.storage_cost(&graph));
//! ```

pub mod builder;
pub mod graph;
pub mod plan;
pub mod progressive;
pub mod segstore;
pub mod solver;

pub use builder::{apply_alpha_budgets, CostModel, GraphBuilder};
pub use graph::{Edge, EdgeId, EdgeKind, SnapshotGroup, StorageGraph, VertexId, NULL_VERTEX};
pub use plan::{PlanError, RetrievalScheme, StoragePlan};
pub use progressive::{BatchStats, ModelBinding, ProgressiveEvaluator, ProgressiveResult};
pub use segstore::{
    parse_manifest, plane_file_name, Histogram, ManifestRow, ObjectKind, PlanePrefix, SegmentStore,
};

/// Pre-register this crate's metric series in the global mh-obs registry
/// so they appear (at zero) in `/metrics` before any PAS work runs.
pub fn register_metrics() {
    let _ = mh_obs::counter!("pas_repair_rounds_total");
    let _ = mh_obs::histogram!("pas_progressive_planes_used", &[1.0, 2.0, 3.0]);
}

/// Errors from PAS operations.
#[derive(Debug)]
pub enum PasError {
    Plan(PlanError),
    Io(std::io::Error),
    Compress(mh_compress::CompressError),
    Corrupt(&'static str),
    /// A matrix required by the plan was not supplied.
    MissingMatrix(String),
    /// Network evaluation failed during a progressive query.
    Eval(String),
    /// A worker in the parallel archival/retrieval pool failed.
    Parallel(String),
    /// A byte-plane count outside `1..=4` was asked for.
    PlaneCount(usize),
}

impl std::fmt::Display for PasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Plan(e) => write!(f, "plan error: {e}"),
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Compress(e) => write!(f, "compression error: {e}"),
            Self::Corrupt(m) => write!(f, "corrupt store: {m}"),
            Self::MissingMatrix(l) => write!(f, "missing matrix for vertex '{l}'"),
            Self::Eval(m) => write!(f, "evaluation error: {m}"),
            Self::Parallel(m) => write!(f, "parallel execution error: {m}"),
            Self::PlaneCount(k) => write!(f, "byte-plane count {k} outside 1..=4"),
        }
    }
}

impl std::error::Error for PasError {}

impl From<mh_par::PoolError> for PasError {
    fn from(e: mh_par::PoolError) -> Self {
        Self::Parallel(e.to_string())
    }
}

impl From<PlanError> for PasError {
    fn from(e: PlanError) -> Self {
        Self::Plan(e)
    }
}
