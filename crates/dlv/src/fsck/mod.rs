//! The repository verifier behind `modelhub fsck`, every pull and the
//! lifecycle benchmark: integrity checks over the on-disk state a DLV
//! repository accumulates — the relational catalog, the staged and
//! content-addressed blobs, and the PAS segment stores — without
//! retraining a model.
//!
//! The catalog is read once, in one transaction, and every store's
//! `manifest.mhp` is parsed once; all passes work from those copies.
//!
//! 1. **Catalog** ([`catalog`]): referential checks across the `mh-store`
//!    tables (dangling version references, lineage edges to missing
//!    versions, lineage-DAG acyclicity, duplicate version keys, network
//!    edges to missing nodes, undecodable layer definitions) and each
//!    version's network, built and shape-checked.
//! 2. **Blobs** ([`blobs`]): staged weight blobs decode, associated files
//!    in `objects/` exist with matching sha256 and size, orphaned blobs
//!    are reported, archived snapshot locations and `pas_vertex` rows
//!    resolve.
//! 3. **PAS** ([`pasck`]): every segment store's manifest parses, plane
//!    files exist with the recorded compressed sizes, the implied storage
//!    plan satisfies the paper's invariants (one parent edge per matrix
//!    vertex, every vertex reachable from the materialized root ν₀, no
//!    delta-chain cycles), recorded per-snapshot recreation costs stay
//!    within their α-budgets, and every stored plane of a structurally
//!    sound store decodes to its declared length
//!    ([`SegmentStore::verify`](mh_pas::SegmentStore::verify), each plane
//!    once). With [`FsckConfig::deep`], byte-plane prefixes additionally
//!    give per-snapshot worst-case error bounds via the interval
//!    arithmetic, and full recreation is checked to land inside them.
//!
//! Every problem is a [`Finding`] with a stable code (`C0xx` catalog,
//! `B0xx` blobs, `P0xx` PAS structure and decoding, `E0xx` error bounds
//! and budgets); a clean repository yields zero findings.

use crate::DlvError;
use std::path::Path;

mod blobs;
mod catalog;
mod pasck;

/// How bad a finding is. `Error` means the repository is damaged;
/// `Warning` flags suspicious-but-tolerable state (orphans, missing
/// optional tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Warning => write!(f, "warning"),
            Self::Error => write!(f, "error"),
        }
    }
}

/// One integrity finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub severity: Severity,
    /// Stable machine-readable code (see the module docs).
    pub code: &'static str,
    /// Where the problem is (`catalog.mhs:node#12`, `pas/store0000/...`).
    pub location: String,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.location, self.message
        )
    }
}

// Catalog layer.
/// Required catalog table is missing.
pub const C_MISSING_TABLE: &str = "C001";
/// Row references a model-version id with no `model_version` row.
pub const C_DANGLING_VERSION_REF: &str = "C002";
/// Lineage edge endpoint names no existing version.
pub const C_DANGLING_LINEAGE: &str = "C003";
/// Lineage graph has a cycle.
pub const C_LINEAGE_CYCLE: &str = "C004";
/// Two `model_version` rows share (name, vid).
pub const C_DUPLICATE_VERSION: &str = "C005";
/// Network edge references a node id with no `node` row.
pub const C_BAD_EDGE_ENDPOINT: &str = "C006";
/// Layer definition fails to decode.
pub const C_BAD_LAYER_DEF: &str = "C007";
/// Snapshot location is neither `staged:` nor `pas:`.
pub const C_BAD_SNAPSHOT_LOCATION: &str = "C008";
/// A version's network does not build from its rows, or fails shape
/// inference.
pub const C_BAD_NETWORK: &str = "C009";

// Blob layer.
/// Staged snapshot blob file is missing.
pub const B_MISSING_BLOB: &str = "B020";
/// Staged blob exists but does not parse as a weights file.
pub const B_CORRUPT_BLOB: &str = "B021";
/// Content-addressed object for a `file` row is missing.
pub const B_MISSING_OBJECT: &str = "B022";
/// Object content hashes to something other than its recorded digest.
pub const B_HASH_MISMATCH: &str = "B023";
/// Object size differs from the recorded byte count.
pub const B_SIZE_MISMATCH: &str = "B024";
/// Blob/object on disk referenced by no catalog row.
pub const B_ORPHAN_BLOB: &str = "B025";
/// `pas:` snapshot location or `pas_vertex` row names a store that
/// does not exist on disk.
pub const B_MISSING_STORE: &str = "B026";
/// `pas_vertex` row points at a vertex absent from the store manifest.
pub const B_DANGLING_PAS_VERTEX: &str = "B027";
/// `pas:` snapshot has no `pas_vertex` rows.
pub const B_NO_PAS_VERTICES: &str = "B028";

// PAS structure layer.
/// Manifest fails to parse (header, row shape, numbers, object kind).
pub const P_BAD_MANIFEST: &str = "P030";
/// Byte-plane file is missing.
pub const P_MISSING_PLANE: &str = "P031";
/// Byte-plane file size differs from the manifest's compressed size.
pub const P_PLANE_SIZE_MISMATCH: &str = "P032";
/// Delta chain contains a cycle (vertex unreachable from ν₀).
pub const P_CHAIN_CYCLE: &str = "P033";
/// Parent edge points at a vertex not in the manifest.
pub const P_DANGLING_PARENT: &str = "P034";
/// Chain root is not materialized.
pub const P_ROOT_NOT_MATERIALIZED: &str = "P035";
/// Materialized object has a parent edge (mid-chain materialization).
pub const P_MATERIALIZED_MID_CHAIN: &str = "P036";
/// Plane file on disk matching no manifest entry.
pub const P_ORPHAN_PLANE: &str = "P037";
/// Same vertex appears in more than one manifest row (violates the
/// one-parent-edge-per-matrix-vertex plan invariant).
pub const P_DUPLICATE_VERTEX: &str = "P038";
/// A structurally sound store holds a plane that does not decode to its
/// declared length, or a chain that does not recreate.
pub const P_UNDECODABLE_STORE: &str = "P039";

// Error-bound / budget layer.
/// Recorded recreation cost exceeds the declared α-budget.
pub const E_BUDGET_EXCEEDED: &str = "E040";
/// Repository has archived stores but no `pas_budget` table.
pub const E_MISSING_BUDGET_TABLE: &str = "E041";
/// Budget row references a store that does not exist.
pub const E_BUDGET_STORE_MISSING: &str = "E042";
/// Archived store has no recorded budget rows.
pub const E_NO_BUDGET_ROWS: &str = "E043";
/// Deep check: interval bounds are inverted, or full recreation falls
/// outside the prefix-derived bounds.
pub const E_BOUND_VIOLATION: &str = "E044";

/// Per-snapshot worst-case error bound derived from byte-plane prefixes
/// (deep mode only).
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotBound {
    pub store: String,
    /// Snapshot name as archived: `name:id/sN`.
    pub snapshot: String,
    /// Layers (vertices) contributing to the bound.
    pub layers: usize,
    /// Byte planes used (of 4).
    pub planes: usize,
    /// Worst per-weight interval width `max(hi - lo)` across all layers.
    pub worst_width: f32,
}

/// What `fsck` should do.
#[derive(Debug, Clone, Default)]
pub struct FsckConfig {
    /// Also recreate every stored vertex: prefix-derived interval bounds
    /// are well-formed, full recreation lands inside them, and
    /// per-snapshot worst-case bounds are reported.
    pub deep: bool,
}

/// The outcome of an `fsck` run.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    pub findings: Vec<Finding>,
    /// Per-snapshot worst-case bounds (populated in deep mode).
    pub bounds: Vec<SnapshotBound>,
    pub versions_checked: usize,
    pub stores_checked: usize,
    pub blobs_checked: usize,
}

impl FsckReport {
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
    }

    /// No findings at all — the repository is fully consistent.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    fn error(
        &mut self,
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.findings.push(Finding {
            severity: Severity::Error,
            code,
            location: location.into(),
            message: message.into(),
        });
    }

    fn warn(
        &mut self,
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.findings.push(Finding {
            severity: Severity::Warning,
            code,
            location: location.into(),
            message: message.into(),
        });
    }
}

/// Run every check over the repository at `root`. A missing or
/// unreadable catalog stops the run ([`DlvError::NotARepository`],
/// [`DlvError::Store`]); everything else is a finding.
pub fn fsck(root: &Path, cfg: &FsckConfig) -> Result<FsckReport, DlvError> {
    if !root.join("catalog.mhs").exists() {
        return Err(DlvError::NotARepository(root.display().to_string()));
    }
    let catalog = mh_store::Catalog::open(&root.join("catalog.mhs")).map_err(DlvError::Store)?;
    let mut sp = mh_obs::span("dlv.fsck");
    let snap = catalog.read(catalog::CatalogSnapshot::collect);
    let mut report = FsckReport::default();
    catalog::check(&snap, &mut report);
    let stores = pasck::read_stores(root, &snap);
    blobs::check(root, &snap, &stores, &mut report);
    let planes_decoded = pasck::check(stores, &snap, cfg, &mut report);
    if sp.is_recording() {
        sp.field("stores", report.stores_checked);
        sp.field("snapshots", snap.snapshots.len());
        sp.field("planes_decoded", planes_decoded);
    }
    Ok(report)
}
