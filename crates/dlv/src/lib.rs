//! # mh-dlv
//!
//! DLV — the model versioning system of the ModelHub paper (§III): a
//! git-like VCS specialized for DNN lifecycle artifacts. Model versions
//! carry a network definition, checkpointed weight snapshots, extracted
//! metadata (hyperparameters, training measurements) and associated files;
//! lineage between versions is first-class.
//!
//! Storage is split-backend: structured metadata in the `mh-store`
//! relational catalog, float parameters staged as compressed blobs and
//! archived into `mh-pas` segment stores by `dlv archive`. The hosted
//! ModelHub service (publish / search / pull) is a directory-based hub.
//!
//! ```
//! use mh_dlv::{CommitRequest, Repository};
//! use mh_dnn::{zoo, Weights};
//!
//! let dir = std::env::temp_dir().join(format!("dlv-doc-{}", std::process::id()));
//! let repo = Repository::init(&dir).unwrap();
//!
//! // Commit a model version: network + weight snapshot(s) + metadata.
//! let net = zoo::lenet_s(10);
//! let mut req = CommitRequest::new("lenet", net);
//! req.snapshots = vec![(0, Weights::init(&req.network, 42).unwrap())];
//! req.comment = "initial version".into();
//! let key = repo.commit(&req).unwrap();
//! assert_eq!(key.to_string(), "lenet:1");
//!
//! // Explore it.
//! assert_eq!(repo.list().len(), 1);
//! assert!(repo.desc("lenet").unwrap().layers.len() > 5);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod diff;
pub mod fsck;
pub mod hash;
pub mod hub;
pub mod layercodec;
pub mod repo;
pub mod wfile;

pub use diff::{diff, DiffReport};
pub use hub::{
    committed_manifest, encode_manifest, parse_manifest, pct_decode, pct_encode, pull_into,
    replace_published, validate_rel_path, validate_repo_name, Hub, HubBackend, ManifestEntry,
    ManifestError, SearchHit, Source, MANIFEST_FILE, MAX_MANIFEST_ENTRIES, MAX_OBJECT_BYTES,
};
pub use repo::{
    ArchiveConfig, ArchiveId, ArchiveReport, CommitRequest, Repository, SnapshotInfo, VersionDesc,
    VersionKey, VersionSummary,
};

/// Errors from DLV operations.
#[derive(Debug)]
pub enum DlvError {
    Io(std::io::Error),
    Store(mh_store::StoreError),
    Network(mh_dnn::NetworkError),
    Pas(mh_pas::PasError),
    Pas2(mh_pas::PlanError),
    Compress(mh_compress::CompressError),
    Corrupt(&'static str),
    NoSuchVersion(String),
    NoSuchSnapshot(usize),
    NoSuchFile(String),
    AlreadyExists(String),
    NotARepository(String),
    EmptyCommit,
    NothingToArchive,
    /// Deletion refused: version is archived in a shared PAS store.
    Archived(String),
    /// Deletion refused: version has lineage descendants.
    HasDescendants(String),
    /// A repository name (or manifest path) failed validation — empty,
    /// absolute, containing `..`, dot-prefixed, or illegal characters.
    InvalidName(String),
    /// A hosted-hub operation failed (transport, protocol, or server).
    Hub(String),
    /// A pulled repository failed post-transfer integrity verification.
    Verify(String),
    /// A hub commit names an object (by hash) that was neither uploaded
    /// nor held by the previous publication.
    MissingObject(String),
    /// A hub manifest does not describe the repository it commits: a
    /// path listed twice, missing or extra, or a size its object does
    /// not have.
    BadManifest(String),
}

impl std::fmt::Display for DlvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Store(e) => write!(f, "catalog error: {e}"),
            Self::Network(e) => write!(f, "network error: {e}"),
            Self::Pas(e) => write!(f, "archival error: {e}"),
            Self::Pas2(e) => write!(f, "archival plan error: {e}"),
            Self::Compress(e) => write!(f, "compression error: {e}"),
            Self::Corrupt(m) => write!(f, "corrupt repository: {m}"),
            Self::NoSuchVersion(v) => write!(f, "no such model version '{v}'"),
            Self::NoSuchSnapshot(i) => write!(f, "no such snapshot {i}"),
            Self::NoSuchFile(p) => write!(f, "no such file '{p}'"),
            Self::AlreadyExists(p) => write!(f, "already exists: {p}"),
            Self::NotARepository(p) => write!(f, "not a dlv repository: {p}"),
            Self::EmptyCommit => write!(f, "commit needs at least one snapshot"),
            Self::NothingToArchive => write!(f, "no staged snapshots to archive"),
            Self::Archived(v) => {
                write!(f, "'{v}' is archived; archived versions cannot be deleted")
            }
            Self::HasDescendants(v) => {
                write!(f, "'{v}' has lineage descendants; delete them first")
            }
            Self::InvalidName(n) => {
                write!(f, "invalid repository name or path '{n}'")
            }
            Self::Hub(m) => write!(f, "hub error: {m}"),
            Self::Verify(m) => {
                write!(f, "pulled repository failed verification: {m}")
            }
            Self::MissingObject(h) => {
                write!(f, "object {h} neither uploaded nor already held")
            }
            Self::BadManifest(m) => write!(f, "manifest refused: {m}"),
        }
    }
}

impl std::error::Error for DlvError {}
