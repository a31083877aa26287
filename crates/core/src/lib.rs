//! # modelhub-core
//!
//! The unified ModelHub system (§III of the paper): one facade wiring the
//! DLV versioning system, the PAS archival store, the DQL language, the
//! DNN substrate and the hosted hub together, plus the SD synthetic
//! workload generator used throughout the evaluation.
//!
//! ```no_run
//! use modelhub_core::ModelHub;
//! let hub = ModelHub::init(std::path::Path::new("/tmp/my-models")).unwrap();
//! // hub.repo() gives the DLV repository; hub.query("...") runs DQL.
//! ```

pub mod sd;

use mh_dlv::{ArchiveConfig, ArchiveReport, DlvError, Hub, Repository, SearchHit};
use mh_dnn::{Dataset, Hyperparams, NetworkError};
use mh_dql::{DqlError, Executor, QueryResult};
use mh_pas::{ModelBinding, PasError, ProgressiveEvaluator, ProgressiveResult, SegmentStore};
use mh_tensor::Tensor3;
use std::collections::BTreeMap;
use std::path::Path;

pub use sd::{generate_sd, SdConfig, SdRepo};

/// Errors surfaced by the facade.
#[derive(Debug)]
pub enum CoreError {
    Dlv(DlvError),
    Dql(DqlError),
    Pas(PasError),
    Network(NetworkError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Dlv(e) => write!(f, "{e}"),
            Self::Dql(e) => write!(f, "{e}"),
            Self::Pas(e) => write!(f, "{e}"),
            Self::Network(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// The ModelHub system: a local DLV repository plus DQL execution state.
pub struct ModelHub {
    repo: Repository,
    datasets: BTreeMap<String, Dataset>,
    configs: BTreeMap<String, Hyperparams>,
}

impl ModelHub {
    /// Create a fresh ModelHub instance (a `dlv init` under the hood).
    pub fn init(root: &Path) -> Result<Self, CoreError> {
        Ok(Self {
            repo: Repository::init(root).map_err(CoreError::Dlv)?,
            datasets: BTreeMap::new(),
            configs: BTreeMap::new(),
        })
    }

    /// Open an existing instance.
    pub fn open(root: &Path) -> Result<Self, CoreError> {
        Ok(Self {
            repo: Repository::open(root).map_err(CoreError::Dlv)?,
            datasets: BTreeMap::new(),
            configs: BTreeMap::new(),
        })
    }

    /// The underlying DLV repository.
    pub fn repo(&self) -> &Repository {
        &self.repo
    }

    /// Register a dataset for DQL `evaluate` queries.
    pub fn register_dataset(&mut self, name: &str, data: Dataset) {
        self.datasets.insert(name.to_string(), data);
    }

    /// Register a named base configuration for `with config = "..."`.
    pub fn register_config(&mut self, name: &str, hp: Hyperparams) {
        self.configs.insert(name.to_string(), hp);
    }

    /// Run a DQL query (`dlv query`).
    pub fn query(&self, dql: &str) -> Result<QueryResult, CoreError> {
        let mut exec = Executor::new(&self.repo);
        for (name, d) in &self.datasets {
            exec.register_dataset(name, d.clone());
        }
        for (name, hp) in &self.configs {
            exec.register_config(name, hp.clone());
        }
        exec.run(dql).map_err(CoreError::Dql)
    }

    /// `dlv archive`: move staged snapshots into a PAS store.
    pub fn archive(&self, cfg: &ArchiveConfig) -> Result<ArchiveReport, CoreError> {
        self.repo.archive(cfg).map_err(CoreError::Dlv)
    }

    /// Progressive evaluation of an archived model on one input: fetch
    /// high-order byte planes first, refine only if the prediction is not
    /// determined (§IV-D). Each call builds a fresh evaluator, so nothing
    /// decoded is kept between calls; to answer many queries, hold one
    /// `mh_pas::ProgressiveEvaluator`, which keeps its levels.
    pub fn progressive_eval(
        &self,
        spec: &str,
        input: &Tensor3,
        top_k: usize,
    ) -> Result<ProgressiveResult, CoreError> {
        let (store_dir, mapping) = self.repo.pas_binding(spec, None).map_err(CoreError::Dlv)?;
        let store = SegmentStore::open(&store_dir).map_err(CoreError::Pas)?;
        let net = self.repo.get_network(spec).map_err(CoreError::Dlv)?;
        let binding = ModelBinding::new(net, mapping);
        ProgressiveEvaluator::new(&store, &binding)
            .eval(input, top_k)
            .map_err(CoreError::Pas)
    }

    /// Publish this repository to a hub directory.
    pub fn publish(&self, hub_root: &Path, name: &str) -> Result<(), CoreError> {
        Hub::open(hub_root)
            .and_then(|h| h.publish(&self.repo, name))
            .map_err(CoreError::Dlv)
    }

    /// Search a hub.
    pub fn search(hub_root: &Path, pattern: &str) -> Result<Vec<SearchHit>, CoreError> {
        Hub::open(hub_root)
            .and_then(|h| h.search(pattern))
            .map_err(CoreError::Dlv)
    }

    /// Pull a published repository from a hub.
    pub fn pull(hub_root: &Path, name: &str, dest: &Path) -> Result<Self, CoreError> {
        let repo = Hub::open(hub_root)
            .and_then(|h| h.pull(name, dest))
            .map_err(CoreError::Dlv)?;
        Ok(Self {
            repo,
            datasets: BTreeMap::new(),
            configs: BTreeMap::new(),
        })
    }
}
