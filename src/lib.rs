//! # modelhub
//!
//! Umbrella crate for the ModelHub reproduction ("Towards Unified Data and
//! Lifecycle Management for Deep Learning", ICDE 2017). Re-exports every
//! subsystem so examples and integration tests can use one dependency.
//!
//! - [`dlv`] — the model versioning system (repositories, snapshots, lineage)
//! - [`dql`] — the SQL-inspired model exploration/enumeration language
//! - [`pas`] — the parameter archival store (segmentation, deltas, plans,
//!   progressive evaluation)
//! - [`dnn`] — the deep-network substrate (layers, training, interval eval)
//! - [`hub`] — the hosted hub service (`hubd` server + remote client)
//! - [`check`] — the repository verifier (`modelhub fsck`), a re-export of
//!   `mh_dlv::fsck`, which every pull runs too
//! - [`audit`] — syntax-aware panic/alloc auditor (`modelhub audit`)
//! - [`par`] — the shared worker-pool scheduling layer (`MH_THREADS`, `--jobs`)
//! - [`obs`] — metrics, span tracing, and leveled logging (`--trace`, `prof`)
//! - [`bench`] — the experiment harness behind `repro` / `modelhub repro`
//! - [`tensor`], [`delta`], [`compress`], [`store`] — supporting substrates

pub mod cli;

pub use mh_audit as audit;
pub use mh_bench as bench;
pub use mh_check as check;
pub use mh_compress as compress;
pub use mh_delta as delta;
pub use mh_dlv as dlv;
pub use mh_dnn as dnn;
pub use mh_dql as dql;
pub use mh_hub as hub;
pub use mh_obs as obs;
pub use mh_par as par;
pub use mh_pas as pas;
pub use mh_store as store;
pub use mh_tensor as tensor;
pub use modelhub_core as core;

pub use modelhub_core::ModelHub;
