//! The ModelHub lifecycle benchmark. See `README.md`.

pub mod gen;
pub mod lifecycle;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod trace;
