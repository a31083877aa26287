//! # mh-check
//!
//! The name `modelhub fsck` and the lifecycle benchmark have always
//! imported the repository verifier under. The verifier itself is
//! [`mh_dlv::fsck`], the same function every pull runs; this crate
//! re-exports it unchanged.

pub use mh_dlv::fsck::*;
