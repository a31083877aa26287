//! # mh-hub
//!
//! The hosted ModelHub service (§III-C of the paper) as a real network
//! service: `hubd`, a hand-rolled HTTP/1.1-subset server over
//! `std::net::TcpListener`, and [`RemoteHub`], the matching client that
//! implements `mh_dlv::HubBackend` so `dlv publish/search/pull` work
//! against `http://host:port` hub URLs exactly as against local
//! directories.
//!
//! Transfers are incremental, git-style: both sides speak in
//! content-addressed objects (SHA-256 of file bytes). A puller sends the
//! hashes it already *has* and the server streams only the missing
//! objects; a publisher first *negotiates* against the previously
//! published content of the same name and uploads only new objects.
//! Object streams are length-prefixed per object and sealed with a
//! whole-transfer checksum (see [`protocol`]).
//!
//! The client retries transient failures with exponential backoff plus
//! jitter, bounds every request with a timeout, and resumes interrupted
//! pulls: received objects land in a cache keyed by hash, and each retry
//! re-negotiates from what already arrived. Every pulled repository
//! passes `mh_dlv::fsck`, the verifier behind `modelhub fsck`, before the
//! pull reports success.
//!
//! The server serves each accepted connection on a blocking thread of its
//! own, routes at most `--jobs` requests at once (default: `MH_THREADS` /
//! core count), and exports per-endpoint request/byte/error counters at
//! `GET /stats`.

pub mod client;
mod handlers;
pub mod http;
pub mod protocol;
pub mod server;
pub mod stats;

pub use client::RemoteHub;
pub use server::{Faults, HubServer};
pub use stats::{Endpoint, StatLine, Stats};

use mh_dlv::{DlvError, ManifestError};

/// Scheme prefix that marks a hub spec as remote.
pub const URL_PREFIX: &str = "http://";

/// Is this hub specification a remote URL (vs a local directory)?
pub fn is_remote_spec(spec: &str) -> bool {
    spec.starts_with(URL_PREFIX)
}

/// Errors from the hub wire protocol, transport, or server.
#[derive(Debug)]
pub enum HubError {
    /// Transport-level I/O failure (connect, read, write).
    Io(std::io::Error),
    /// A request exceeded its deadline.
    Timeout(String),
    /// The peer closed the connection before the message completed.
    ConnectionDropped(String),
    /// A frame or message violated the wire protocol.
    Protocol(String),
    /// A declared size (object, manifest entry, entry count) exceeded a
    /// hard cap. Rejected before any allocation; never transient.
    TooLarge(String),
    /// An object or transfer checksum did not match.
    Checksum { expected: String, got: String },
    /// The server answered with an error status.
    Server {
        status: u16,
        code: String,
        message: String,
    },
    /// Gave up after the configured number of retries.
    RetriesExhausted { attempts: u32, last: String },
    /// An underlying DLV operation failed.
    Dlv(DlvError),
}

impl std::fmt::Display for HubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Timeout(m) => write!(f, "request timed out: {m}"),
            Self::ConnectionDropped(m) => write!(f, "connection dropped: {m}"),
            Self::Protocol(m) => write!(f, "protocol error: {m}"),
            Self::TooLarge(m) => write!(f, "declared size exceeds cap: {m}"),
            Self::Checksum { expected, got } => {
                write!(f, "checksum mismatch: expected {expected}, got {got}")
            }
            Self::Server {
                status,
                code,
                message,
            } => write!(f, "server error {status} ({code}): {message}"),
            Self::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
            Self::Dlv(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HubError {}

impl From<std::io::Error> for HubError {
    fn from(e: std::io::Error) -> Self {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            Self::Timeout(e.to_string())
        } else if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Self::ConnectionDropped(e.to_string())
        } else {
            Self::Io(e)
        }
    }
}

impl From<ManifestError> for HubError {
    fn from(e: ManifestError) -> Self {
        match e {
            ManifestError::TooLarge(m) => Self::TooLarge(m),
            ManifestError::Malformed(m) => Self::Protocol(m),
        }
    }
}

impl From<DlvError> for HubError {
    fn from(e: DlvError) -> Self {
        Self::Dlv(e)
    }
}

impl HubError {
    /// Should the client retry after this error? Transport-level failures
    /// and 5xx responses are transient; protocol violations on a fresh
    /// response, client bugs (4xx), and local DLV failures are not.
    pub fn is_transient(&self) -> bool {
        match self {
            Self::Io(_) | Self::Timeout(_) | Self::ConnectionDropped(_) | Self::Checksum { .. } => {
                true
            }
            Self::Server { status, .. } => *status >= 500,
            Self::Protocol(_)
            | Self::TooLarge(_)
            | Self::RetriesExhausted { .. }
            | Self::Dlv(_) => false,
        }
    }

    /// Fold into a `DlvError` for the `HubBackend` trait surface.
    pub fn into_dlv(self) -> DlvError {
        match self {
            Self::Dlv(e) => e,
            Self::Server {
                status: 404,
                message,
                ..
            } => DlvError::NoSuchVersion(message),
            other => DlvError::Hub(other.to_string()),
        }
    }
}
