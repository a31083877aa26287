//! The hosted ModelHub service (§III-C): `dlv publish`, `dlv search`,
//! `dlv pull`.
//!
//! Two backends implement the [`HubBackend`] trait:
//!
//! - [`Hub`] (this module) — a hub rooted at a local directory. A
//!   published repository is a plain directory holding exactly the
//!   repository's *committed content* (see [`committed_manifest`]).
//! - `mh_hub::RemoteHub` — a networked client for the `hubd` server,
//!   which negotiates content-addressed objects so repeat transfers move
//!   only what the other side is missing.
//!
//! Both backends share one publish path and one pull path, in this
//! module. [`Hub::commit`] builds a publication from a manifest inside
//! [`replace_published`] (stage into a hidden sibling directory, rename
//! into place), so a crash mid-publish never leaves a half-copied or
//! missing published repository; `hubd` calls it with the objects a
//! client uploaded, [`Hub::publish`] with a local repository. The
//! publication stores its checked manifest ([`MANIFEST_FILE`]), which
//! [`Hub::manifest`] reads back for negotiation, pulls and `hubd`.
//! [`pull_into`] stages a pull next to its destination, fsck's it and
//! only then renames it into place; [`Hub::pull`]
//! feeds it the published files, `RemoteHub` its object cache.
//! Repository names and manifest paths are validated against path
//! traversal ([`validate_repo_name`], [`validate_rel_path`]).

use crate::repo::Repository;
use crate::{hash, DlvError};
use mh_store::like_match;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The operations every hub backend (local directory or remote `hubd`)
/// provides. `dlv publish/search/pull` program against this trait.
pub trait HubBackend {
    /// Push a repository under a public name, replacing any previous
    /// publication of that name atomically.
    fn publish(&self, repo: &Repository, name: &str) -> Result<(), DlvError>;
    /// All published repository names, sorted.
    fn repositories(&self) -> Result<Vec<String>, DlvError>;
    /// Match a SQL-LIKE pattern against repository names, model names and
    /// comments.
    fn search(&self, pattern: &str) -> Result<Vec<SearchHit>, DlvError>;
    /// Clone a published repository to a local destination, verifying its
    /// integrity before returning.
    fn pull(&self, name: &str, dest: &Path) -> Result<Repository, DlvError>;
}

/// A hub rooted at a directory.
#[derive(Debug)]
pub struct Hub {
    root: PathBuf,
}

/// One search hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchHit {
    pub repo: String,
    pub version: String,
    pub architecture: String,
    pub comment: String,
}

/// One file of a repository's committed content: a repo-relative
/// `/`-separated path, its byte size, and the SHA-256 of its contents.
/// The manifest is the unit of hub transfer negotiation: hashes are the
/// "have/want" currency, paths say where objects land on assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    pub path: String,
    pub size: u64,
    pub hash: String,
}

/// Hard cap on the size one manifest entry (or one streamed object) may
/// declare, so a hostile length cannot balloon receiver memory.
pub const MAX_OBJECT_BYTES: u64 = 1 << 30;

/// Hard cap on manifest entry count: a manifest declaring more lines
/// than this is rejected before the entries are materialized.
pub const MAX_MANIFEST_ENTRIES: usize = 1 << 16;

/// Why a manifest body (or a percent-encoded field) was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// A declared size or the entry count exceeds its cap.
    TooLarge(String),
    /// A malformed line, hash, size, percent escape or UTF-8 sequence.
    Malformed(String),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooLarge(m) => write!(f, "declared size exceeds cap: {m}"),
            Self::Malformed(m) => write!(f, "malformed manifest: {m}"),
        }
    }
}

impl std::error::Error for ManifestError {}

/// Percent-encode everything outside `[A-Za-z0-9._~-]`.
pub fn pct_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Decode percent-encoding; rejects malformed escapes and invalid UTF-8.
/// Total on arbitrary input (query strings arrive straight off the wire).
// mh-audit: no_panic_zone
pub fn pct_decode(s: &str) -> Result<String, ManifestError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        if b == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .ok_or_else(|| ManifestError::Malformed(format!("bad percent escape in '{s}'")))?;
            out.push(hex);
            i += 3;
        } else {
            out.push(b);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| ManifestError::Malformed(format!("invalid utf-8 in '{s}'")))
}

/// The manifest grammar, shared by the hub wire protocol and the stored
/// `.manifest` of a publication: one entry per line,
/// `<sha256-hex> <size> <pct-encoded-path>`.
pub fn encode_manifest(entries: &[ManifestEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str(&format!("{} {} {}\n", e.hash, e.size, pct_encode(&e.path)));
    }
    out
}

/// Parse a manifest body, enforcing the declared-size caps: at most
/// [`MAX_MANIFEST_ENTRIES`] entries, each declaring at most
/// [`MAX_OBJECT_BYTES`]. Oversized declarations are
/// [`ManifestError::TooLarge`] and rejected before the entry vector
/// grows, so a handful of hostile header bytes cannot reserve gigabytes.
// mh-audit: no_panic_zone
pub fn parse_manifest(body: &str) -> Result<Vec<ManifestEntry>, ManifestError> {
    let mut out = Vec::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if out.len() >= MAX_MANIFEST_ENTRIES {
            return Err(ManifestError::TooLarge(format!(
                "manifest exceeds {MAX_MANIFEST_ENTRIES} entries"
            )));
        }
        let mut parts = line.splitn(3, ' ');
        let (hash, size, path) = match (parts.next(), parts.next(), parts.next()) {
            (Some(h), Some(s), Some(p)) => (h, s, p),
            _ => {
                return Err(ManifestError::Malformed(format!(
                    "bad manifest line '{line}'"
                )))
            }
        };
        if hash.len() != 64 || !hash.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(ManifestError::Malformed(format!(
                "bad manifest hash '{hash}'"
            )));
        }
        let size: u64 = size
            .parse()
            .map_err(|_| ManifestError::Malformed(format!("bad manifest size '{size}'")))?;
        if size > MAX_OBJECT_BYTES {
            return Err(ManifestError::TooLarge(format!(
                "manifest entry declares {size} bytes (cap {MAX_OBJECT_BYTES})"
            )));
        }
        out.push(ManifestEntry {
            hash: hash.to_string(),
            size,
            path: pct_decode(path)?,
        });
    }
    Ok(out)
}

/// Validate a published repository name: `/`-separated segments, each
/// non-empty, not dot-prefixed (which also rejects `.` and `..`), and
/// drawn from `[A-Za-z0-9._-]`. Rejects absolute paths (their leading
/// `/` yields an empty first segment), traversal (`..`), and anything
/// that could escape the hub root when joined onto it.
pub fn validate_repo_name(name: &str) -> Result<(), DlvError> {
    if name.is_empty() || name.len() > 255 || !name.split('/').all(valid_segment) {
        return Err(DlvError::InvalidName(name.to_string()));
    }
    Ok(())
}

/// Validate a repo-relative manifest path with the same segment rules as
/// repository names. Applied to every server- or client-supplied path
/// before it is joined onto a local directory.
pub fn validate_rel_path(path: &str) -> Result<(), DlvError> {
    if path.is_empty() || path.len() > 1024 || !path.split('/').all(valid_segment) {
        return Err(DlvError::InvalidName(path.to_string()));
    }
    Ok(())
}

fn valid_segment(seg: &str) -> bool {
    !seg.is_empty()
        && !seg.starts_with('.')
        && seg
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

/// Transient working state that must never be published or pulled:
/// atomic-write temporaries, locks, partial transfers, and hidden
/// staging/cache directories.
fn is_transient(name: &str) -> bool {
    name.starts_with('.')
        || name.ends_with(".tmp")
        || name.ends_with(".lock")
        || name.ends_with(".part")
}

/// The repo-relative paths of a repository's *committed content*: the
/// catalog, every staged snapshot blob the catalog references, every
/// content-addressed associated file, and every file of each PAS store
/// holding archived snapshots. Orphaned blobs, transient files, and
/// symlinks are excluded by construction.
fn committed_paths(repo: &Repository) -> Result<BTreeSet<String>, DlvError> {
    let mut paths: BTreeSet<String> = BTreeSet::new();
    paths.insert("catalog.mhs".to_string());
    let mut stores: BTreeSet<String> = BTreeSet::new();
    for v in repo.list() {
        let spec = v.key.to_string();
        for s in repo.snapshots(&spec)? {
            if let Some(rel) = s.location.strip_prefix("staged:") {
                paths.insert(rel.to_string());
            } else if let Some(store) = s.location.strip_prefix("pas:") {
                stores.insert(store.to_string());
            }
        }
        for (_, digest, _) in repo.desc(&spec)?.files {
            paths.insert(format!("objects/{digest}"));
        }
    }
    for store in &stores {
        collect_files(
            &repo.root().join("pas").join(store),
            &format!("pas/{store}"),
            &mut paths,
        )
        .map_err(DlvError::Io)?;
    }
    Ok(paths)
}

/// The manifest of a repository's committed content
/// ([`committed_paths`]), each file hashed. A published repo is exactly
/// its committed content.
pub fn committed_manifest(repo: &Repository) -> Result<Vec<ManifestEntry>, DlvError> {
    let mut out = Vec::new();
    for path in committed_paths(repo)? {
        let data = std::fs::read(repo.root().join(&path)).map_err(DlvError::Io)?;
        out.push(ManifestEntry {
            hash: hash::sha256_hex(&data),
            size: data.len() as u64,
            path,
        });
    }
    Ok(out)
}

/// Recursively collect regular files under `dir` as `prefix/`-relative
/// paths, skipping symlinks and transient files.
fn collect_files(dir: &Path, prefix: &str, out: &mut BTreeSet<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let ft = entry.file_type()?; // does not follow symlinks
        let name = entry.file_name().to_string_lossy().to_string();
        if is_transient(&name) {
            continue;
        }
        if ft.is_dir() {
            collect_files(&entry.path(), &format!("{prefix}/{name}"), out)?;
        } else if ft.is_file() {
            out.insert(format!("{prefix}/{name}"));
        }
    }
    Ok(())
}

static STAGE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A process-unique suffix for staging directory names.
fn unique_suffix() -> String {
    let seq = STAGE_SEQ.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    format!("{}-{seq}-{nanos}", std::process::id())
}

/// Create the standard repository directories an assembled copy needs
/// even when empty (`Repository::archive` and friends read them).
fn create_standard_dirs(root: &Path) -> Result<(), DlvError> {
    for d in ["weights", "objects", "pas"] {
        std::fs::create_dir_all(root.join(d)).map_err(DlvError::Io)?;
    }
    Ok(())
}

/// The path of the repo-relative file `rel` inside `stage`, with its
/// parent directories created. `rel` is validated first, so no
/// manifest path can escape the stage.
fn staged_file(stage: &Path, rel: &str) -> Result<PathBuf, DlvError> {
    validate_rel_path(rel)?;
    let to = stage.join(rel);
    if let Some(parent) = to.parent() {
        std::fs::create_dir_all(parent).map_err(DlvError::Io)?;
    }
    Ok(to)
}

/// Atomically (re)place the published repository `name` under `root`:
/// `build` populates a hidden staging directory which is then renamed
/// into place, replacing any previous publication. A failure in `build`
/// — or a crash at any point — leaves the previous publication intact;
/// the worst case is an orphaned hidden staging directory, which later
/// publishes ignore and never serve. Concurrent publishers of the same
/// name race on the final rename and both succeed (last writer wins).
pub fn replace_published<F>(root: &Path, name: &str, build: F) -> Result<(), DlvError>
where
    F: FnOnce(&Path) -> Result<(), DlvError>,
{
    validate_repo_name(name)?;
    let dst = root.join(name);
    // Refuse to nest a publication inside an existing published repo.
    for anc in Path::new(name).ancestors().skip(1) {
        if !anc.as_os_str().is_empty() && root.join(anc).join("catalog.mhs").exists() {
            return Err(DlvError::Hub(format!(
                "'{name}' would nest inside published repository '{}'",
                anc.display()
            )));
        }
    }
    let suffix = unique_suffix();
    let stage = root.join(format!(".stage-{suffix}"));
    std::fs::create_dir_all(&stage).map_err(DlvError::Io)?;
    if let Err(e) = build(&stage) {
        let _ = std::fs::remove_dir_all(&stage);
        return Err(e);
    }
    if let Some(parent) = dst.parent() {
        std::fs::create_dir_all(parent).map_err(DlvError::Io)?;
    }
    for attempt in 0..16 {
        if dst.exists() {
            let old = root.join(format!(".old-{suffix}-{attempt}"));
            match std::fs::rename(&dst, &old) {
                Ok(()) => {
                    let _ = std::fs::remove_dir_all(&old);
                }
                // A racing publisher already moved it aside.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(_) => continue,
            }
        }
        match std::fs::rename(&stage, &dst) {
            Ok(()) => return Ok(()),
            // Raced with another publisher whose stage landed first: loop
            // to move theirs aside and try again.
            Err(_) if dst.exists() => continue,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&stage);
                return Err(DlvError::Io(e));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&stage);
    Err(DlvError::Hub(format!(
        "publish of '{name}' kept losing the rename race; giving up"
    )))
}

/// `dlv pull` for every backend: assemble a repository at `dest` from
/// local files. `fetch` runs once `dest` is known to be free and returns
/// each committed file as (file to copy from, repo-relative path).
/// The copies are staged next to `dest`, [`crate::fsck::fsck`] at its
/// default level must find no error in the stage, and only then is it
/// renamed into place. On any failure `dest` is left absent and the
/// staging directory removed.
///
/// Every copied byte was already checked against the hash the manifest
/// names for it, which proves the bytes are the ones the hub published;
/// the fsck proves they form a readable repository (a publication can
/// be hash-consistent and still not decode).
pub fn pull_into<E: From<DlvError>>(
    dest: &Path,
    fetch: impl FnOnce() -> Result<Vec<(PathBuf, String)>, E>,
) -> Result<Repository, E> {
    if dest.exists() {
        return Err(DlvError::AlreadyExists(dest.display().to_string()).into());
    }
    let parent = dest.parent().unwrap_or(Path::new("."));
    std::fs::create_dir_all(parent).map_err(DlvError::Io)?;
    let files = fetch()?;
    let stage = parent.join(format!(".pull-{}", unique_suffix()));
    let assembled = (|| -> Result<(), DlvError> {
        create_standard_dirs(&stage)?;
        for (from, rel) in &files {
            std::fs::copy(from, staged_file(&stage, rel)?).map_err(DlvError::Io)?;
        }
        let report = crate::fsck::fsck(&stage, &crate::fsck::FsckConfig::default())?;
        if report.errors() > 0 {
            let errors: Vec<String> = report
                .findings
                .iter()
                .filter(|f| f.severity == crate::fsck::Severity::Error)
                .map(|f| f.to_string())
                .collect();
            return Err(DlvError::Verify(errors.join("; ")));
        }
        std::fs::rename(&stage, dest).map_err(|e| {
            if dest.exists() {
                DlvError::AlreadyExists(dest.display().to_string())
            } else {
                DlvError::Io(e)
            }
        })
    })();
    if let Err(e) = assembled {
        let _ = std::fs::remove_dir_all(&stage);
        return Err(e.into());
    }
    Ok(Repository::open(dest)?)
}

/// The file inside a publication that holds its manifest, written by
/// [`Hub::commit`] and read by [`Hub::manifest`]. Its leading dot keeps
/// it out of [`committed_paths`], [`Hub::repositories`] and every pull.
pub const MANIFEST_FILE: &str = ".manifest";

/// Copy `from` to `to`, checking the bytes against `entry`'s size and
/// hash as they stream past; a mismatch is [`DlvError::Verify`].
fn copy_verified(from: &Path, to: &Path, entry: &ManifestEntry) -> Result<(), DlvError> {
    struct Hashing<W> {
        out: W,
        hasher: hash::Sha256,
        len: u64,
    }
    impl<W: Write> Write for Hashing<W> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = self.out.write(buf)?;
            self.hasher.update(buf.get(..n).unwrap_or_default());
            self.len += n as u64;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.out.flush()
        }
    }
    let mut sink = Hashing {
        out: std::fs::File::create(to).map_err(DlvError::Io)?,
        hasher: hash::Sha256::new(),
        len: 0,
    };
    let mut src = std::fs::File::open(from).map_err(DlvError::Io)?;
    std::io::copy(&mut src, &mut sink).map_err(DlvError::Io)?;
    if sink.len != entry.size || sink.hasher.finalize_hex() != entry.hash {
        return Err(DlvError::Verify(format!(
            "held object '{}' does not match its hash {}",
            entry.path, entry.hash
        )));
    }
    Ok(())
}

/// Where [`Hub::commit`] takes the bytes of each manifest entry from.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// A repository directory: every entry is copied from its path.
    Repo(&'a Path),
    /// Objects received by hash. An entry whose hash is not among them
    /// must be held by the previous publication of the same name.
    Objects(&'a BTreeMap<String, Vec<u8>>),
}

impl Hub {
    /// Open (or create) a hub at `root`.
    pub fn open(root: &Path) -> Result<Self, DlvError> {
        std::fs::create_dir_all(root).map_err(DlvError::Io)?;
        Ok(Self {
            root: root.to_path_buf(),
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// `dlv publish`: push a repository under a public name (replacing any
    /// previous publication of the same name). Only the repository's
    /// committed content is copied; see [`Hub::commit`].
    pub fn publish(&self, repo: &Repository, name: &str) -> Result<(), DlvError> {
        self.commit(name, &committed_manifest(repo)?, Source::Repo(repo.root()))
    }

    /// Build the publication `name` from `manifest` inside
    /// [`replace_published`], so a failure or crash never disturbs the
    /// previous publication. Each entry comes from `source` or, by hash,
    /// from the previous publication of `name`; an entry found in
    /// neither fails the commit with [`DlvError::MissingObject`].
    ///
    /// The manifest is stored with the publication (sorted by path, in
    /// [`MANIFEST_FILE`]), so it is checked first: its paths must be
    /// exactly the staged repository's committed content, each once, and
    /// every entry's bytes must match its size and hash. Received objects
    /// arrive hash-checked and `Source::Repo` entries were just hashed by
    /// [`committed_manifest`]; objects copied from the previous
    /// publication are hashed as they are copied. A mismatch fails the
    /// commit with [`DlvError::BadManifest`] or [`DlvError::Verify`].
    pub fn commit(
        &self,
        name: &str,
        manifest: &[ManifestEntry],
        source: Source<'_>,
    ) -> Result<(), DlvError> {
        let mut sorted = manifest.to_vec();
        sorted.sort_by(|a, b| a.path.cmp(&b.path));
        let paths: BTreeSet<String> = sorted.iter().map(|e| e.path.clone()).collect();
        if paths.len() != sorted.len() {
            return Err(DlvError::BadManifest("a path is listed twice".into()));
        }
        let held = match source {
            Source::Objects(received)
                if manifest.iter().any(|e| !received.contains_key(&e.hash)) =>
            {
                self.held(name)?
            }
            _ => BTreeMap::new(),
        };
        let old_dir = self.root.join(name);
        replace_published(&self.root, name, |stage| {
            create_standard_dirs(stage)?;
            for entry in &sorted {
                let to = staged_file(stage, &entry.path)?;
                match source {
                    Source::Repo(root) => {
                        std::fs::copy(root.join(&entry.path), &to).map_err(DlvError::Io)?;
                    }
                    Source::Objects(received) => {
                        match (received.get(&entry.hash), held.get(&entry.hash)) {
                            (Some(data), _) if data.len() as u64 != entry.size => {
                                return Err(DlvError::BadManifest(format!(
                                    "'{}' declares {} bytes, its object holds {}",
                                    entry.path,
                                    entry.size,
                                    data.len()
                                )))
                            }
                            (Some(data), _) => std::fs::write(&to, data).map_err(DlvError::Io)?,
                            (None, Some(rel)) => copy_verified(&old_dir.join(rel), &to, entry)?,
                            (None, None) => {
                                return Err(DlvError::MissingObject(entry.hash.clone()))
                            }
                        }
                    }
                }
            }
            let staged = Repository::open(stage)
                .map_err(|e| DlvError::BadManifest(format!("the catalog does not open: {e}")))?;
            if committed_paths(&staged)? != paths {
                return Err(DlvError::BadManifest(
                    "its paths are not the repository's committed content".into(),
                ));
            }
            std::fs::write(stage.join(MANIFEST_FILE), encode_manifest(&sorted))
                .map_err(DlvError::Io)
        })
    }

    /// The committed-content manifest of the publication `name`, as
    /// stored by [`Hub::commit`]. A publication made before manifests
    /// were stored has none; its files are hashed instead. A stored
    /// manifest that does not parse is an error.
    pub fn manifest(&self, name: &str) -> Result<Vec<ManifestEntry>, DlvError> {
        self.stored_manifest(name)?
            .map_err(|e| DlvError::Hub(format!("stored manifest of '{name}': {e}")))
    }

    /// [`Hub::manifest`], with a stored manifest's parse error kept apart
    /// from the errors of reaching it.
    fn stored_manifest(
        &self,
        name: &str,
    ) -> Result<Result<Vec<ManifestEntry>, ManifestError>, DlvError> {
        let dir = self.published(name)?;
        match std::fs::read_to_string(dir.join(MANIFEST_FILE)) {
            Ok(body) => Ok(parse_manifest(&body)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                committed_manifest(&Repository::open(&dir)?).map(Ok)
            }
            Err(e) => Err(DlvError::Io(e)),
        }
    }

    /// The directory of the publication `name`.
    fn published(&self, name: &str) -> Result<PathBuf, DlvError> {
        validate_repo_name(name)?;
        let dir = self.root.join(name);
        if !dir.join("catalog.mhs").exists() {
            return Err(DlvError::NoSuchVersion(name.to_string()));
        }
        Ok(dir)
    }

    /// Publish negotiation: the hashes of `manifest` that the publication
    /// `name` does not already hold (all of them if `name` is unpublished).
    pub fn wants(
        &self,
        name: &str,
        manifest: &[ManifestEntry],
    ) -> Result<BTreeSet<String>, DlvError> {
        let held = self.held(name)?;
        Ok(manifest
            .iter()
            .filter(|e| !held.contains_key(&e.hash))
            .map(|e| e.hash.clone())
            .collect())
    }

    /// Hash → repo-relative path over the publication `name`; empty if
    /// `name` is not published or its stored manifest does not parse.
    /// Negotiation then asks for every object, so a republish replaces a
    /// garbled manifest instead of failing on it forever.
    fn held(&self, name: &str) -> Result<BTreeMap<String, String>, DlvError> {
        let manifest = match self.stored_manifest(name) {
            Err(DlvError::NoSuchVersion(_)) => return Ok(BTreeMap::new()),
            stored => stored?.unwrap_or_default(),
        };
        Ok(manifest.into_iter().map(|e| (e.hash, e.path)).collect())
    }

    /// Published repository names. Names may contain `/` (e.g.
    /// `team/vision`): a directory is a repository iff it holds a
    /// `catalog.mhs`; other directories are namespaces to recurse into.
    /// Hidden entries (staging, caches) are never listed.
    pub fn repositories(&self) -> Result<Vec<String>, DlvError> {
        fn walk(dir: &Path, prefix: &str, out: &mut Vec<String>) -> std::io::Result<()> {
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                if !entry.file_type()?.is_dir() {
                    continue;
                }
                let name = entry.file_name().to_string_lossy().to_string();
                if name.starts_with('.') {
                    continue;
                }
                let full = if prefix.is_empty() {
                    name
                } else {
                    format!("{prefix}/{name}")
                };
                if entry.path().join("catalog.mhs").exists() {
                    out.push(full);
                } else {
                    walk(&entry.path(), &full, out)?;
                }
            }
            Ok(())
        }
        let mut out = Vec::new();
        walk(&self.root, "", &mut out).map_err(DlvError::Io)?;
        out.sort();
        Ok(out)
    }

    /// `dlv search`: match a SQL-LIKE pattern against repository names,
    /// model names and comments.
    pub fn search(&self, pattern: &str) -> Result<Vec<SearchHit>, DlvError> {
        let mut hits = Vec::new();
        for repo_name in self.repositories()? {
            let repo = Repository::open(&self.root.join(&repo_name))?;
            for summary in repo.list() {
                let hay = [
                    repo_name.as_str(),
                    summary.key.name.as_str(),
                    summary.comment.as_str(),
                ];
                if hay.iter().any(|h| like_match(pattern, h))
                    || hay.iter().any(|h| h.contains(pattern))
                {
                    hits.push(SearchHit {
                        repo: repo_name.clone(),
                        version: summary.key.to_string(),
                        architecture: summary.architecture.clone(),
                        comment: summary.comment.clone(),
                    });
                }
            }
        }
        Ok(hits)
    }

    /// `dlv pull`: clone the committed content of a published repository
    /// to a local destination through [`pull_into`].
    pub fn pull(&self, name: &str, dest: &Path) -> Result<Repository, DlvError> {
        let src = self.published(name)?;
        pull_into(dest, || {
            let manifest = self.manifest(name)?;
            Ok(manifest
                .into_iter()
                .map(|e| (src.join(&e.path), e.path))
                .collect())
        })
    }
}

impl HubBackend for Hub {
    fn publish(&self, repo: &Repository, name: &str) -> Result<(), DlvError> {
        Hub::publish(self, repo, name)
    }

    fn repositories(&self) -> Result<Vec<String>, DlvError> {
        Hub::repositories(self)
    }

    fn search(&self, pattern: &str) -> Result<Vec<SearchHit>, DlvError> {
        Hub::search(self, pattern)
    }

    fn pull(&self, name: &str, dest: &Path) -> Result<Repository, DlvError> {
        Hub::pull(self, name, dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(hash: &str, size: u64, path: &str) -> String {
        format!("{hash} {size} {path}\n")
    }

    #[test]
    fn oversized_declarations_are_too_large_and_bad_lines_malformed() {
        let h = "a".repeat(64);
        let over = line(&h, MAX_OBJECT_BYTES + 1, "p");
        assert!(matches!(
            parse_manifest(&over),
            Err(ManifestError::TooLarge(_))
        ));
        let many = line(&h, 1, "p").repeat(MAX_MANIFEST_ENTRIES + 1);
        assert!(matches!(
            parse_manifest(&many),
            Err(ManifestError::TooLarge(_))
        ));
        for bad in [
            "no-size\n".to_string(),
            line("xyz", 1, "p"),
            line(&h, 1, "bad%escape"),
            format!("{h} -1 p\n"),
        ] {
            assert!(
                matches!(parse_manifest(&bad), Err(ManifestError::Malformed(_))),
                "{bad:?}"
            );
        }
        assert_eq!(
            parse_manifest(&line(&h, MAX_OBJECT_BYTES, "p"))
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn encoded_paths_round_trip_through_the_grammar() {
        let entries = vec![ManifestEntry {
            path: "pas/store 0/a%b".into(),
            size: 7,
            hash: "0".repeat(64),
        }];
        let body = encode_manifest(&entries);
        assert_eq!(
            body,
            format!("{} 7 pas%2Fstore%200%2Fa%25b\n", "0".repeat(64))
        );
        assert_eq!(parse_manifest(&body).unwrap(), entries);
    }
}
