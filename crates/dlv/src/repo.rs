//! The DLV repository: `dlv init / add+commit / copy / list / desc / diff /
//! eval / archive` (Table II of the paper).
//!
//! Split-backend design exactly as §III describes: structured artifacts
//! (model versions, network DAGs, lineage, hyperparameters, training
//! metrics, file manifests) live in the relational catalog (`mh-store`);
//! learned float matrices live either staged as compressed blobs or
//! archived inside PAS segment stores.

use crate::layercodec::{decode_layer, encode_layer};
use crate::wfile::{weights_from_bytes, weights_to_bytes};
use crate::{hash, DlvError};
use mh_compress::Level;
use mh_delta::DeltaOp;
use mh_dnn::{accuracy, LogEntry, Network, Weights};
use mh_pas::{apply_alpha_budgets, solver, CostModel, GraphBuilder, RetrievalScheme, SegmentStore};
use mh_store::{Catalog, Column, ColumnType, Predicate, Row, Schema, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// A model version is identified by a human-readable name plus an
/// auto-assigned id distinguishing versions committed under the same name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct VersionKey {
    pub name: String,
    pub id: i64,
}

impl std::fmt::Display for VersionKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.name, self.id)
    }
}

impl VersionKey {
    /// Parse `name` or `name:id`.
    pub fn parse(s: &str) -> (String, Option<i64>) {
        match s.rsplit_once(':') {
            Some((name, id)) => match id.parse() {
                Ok(i) => (name.to_string(), Some(i)),
                Err(_) => (s.to_string(), None),
            },
            None => (s.to_string(), None),
        }
    }
}

/// Everything a `dlv commit` records.
#[derive(Debug, Clone)]
pub struct CommitRequest {
    pub name: String,
    pub network: Network,
    /// Checkpoint snapshots `(iteration, weights)`, oldest first. The last
    /// entry is the latest snapshot.
    pub snapshots: Vec<(usize, Weights)>,
    pub hyperparams: BTreeMap<String, String>,
    pub log: Vec<LogEntry>,
    /// Associated files (scripts, configs): path -> content.
    pub files: Vec<(String, Vec<u8>)>,
    /// Lineage parent (`name` or `name:id`).
    pub parent: Option<String>,
    pub accuracy: Option<f32>,
    pub comment: String,
}

impl CommitRequest {
    pub fn new(name: &str, network: Network) -> Self {
        Self {
            name: name.to_string(),
            network,
            snapshots: Vec::new(),
            hyperparams: BTreeMap::new(),
            log: Vec::new(),
            files: Vec::new(),
            parent: None,
            accuracy: None,
            comment: String::new(),
        }
    }
}

/// Summary row for `dlv list`.
#[derive(Debug, Clone)]
pub struct VersionSummary {
    pub key: VersionKey,
    pub created: i64,
    pub architecture: String,
    pub param_count: i64,
    pub accuracy: Option<f64>,
    pub comment: String,
    pub num_snapshots: usize,
    pub archived: bool,
}

/// Detailed description for `dlv desc`.
#[derive(Debug, Clone)]
pub struct VersionDesc {
    pub summary: VersionSummary,
    pub hyperparams: BTreeMap<String, String>,
    pub layers: Vec<(String, String)>,
    pub snapshots: Vec<SnapshotInfo>,
    pub files: Vec<(String, String, i64)>,
    /// (iteration, loss) series from the training log.
    pub loss_curve: Vec<(i64, f64)>,
}

impl VersionDesc {
    /// Render as a standalone HTML page — the paper's "HTML front end"
    /// for `dlv desc` results.
    pub fn render_html(&self) -> String {
        let esc = |s: &str| -> String {
            s.replace('&', "&amp;")
                .replace('<', "&lt;")
                .replace('>', "&gt;")
        };
        let mut h = String::new();
        h.push_str("<!DOCTYPE html><html><head><meta charset=\"utf-8\">");
        h.push_str(&format!(
            "<title>dlv desc {}</title>",
            esc(&self.summary.key.to_string())
        ));
        h.push_str(
            "<style>body{font-family:sans-serif;margin:2em}table{border-collapse:collapse}\
             td,th{border:1px solid #ccc;padding:4px 8px;text-align:left}\
             h2{margin-top:1.2em}</style></head><body>",
        );
        h.push_str(&format!(
            "<h1>Model {}</h1>",
            esc(&self.summary.key.to_string())
        ));
        h.push_str(&format!(
            "<p><b>architecture</b> {} &middot; <b>parameters</b> {} &middot; \
             <b>accuracy</b> {}</p>",
            esc(&self.summary.architecture),
            self.summary.param_count,
            self.summary
                .accuracy
                .map(|a| format!("{a:.4}"))
                .unwrap_or_else(|| "n/a".into())
        ));
        h.push_str("<h2>Layers</h2><table><tr><th>name</th><th>definition</th></tr>");
        for (name, def) in &self.layers {
            h.push_str(&format!(
                "<tr><td>{}</td><td>{}</td></tr>",
                esc(name),
                esc(def)
            ));
        }
        h.push_str("</table><h2>Hyperparameters</h2><table>");
        for (k, v) in &self.hyperparams {
            h.push_str(&format!("<tr><td>{}</td><td>{}</td></tr>", esc(k), esc(v)));
        }
        h.push_str("</table><h2>Snapshots</h2><table><tr><th>#</th><th>iteration</th><th>location</th></tr>");
        for s in &self.snapshots {
            h.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td></tr>",
                s.index,
                s.iteration,
                esc(&s.location)
            ));
        }
        h.push_str("</table>");
        if !self.loss_curve.is_empty() {
            // Inline SVG sparkline of the loss curve.
            let max = self
                .loss_curve
                .iter()
                .map(|(_, l)| *l)
                .fold(f64::MIN, f64::max);
            let min = self
                .loss_curve
                .iter()
                .map(|(_, l)| *l)
                .fold(f64::MAX, f64::min);
            let (w, ht) = (400.0, 80.0);
            let n = self.loss_curve.len().max(2) as f64;
            let pts: Vec<String> = self
                .loss_curve
                .iter()
                .enumerate()
                .map(|(i, (_, l))| {
                    let x = i as f64 / (n - 1.0) * w;
                    let y = if max > min {
                        ht - (l - min) / (max - min) * ht
                    } else {
                        ht / 2.0
                    };
                    format!("{x:.1},{y:.1}")
                })
                .collect();
            h.push_str(&format!(
                "<h2>Training loss</h2><svg width=\"{w}\" height=\"{ht}\" \
                 viewBox=\"0 0 {w} {ht}\"><polyline fill=\"none\" stroke=\"#36c\" \
                 stroke-width=\"1.5\" points=\"{}\"/></svg>",
                pts.join(" ")
            ));
        }
        if !self.files.is_empty() {
            h.push_str("<h2>Files</h2><table><tr><th>path</th><th>bytes</th><th>sha256</th></tr>");
            for (p, hash, bytes) in &self.files {
                h.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td><td><code>{}</code></td></tr>",
                    esc(p),
                    bytes,
                    esc(&hash[..16.min(hash.len())])
                ));
            }
            h.push_str("</table>");
        }
        h.push_str("</body></html>");
        h
    }
}

#[derive(Debug, Clone)]
pub struct SnapshotInfo {
    pub index: usize,
    pub iteration: i64,
    pub location: String,
}

/// Where a snapshot's weights live.
enum SnapshotData {
    /// A staged weight blob.
    Staged(PathBuf),
    /// An archived PAS store directory and the snapshot's layer → vertex
    /// map.
    Archived(PathBuf, BTreeMap<String, mh_pas::VertexId>),
}

/// Read the weights `data` locates, recording their source on `sp`:
/// every archived layer in one group read.
fn read_weights(data: &SnapshotData, sp: &mut mh_obs::Span) -> Result<Weights, DlvError> {
    match data {
        SnapshotData::Staged(path) => {
            let blob = std::fs::read(path).map_err(DlvError::Io)?;
            sp.add_bytes_in(blob.len() as u64);
            sp.field("source", "staged");
            weights_from_bytes(&blob)
        }
        SnapshotData::Archived(dir, layers) => {
            let store = SegmentStore::open(dir).map_err(DlvError::Pas)?;
            let vertices: Vec<mh_pas::VertexId> = layers.values().copied().collect();
            let mats = store
                .recreate_group_parallel(&vertices)
                .map_err(DlvError::Pas)?;
            sp.field("source", "pas");
            Ok(layers.keys().cloned().zip(mats).collect())
        }
    }
}

/// One archived PAS store's identity within a repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveId(pub String);

/// Archive policy.
#[derive(Debug, Clone)]
pub struct ArchiveConfig {
    /// Snapshot recreation budget as a multiple of the SPT cost.
    pub alpha: f64,
    pub scheme: RetrievalScheme,
    pub delta_op: DeltaOp,
    pub level: Level,
    /// Optional lossy float scheme applied to **non-latest** snapshots
    /// before archival (§IV-B: "PAS lets experienced users select schemes
    /// rather than deleting snapshots due to resource constraints"). The
    /// latest snapshot of every version always stays lossless; earlier
    /// checkpoints are round-tripped through the scheme, trading precision
    /// for a smaller footprint.
    pub checkpoint_scheme: Option<mh_tensor::Scheme>,
}

impl Default for ArchiveConfig {
    fn default() -> Self {
        Self {
            alpha: 2.0,
            scheme: RetrievalScheme::Independent,
            delta_op: DeltaOp::Sub,
            level: Level::Fast,
            checkpoint_scheme: None,
        }
    }
}

/// A DLV repository rooted at a directory.
#[derive(Debug)]
pub struct Repository {
    root: PathBuf,
    catalog: Catalog,
}

/// Per-snapshot archival budgets (declared θ and achieved recreation cost),
/// persisted so `fsck` can re-verify them long after the storage graph that
/// produced the plan is gone. Split out so `archive` can create the table
/// lazily in repositories that predate it.
fn create_pas_budget_table(db: &mut mh_store::Database) -> Result<(), mh_store::StoreError> {
    db.create_table(
        "pas_budget",
        Schema::new(vec![
            Column::not_null("store", ColumnType::Text),
            Column::not_null("snapshot", ColumnType::Text),
            Column::not_null("scheme", ColumnType::Text),
            Column::not_null("budget", ColumnType::Real),
            Column::not_null("cost", ColumnType::Real),
        ]),
    )
}

fn now_epoch() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0)
}

impl Repository {
    /// `dlv init`: create a fresh repository.
    pub fn init(root: &Path) -> Result<Self, DlvError> {
        if root.join("catalog.mhs").exists() {
            return Err(DlvError::AlreadyExists(root.display().to_string()));
        }
        std::fs::create_dir_all(root.join("weights")).map_err(DlvError::Io)?;
        std::fs::create_dir_all(root.join("objects")).map_err(DlvError::Io)?;
        std::fs::create_dir_all(root.join("pas")).map_err(DlvError::Io)?;
        let catalog = Catalog::open(&root.join("catalog.mhs")).map_err(DlvError::Store)?;
        catalog
            .write(|db| {
                db.create_table(
                    "model_version",
                    Schema::new(vec![
                        Column::not_null("name", ColumnType::Text),
                        Column::not_null("vid", ColumnType::Int),
                        Column::not_null("created", ColumnType::Int),
                        Column::new("arch", ColumnType::Text),
                        Column::new("params", ColumnType::Int),
                        Column::new("accuracy", ColumnType::Real),
                        Column::new("comment", ColumnType::Text),
                    ]),
                )?;
                db.table_mut("model_version")?.create_index("name")?;
                db.create_table(
                    "node",
                    Schema::new(vec![
                        Column::not_null("mv", ColumnType::Int),
                        Column::not_null("node_id", ColumnType::Int),
                        Column::not_null("lname", ColumnType::Text),
                        Column::not_null("def", ColumnType::Text),
                    ]),
                )?;
                db.table_mut("node")?.create_index("mv")?;
                db.create_table(
                    "edge",
                    Schema::new(vec![
                        Column::not_null("mv", ColumnType::Int),
                        Column::not_null("from_id", ColumnType::Int),
                        Column::not_null("to_id", ColumnType::Int),
                    ]),
                )?;
                db.table_mut("edge")?.create_index("mv")?;
                db.create_table(
                    "parent",
                    Schema::new(vec![
                        Column::not_null("base", ColumnType::Text),
                        Column::not_null("derived", ColumnType::Text),
                        Column::new("commit_msg", ColumnType::Text),
                    ]),
                )?;
                db.create_table(
                    "hyper",
                    Schema::new(vec![
                        Column::not_null("mv", ColumnType::Int),
                        Column::not_null("key", ColumnType::Text),
                        Column::new("value", ColumnType::Text),
                    ]),
                )?;
                db.create_table(
                    "metric",
                    Schema::new(vec![
                        Column::not_null("mv", ColumnType::Int),
                        Column::not_null("iteration", ColumnType::Int),
                        Column::not_null("key", ColumnType::Text),
                        Column::new("value", ColumnType::Real),
                    ]),
                )?;
                db.table_mut("metric")?.create_index("mv")?;
                db.create_table(
                    "file",
                    Schema::new(vec![
                        Column::not_null("mv", ColumnType::Int),
                        Column::not_null("path", ColumnType::Text),
                        Column::not_null("hash", ColumnType::Text),
                        Column::not_null("bytes", ColumnType::Int),
                    ]),
                )?;
                db.create_table(
                    "snapshot",
                    Schema::new(vec![
                        Column::not_null("mv", ColumnType::Int),
                        Column::not_null("snap_idx", ColumnType::Int),
                        Column::not_null("iteration", ColumnType::Int),
                        Column::not_null("location", ColumnType::Text),
                    ]),
                )?;
                db.table_mut("snapshot")?.create_index("mv")?;
                db.create_table(
                    "pas_vertex",
                    Schema::new(vec![
                        Column::not_null("mv", ColumnType::Int),
                        Column::not_null("snap_idx", ColumnType::Int),
                        Column::not_null("layer", ColumnType::Text),
                        Column::not_null("store", ColumnType::Text),
                        Column::not_null("vertex", ColumnType::Int),
                    ]),
                )?;
                db.table_mut("pas_vertex")?.create_index("mv")?;
                create_pas_budget_table(db)?;
                Ok(())
            })
            .map_err(DlvError::Store)?;
        Ok(Self {
            root: root.to_path_buf(),
            catalog,
        })
    }

    /// Open an existing repository.
    pub fn open(root: &Path) -> Result<Self, DlvError> {
        if !root.join("catalog.mhs").exists() {
            return Err(DlvError::NotARepository(root.display().to_string()));
        }
        let catalog = Catalog::open(&root.join("catalog.mhs")).map_err(DlvError::Store)?;
        Ok(Self {
            root: root.to_path_buf(),
            catalog,
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Internal: the catalog row of a version by name (+ optional id);
    /// without an id the newest version under that name wins.
    // mh-audit: trusted(reads rows of the repository's own catalog, written by this crate under a fixed schema)
    fn find_version(&self, spec: &str) -> Result<(mh_store::RowId, VersionKey), DlvError> {
        let (name, id) = VersionKey::parse(spec);
        let rows = self.catalog.read(|db| {
            let t = db.table("model_version").expect("schema");
            t.select(&Predicate::Eq("name".into(), Value::Text(name.clone())))
        });
        let best = rows
            .into_iter()
            .filter(|r| id.is_none_or(|i| r.values[1].as_int() == Some(i)))
            .max_by_key(|r| r.values[1].as_int());
        match best {
            Some(r) => {
                let vid = r.values[1].as_int().expect("vid not null");
                Ok((r.id, VersionKey { name, id: vid }))
            }
            None => Err(DlvError::NoSuchVersion(spec.to_string())),
        }
    }

    /// `dlv add` + `dlv commit`: record a model version with its artifacts.
    pub fn commit(&self, req: &CommitRequest) -> Result<VersionKey, DlvError> {
        let mut sp = mh_obs::span("dlv.commit");
        if sp.is_recording() {
            sp.field("name", &req.name);
            sp.field("snapshots", req.snapshots.len());
        }
        if req.snapshots.is_empty() {
            return Err(DlvError::EmptyCommit);
        }
        let arch = req.network.architecture_string();
        let params = req.network.param_count().map_err(DlvError::Network)? as i64;
        for (_, w) in &req.snapshots {
            w.validate(&req.network).map_err(DlvError::Network)?;
        }
        // Resolve the parent before mutating anything.
        let parent_key = match &req.parent {
            Some(p) => Some(self.find_version(p)?.1),
            None => None,
        };
        // Assign the next vid under this name.
        let existing = self.catalog.read(|db| {
            let t = db.table("model_version").expect("schema");
            t.select(&Predicate::Eq("name".into(), Value::Text(req.name.clone())))
                .iter()
                .filter_map(|r| r.values[1].as_int())
                .max()
                .unwrap_or(0)
        });
        let vid = existing + 1;
        let key = VersionKey {
            name: req.name.clone(),
            id: vid,
        };

        // Stage weight blobs outside the catalog transaction.
        let mut snapshot_rows = Vec::new();
        for (sidx, (iter, w)) in req.snapshots.iter().enumerate() {
            let blob = weights_to_bytes(w, Level::Fast);
            sp.add_bytes_out(blob.len() as u64);
            let stem = format!("weights/{}_{}_s{}", sanitize_name(&req.name), vid, sidx);
            let rel = self.create_blob(&stem, &blob)?;
            snapshot_rows.push((sidx as i64, *iter as i64, format!("staged:{rel}")));
        }
        // Content-addressed associated files.
        let mut file_rows = Vec::new();
        for (path, content) in &req.files {
            let digest = hash::sha256_hex(content);
            let obj = self.root.join("objects").join(&digest);
            if !obj.exists() {
                std::fs::write(&obj, content).map_err(DlvError::Io)?;
            }
            file_rows.push((path.clone(), digest, content.len() as i64));
        }

        let network = req.network.clone();
        let hyper = req.hyperparams.clone();
        let log = req.log.clone();
        let acc = req.accuracy;
        let comment = req.comment.clone();
        let name = req.name.clone();
        let key2 = key.clone();
        self.catalog
            .write(move |db| {
                let mv = db.table_mut("model_version")?.insert(vec![
                    Value::Text(name.clone()),
                    Value::Int(vid),
                    Value::Int(now_epoch()),
                    Value::Text(arch.clone()),
                    Value::Int(params),
                    acc.map(|a| Value::Real(f64::from(a)))
                        .unwrap_or(Value::Null),
                    Value::Text(comment.clone()),
                ])?;
                for node in network.nodes() {
                    db.table_mut("node")?.insert(vec![
                        Value::Int(mv as i64),
                        Value::Int(node.id as i64),
                        Value::Text(node.name.clone()),
                        Value::Text(encode_layer(&node.kind)),
                    ])?;
                }
                for (f, t) in network.edges() {
                    db.table_mut("edge")?.insert(vec![
                        Value::Int(mv as i64),
                        Value::Int(f as i64),
                        Value::Int(t as i64),
                    ])?;
                }
                if let Some(p) = &parent_key {
                    db.table_mut("parent")?.insert(vec![
                        Value::Text(p.to_string()),
                        Value::Text(key2.to_string()),
                        Value::Text(comment.clone()),
                    ])?;
                }
                for (k, v) in &hyper {
                    db.table_mut("hyper")?.insert(vec![
                        Value::Int(mv as i64),
                        Value::Text(k.clone()),
                        Value::Text(v.clone()),
                    ])?;
                }
                for e in &log {
                    db.table_mut("metric")?.insert(vec![
                        Value::Int(mv as i64),
                        Value::Int(e.iteration as i64),
                        Value::Text("loss".into()),
                        Value::Real(f64::from(e.loss)),
                    ])?;
                    if let Some(a) = e.accuracy {
                        db.table_mut("metric")?.insert(vec![
                            Value::Int(mv as i64),
                            Value::Int(e.iteration as i64),
                            Value::Text("accuracy".into()),
                            Value::Real(f64::from(a)),
                        ])?;
                    }
                }
                for (path, digest, bytes) in &file_rows {
                    db.table_mut("file")?.insert(vec![
                        Value::Int(mv as i64),
                        Value::Text(path.clone()),
                        Value::Text(digest.clone()),
                        Value::Int(*bytes),
                    ])?;
                }
                for (sidx, iter, loc) in &snapshot_rows {
                    db.table_mut("snapshot")?.insert(vec![
                        Value::Int(mv as i64),
                        Value::Int(*sidx),
                        Value::Int(*iter),
                        Value::Text(loc.clone()),
                    ])?;
                }
                Ok(())
            })
            .map_err(DlvError::Store)?;
        Ok(key)
    }

    /// Write a new staged blob at `<stem>.mhw`, or at `<stem>-<n>.mhw`
    /// with the smallest `n` whose name is free: names that sanitize
    /// alike (`m.x`, `m_x`) get files of their own, and an existing blob
    /// is never opened for writing. Returns the repo-relative path.
    fn create_blob(&self, stem: &str, blob: &[u8]) -> Result<String, DlvError> {
        use std::io::Write;
        for n in 0..u32::MAX {
            let rel = match n {
                0 => format!("{stem}.mhw"),
                n => format!("{stem}-{n}.mhw"),
            };
            let mut open = std::fs::OpenOptions::new();
            match open.write(true).create_new(true).open(self.root.join(&rel)) {
                Ok(mut f) => return f.write_all(blob).map(|()| rel).map_err(DlvError::Io),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(DlvError::Io(e)),
            }
        }
        Err(DlvError::AlreadyExists(format!("{stem}.mhw")))
    }

    /// `dlv copy`: scaffold a new version from an existing one (same
    /// network, latest snapshot carried over as initialization).
    pub fn copy(&self, src: &str, new_name: &str, comment: &str) -> Result<VersionKey, DlvError> {
        let (_, src_key) = self.find_version(src)?;
        let network = self.get_network(src)?;
        let weights = self.get_weights(src, None)?;
        let mut req = CommitRequest::new(new_name, network);
        req.snapshots = vec![(0, weights)];
        req.parent = Some(src_key.to_string());
        req.comment = comment.to_string();
        self.commit(&req)
    }

    /// `dlv list`: all versions, newest first.
    // mh-audit: trusted(reads rows of the repository's own catalog, written by this crate under a fixed schema)
    pub fn list(&self) -> Vec<VersionSummary> {
        let mut out: Vec<VersionSummary> = self.catalog.read(|db| {
            let t = db.table("model_version").expect("schema");
            t.scan().map(|r| self.summary_from_row(db, &r)).collect()
        });
        out.sort_by(|a, b| b.created.cmp(&a.created).then(b.key.cmp(&a.key)));
        out
    }

    // mh-audit: trusted(decodes a catalog row with the fixed model_version schema this crate wrote)
    fn summary_from_row(&self, db: &mh_store::Database, r: &Row) -> VersionSummary {
        let mv = r.id as i64;
        let snaps = db
            .table("snapshot")
            .expect("schema")
            .select(&Predicate::Eq("mv".into(), Value::Int(mv)));
        let archived = snaps
            .iter()
            .any(|s| s.values[3].as_text().is_some_and(|l| l.starts_with("pas:")));
        VersionSummary {
            key: VersionKey {
                name: r.values[0].as_text().unwrap_or("").to_string(),
                id: r.values[1].as_int().unwrap_or(0),
            },
            created: r.values[2].as_int().unwrap_or(0),
            architecture: r.values[3].as_text().unwrap_or("").to_string(),
            param_count: r.values[4].as_int().unwrap_or(0),
            accuracy: r.values[5].as_real(),
            comment: r.values[6].as_text().unwrap_or("").to_string(),
            num_snapshots: snaps.len(),
            archived,
        }
    }

    /// `dlv desc`: full metadata of one version.
    // mh-audit: trusted(reads rows of the repository's own catalog, written by this crate under a fixed schema)
    pub fn desc(&self, spec: &str) -> Result<VersionDesc, DlvError> {
        let (row_id, _) = self.find_version(spec)?;
        let mv = row_id as i64;
        Ok(self.catalog.read(|db| {
            let r = db
                .table("model_version")
                .expect("schema")
                .get(row_id)
                .expect("row exists");
            let summary = self.summary_from_row(db, &r);
            let hyperparams = db
                .table("hyper")
                .expect("schema")
                .select(&Predicate::Eq("mv".into(), Value::Int(mv)))
                .into_iter()
                .filter_map(|r| {
                    Some((
                        r.values[1].as_text()?.to_string(),
                        r.values[2].as_text().unwrap_or("").to_string(),
                    ))
                })
                .collect();
            let mut layers: Vec<(i64, String, String)> = db
                .table("node")
                .expect("schema")
                .select(&Predicate::Eq("mv".into(), Value::Int(mv)))
                .into_iter()
                .filter_map(|r| {
                    Some((
                        r.values[1].as_int()?,
                        r.values[2].as_text()?.to_string(),
                        r.values[3].as_text()?.to_string(),
                    ))
                })
                .collect();
            layers.sort();
            let snapshots = db
                .table("snapshot")
                .expect("schema")
                .select(&Predicate::Eq("mv".into(), Value::Int(mv)))
                .into_iter()
                .map(|r| SnapshotInfo {
                    index: r.values[1].as_int().unwrap_or(0) as usize,
                    iteration: r.values[2].as_int().unwrap_or(0),
                    location: r.values[3].as_text().unwrap_or("").to_string(),
                })
                .collect();
            let files = db
                .table("file")
                .expect("schema")
                .select(&Predicate::Eq("mv".into(), Value::Int(mv)))
                .into_iter()
                .filter_map(|r| {
                    Some((
                        r.values[1].as_text()?.to_string(),
                        r.values[2].as_text()?.to_string(),
                        r.values[3].as_int()?,
                    ))
                })
                .collect();
            let mut loss_curve: Vec<(i64, f64)> = db
                .table("metric")
                .expect("schema")
                .select(
                    &Predicate::Eq("mv".into(), Value::Int(mv))
                        .and(Predicate::Eq("key".into(), "loss".into())),
                )
                .into_iter()
                .filter_map(|r| Some((r.values[1].as_int()?, r.values[3].as_real()?)))
                .collect();
            loss_curve.sort_by_key(|(i, _)| *i);
            VersionDesc {
                summary,
                hyperparams,
                layers: layers.into_iter().map(|(_, n, d)| (n, d)).collect(),
                snapshots,
                files,
                loss_curve,
            }
        }))
    }

    /// Reconstruct the network DAG of a version.
    // mh-audit: trusted(reads rows of the repository's own catalog, written by this crate under a fixed schema)
    pub fn get_network(&self, spec: &str) -> Result<Network, DlvError> {
        let (row_id, _) = self.find_version(spec)?;
        let mv = row_id as i64;
        let (nodes, edges) = self.catalog.read(|db| {
            let nodes: Vec<(i64, String, String)> = db
                .table("node")
                .expect("schema")
                .select(&Predicate::Eq("mv".into(), Value::Int(mv)))
                .into_iter()
                .filter_map(|r| {
                    Some((
                        r.values[1].as_int()?,
                        r.values[2].as_text()?.to_string(),
                        r.values[3].as_text()?.to_string(),
                    ))
                })
                .collect();
            let edges: Vec<(i64, i64)> = db
                .table("edge")
                .expect("schema")
                .select(&Predicate::Eq("mv".into(), Value::Int(mv)))
                .into_iter()
                .filter_map(|r| Some((r.values[1].as_int()?, r.values[2].as_int()?)))
                .collect();
            (nodes, edges)
        });
        network_from_rows(nodes, edges)
    }

    /// Snapshot infos of a version (ordered by index).
    pub fn snapshots(&self, spec: &str) -> Result<Vec<SnapshotInfo>, DlvError> {
        Ok(self.desc(spec)?.snapshots)
    }

    /// Fetch the weights of a snapshot (`None` = latest), transparently
    /// recreating from PAS if archived: every layer in one group read.
    pub fn get_weights(&self, spec: &str, snap: Option<usize>) -> Result<Weights, DlvError> {
        let mut sp = mh_obs::span("dlv.checkout");
        if sp.is_recording() {
            sp.field("spec", spec);
        }
        let data = self.locate_snapshot(spec, snap)?;
        read_weights(&data, &mut sp)
    }

    /// For archived snapshots: the PAS store directory and the layer →
    /// vertex mapping, enabling progressive (partial-precision) queries.
    pub fn pas_binding(
        &self,
        spec: &str,
        snap: Option<usize>,
    ) -> Result<(PathBuf, BTreeMap<String, mh_pas::VertexId>), DlvError> {
        match self.locate_snapshot(spec, snap)? {
            SnapshotData::Archived(dir, layers) => Ok((dir, layers)),
            SnapshotData::Staged(_) => Err(DlvError::Corrupt("snapshot is not archived")),
        }
    }

    /// Where snapshot `snap` (`None` = latest) of a version keeps its
    /// weights. A malformed `pas_vertex` row is corrupt.
    fn locate_snapshot(&self, spec: &str, snap: Option<usize>) -> Result<SnapshotData, DlvError> {
        let (row_id, _) = self.find_version(spec)?;
        let mv = row_id as i64;
        let infos = self.snapshots(spec)?;
        let info = match snap {
            Some(i) => infos
                .into_iter()
                .find(|s| s.index == i)
                .ok_or(DlvError::NoSuchSnapshot(i))?,
            None => infos
                .into_iter()
                .max_by_key(|s| s.index)
                .ok_or(DlvError::NoSuchSnapshot(0))?,
        };
        if let Some(rel) = info.location.strip_prefix("staged:") {
            return Ok(SnapshotData::Staged(self.root.join(rel)));
        }
        let Some(store_name) = info.location.strip_prefix("pas:") else {
            return Err(DlvError::Corrupt("unknown snapshot location"));
        };
        let rows = self.catalog.read(|db| {
            db.table("pas_vertex").expect("schema").select(
                &Predicate::Eq("mv".into(), Value::Int(mv)).and(Predicate::Eq(
                    "snap_idx".into(),
                    Value::Int(info.index as i64),
                )),
            )
        });
        let layers = rows
            .into_iter()
            .map(|r| {
                let layer = r.values.get(2).and_then(Value::as_text);
                let vertex = r.values.get(4).and_then(Value::as_int);
                match (layer, vertex) {
                    (Some(l), Some(v)) if v > 0 => Ok((l.to_string(), v as mh_pas::VertexId)),
                    _ => Err(DlvError::Corrupt("malformed pas_vertex row")),
                }
            })
            .collect::<Result<BTreeMap<_, _>, _>>()?;
        if layers.is_empty() {
            return Err(DlvError::Corrupt("archived snapshot has no vertices"));
        }
        Ok(SnapshotData::Archived(
            self.root.join("pas").join(store_name),
            layers,
        ))
    }

    /// `dlv eval`: run the test phase of a version over labelled data.
    pub fn eval(&self, spec: &str, data: &[(mh_tensor::Tensor3, usize)]) -> Result<f32, DlvError> {
        let net = self.get_network(spec)?;
        let w = self.get_weights(spec, None)?;
        accuracy(&net, &w, data).map_err(DlvError::Network)
    }

    /// Training-metric series of a version (`loss`, `accuracy`, `lr`) as
    /// `(iteration, value)` pairs, sorted by iteration.
    pub fn metrics(&self, spec: &str, key: &str) -> Result<Vec<(i64, f64)>, DlvError> {
        let (row_id, _) = self.find_version(spec)?;
        let mv = row_id as i64;
        let mut out: Vec<(i64, f64)> = self.catalog.read(|db| {
            db.table("metric")
                .expect("schema")
                .select(
                    &Predicate::Eq("mv".into(), Value::Int(mv))
                        .and(Predicate::Eq("key".into(), Value::Text(key.to_string()))),
                )
                .into_iter()
                .filter_map(|r| Some((r.values[1].as_int()?, r.values[3].as_real()?)))
                .collect()
        });
        out.sort_by_key(|(i, _)| *i);
        Ok(out)
    }

    /// Compare two versions' predictions sample by sample (the paper's
    /// "comparing the results of different models on a dataset").
    pub fn compare(
        &self,
        spec_a: &str,
        spec_b: &str,
        data: &[(mh_tensor::Tensor3, usize)],
    ) -> Result<mh_dnn::ModelComparison, DlvError> {
        let (na, wa) = (self.get_network(spec_a)?, self.get_weights(spec_a, None)?);
        let (nb, wb) = (self.get_network(spec_b)?, self.get_weights(spec_b, None)?);
        mh_dnn::compare_models((&na, &wa), (&nb, &wb), data).map_err(DlvError::Network)
    }

    /// Lineage edges `(base, derived)` as display keys.
    pub fn lineage(&self) -> Vec<(String, String)> {
        self.catalog.read(|db| {
            db.table("parent")
                .expect("schema")
                .scan()
                .filter_map(|r| {
                    Some((
                        r.values[0].as_text()?.to_string(),
                        r.values[1].as_text()?.to_string(),
                    ))
                })
                .collect()
        })
    }

    /// `dlv archive`: move every staged snapshot into a new PAS segment
    /// store under the given policy. Returns the store id and the achieved
    /// (storage bytes, plan) summary.
    pub fn archive(&self, cfg: &ArchiveConfig) -> Result<ArchiveReport, DlvError> {
        let mut sp = mh_obs::span("dlv.archive");
        // Gather all staged snapshots grouped by version.
        let staged: Vec<(mh_store::RowId, VersionKey, Vec<SnapshotInfo>)> = {
            let summaries = self.list();
            let mut out = Vec::new();
            for s in summaries {
                let (row_id, key) = self.find_version(&s.key.to_string())?;
                let snaps: Vec<SnapshotInfo> = self
                    .snapshots(&s.key.to_string())?
                    .into_iter()
                    .filter(|i| i.location.starts_with("staged:"))
                    .collect();
                if !snaps.is_empty() {
                    out.push((row_id, key, snaps));
                }
            }
            out
        };
        if staged.is_empty() {
            return Err(DlvError::NothingToArchive);
        }

        let mut builder = GraphBuilder::new(CostModel {
            level: cfg.level,
            delta_op: cfg.delta_op,
        });
        // Each version's latest staged snapshot: kept at full precision
        // and the endpoint of its lineage links.
        let latest: BTreeMap<String, usize> = staged
            .iter()
            .map(|(_, key, snaps)| {
                (
                    key.to_string(),
                    snaps.iter().map(|s| s.index).max().unwrap_or(0),
                )
            })
            .collect();
        // Preload and decode every staged snapshot's weights on the worker
        // pool — blob decompression plus the lossy checkpoint round-trip
        // dominate archival wall-clock — then feed the graph builder
        // serially in the same order, so the result is independent of the
        // thread count.
        let jobs: Vec<(String, usize, bool)> = staged
            .iter()
            .flat_map(|(_, key, snaps)| {
                let vname = key.to_string();
                let latest_idx = latest.get(&vname).copied();
                snaps
                    .iter()
                    .map(move |info| (vname.clone(), info.index, Some(info.index) == latest_idx))
            })
            .collect();
        if sp.is_recording() {
            sp.field("snapshots", jobs.len());
        }
        let load_sp = mh_obs::span("dlv.archive.load_staged");
        let loaded = mh_par::parallel_map(&jobs, |(vname, index, latest)| {
            let mut w = self.get_weights(vname, Some(*index))?;
            // Lossy checkpoint archival: round-trip non-latest snapshots
            // through the chosen float scheme.
            if let Some(scheme) = cfg.checkpoint_scheme {
                if !latest {
                    w = w
                        .layers()
                        .map(|(n, m)| {
                            (
                                n.clone(),
                                mh_tensor::decode(&mh_tensor::encode(m, scheme, false)),
                            )
                        })
                        .collect();
                }
            }
            Ok::<Weights, DlvError>(w)
        })
        .map_err(|e| DlvError::Pas(mh_pas::PasError::Parallel(e.to_string())))?;
        drop(load_sp);

        // Register snapshots and remember vertex assignments.
        let mut assignments: Vec<(i64, usize, BTreeMap<String, mh_pas::VertexId>)> = Vec::new();
        let mut loaded_iter = loaded.into_iter();
        for (row_id, key, snaps) in &staged {
            let vname = key.to_string();
            let mut indices = Vec::new();
            for info in snaps {
                let w = loaded_iter.next().expect("one preload per snapshot")?;
                let lv = builder.add_snapshot(&vname, info.index, &w);
                assignments.push((*row_id as i64, info.index, lv));
                indices.push(info.index);
            }
            builder.link_version_chain(&vname, &indices);
        }
        // Lineage links between latest snapshots.
        for (base, derived) in self.lineage() {
            if let (Some(&bs), Some(&ds)) = (latest.get(&base), latest.get(&derived)) {
                builder.link_snapshots(&base, bs, &derived, ds);
            }
        }

        let solve_sp = mh_obs::span("dlv.archive.plan_solve");
        let (mut graph, matrices) = builder.finish();
        apply_alpha_budgets(&mut graph, cfg.alpha, cfg.scheme).map_err(DlvError::Pas2)?;
        // Run both heuristics and keep the better feasible plan.
        let mt = solver::pas_mt(&graph, cfg.scheme).map_err(DlvError::Pas2)?;
        let pt = solver::pas_pt(&graph, cfg.scheme).map_err(DlvError::Pas2)?;
        let pick = |a: mh_pas::StoragePlan, b: mh_pas::StoragePlan| {
            let (fa, fb) = (
                a.satisfies_budgets(&graph, cfg.scheme),
                b.satisfies_budgets(&graph, cfg.scheme),
            );
            match (fa, fb) {
                (true, false) => a,
                (false, true) => b,
                _ => {
                    if a.storage_cost(&graph) <= b.storage_cost(&graph) {
                        a
                    } else {
                        b
                    }
                }
            }
        };
        let plan = pick(mt, pt);
        drop(solve_sp);

        // Create the physical store.
        let store_name = format!("store{:04}", self.next_store_index()?);
        let store_dir = self.root.join("pas").join(&store_name);
        let create_sp = mh_obs::span("dlv.archive.store_create");
        let store = SegmentStore::create(
            &store_dir,
            &graph,
            &plan,
            &matrices,
            cfg.delta_op,
            cfg.level,
        )
        .map_err(DlvError::Pas)?;
        drop(create_sp);

        // Flip snapshot locations and record vertex assignments; delete the
        // staged blobs afterwards.
        let staged_keys: BTreeSet<(i64, i64)> = assignments
            .iter()
            .map(|(mv, sidx, _)| (*mv, *sidx as i64))
            .collect();
        let store_name2 = store_name.clone();
        let assignments2 = assignments.clone();
        // Persist the declared θ budgets and achieved recreation costs so
        // static verification (`modelhub fsck`) can re-check them later.
        let scheme_name = match cfg.scheme {
            RetrievalScheme::Independent => "independent",
            RetrievalScheme::Parallel => "parallel",
            RetrievalScheme::Reusable => "reusable",
        };
        let budget_rows: Vec<(String, f64, f64)> = graph
            .snapshots
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    s.budget,
                    plan.snapshot_recreation_cost(&graph, &s.members, cfg.scheme),
                )
            })
            .collect();
        self.catalog
            .write(move |db| {
                if !db.table_names().iter().any(|t| t == "pas_budget") {
                    create_pas_budget_table(db)?;
                }
                for (snapshot, budget, cost) in &budget_rows {
                    db.table_mut("pas_budget")?.insert(vec![
                        Value::Text(store_name2.clone()),
                        Value::Text(snapshot.clone()),
                        Value::Text(scheme_name.to_string()),
                        Value::Real(*budget),
                        Value::Real(*cost),
                    ])?;
                }
                for (mv, sidx, lv) in &assignments2 {
                    for (layer, vertex) in lv {
                        db.table_mut("pas_vertex")?.insert(vec![
                            Value::Int(*mv),
                            Value::Int(*sidx as i64),
                            Value::Text(layer.clone()),
                            Value::Text(store_name2.clone()),
                            Value::Int(*vertex as i64),
                        ])?;
                    }
                }
                // Update snapshot locations.
                let rows: Vec<(mh_store::RowId, i64, i64)> = db
                    .table("snapshot")?
                    .scan()
                    .filter_map(|r| Some((r.id, r.values[0].as_int()?, r.values[1].as_int()?)))
                    .collect();
                for (rid, mv, sidx) in rows {
                    if staged_keys.contains(&(mv, sidx)) {
                        db.table_mut("snapshot")?.update(
                            rid,
                            "location",
                            Value::Text(format!("pas:{store_name2}")),
                        )?;
                    }
                }
                Ok(())
            })
            .map_err(DlvError::Store)?;
        for (_, _, snaps) in &staged {
            for info in snaps {
                if let Some(rel) = info.location.strip_prefix("staged:") {
                    let _ = std::fs::remove_file(self.root.join(rel));
                }
            }
        }

        Ok(ArchiveReport {
            store: ArchiveId(store_name),
            bytes_on_disk: store.bytes_on_disk(),
            storage_cost: plan.storage_cost(&graph),
            satisfied: plan.satisfies_budgets(&graph, cfg.scheme),
            num_matrices: graph.num_vertices() - 1,
            num_snapshots: graph.snapshots.len(),
        })
    }

    fn next_store_index(&self) -> Result<usize, DlvError> {
        let dir = self.root.join("pas");
        let mut max = 0usize;
        for entry in std::fs::read_dir(&dir).map_err(DlvError::Io)? {
            let entry = entry.map_err(DlvError::Io)?;
            if let Some(n) = entry
                .file_name()
                .to_string_lossy()
                .strip_prefix("store")
                .and_then(|s| s.parse::<usize>().ok())
            {
                max = max.max(n + 1);
            }
        }
        Ok(max)
    }

    /// Delete a model version: removes its catalog rows and staged weight
    /// blobs. Refuses to delete archived versions (their matrices may be
    /// delta bases for other snapshots in the shared PAS store) and
    /// versions that are lineage parents of surviving versions.
    pub fn delete_version(&self, spec: &str) -> Result<(), DlvError> {
        let (row_id, key) = self.find_version(spec)?;
        let mv = row_id as i64;
        let snaps = self.snapshots(&key.to_string())?;
        if snaps.iter().any(|s| s.location.starts_with("pas:")) {
            return Err(DlvError::Archived(key.to_string()));
        }
        let key_str = key.to_string();
        let has_children = self.lineage().iter().any(|(base, _)| base == &key_str);
        if has_children {
            return Err(DlvError::HasDescendants(key_str));
        }
        // Remove staged blobs first (catalog rows reference them).
        for s in &snaps {
            if let Some(rel) = s.location.strip_prefix("staged:") {
                let _ = std::fs::remove_file(self.root.join(rel));
            }
        }
        self.catalog
            .write(move |db| {
                for table in [
                    "node",
                    "edge",
                    "hyper",
                    "metric",
                    "file",
                    "snapshot",
                    "pas_vertex",
                ] {
                    let ids: Vec<mh_store::RowId> = db
                        .table(table)?
                        .select(&Predicate::Eq("mv".into(), Value::Int(mv)))
                        .into_iter()
                        .map(|r| r.id)
                        .collect();
                    let t = db.table_mut(table)?;
                    for id in ids {
                        t.delete(id);
                    }
                }
                // Lineage rows where this version is the derived side.
                let ids: Vec<mh_store::RowId> = db
                    .table("parent")?
                    .select(&Predicate::Eq(
                        "derived".into(),
                        Value::Text(key_str.clone()),
                    ))
                    .into_iter()
                    .map(|r| r.id)
                    .collect();
                let t = db.table_mut("parent")?;
                for id in ids {
                    t.delete(id);
                }
                db.table_mut("model_version")?.delete(row_id);
                Ok(())
            })
            .map_err(DlvError::Store)
    }

    /// Read back an associated file by its manifest path.
    pub fn read_file(&self, spec: &str, path: &str) -> Result<Vec<u8>, DlvError> {
        let desc = self.desc(spec)?;
        let (_, digest, _) = desc
            .files
            .iter()
            .find(|(p, _, _)| p == path)
            .ok_or_else(|| DlvError::NoSuchFile(path.to_string()))?;
        std::fs::read(self.root.join("objects").join(digest)).map_err(DlvError::Io)
    }
}

/// Build a network from its catalog rows: `(node id, name, encoded
/// layer)` per node, in any order, and `(from, to)` node ids per edge.
pub(crate) fn network_from_rows(
    mut nodes: Vec<(i64, String, String)>,
    edges: impl IntoIterator<Item = (i64, i64)>,
) -> Result<Network, DlvError> {
    nodes.sort();
    let mut net = Network::new();
    let mut remap = BTreeMap::new();
    for (old_id, name, def) in &nodes {
        let kind = decode_layer(def).ok_or(DlvError::Corrupt("bad layer definition"))?;
        let id = net.add_layer(name, kind).map_err(DlvError::Network)?;
        remap.insert(*old_id, id);
    }
    for (f, t) in edges {
        let (&nf, &nt) = (
            remap.get(&f).ok_or(DlvError::Corrupt("dangling edge"))?,
            remap.get(&t).ok_or(DlvError::Corrupt("dangling edge"))?,
        );
        net.connect(nf, nt).map_err(DlvError::Network)?;
    }
    Ok(net)
}

/// Result of `dlv archive`.
#[derive(Debug, Clone)]
pub struct ArchiveReport {
    pub store: ArchiveId,
    pub bytes_on_disk: u64,
    pub storage_cost: f64,
    pub satisfied: bool,
    pub num_matrices: usize,
    pub num_snapshots: usize,
}

/// A version name as a file-name stem a hub accepts: ASCII letters,
/// digits, `-` and `_`, everything else `_`.
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}
