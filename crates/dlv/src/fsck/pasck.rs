//! Layer 3: PAS plan verification — manifest structure, plane files,
//! delta-chain invariants, α-budget accounting, plane decoding, and (deep
//! mode) interval error bounds.
//!
//! The manifest is parsed with `mh-pas`'s own grammar
//! ([`mh_pas::parse_manifest`]), once per store per run, so fsck and
//! `SegmentStore::open` agree on what a well-formed manifest is; the plan
//! checks below then give precise findings for what would make the store
//! unusable (and survive manifests that would send a parent-chain walk
//! into a loop). Only a store that passes them is decoded.

use super::catalog::CatalogSnapshot;
use super::{
    FsckConfig, FsckReport, SnapshotBound, E_BOUND_VIOLATION, E_BUDGET_EXCEEDED,
    E_BUDGET_STORE_MISSING, E_MISSING_BUDGET_TABLE, E_NO_BUDGET_ROWS, P_BAD_MANIFEST,
    P_CHAIN_CYCLE, P_DANGLING_PARENT, P_DUPLICATE_VERTEX, P_MATERIALIZED_MID_CHAIN,
    P_MISSING_PLANE, P_ORPHAN_PLANE, P_PLANE_SIZE_MISMATCH, P_ROOT_NOT_MATERIALIZED,
    P_UNDECODABLE_STORE,
};
use mh_pas::{
    parse_manifest, plane_file_name, ManifestRow, ObjectKind, SegmentStore, VertexId, NULL_VERTEX,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Byte planes inspected per vertex in deep mode; 2 of 4 keeps the check
/// to prefix reads (never full decompression).
const DEEP_PLANES: usize = 2;

/// The rows of a `manifest.mhp`, in file order. Errors carry the 1-based
/// line number (0: unreadable).
pub(super) type Manifest = Result<Vec<ManifestRow>, (usize, &'static str)>;

/// One segment store the catalog references or `pas/` holds.
pub(super) struct Store {
    pub dir: PathBuf,
    /// The store directory exists.
    pub present: bool,
    /// Its `manifest.mhp` exists.
    pub has_manifest: bool,
    /// The manifest, parsed once.
    pub manifest: Manifest,
}

/// Every store referenced by the catalog or present under `pas/`, by
/// name, each present store's manifest parsed once.
pub(super) fn read_stores(root: &Path, snap: &CatalogSnapshot) -> BTreeMap<String, Store> {
    let mut names: BTreeSet<String> = BTreeSet::new();
    for (_, _, _, loc) in &snap.snapshots {
        if let Some(s) = loc.strip_prefix("pas:") {
            names.insert(s.to_string());
        }
    }
    for (_, _, _, _, store, _) in &snap.pas_vertices {
        names.insert(store.clone());
    }
    if let Ok(entries) = std::fs::read_dir(root.join("pas")) {
        for entry in entries.flatten() {
            names.insert(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names
        .into_iter()
        .map(|name| {
            let dir = root.join("pas").join(&name);
            let path = dir.join("manifest.mhp");
            let manifest = std::fs::read_to_string(&path)
                .map_err(|_| (0, "manifest unreadable"))
                .and_then(|text| parse_manifest(&text));
            let store = Store {
                present: dir.is_dir(),
                has_manifest: path.exists(),
                dir,
                manifest,
            };
            (name, store)
        })
        .collect()
}

/// Run the PAS-layer checks over every store. Returns the number of
/// (object, plane) pairs decoded.
pub(super) fn check(
    stores: BTreeMap<String, Store>,
    snap: &CatalogSnapshot,
    cfg: &FsckConfig,
    report: &mut FsckReport,
) -> usize {
    let names: BTreeSet<String> = stores.keys().cloned().collect();
    let mut sound = Vec::new();
    for (name, store) in stores {
        if !store.present {
            // Reported by the blob layer (B026) against the catalog row.
            continue;
        }
        report.stores_checked += 1;
        if let Some(seg) = check_store(store, &name, report) {
            sound.push((name, seg));
        }
    }

    check_budgets(snap, &names, report);

    let mut planes_decoded = 0;
    for (name, seg) in sound {
        let vertices: Vec<VertexId> = seg.vertices().collect();
        match seg.verify(&vertices) {
            Ok(n) => planes_decoded += n,
            Err(e) => report.error(
                P_UNDECODABLE_STORE,
                format!("pas/{name}"),
                format!("plane data unreadable: {e}"),
            ),
        }
        if cfg.deep {
            deep_check_store(&seg, &name, snap, report);
        }
    }
    planes_decoded
}

/// Structural checks for one store. Returns the store, opened, when it
/// is sound enough to decode.
fn check_store(s: Store, store: &str, report: &mut FsckReport) -> Option<SegmentStore> {
    let dir = &s.dir;
    let loc = format!("pas/{store}/manifest.mhp");
    let manifest = match s.manifest {
        Ok(m) => m,
        Err((line, msg)) => {
            report.error(P_BAD_MANIFEST, format!("{loc}:{line}"), msg);
            return None;
        }
    };

    // Plan invariant: one row (= one parent edge) per matrix vertex;
    // `SegmentStore::open` refuses a store that breaks it.
    let mut sound = true;
    let mut by_vertex: BTreeMap<VertexId, &ManifestRow> = BTreeMap::new();
    for o in &manifest {
        if by_vertex.insert(o.vertex, o).is_some() {
            report.error(
                P_DUPLICATE_VERTEX,
                loc.clone(),
                format!("vertex {} has more than one manifest row", o.vertex),
            );
            sound = false;
        }
    }

    for o in &manifest {
        // Kind/parent consistency: materialized objects are chain roots.
        match o.kind {
            ObjectKind::Materialized if o.parent != NULL_VERTEX => {
                report.error(
                    P_MATERIALIZED_MID_CHAIN,
                    loc.clone(),
                    format!("materialized vertex {} has parent {}", o.vertex, o.parent),
                );
                sound = false;
            }
            ObjectKind::DeltaSub | ObjectKind::DeltaXor if o.parent == NULL_VERTEX => {
                report.error(
                    P_ROOT_NOT_MATERIALIZED,
                    loc.clone(),
                    format!("delta vertex {} is a chain root (no parent)", o.vertex),
                );
                sound = false;
            }
            _ => {}
        }
        if o.parent != NULL_VERTEX && !by_vertex.contains_key(&o.parent) {
            report.error(
                P_DANGLING_PARENT,
                loc.clone(),
                format!(
                    "vertex {} has parent {}, which is not in the manifest",
                    o.vertex, o.parent
                ),
            );
            sound = false;
        }
        // Plane files present with the recorded compressed sizes.
        for (p, want) in o.plane_sizes.iter().enumerate() {
            let plane = plane_file_name(o.vertex, p);
            match std::fs::metadata(dir.join(&plane)) {
                Err(_) => {
                    report.error(
                        P_MISSING_PLANE,
                        format!("pas/{store}/{plane}"),
                        format!("byte plane {p} of vertex {} is missing", o.vertex),
                    );
                    sound = false;
                }
                Ok(meta) if meta.len() != *want => {
                    report.error(
                        P_PLANE_SIZE_MISMATCH,
                        format!("pas/{store}/{plane}"),
                        format!(
                            "manifest records {want} compressed bytes, file has {}",
                            meta.len()
                        ),
                    );
                    sound = false;
                }
                Ok(_) => {}
            }
        }
    }

    // Reachability from ν₀: every vertex's parent chain must terminate at a
    // materialized root without revisiting a vertex; the seen-set walk
    // names the vertex a cycle revisits.
    for o in &manifest {
        let mut seen: BTreeSet<VertexId> = BTreeSet::new();
        let mut cur = o.vertex;
        loop {
            if !seen.insert(cur) {
                report.error(
                    P_CHAIN_CYCLE,
                    loc.clone(),
                    format!("delta chain of vertex {} revisits vertex {cur}", o.vertex),
                );
                sound = false;
                break;
            }
            let Some(obj) = by_vertex.get(&cur) else {
                break; // dangling parent, already reported
            };
            if obj.parent == NULL_VERTEX {
                break; // reached a chain root
            }
            cur = obj.parent;
        }
    }

    // Orphan plane files (warning).
    let planes: BTreeSet<String> = by_vertex
        .keys()
        .flat_map(|&v| (0..4).map(move |p| plane_file_name(v, p)))
        .collect();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name != "manifest.mhp" && !planes.contains(&name) {
                report.warn(
                    P_ORPHAN_PLANE,
                    format!("pas/{store}/{name}"),
                    "file matches no manifest entry",
                );
            }
        }
    }
    if !sound {
        return None;
    }
    // Structural checks passed; a store mh-pas still refuses is reported
    // rather than silently skipped.
    SegmentStore::from_rows(dir, manifest)
        .map_err(|e| {
            let msg = format!("store fails to open: {e}");
            report.error(P_BAD_MANIFEST, format!("pas/{store}"), msg);
        })
        .ok()
}

/// Verify recorded per-snapshot recreation costs against declared
/// α-budgets (persisted by `archive` in the `pas_budget` table).
fn check_budgets(snap: &CatalogSnapshot, stores: &BTreeSet<String>, report: &mut FsckReport) {
    let Some(budgets) = &snap.budgets else {
        if !stores.is_empty() {
            report.warn(
                E_MISSING_BUDGET_TABLE,
                "catalog.mhs",
                "repository has archived stores but no pas_budget table (pre-upgrade repo?)",
            );
        }
        return;
    };
    let mut budgeted: BTreeSet<&str> = BTreeSet::new();
    for (row, store, snapshot, scheme, budget, cost) in budgets {
        budgeted.insert(store.as_str());
        if !stores.contains(store) {
            report.error(
                E_BUDGET_STORE_MISSING,
                format!("catalog.mhs:pas_budget#{row}"),
                format!("budget row for snapshot '{snapshot}' references unknown store '{store}'"),
            );
            continue;
        }
        // Tolerate float noise from recomputing sums in a different order.
        // The negated `<=` is deliberate: it also trips when either side
        // is NaN, which a plain `>` would silently pass.
        let slack = 1e-9 * budget.abs().max(1.0);
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(*cost <= *budget + slack) {
            report.error(
                E_BUDGET_EXCEEDED,
                format!("catalog.mhs:pas_budget#{row}"),
                format!(
                    "snapshot '{snapshot}' ({scheme}) recreation cost {cost:.3} exceeds \
                     declared budget {budget:.3}"
                ),
            );
        }
    }
    for store in stores {
        if !budgeted.contains(store.as_str()) {
            report.warn(
                E_NO_BUDGET_ROWS,
                format!("pas/{store}"),
                "archived store has no recorded budget rows",
            );
        }
    }
}

/// Deep (value-level) checks: open the store with `mh-pas`, derive interval
/// bounds for every vertex from the first [`DEEP_PLANES`] byte planes, and
/// verify (a) bounds are well-formed, (b) full recreation falls inside
/// them. Also reports per-snapshot worst-case bound widths.
fn deep_check_store(
    seg: &SegmentStore,
    store: &str,
    snap: &CatalogSnapshot,
    report: &mut FsckReport,
) {
    // Map each vertex to the snapshots it belongs to ("name:id/sN", the
    // same names `archive` records in pas_budget).
    let mut snapshot_of: BTreeMap<VertexId, Vec<String>> = BTreeMap::new();
    for (_, mv, snap_idx, _, s, vertex) in &snap.pas_vertices {
        if s == store {
            if let Some(key) = snap.display_key(*mv) {
                snapshot_of
                    .entry(*vertex as VertexId)
                    .or_default()
                    .push(format!("{key}/s{snap_idx}"));
            }
        }
    }

    // Value-level checks per vertex are independent (recreate each chain,
    // compare against its interval bounds), so they fan out to the pool;
    // findings are applied to the report serially in vertex order, keeping
    // output deterministic across thread counts. Each worker returns its
    // findings plus the bound width (None when bounds were unusable).
    let vertices: Vec<VertexId> = seg.vertices().collect();
    let checked = mh_par::parallel_map(&vertices, |&v| {
        let loc = format!("pas/{store}:vertex{v}");
        let mut findings: Vec<(String, String)> = Vec::new();
        // One prefix per vertex: refined to DEEP_PLANES for the bounds,
        // then on to full precision, so each plane is decoded once.
        let bounded = seg.plane_prefix(v).and_then(|mut prefix| {
            seg.refine(std::slice::from_mut(&mut prefix), DEEP_PLANES)?;
            Ok((prefix.bounds()?, prefix))
        });
        let ((lo, hi), mut prefix) = match bounded {
            Ok(b) => b,
            Err(e) => {
                findings.push((loc, format!("interval bounds cannot be derived: {e}")));
                return (findings, None);
            }
        };
        let mut width = 0f32;
        for (l, h) in lo.as_slice().iter().zip(hi.as_slice()) {
            if l > h {
                findings.push((
                    loc,
                    "inverted interval (lo > hi) from byte-plane prefix".to_string(),
                ));
                return (findings, None);
            }
            width = width.max(h - l);
        }
        let refined = seg.refine(std::slice::from_mut(&mut prefix), 4);
        match refined.and_then(|_| prefix.to_matrix()) {
            Ok(full) => {
                let inside = full
                    .as_slice()
                    .iter()
                    .zip(lo.as_slice().iter().zip(hi.as_slice()))
                    .all(|(x, (l, h))| l <= x && x <= h);
                if !inside {
                    findings.push((
                        loc,
                        format!(
                            "fully recreated '{}' falls outside its {DEEP_PLANES}-plane bounds",
                            seg.label(v).unwrap_or("?")
                        ),
                    ));
                }
            }
            Err(e) => {
                findings.push((loc, format!("vertex cannot be recreated: {e}")));
            }
        }
        (findings, Some(width))
    });
    let checked = match checked {
        Ok(c) => c,
        Err(e) => {
            report.error(
                E_BOUND_VIOLATION,
                format!("pas/{store}"),
                format!("deep check workers failed: {e}"),
            );
            return;
        }
    };
    let mut worst: BTreeMap<String, (usize, f32)> = BTreeMap::new();
    for (&v, (findings, width)) in vertices.iter().zip(checked) {
        for (loc, msg) in findings {
            report.error(E_BOUND_VIOLATION, loc, msg);
        }
        let Some(width) = width else { continue };
        for name in snapshot_of.get(&v).into_iter().flatten() {
            let entry = worst.entry(name.clone()).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 = entry.1.max(width);
        }
    }
    for (snapshot, (layers, worst_width)) in worst {
        report.bounds.push(SnapshotBound {
            store: store.to_string(),
            snapshot,
            layers,
            planes: DEEP_PLANES,
            worst_width,
        });
    }
}
