//! Layer 3: PAS plan verification — manifest structure, plane files,
//! delta-chain invariants, α-budget accounting, and (deep mode) interval
//! error bounds.
//!
//! The manifest is parsed with `mh-pas`'s own grammar
//! ([`mh_pas::parse_manifest`]), so fsck and `SegmentStore::open` agree
//! on what a well-formed manifest is; the plan checks below then give
//! precise findings for what would make the store unusable (and survive
//! manifests that would send a parent-chain walk into a loop).

use crate::catalog::CatalogSnapshot;
use crate::{
    FsckConfig, FsckReport, SnapshotBound, E_BOUND_VIOLATION, E_BUDGET_EXCEEDED,
    E_BUDGET_STORE_MISSING, E_MISSING_BUDGET_TABLE, E_NO_BUDGET_ROWS, P_BAD_MANIFEST,
    P_CHAIN_CYCLE, P_DANGLING_PARENT, P_DUPLICATE_VERTEX, P_MATERIALIZED_MID_CHAIN,
    P_MISSING_PLANE, P_ORPHAN_PLANE, P_PLANE_SIZE_MISMATCH, P_ROOT_NOT_MATERIALIZED,
};
use mh_pas::{
    parse_manifest, plane_file_name, ManifestRow, ObjectKind, SegmentStore, VertexId, NULL_VERTEX,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The rows of the `manifest.mhp` in store directory `dir`, in file
/// order. Errors carry the 1-based line number (0: unreadable).
pub(crate) fn read_manifest(dir: &Path) -> Result<Vec<ManifestRow>, (usize, &'static str)> {
    let text = std::fs::read_to_string(dir.join("manifest.mhp"))
        .map_err(|_| (0, "manifest unreadable"))?;
    parse_manifest(&text)
}

/// Byte planes inspected per vertex in deep mode; 2 of 4 keeps the check
/// to prefix reads (never full decompression).
const DEEP_PLANES: usize = 2;

/// Run the PAS-layer checks over every store referenced by the catalog or
/// present under `pas/`.
pub fn check(root: &Path, snap: &CatalogSnapshot, cfg: &FsckConfig, report: &mut FsckReport) {
    let mut stores: BTreeSet<String> = BTreeSet::new();
    for (_, _, _, loc) in &snap.snapshots {
        if let Some(s) = loc.strip_prefix("pas:") {
            stores.insert(s.to_string());
        }
    }
    for (_, _, _, _, store, _) in &snap.pas_vertices {
        stores.insert(store.clone());
    }
    if let Ok(entries) = std::fs::read_dir(root.join("pas")) {
        for entry in entries.flatten() {
            stores.insert(entry.file_name().to_string_lossy().into_owned());
        }
    }

    let mut structurally_ok: BTreeSet<String> = BTreeSet::new();
    for store in &stores {
        let dir = root.join("pas").join(store);
        if !dir.is_dir() {
            // Reported by the blob layer (B026) against the catalog row.
            continue;
        }
        report.stores_checked += 1;
        if check_store(&dir, store, report) {
            structurally_ok.insert(store.clone());
        }
    }

    check_budgets(snap, &stores, report);

    if cfg.deep {
        for store in &structurally_ok {
            deep_check_store(root, store, snap, report);
        }
    }
}

/// Structural checks for one store. Returns whether the store is sound
/// enough for deep (value-level) checks.
fn check_store(dir: &Path, store: &str, report: &mut FsckReport) -> bool {
    let loc = format!("pas/{store}/manifest.mhp");
    let manifest = match read_manifest(dir) {
        Ok(m) => m,
        Err((line, msg)) => {
            report.error(P_BAD_MANIFEST, format!("{loc}:{line}"), msg);
            return false;
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
    sound
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
fn deep_check_store(root: &Path, store: &str, snap: &CatalogSnapshot, report: &mut FsckReport) {
    let store_path = root.join("pas").join(store);
    let seg = match SegmentStore::open(&store_path) {
        Ok(s) => s,
        Err(e) => {
            // Structural checks passed but mh-pas still rejects it: report
            // rather than silently skipping.
            report.error(
                P_BAD_MANIFEST,
                format!("pas/{store}"),
                format!("store fails to open: {e}"),
            );
            return;
        }
    };

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
