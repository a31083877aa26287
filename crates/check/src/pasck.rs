//! Layer 3: PAS plan verification — manifest structure, plane files,
//! delta-chain invariants, α-budget accounting, and (deep mode) interval
//! error bounds.
//!
//! The manifest is parsed here independently of `mh-pas`: `fsck` must
//! produce precise findings for exactly the corruption that would make
//! `SegmentStore::open` fail (and must survive manifests that would send
//! its unguarded parent-chain walk into a loop).

use crate::catalog::CatalogSnapshot;
use crate::{
    FsckConfig, FsckReport, SnapshotBound, E_BOUND_VIOLATION, E_BUDGET_EXCEEDED,
    E_BUDGET_STORE_MISSING, E_MISSING_BUDGET_TABLE, E_NO_BUDGET_ROWS, P_BAD_MANIFEST,
    P_CHAIN_CYCLE, P_DANGLING_PARENT, P_DUPLICATE_VERTEX, P_MATERIALIZED_MID_CHAIN,
    P_MISSING_PLANE, P_ORPHAN_PLANE, P_PLANE_SIZE_MISMATCH, P_ROOT_NOT_MATERIALIZED,
};
use mh_pas::{SegmentStore, VertexId, NULL_VERTEX};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Object kinds as stored in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjKind {
    Materialized,
    DeltaSub,
    DeltaXor,
}

/// One manifest row, as parsed by the checker.
#[derive(Debug, Clone)]
pub struct ManifestObject {
    pub vertex: VertexId,
    pub kind: ObjKind,
    pub parent: VertexId,
    pub plane_sizes: [u64; 4],
    pub label: String,
}

/// An independently parsed `manifest.mhp`.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    pub objects: Vec<ManifestObject>,
}

impl Manifest {
    /// Parse a manifest file. Errors carry the 1-based line number and the
    /// same descriptions `SegmentStore::open` would use.
    pub fn parse_file(path: &Path) -> Result<Self, (usize, &'static str)> {
        let text = std::fs::read_to_string(path).map_err(|_| (0, "manifest unreadable"))?;
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, "MHPAS1")) => {}
            _ => return Err((1, "bad manifest header")),
        }
        let mut objects = Vec::new();
        for (idx, line) in lines {
            let lineno = idx + 1;
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 10 {
                return Err((lineno, "bad manifest row"));
            }
            let num = |s: &str| -> Result<u64, (usize, &'static str)> {
                s.parse().map_err(|_| (lineno, "bad manifest number"))
            };
            let kind = match f[1] {
                "mat" => ObjKind::Materialized,
                "sub" => ObjKind::DeltaSub,
                "xor" => ObjKind::DeltaXor,
                _ => return Err((lineno, "bad object kind")),
            };
            objects.push(ManifestObject {
                vertex: num(f[0])? as VertexId,
                kind,
                parent: num(f[2])? as VertexId,
                plane_sizes: [num(f[5])?, num(f[6])?, num(f[7])?, num(f[8])?],
                label: f[9].to_string(),
            });
        }
        Ok(Self { objects })
    }
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
    let manifest = match Manifest::parse_file(&dir.join("manifest.mhp")) {
        Ok(m) => m,
        Err((line, msg)) => {
            report.error(P_BAD_MANIFEST, format!("{loc}:{line}"), msg);
            return false;
        }
    };

    // Plan invariant: one row (= one parent edge) per matrix vertex.
    let mut by_vertex: BTreeMap<VertexId, &ManifestObject> = BTreeMap::new();
    for o in &manifest.objects {
        if by_vertex.insert(o.vertex, o).is_some() {
            report.error(
                P_DUPLICATE_VERTEX,
                loc.clone(),
                format!("vertex {} has more than one manifest row", o.vertex),
            );
        }
    }

    let mut sound = true;
    for o in &manifest.objects {
        // Kind/parent consistency: materialized objects are chain roots.
        match o.kind {
            ObjKind::Materialized if o.parent != NULL_VERTEX => {
                report.error(
                    P_MATERIALIZED_MID_CHAIN,
                    loc.clone(),
                    format!("materialized vertex {} has parent {}", o.vertex, o.parent),
                );
                sound = false;
            }
            ObjKind::DeltaSub | ObjKind::DeltaXor if o.parent == NULL_VERTEX => {
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
            let plane = dir.join(format!("obj{:06}_p{p}.mhz", o.vertex));
            match std::fs::metadata(&plane) {
                Err(_) => {
                    report.error(
                        P_MISSING_PLANE,
                        format!("pas/{store}/obj{:06}_p{p}.mhz", o.vertex),
                        format!("byte plane {p} of vertex {} is missing", o.vertex),
                    );
                    sound = false;
                }
                Ok(meta) if meta.len() != *want => {
                    report.error(
                        P_PLANE_SIZE_MISMATCH,
                        format!("pas/{store}/obj{:06}_p{p}.mhz", o.vertex),
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
    // materialized root without revisiting a vertex. (The production walk
    // in `SegmentStore` is unguarded — a cycle would hang it, so the
    // checker uses its own seen-set walk.)
    for o in &manifest.objects {
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
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name == "manifest.mhp" {
                continue;
            }
            let known =
                parse_plane_name(&name).is_some_and(|(v, p)| by_vertex.contains_key(&v) && p < 4);
            if !known {
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

/// Parse `obj{v:06}_p{plane}.mhz` back into (vertex, plane).
fn parse_plane_name(name: &str) -> Option<(VertexId, usize)> {
    let rest = name.strip_prefix("obj")?.strip_suffix(".mhz")?;
    let (v, p) = rest.split_once("_p")?;
    Some((v.parse().ok()?, p.parse().ok()?))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_name_roundtrip() {
        assert_eq!(parse_plane_name("obj000007_p2.mhz"), Some((7, 2)));
        assert_eq!(parse_plane_name("obj000123_p0.mhz"), Some((123, 0)));
        assert_eq!(parse_plane_name("manifest.mhp"), None);
        assert_eq!(parse_plane_name("obj_p.mhz"), None);
    }
}
