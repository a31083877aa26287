//! Layer 2: blob integrity — staged weight files, content-addressed
//! objects, and the catalog↔disk mapping for archived stores.

use super::catalog::CatalogSnapshot;
use super::pasck::Store;
use super::{
    FsckReport, B_CORRUPT_BLOB, B_DANGLING_PAS_VERTEX, B_HASH_MISMATCH, B_MISSING_BLOB,
    B_MISSING_OBJECT, B_MISSING_STORE, B_NO_PAS_VERTICES, B_ORPHAN_BLOB, B_SIZE_MISMATCH,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Run the blob-layer checks.
pub(super) fn check(
    root: &Path,
    snap: &CatalogSnapshot,
    stores: &BTreeMap<String, Store>,
    report: &mut FsckReport,
) {
    let has_manifest = |store: &str| stores.get(store).is_some_and(|s| s.has_manifest);
    // Repo-relative paths (`weights/..`, `objects/..`, `pas/..`) some
    // catalog row references.
    let mut referenced: BTreeSet<String> = BTreeSet::new();
    // The store each archived snapshot (mv, snap_idx) is read from.
    let mut archived_in: BTreeMap<(i64, i64), &str> = BTreeMap::new();
    let with_vertices: BTreeSet<(i64, i64)> = snap
        .pas_vertices
        .iter()
        .map(|(_, mv, idx, ..)| (*mv, *idx))
        .collect();

    // Staged snapshot blobs must exist and parse as weight files; `pas:`
    // locations must name a store directory with a manifest, and the
    // snapshot must have its layers' vertices.
    for (row, mv, idx, loc) in &snap.snapshots {
        if let Some(rel) = loc.strip_prefix("staged:") {
            referenced.insert(rel.to_string());
            let path = root.join(rel);
            report.blobs_checked += 1;
            match std::fs::read(&path) {
                Err(_) => {
                    report.error(
                        B_MISSING_BLOB,
                        rel,
                        format!("staged blob for snapshot row #{row} is missing"),
                    );
                }
                Ok(bytes) => {
                    if let Err(e) = crate::wfile::weights_from_bytes(&bytes) {
                        report.error(
                            B_CORRUPT_BLOB,
                            rel,
                            format!("staged blob does not parse as a weights file: {e}"),
                        );
                    }
                }
            }
        } else if let Some(store) = loc.strip_prefix("pas:") {
            referenced.insert(format!("pas/{store}"));
            archived_in.insert((*mv, *idx), store);
            if !has_manifest(store) {
                report.error(
                    B_MISSING_STORE,
                    format!("pas/{store}"),
                    format!("snapshot row #{row} is archived in '{store}', which has no manifest"),
                );
            }
            if !with_vertices.contains(&(*mv, *idx)) {
                report.error(
                    B_NO_PAS_VERTICES,
                    format!("catalog.mhs:snapshot#{row}"),
                    format!("snapshot {idx} is archived in '{store}' but has no pas_vertex rows"),
                );
            }
        }
    }

    // Content-addressed objects: exist, size matches, hash matches.
    for (row, _, path, digest, bytes) in &snap.files {
        referenced.insert(format!("objects/{digest}"));
        let obj = root.join("objects").join(digest);
        report.blobs_checked += 1;
        match std::fs::read(&obj) {
            Err(_) => {
                report.error(
                    B_MISSING_OBJECT,
                    format!("objects/{digest}"),
                    format!("object for file '{path}' (row #{row}) is missing"),
                );
            }
            Ok(content) => {
                if content.len() as i64 != *bytes {
                    report.error(
                        B_SIZE_MISMATCH,
                        format!("objects/{digest}"),
                        format!(
                            "file '{path}' records {bytes} bytes but the object has {}",
                            content.len()
                        ),
                    );
                }
                let actual = crate::hash::sha256_hex(&content);
                if &actual != digest {
                    report.error(
                        B_HASH_MISMATCH,
                        format!("objects/{digest}"),
                        format!("file '{path}' content hashes to {actual}"),
                    );
                }
            }
        }
    }

    // pas_vertex rows must point into an existing store, the one their
    // snapshot is read from, at a vertex the manifest knows about (checked
    // against the raw manifest rows, so a damaged store still yields
    // precise findings).
    for (row, mv, idx, layer, store, vertex) in &snap.pas_vertices {
        referenced.insert(format!("pas/{store}"));
        if !has_manifest(store) {
            report.error(
                B_MISSING_STORE,
                format!("pas/{store}"),
                format!("pas_vertex row #{row} (layer '{layer}') references a missing store"),
            );
            continue;
        }
        if let Some(read_from) = archived_in.get(&(*mv, *idx)).filter(|s| **s != store) {
            report.error(
                B_DANGLING_PAS_VERTEX,
                format!("pas/{store}"),
                format!(
                    "pas_vertex row #{row} (layer '{layer}') is in store '{store}', but its \
                     snapshot is read from '{read_from}'"
                ),
            );
        }
        if let Some(Ok(manifest)) = stores.get(store).map(|s| &s.manifest) {
            if !manifest.iter().any(|o| o.vertex as i64 == *vertex) {
                report.error(
                    B_DANGLING_PAS_VERTEX,
                    format!("pas/{store}"),
                    format!(
                        "pas_vertex row #{row} (layer '{layer}') points at vertex {vertex}, \
                         which is not in the manifest"
                    ),
                );
            }
        }
    }

    // Orphans: on-disk blobs referenced by no catalog row (warnings — they
    // waste space but damage nothing).
    for (dir, what) in [
        ("weights", "staged blob is referenced by no snapshot row"),
        ("objects", "object is referenced by no file row"),
        (
            "pas",
            "segment store is referenced by no snapshot or pas_vertex row",
        ),
    ] {
        let Ok(entries) = std::fs::read_dir(root.join(dir)) else {
            continue;
        };
        for entry in entries.flatten() {
            let rel = format!("{dir}/{}", entry.file_name().to_string_lossy());
            if !referenced.contains(&rel) {
                report.warn(B_ORPHAN_BLOB, rel, what);
            }
        }
    }
}
