//! Layer 2: blob integrity — staged weight files, content-addressed
//! objects, and the catalog↔disk mapping for archived stores.

use crate::catalog::CatalogSnapshot;
use crate::{
    FsckReport, B_CORRUPT_BLOB, B_DANGLING_PAS_VERTEX, B_HASH_MISMATCH, B_MISSING_BLOB,
    B_MISSING_OBJECT, B_MISSING_STORE, B_ORPHAN_BLOB, B_SIZE_MISMATCH,
};
use std::collections::BTreeSet;
use std::path::Path;

/// Run the blob-layer checks.
pub fn check(root: &Path, snap: &CatalogSnapshot, report: &mut FsckReport) {
    let mut referenced_weights: BTreeSet<String> = BTreeSet::new();
    let mut referenced_stores: BTreeSet<&str> = BTreeSet::new();

    // Staged snapshot blobs must exist and parse as weight files; `pas:`
    // locations must name a store directory with a manifest.
    for (row, _, _, loc) in &snap.snapshots {
        if let Some(rel) = loc.strip_prefix("staged:") {
            referenced_weights.insert(rel.to_string());
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
                    if let Err(e) = mh_dlv::wfile::weights_from_bytes(&bytes) {
                        report.error(
                            B_CORRUPT_BLOB,
                            rel,
                            format!("staged blob does not parse as a weights file: {e}"),
                        );
                    }
                }
            }
        } else if let Some(store) = loc.strip_prefix("pas:") {
            referenced_stores.insert(store);
            if !root.join("pas").join(store).join("manifest.mhp").exists() {
                report.error(
                    B_MISSING_STORE,
                    format!("pas/{store}"),
                    format!("snapshot row #{row} is archived in '{store}', which has no manifest"),
                );
            }
        }
    }

    // Content-addressed objects: exist, size matches, hash matches.
    let mut referenced_objects: BTreeSet<&str> = BTreeSet::new();
    for (row, _, path, digest, bytes) in &snap.files {
        referenced_objects.insert(digest.as_str());
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
                let actual = mh_dlv::hash::sha256_hex(&content);
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

    // pas_vertex rows must point into an existing store at a vertex the
    // manifest knows about (vertex presence is checked against a raw
    // manifest parse so a damaged store still yields precise findings).
    for (row, _, _, layer, store, vertex) in &snap.pas_vertices {
        let dir = root.join("pas").join(store);
        if !dir.join("manifest.mhp").exists() {
            report.error(
                B_MISSING_STORE,
                format!("pas/{store}"),
                format!("pas_vertex row #{row} (layer '{layer}') references a missing store"),
            );
            continue;
        }
        if let Ok(manifest) = crate::pasck::read_manifest(&dir) {
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
    if let Ok(entries) = std::fs::read_dir(root.join("weights")) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !referenced_weights.contains(&format!("weights/{name}")) {
                report.warn(
                    B_ORPHAN_BLOB,
                    format!("weights/{name}"),
                    "staged blob is referenced by no snapshot row",
                );
            }
        }
    }
    if let Ok(entries) = std::fs::read_dir(root.join("objects")) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !referenced_objects.contains(name.as_str()) {
                report.warn(
                    B_ORPHAN_BLOB,
                    format!("objects/{name}"),
                    "object is referenced by no file row",
                );
            }
        }
    }
    if let Ok(entries) = std::fs::read_dir(root.join("pas")) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let known = referenced_stores.contains(name.as_str())
                || snap
                    .pas_vertices
                    .iter()
                    .any(|(_, _, _, _, s, _)| s == &name);
            if !known {
                report.warn(
                    B_ORPHAN_BLOB,
                    format!("pas/{name}"),
                    "segment store is referenced by no snapshot or pas_vertex row",
                );
            }
        }
    }
}
