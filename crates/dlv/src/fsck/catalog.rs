//! Layer 1: catalog integrity — referential checks across the `mh-store`
//! tables, lineage-DAG verification, and each version's network.

use super::{
    FsckReport, C_BAD_EDGE_ENDPOINT, C_BAD_LAYER_DEF, C_BAD_NETWORK, C_BAD_SNAPSHOT_LOCATION,
    C_DANGLING_LINEAGE, C_DANGLING_VERSION_REF, C_DUPLICATE_VERSION, C_LINEAGE_CYCLE,
    C_MISSING_TABLE,
};
use mh_store::{Database, Row, RowId, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Tables every repository must have (`pas_budget` is optional: it was
/// added later and is created lazily on archive).
const REQUIRED_TABLES: &[&str] = &[
    "model_version",
    "node",
    "edge",
    "parent",
    "hyper",
    "metric",
    "file",
    "snapshot",
    "pas_vertex",
];

/// One `model_version` row.
#[derive(Debug, Clone)]
pub(super) struct VersionRow {
    pub row_id: RowId,
    pub name: String,
    pub vid: i64,
}

impl VersionRow {
    /// The display key used by lineage edges and PAS snapshot names.
    fn display_key(&self) -> String {
        format!("{}:{}", self.name, self.vid)
    }
}

/// An in-memory copy of everything `fsck` needs from the catalog, read in
/// one transaction so all layers see a consistent state.
#[derive(Debug, Clone, Default)]
pub(super) struct CatalogSnapshot {
    pub missing_tables: Vec<String>,
    pub versions: Vec<VersionRow>,
    /// (row id, mv, node_id, layer name, encoded def).
    pub nodes: Vec<(RowId, i64, i64, String, String)>,
    /// (row id, mv, from_id, to_id).
    pub edges: Vec<(RowId, i64, i64, i64)>,
    /// (row id, base key, derived key).
    pub parents: Vec<(RowId, String, String)>,
    /// (row id, mv) for hyper/metric rows (only the reference matters).
    pub hyper_refs: Vec<(RowId, &'static str, i64)>,
    /// (row id, mv, path, sha256, bytes).
    pub files: Vec<(RowId, i64, String, String, i64)>,
    /// (row id, mv, snap_idx, location).
    pub snapshots: Vec<(RowId, i64, i64, String)>,
    /// (row id, mv, snap_idx, layer, store, vertex).
    pub pas_vertices: Vec<(RowId, i64, i64, String, String, i64)>,
    /// (row id, store, snapshot, scheme, budget, cost); `None` when the
    /// `pas_budget` table does not exist.
    pub budgets: Option<Vec<BudgetRow>>,
}

/// One `pas_budget` row: (row id, store, snapshot, scheme, budget, cost).
pub(super) type BudgetRow = (RowId, String, String, String, f64, f64);

impl CatalogSnapshot {
    /// Read every table. Missing tables are recorded, not fatal.
    pub fn collect(db: &Database) -> Self {
        let names: BTreeSet<String> = db.table_names().into_iter().collect();
        let mut hyper_refs = rows(db, "hyper", |r| (r.id, "hyper", int(r, 0)));
        hyper_refs.extend(rows(db, "metric", |r| (r.id, "metric", int(r, 0))));
        Self {
            missing_tables: REQUIRED_TABLES
                .iter()
                .filter(|t| !names.contains(**t))
                .map(|t| t.to_string())
                .collect(),
            versions: rows(db, "model_version", |r| VersionRow {
                row_id: r.id,
                name: text(r, 0),
                vid: int(r, 1),
            }),
            nodes: rows(db, "node", |r| {
                (r.id, int(r, 0), int(r, 1), text(r, 2), text(r, 3))
            }),
            edges: rows(db, "edge", |r| (r.id, int(r, 0), int(r, 1), int(r, 2))),
            parents: rows(db, "parent", |r| (r.id, text(r, 0), text(r, 1))),
            hyper_refs,
            files: rows(db, "file", |r| {
                (r.id, int(r, 0), text(r, 1), text(r, 2), int(r, 3))
            }),
            snapshots: rows(db, "snapshot", |r| (r.id, int(r, 0), int(r, 1), text(r, 3))),
            pas_vertices: rows(db, "pas_vertex", |r| {
                (
                    r.id,
                    int(r, 0),
                    int(r, 1),
                    text(r, 2),
                    text(r, 3),
                    int(r, 4),
                )
            }),
            budgets: names.contains("pas_budget").then(|| {
                rows(db, "pas_budget", |r| {
                    (
                        r.id,
                        text(r, 0),
                        text(r, 1),
                        text(r, 2),
                        real(r, 3),
                        real(r, 4),
                    )
                })
            }),
        }
    }

    /// Display key (`name:id`) of the version with catalog row id `mv`.
    pub fn display_key(&self, mv: i64) -> Option<String> {
        self.versions
            .iter()
            .find(|v| v.row_id as i64 == mv)
            .map(VersionRow::display_key)
    }
}

/// `f` of every row of `table` (none when the table is missing).
fn rows<T>(db: &Database, table: &str, f: impl Fn(&Row) -> T) -> Vec<T> {
    db.table(table)
        .map(|t| t.scan().map(|r| f(&r)).collect())
        .unwrap_or_default()
}

/// Column `i` of `r` as an integer, -1 when absent or not one.
fn int(r: &Row, i: usize) -> i64 {
    r.values.get(i).and_then(Value::as_int).unwrap_or(-1)
}

/// Column `i` of `r` as a real, NaN when absent or not one.
fn real(r: &Row, i: usize) -> f64 {
    r.values.get(i).and_then(Value::as_real).unwrap_or(f64::NAN)
}

/// Column `i` of `r` as text, empty when absent or not text.
fn text(r: &Row, i: usize) -> String {
    let t = r.values.get(i).and_then(Value::as_text);
    t.unwrap_or("").to_string()
}

/// Run the catalog-layer checks.
pub(super) fn check(snap: &CatalogSnapshot, report: &mut FsckReport) {
    report.versions_checked = snap.versions.len();
    for t in &snap.missing_tables {
        report.error(
            C_MISSING_TABLE,
            "catalog.mhs",
            format!("required table '{t}' is missing"),
        );
    }

    // Duplicate (name, vid) keys.
    let mut seen: BTreeMap<(String, i64), RowId> = BTreeMap::new();
    for v in &snap.versions {
        if let Some(first) = seen.insert((v.name.clone(), v.vid), v.row_id) {
            report.error(
                C_DUPLICATE_VERSION,
                format!("catalog.mhs:model_version#{}", v.row_id),
                format!(
                    "duplicate version key {} (also row #{first})",
                    v.display_key()
                ),
            );
        }
    }

    // Dangling version references from every child table.
    let ids: BTreeSet<i64> = snap.versions.iter().map(|v| v.row_id as i64).collect();
    let dangle = |table: &str, row: RowId, mv: i64, report: &mut FsckReport| {
        if !ids.contains(&mv) {
            report.error(
                C_DANGLING_VERSION_REF,
                format!("catalog.mhs:{table}#{row}"),
                format!("references model version {mv}, which does not exist"),
            );
            return true;
        }
        false
    };
    // Versions whose node or edge rows are already reported broken; their
    // networks are not built again below.
    let mut broken_net: BTreeSet<i64> = BTreeSet::new();
    for (row, mv, node_id, lname, def) in &snap.nodes {
        dangle("node", *row, *mv, report);
        if crate::layercodec::decode_layer(def).is_none() {
            broken_net.insert(*mv);
            report.error(
                C_BAD_LAYER_DEF,
                format!("catalog.mhs:node#{row}"),
                format!("layer '{lname}' (node {node_id}) has undecodable definition '{def}'"),
            );
        }
    }
    for (row, mv, _, _) in &snap.edges {
        dangle("edge", *row, *mv, report);
    }
    for (row, table, mv) in &snap.hyper_refs {
        dangle(table, *row, *mv, report);
    }
    for (row, mv, ..) in &snap.files {
        dangle("file", *row, *mv, report);
    }
    for (row, mv, _, loc) in &snap.snapshots {
        dangle("snapshot", *row, *mv, report);
        if !loc.starts_with("staged:") && !loc.starts_with("pas:") {
            report.error(
                C_BAD_SNAPSHOT_LOCATION,
                format!("catalog.mhs:snapshot#{row}"),
                format!("location '{loc}' is neither 'staged:' nor 'pas:'"),
            );
        }
    }
    for (row, mv, ..) in &snap.pas_vertices {
        dangle("pas_vertex", *row, *mv, report);
    }

    // Network edges must connect existing nodes of the same version.
    let mut nodes_of: BTreeMap<i64, BTreeSet<i64>> = BTreeMap::new();
    for (_, mv, node_id, ..) in &snap.nodes {
        nodes_of.entry(*mv).or_default().insert(*node_id);
    }
    for (row, mv, from, to) in &snap.edges {
        let known = nodes_of.get(mv);
        for (end, id) in [("from", from), ("to", to)] {
            if !known.is_some_and(|s| s.contains(id)) {
                broken_net.insert(*mv);
                report.error(
                    C_BAD_EDGE_ENDPOINT,
                    format!("catalog.mhs:edge#{row}"),
                    format!("{end}-endpoint node {id} has no node row for version {mv}"),
                );
            }
        }
    }

    check_networks(snap, &broken_net, report);

    // Lineage: endpoints must exist; the derivation graph must be acyclic.
    let keys: BTreeSet<String> = snap.versions.iter().map(VersionRow::display_key).collect();
    let mut children: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (row, base, derived) in &snap.parents {
        for (role, key) in [("base", base), ("derived", derived)] {
            if !keys.contains(key) {
                report.error(
                    C_DANGLING_LINEAGE,
                    format!("catalog.mhs:parent#{row}"),
                    format!("{role} version '{key}' does not exist"),
                );
            }
        }
        children
            .entry(base.as_str())
            .or_default()
            .push(derived.as_str());
    }
    for cycle in find_cycles(&children) {
        report.error(
            C_LINEAGE_CYCLE,
            "catalog.mhs:parent",
            format!("lineage cycle through '{cycle}'"),
        );
    }
}

/// Every version's network must build from its rows and pass shape
/// inference, as `Repository::get_network` and training would need it.
fn check_networks(snap: &CatalogSnapshot, broken: &BTreeSet<i64>, report: &mut FsckReport) {
    type Rows = (Vec<(i64, String, String)>, Vec<(i64, i64)>);
    let mut rows: BTreeMap<i64, Rows> = BTreeMap::new();
    for (_, mv, node_id, name, def) in &snap.nodes {
        let entry = rows.entry(*mv).or_default();
        entry.0.push((*node_id, name.clone(), def.clone()));
    }
    for (_, mv, from, to) in &snap.edges {
        rows.entry(*mv).or_default().1.push((*from, *to));
    }
    for v in &snap.versions {
        let mv = v.row_id as i64;
        if broken.contains(&mv) {
            continue;
        }
        let (nodes, edges) = rows.remove(&mv).unwrap_or_default();
        let problem = match crate::repo::network_from_rows(nodes, edges) {
            Ok(net) => match net.infer_shapes() {
                Ok(_) => continue,
                Err(e) => format!("network fails shape inference: {e}"),
            },
            Err(e) => format!("network does not build: {e}"),
        };
        report.error(
            C_BAD_NETWORK,
            format!("catalog.mhs:model_version#{}", v.row_id),
            format!("{}: {problem}", v.display_key()),
        );
    }
}

/// Vertices on some cycle of the lineage graph (three-colour DFS; each
/// cycle is reported once via its entry vertex).
fn find_cycles(children: &BTreeMap<&str, Vec<&str>>) -> Vec<String> {
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour: BTreeMap<&str, Colour> = BTreeMap::new();
    let mut cycles = Vec::new();
    // Iterative DFS: (vertex, next-child index).
    for &start in children.keys() {
        if *colour.get(start).unwrap_or(&Colour::White) != Colour::White {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        colour.insert(start, Colour::Grey);
        while let Some((v, i)) = stack.pop() {
            let kids = children.get(v).map(Vec::as_slice).unwrap_or(&[]);
            if i < kids.len() {
                stack.push((v, i + 1));
                let child = kids[i];
                match colour.get(child).copied().unwrap_or(Colour::White) {
                    Colour::White => {
                        colour.insert(child, Colour::Grey);
                        stack.push((child, 0));
                    }
                    Colour::Grey => cycles.push(child.to_string()),
                    Colour::Black => {}
                }
            } else {
                colour.insert(v, Colour::Black);
            }
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_detection() {
        let mut g: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        g.insert("a", vec!["b"]);
        g.insert("b", vec!["c"]);
        g.insert("c", vec!["a"]);
        assert_eq!(find_cycles(&g).len(), 1);

        let mut dag: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        dag.insert("a", vec!["b", "c"]);
        dag.insert("b", vec!["c"]);
        assert!(find_cycles(&dag).is_empty());
    }

    #[test]
    fn diamond_is_not_a_cycle() {
        let mut g: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        g.insert("a", vec!["b", "c"]);
        g.insert("b", vec!["d"]);
        g.insert("c", vec!["d"]);
        assert!(find_cycles(&g).is_empty());
    }
}
