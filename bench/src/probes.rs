//! The layer-probe pass of a traced run: each layer's public functions,
//! called directly on the workload's own matrices and on the repository the
//! traced lifecycle pass archived, every call inside a span.
//!
//! Throughputs are per MB (10⁶ bytes) of the bytes the probed function is
//! handed. A probe repeats its sweep until its share of the time budget is
//! used, at least once.

use crate::gen::{Inputs, Spec};
use crate::lifecycle::{Checks, QueryMix};
use crate::trace::Tracer;
use mh_compress::{Level, Scratch};
use mh_delta::{Delta, DeltaOp};
use mh_dlv::{Hub, Repository};
use mh_dnn::{IntervalWeights, Weights};
use mh_pas::{
    apply_alpha_budgets, solver, CostModel, EdgeKind, GraphBuilder, RetrievalScheme, SegmentStore,
    StorageGraph, StoragePlan, VertexId, NULL_VERTEX,
};
use mh_store::{Database, Predicate, Table, Value};
use mh_tensor::{split_byte_planes, Matrix, SegmentedMatrix};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Bytes of sampled matrices the per-byte probes sweep.
const SAMPLE_BYTES: usize = 4 << 20;
const SCHEME: RetrievalScheme = RetrievalScheme::Independent;
const OP: DeltaOp = DeltaOp::Sub;
const LEVEL: Level = Level::Fast;

pub type Metrics = BTreeMap<&'static str, f64>;

struct Probe<'a> {
    tr: &'a mut Tracer,
    budget: Duration,
}

impl Probe<'_> {
    /// Run `sweep` until the budget is used, at least once, all under one
    /// span `name`. Returns seconds per sweep.
    fn per_sweep(&mut self, name: &str, bytes: u64, mut sweep: impl FnMut()) -> f64 {
        let sp = self.tr.begin(name);
        let start = Instant::now();
        let mut sweeps = 0u32;
        while sweeps == 0 || start.elapsed() < self.budget {
            sweep();
            sweeps += 1;
        }
        self.tr.end(sp, bytes * u64::from(sweeps)) / f64::from(sweeps)
    }

    /// MB/s of `sweep` over `bytes`.
    fn mb_s(&mut self, name: &str, bytes: u64, sweep: impl FnMut()) -> f64 {
        bytes as f64 / 1e6 / self.per_sweep(name, bytes, sweep)
    }
}

fn mat_bytes(m: &Matrix) -> u64 {
    m.len() as u64 * 4
}

/// Whole snapshots, evenly spaced, up to about `SAMPLE_BYTES`.
fn sample(inputs: &Inputs) -> Vec<&Weights> {
    let all: Vec<&Weights> = inputs.snapshots().map(|(_, _, w)| w).collect();
    let step = (inputs.user_bytes as usize).div_ceil(SAMPLE_BYTES).max(1);
    all.into_iter().step_by(step).collect()
}

/// The snapshot pairs the archive links with delta edges: adjacent
/// checkpoints and parent/child latest snapshots. A workload without any
/// (no lineage, one checkpoint) probes consecutive versions instead, which
/// shows what a delta between unrelated models would have cost.
fn linked_pairs(inputs: &Inputs) -> Vec<(&Weights, &Weights)> {
    let latest = |name: &str| {
        let c = inputs
            .commits
            .iter()
            .find(|c| c.name == name)
            .expect("parent is committed");
        &c.snapshots.last().expect("non-empty commit").1
    };
    let mut pairs = Vec::new();
    for c in &inputs.commits {
        pairs.extend(c.snapshots.windows(2).map(|w| (&w[0].1, &w[1].1)));
        if let Some(p) = &c.parent {
            pairs.push((latest(p), latest(&c.name)));
        }
    }
    if pairs.is_empty() {
        pairs.extend(
            inputs
                .commits
                .windows(2)
                .map(|w| (latest(&w[0].name), latest(&w[1].name))),
        );
    }
    pairs
}

/// Mean duration in ms of the spans called `name`.
fn span_mean_ms(tr: &Tracer, name: &str) -> f64 {
    let d: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    d.iter().sum::<f64>() / d.len() as f64
}

/// What the traced pass and the width-1 pass hand to the probes.
pub struct Context<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    /// The repository the traced pass archived.
    pub repo: &'a Repository,
    /// Scratch directory, removed with the stage.
    pub dir: &'a Path,
    /// `dlv archive` wall time at `set_threads(Some(1))`.
    pub archive_serial_s: f64,
}

pub fn run(
    cx: &Context,
    budget: Duration,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let mut p = Probe { tr, budget };
    codec_probes(cx, &mut p, &mut m);
    pas_probes(cx, &mut p, &mut m, checks)?;
    store_probes(cx, &mut p, &mut m)?;
    dlv_dql_dnn_probes(cx, &mut p, &mut m, checks)?;
    local_hub_probes(cx, &mut p, &mut m)?;
    Ok(m)
}

fn codec_probes(cx: &Context, p: &mut Probe, m: &mut Metrics) {
    let mats: Vec<&Matrix> = sample(cx.inputs)
        .iter()
        .flat_map(|w| w.layers().map(|(_, m)| m))
        .collect();
    let bytes: u64 = mats.iter().map(|m| mat_bytes(m)).sum();

    // tensor: split into byte planes, join back, 2-plane bounds.
    let mut segs = Vec::new();
    m.insert(
        "tensor.split_mb_s",
        p.mb_s("tensor.split", bytes, || {
            segs = mats
                .iter()
                .map(|m| SegmentedMatrix::from_matrix(m))
                .collect();
        }),
    );
    m.insert(
        "tensor.join_mb_s",
        p.mb_s("tensor.join", bytes, || {
            for s in &segs {
                std::hint::black_box(s.to_matrix());
            }
        }),
    );
    m.insert(
        "tensor.bounds_mb_s",
        p.mb_s("tensor.bounds", bytes / 2, || {
            for s in &segs {
                std::hint::black_box(s.bounds(2));
            }
        }),
    );

    // compress: high-order planes 0-1 and low-order planes 2-3 apart.
    let mut scratch = Scratch::new();
    let mut packed: Vec<Vec<u8>> = Vec::new();
    for (half, planes) in [("hi", [0usize, 1]), ("lo", [2, 3])] {
        let raw: Vec<&[u8]> = segs
            .iter()
            .flat_map(|s| planes.map(|i| s.plane(i)))
            .collect();
        let raw_bytes: u64 = raw.iter().map(|r| r.len() as u64).sum();
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); raw.len()];
        let mb_s = p.mb_s(&format!("compress.encode_{half}"), raw_bytes, || {
            for (r, o) in raw.iter().zip(out.iter_mut()) {
                mh_compress::compress_into(r, LEVEL, &mut scratch, o);
            }
        });
        let packed_bytes: u64 = out.iter().map(|o| o.len() as u64).sum();
        let (speed, ratio) = match half {
            "hi" => ("compress.encode_hi_mb_s", "compress.ratio_hi"),
            _ => ("compress.encode_lo_mb_s", "compress.ratio_lo"),
        };
        m.insert(speed, mb_s);
        m.insert(ratio, packed_bytes as f64 / raw_bytes as f64);
        packed.extend(out);
    }
    m.insert(
        "compress.decode_mb_s",
        p.mb_s("compress.decode", bytes, || {
            for c in &packed {
                std::hint::black_box(mh_compress::decompress(c).expect("own container decodes"));
            }
        }),
    );

    // delta: compute and apply over the pairs the archive links.
    let pairs: Vec<(&Matrix, &Matrix)> = linked_pairs(cx.inputs)
        .into_iter()
        .flat_map(|(a, b)| a.layers().zip(b.layers()).map(|((_, x), (_, y))| (x, y)))
        .scan(0u64, |seen, (x, y)| {
            *seen += mat_bytes(y);
            (*seen <= SAMPLE_BYTES as u64 + mat_bytes(y)).then_some((x, y))
        })
        .collect();
    let pair_bytes: u64 = pairs.iter().map(|(_, y)| mat_bytes(y)).sum();
    let mut deltas = Vec::new();
    m.insert(
        "delta.compute_mb_s",
        p.mb_s("delta.compute", pair_bytes, || {
            deltas = pairs
                .iter()
                .map(|(x, y)| Delta::compute(x, y, OP))
                .collect();
        }),
    );
    m.insert(
        "delta.apply_mb_s",
        p.mb_s("delta.apply", pair_bytes, || {
            for (d, (x, _)) in deltas.iter().zip(&pairs) {
                std::hint::black_box(d.apply(x));
            }
        }),
    );
    let zero_words: f64 = deltas
        .iter()
        .map(|d| d.zero_fraction() * d.num_elements() as f64)
        .sum();
    m.insert(
        "delta.zero_fraction",
        zero_words / (pair_bytes as f64 / 4.0),
    );
}

/// The storage graph, budgets and plan `Repository::archive` arrives at
/// for these inputs, rebuilt through the same public calls so the plan's
/// shape can be read and the store probed apart from the catalog.
fn plan_like_archive(
    cx: &Context,
    p: &mut Probe,
    m: &mut Metrics,
) -> Result<(StorageGraph, BTreeMap<VertexId, Matrix>, StoragePlan, f64), String> {
    let inputs = cx.inputs;
    let sp = p.tr.begin("pas.graph_build");
    let mut b = GraphBuilder::new(CostModel {
        level: LEVEL,
        delta_op: OP,
        ..CostModel::default()
    });
    // `archive` walks `Repository::list`: newest version first.
    for c in inputs.commits.iter().rev() {
        let key = format!("{}:1", c.name);
        for (i, (_, w)) in c.snapshots.iter().enumerate() {
            b.add_snapshot(&key, i, w);
        }
        b.link_version_chain(&key, &(0..c.snapshots.len()).collect::<Vec<_>>());
    }
    for c in inputs.commits.iter() {
        if let Some(parent) = &c.parent {
            let pc = inputs
                .commits
                .iter()
                .find(|x| &x.name == parent)
                .expect("parent committed");
            b.link_snapshots(
                &format!("{parent}:1"),
                pc.snapshots.len() - 1,
                &format!("{}:1", c.name),
                c.snapshots.len() - 1,
            );
        }
    }
    let (mut graph, matrices) = b.finish();
    m.insert("pas.graph_build_ms", p.tr.end(sp, inputs.user_bytes) * 1e3);

    let plan_err = |e: mh_pas::PlanError| e.to_string();
    let sp = p.tr.begin("pas.alpha_budgets");
    apply_alpha_budgets(&mut graph, cx.spec.alpha, SCHEME).map_err(plan_err)?;
    let budgets_s = p.tr.end(sp, 0);
    let (mut mt, mut pt) = (None, None);
    let mt_s = p.per_sweep("pas.solve_mt", 0, || {
        mt = Some(solver::pas_mt(&graph, SCHEME))
    });
    let pt_s = p.per_sweep("pas.solve_pt", 0, || {
        pt = Some(solver::pas_pt(&graph, SCHEME))
    });
    m.insert("pas.solve_mt_ms", mt_s * 1e3);
    m.insert("pas.solve_pt_ms", pt_s * 1e3);
    let mt = mt.expect("ran at least once").map_err(plan_err)?;
    let pt = pt.expect("ran at least once").map_err(plan_err)?;
    // The archive's choice: the feasible plan, the cheaper if both are.
    let plan = match (
        mt.satisfies_budgets(&graph, SCHEME),
        pt.satisfies_budgets(&graph, SCHEME),
    ) {
        (true, false) => mt,
        (false, true) => pt,
        _ if mt.storage_cost(&graph) <= pt.storage_cost(&graph) => mt,
        _ => pt,
    };
    Ok((graph, matrices, plan, budgets_s + mt_s + pt_s))
}

/// Seconds of tensor + delta + compress work one serial archive does:
/// every edge's payload is measured once while the graph is built, and
/// every chosen edge is encoded once more when the store is written.
fn codec_seconds(
    graph: &StorageGraph,
    matrices: &BTreeMap<VertexId, Matrix>,
    plan: &StoragePlan,
    tr: &mut Tracer,
) -> f64 {
    let mut scratch = Scratch::new();
    let sp = tr.begin("archive.codec_equivalent");
    let mut total = 0.0;
    for e in graph.edges() {
        let target = &matrices[&e.to];
        let esp = tr.begin(match e.kind {
            EdgeKind::Materialize => "codec.materialize_edge",
            EdgeKind::Delta => "codec.delta_edge",
        });
        let planes: Vec<Vec<u8>> = match e.kind {
            EdgeKind::Materialize => SegmentedMatrix::from_matrix(target).into_planes().into(),
            EdgeKind::Delta => split_byte_planes(
                &Delta::compute(&matrices[&e.from], target, OP).word_bytes(),
                4,
            ),
        };
        for plane in &planes {
            std::hint::black_box(mh_compress::compressed_len_with(plane, LEVEL, &mut scratch));
        }
        let s = tr.end(esp, mat_bytes(target));
        let chosen = plan.parent_edge(e.to) == Some(e.id);
        total += if chosen { 2.0 * s } else { s };
    }
    tr.end(sp, 0);
    total
}

fn pas_probes(
    cx: &Context,
    p: &mut Probe,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let (graph, matrices, plan, solver_s) = plan_like_archive(cx, p, m)?;
    let user = cx.inputs.user_bytes;
    let pas_err = |e: mh_pas::PasError| e.to_string();

    let vertices: Vec<VertexId> = graph.matrix_vertices().collect();
    let depths: Vec<usize> = vertices
        .iter()
        .map(|&v| plan.path_edges(&graph, v).len())
        .collect();
    let deltas = vertices
        .iter()
        .filter(|&&v| plan.parent(&graph, v) != Some(NULL_VERTEX))
        .count();
    m.insert(
        "pas.chain_depth_mean",
        depths.iter().sum::<usize>() as f64 / depths.len() as f64,
    );
    m.insert(
        "pas.chain_depth_max",
        depths.iter().copied().max().unwrap_or(0) as f64,
    );
    m.insert(
        "pas.delta_edge_fraction",
        deltas as f64 / vertices.len() as f64,
    );
    let use_max = plan
        .all_snapshot_costs(&graph, SCHEME)
        .iter()
        .zip(&graph.snapshots)
        .map(|(cost, s)| cost / s.budget)
        .fold(0.0, f64::max);
    m.insert("pas.budget_use_max", use_max);

    let store_dir = cx.dir.join("probe_store");
    let sp = p.tr.begin("pas.store_create");
    let store =
        SegmentStore::create(&store_dir, &graph, &plan, &matrices, OP, LEVEL).map_err(pas_err)?;
    m.insert(
        "pas.store_create_mb_s",
        user as f64 / 1e6 / p.tr.end(sp, user),
    );
    // The probe's plan must be the archive's: same inputs, same calls.
    let archived = cx.repo.root().join("pas/store0000");
    let same =
        SegmentStore::open(&archived).is_ok_and(|s| s.bytes_on_disk() == store.bytes_on_disk());
    checks.check("probe store has the archived store's size", same);

    let open_s = p.per_sweep("pas.store_open", 0, || {
        std::hint::black_box(SegmentStore::open(&store_dir).is_ok());
    });
    m.insert("pas.store_open_ms", open_s * 1e3);
    let mut ok = true;
    m.insert(
        "pas.recreate_mb_s",
        p.mb_s("pas.recreate", user, || {
            ok &= vertices.iter().all(|&v| store.recreate(v).is_ok());
        }),
    );
    m.insert(
        "pas.recreate_group_parallel_mb_s",
        p.mb_s("pas.recreate_group_parallel", user, || {
            ok &= graph
                .snapshots
                .iter()
                .all(|s| store.recreate_group_parallel(&s.members).is_ok());
        }),
    );
    m.insert(
        "pas.prefix2_mb_s",
        p.mb_s("pas.recreate_bounds2", user, || {
            ok &= vertices
                .iter()
                .all(|&v| store.recreate_bounds(v, 2).is_ok());
        }),
    );
    checks.check("probe store recreates every vertex", ok);

    let codec_s = codec_seconds(&graph, &matrices, &plan, p.tr);
    let codec = codec_s / cx.archive_serial_s;
    let solve = solver_s / cx.archive_serial_s;
    m.insert("archive.codec_share", codec);
    m.insert("archive.solver_share", solve);
    m.insert("archive.other_share", 1.0 - codec - solve);
    Ok(())
}

fn store_probes(cx: &Context, p: &mut Probe, m: &mut Metrics) -> Result<(), String> {
    let err = |e: mh_store::StoreError| e.to_string();
    let path = cx.repo.root().join("catalog.mhs");
    m.insert(
        "store.catalog_bytes",
        std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64,
    );
    let mut db = Database::load(&path).map_err(err)?;
    let load_s = p.per_sweep("store.load", 0, || {
        db = Database::load(&path).expect("catalog loads")
    });
    m.insert("store.load_ms", load_s * 1e3);
    let copy = cx.dir.join("probe_catalog.mhs");
    let save_s = p.per_sweep("store.save", 0, || db.save(&copy).expect("catalog saves"));
    m.insert("store.save_ms", save_s * 1e3);

    let vertices = db.table("pas_vertex").map_err(err)?;
    let rows = vertices.len() as f64;
    let scan_s = p.per_sweep("store.scan", 0, || {
        std::hint::black_box(vertices.scan().count());
    });
    m.insert("store.scan_rows_s", rows / scan_s);
    let versions = cx.inputs.commits.len() as i64;
    let select_s = p.per_sweep("store.select_eq", 0, || {
        for mv in 1..=versions {
            std::hint::black_box(vertices.select(&Predicate::Eq("mv".into(), Value::Int(mv))));
        }
    });
    m.insert("store.select_eq_ops_s", versions as f64 / select_s);
    let values: Vec<Vec<Value>> = vertices.scan().map(|r| r.values).collect();
    let insert_s = p.per_sweep("store.insert", 0, || {
        let mut t = Table::new(vertices.schema().clone());
        t.create_index("mv").expect("column exists");
        for v in &values {
            t.insert(v.clone()).expect("row fits its own schema");
        }
    });
    m.insert("store.insert_rows_s", rows / insert_s);
    Ok(())
}

fn dlv_dql_dnn_probes(
    cx: &Context,
    p: &mut Probe,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    for (metric, span) in [
        ("dlv.commit_ms_per_version", "dlv.commit"),
        ("dlv.desc_ms", "dlv.desc"),
        ("dlv.diff_ms", "dlv.diff"),
        ("dql.slice_ms", "dql.slice"),
        ("dql.construct_ms", "dql.construct"),
    ] {
        m.insert(metric, span_mean_ms(p.tr, span));
    }
    let select =
        (span_mean_ms(p.tr, "dql.select") + span_mean_ms(p.tr, "dql.select_structural")) / 2.0;
    m.insert("dql.select_ms", select);

    let blob: Vec<u8> = sample(cx.inputs)
        .iter()
        .flat_map(|w| w.layers().flat_map(|(_, m)| m.to_le_bytes()))
        .collect();
    m.insert(
        "dlv.sha256_mb_s",
        p.mb_s("dlv.sha256", blob.len() as u64, || {
            std::hint::black_box(mh_dlv::hash::sha256(&blob));
        }),
    );
    let mut manifest = None;
    let manifest_s = p.per_sweep("dlv.committed_manifest", 0, || {
        manifest = Some(mh_dlv::committed_manifest(cx.repo));
    });
    m.insert("dlv.manifest_ms", manifest_s * 1e3);
    checks.op(
        "probe committed_manifest",
        manifest.expect("ran at least once"),
    );

    let eval = cx.inputs.commits.last().expect("non-empty inputs");
    let mix = QueryMix::new(&eval.name, &eval.network);
    let mut parsed = true;
    let parse_s = p.per_sweep("dql.parse", 0, || {
        parsed &= mix
            .dql()
            .iter()
            .all(|(_, text, _)| mh_dql::parse(text).is_ok());
    });
    checks.check("query mix parses", parsed);
    m.insert("dql.parse_us", parse_s * 1e6 / mix.dql().len() as f64);

    let (_, full) = eval.snapshots.last().expect("non-empty commit");
    let exact = IntervalWeights::exact(full);
    let inputs = &cx.inputs.eval_inputs;
    let mut ok = true;
    let forward_s = p.per_sweep("dnn.forward", 0, || {
        ok &= inputs
            .iter()
            .all(|x| mh_dnn::forward(&eval.network, full, x).is_ok());
    });
    let interval_s = p.per_sweep("dnn.interval_forward", 0, || {
        ok &= inputs
            .iter()
            .all(|x| mh_dnn::interval_forward(&eval.network, &exact, x).is_ok());
    });
    checks.check("forward passes succeed", ok);
    m.insert("dnn.forward_ms", forward_s * 1e3 / inputs.len() as f64);
    m.insert(
        "dnn.interval_forward_ms",
        interval_s * 1e3 / inputs.len() as f64,
    );
    Ok(())
}

/// Publish to and pull from a directory hub: the same copy and verify work
/// as the remote phases without the wire, so wire cost = remote − local.
fn local_hub_probes(cx: &Context, p: &mut Probe, m: &mut Metrics) -> Result<(), String> {
    let err = |e: mh_dlv::DlvError| e.to_string();
    let hub = Hub::open(&cx.dir.join("probe_hub")).map_err(err)?;
    let user = cx.inputs.user_bytes;
    let (mut n, mut failed) = (0, None);
    let publish = p.mb_s("hub.local_publish", user, || {
        n += 1;
        failed = failed
            .take()
            .or(hub.publish(cx.repo, &format!("r{n}")).err());
    });
    m.insert("hub.local_publish_mb_s", publish);
    let mut k = 0;
    let pull = p.mb_s("hub.local_pull", user, || {
        k += 1;
        failed = failed
            .take()
            .or(hub.pull("r1", &cx.dir.join(format!("probe_pull{k}"))).err());
    });
    m.insert("hub.local_pull_mb_s", pull);
    failed.map_or(Ok(()), |e| Err(err(e)))
}
