//! Progressive evaluation against independent references.
//!
//! Plane-prefix refinement (`SegmentStore::refine`) must reproduce, bit
//! for bit, the k-plane chain walk read straight off the store's files —
//! the algorithm the store used before refinement became incremental,
//! kept below as the oracle — and full recreation at four planes, one
//! vertex or a whole group at a time. A `ProgressiveEvaluator` must answer
//! what `predict` answers, cold and warm, at any pool width, and must
//! decode each plane of each chain object at most once.

#![allow(clippy::unwrap_used)] // test/bench/demo code: panics are failures
use mh_compress::Level;
use mh_delta::DeltaOp;
use mh_dnn::{predict, synth_dataset, zoo, SynthConfig, Weights};
use mh_pas::{
    solver, CostModel, EdgeKind, GraphBuilder, ModelBinding, PasError, ProgressiveEvaluator,
    SegmentStore, StorageGraph, StoragePlan, VertexId, NULL_VERTEX,
};
use mh_tensor::{Matrix, Tensor3};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// Held by the tests that sweep the process-global pool width, so each
/// sweep runs at the widths it sets.
static WIDTH: Mutex<()> = Mutex::new(());

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mh-progressive-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The k-plane bounds as computed before refinement was incremental:
/// every chain object's first k planes joined into words, the chain
/// walked once with positional crop / zero-extend, then the carry-slack
/// bounds. Reads the store's on-disk format (manifest rows, plane files)
/// directly and shares no code with `SegmentStore`.
mod reference {
    use std::collections::BTreeMap;
    use std::path::Path;

    pub struct Obj {
        vertex: usize,
        kind: String,
        parent: usize,
        rows: usize,
        cols: usize,
    }

    /// Objects on `v`'s recreation path, root first.
    fn chain(dir: &Path, v: usize) -> Vec<Obj> {
        let text = std::fs::read_to_string(dir.join("manifest.mhp")).unwrap();
        let mut objs: BTreeMap<usize, Obj> = text
            .lines()
            .skip(1)
            .map(|line| {
                let f: Vec<&str> = line.split('\t').collect();
                let obj = Obj {
                    vertex: f[0].parse().unwrap(),
                    kind: f[1].to_string(),
                    parent: f[2].parse().unwrap(),
                    rows: f[3].parse().unwrap(),
                    cols: f[4].parse().unwrap(),
                };
                (obj.vertex, obj)
            })
            .collect();
        let mut path = Vec::new();
        let mut cur = v;
        while cur != 0 {
            let o = objs.remove(&cur).unwrap();
            cur = o.parent;
            path.push(o);
        }
        path.reverse();
        path
    }

    /// An object's words with only its first `k` planes filled in.
    fn words(dir: &Path, o: &Obj, k: usize) -> Vec<u32> {
        let mut words = vec![0u32; o.rows * o.cols];
        for p in 0..k {
            let packed = std::fs::read(dir.join(format!("obj{:06}_p{p}.mhz", o.vertex))).unwrap();
            let plane = mh_compress::decompress(&packed).unwrap();
            assert_eq!(plane.len(), words.len());
            for (w, b) in words.iter_mut().zip(plane) {
                *w |= u32::from(b) << (8 * (3 - p));
            }
        }
        words
    }

    /// The chain walk over k-plane words: the final words, the chain's
    /// additive term count, whether it has a SUB delta, and its shape.
    fn walk(dir: &Path, v: usize, k: usize) -> (Vec<u32>, u64, bool, (usize, usize)) {
        let mut acc: Vec<u32> = Vec::new();
        let mut shape = (0, 0);
        let mut additive_terms = 0u64;
        let mut chain_has_sub = false;
        for o in chain(dir, v) {
            let d = words(dir, &o, k);
            acc = if o.kind == "mat" {
                additive_terms = 1;
                d
            } else {
                let sub = o.kind == "sub";
                if sub {
                    additive_terms += 1;
                    chain_has_sub = true;
                }
                let mut out = Vec::with_capacity(d.len());
                for r in 0..o.rows {
                    for c in 0..o.cols {
                        let b = if r < shape.0 && c < shape.1 {
                            acc[r * shape.1 + c]
                        } else {
                            0
                        };
                        let x = d[r * o.cols + c];
                        out.push(if sub { b.wrapping_add(x) } else { b ^ x });
                    }
                }
                out
            };
            shape = (o.rows, o.cols);
        }
        (acc, additive_terms, chain_has_sub, shape)
    }

    /// Full-precision words of `v`.
    pub fn recreate(dir: &Path, v: usize) -> Vec<u32> {
        walk(dir, v, 4).0
    }

    /// Sound bounds on `v` from its chain's first `k` planes (k = 1..=3).
    pub fn bounds(dir: &Path, v: usize, k: usize) -> (Vec<f32>, Vec<f32>) {
        let (acc, additive_terms, chain_has_sub, _) = walk(dir, v, k);
        let mask: u32 = (1u32 << (8 * (4 - k))) - 1;
        let slack: u64 = if chain_has_sub {
            u64::from(mask) * additive_terms
        } else {
            u64::from(mask)
        };
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        for &p in &acc {
            let base = u64::from(p & !mask);
            let top = (base + slack).min(u64::from(u32::MAX));
            let f0 = f32::from_bits(base as u32);
            let f1 = f32::from_bits(top as u32);
            if !f0.is_finite() || !f1.is_finite() {
                lo.push(-f32::MAX);
                hi.push(f32::MAX);
            } else if (base as u32) & 0x8000_0000 != 0 && (top as u32) & 0x8000_0000 != 0 {
                lo.push(f1);
                hi.push(f0);
            } else if (base as u32) & 0x8000_0000 == 0 && (top as u32) & 0x8000_0000 == 0 {
                lo.push(f0);
                hi.push(f1);
            } else {
                let m = f0.abs().max(f1.abs());
                lo.push(-m);
                hi.push(m);
            }
        }
        (lo, hi)
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Six matrices on one delta chain — recreation paths of 0 to 5 deltas —
/// plus a lone materialized one. The fourth changes shape (a row more, a
/// column fewer: the positional crop and zero-extend), small weights
/// change sign from one version to the next, and a few words sit where
/// bounds cross the sign boundary (±3e38: base + slack wraps into the
/// negative patterns) or leave the finite range.
fn chain_store(op: DeltaOp, tag: &str) -> (SegmentStore, Vec<VertexId>, PathBuf) {
    let mut mats = vec![Matrix::from_fn(7, 9, |r, c| {
        ((r * 9 + c) as f32 * 0.37).sin() * 0.05
    })];
    for i in 1..6usize {
        let prev = &mats[i - 1];
        let (rows, cols) = if i == 3 {
            (prev.rows() + 1, prev.cols() - 1)
        } else {
            prev.shape()
        };
        let next = Matrix::from_fn(rows, cols, |r, c| {
            let x = if r < prev.rows() && c < prev.cols() {
                prev.get(r, c)
            } else {
                0.01 * c as f32
            };
            let sign = if (r + c + i) % 2 == 0 { 1.0 } else { -1.0 };
            x * 1.01 - 0.004 * i as f32 * sign
        });
        mats.push(next);
    }
    for (i, m) in mats.iter_mut().enumerate() {
        m.set(0, 0, 3.0e38 - i as f32 * 1e36);
        m.set(0, 1, -3.0e38);
        m.set(1, 0, f32::MIN_POSITIVE * i as f32);
        m.set(1, 1, if i % 2 == 0 { -0.0 } else { 0.0 });
    }
    mats[5].set(2, 2, f32::INFINITY);
    mats.push(Matrix::from_fn(5, 4, |r, c| (r as f32 - c as f32) * 0.21));

    let mut g = StorageGraph::new();
    let vs: Vec<VertexId> = (0..mats.len())
        .map(|i| g.add_vertex(&format!("m{i}")))
        .collect();
    let mut parents = vec![None; vs.len() + 1];
    for (i, &v) in vs.iter().enumerate() {
        let mat = g.add_edge(NULL_VERTEX, v, EdgeKind::Materialize, 100.0, 10.0);
        parents[v] = Some(if i == 0 || i == 6 {
            mat
        } else {
            g.add_edge(vs[i - 1], v, EdgeKind::Delta, 10.0, 1.0)
        });
    }
    let plan = StoragePlan::from_parents(&g, parents).unwrap();
    let map: BTreeMap<VertexId, Matrix> = vs.iter().copied().zip(mats).collect();
    let dir = temp_dir(tag);
    let store = SegmentStore::create(&dir, &g, &plan, &map, op, Level::Fast).unwrap();
    (store, vs, dir)
}

#[test]
fn refinement_is_bit_equal_to_the_reference_walk() {
    for (op, tag) in [(DeltaOp::Sub, "ref-sub"), (DeltaOp::Xor, "ref-xor")] {
        let (store, vs, dir) = chain_store(op, tag);
        let depths: Vec<usize> = vs
            .iter()
            .map(|&v| store.plane_prefix(v).unwrap().chain_len())
            .collect();
        assert_eq!(depths, [1, 2, 3, 4, 5, 6, 1], "{op:?} chain depths");
        // Every vertex refined together, one batched decode per level. The
        // six chains share their objects, each decoded once: a level
        // decodes one plane of each distinct chain object, all seven.
        let mut prefixes: Vec<_> = vs.iter().map(|&v| store.plane_prefix(v).unwrap()).collect();
        for k in 1..=4usize {
            let decoded = store.refine(&mut prefixes, k).unwrap();
            assert_eq!(decoded, vs.len(), "{op:?} k{k}");
            for (pre, &v) in prefixes.iter().zip(&vs) {
                assert_eq!(pre.planes(), k);
                let (lo, hi) = pre.bounds().unwrap();
                // The single-vertex path fsck and histograms use agrees.
                let (slo, shi) = store.recreate_bounds(v, k).unwrap();
                assert_eq!((bits(&lo), bits(&hi)), (bits(&slo), bits(&shi)));
                if k < 4 {
                    let (rlo, rhi) = reference::bounds(&dir, v, k);
                    assert_eq!(bits(&lo), f32_bits(&rlo), "{op:?} v{v} k{k} lo");
                    assert_eq!(bits(&hi), f32_bits(&rhi), "{op:?} v{v} k{k} hi");
                } else {
                    let full = bits(&store.recreate(v).unwrap());
                    assert_eq!(bits(&pre.to_matrix().unwrap()), full, "{op:?} v{v}");
                    assert_eq!(bits(&lo), full);
                    assert_eq!(reference::recreate(&dir, v), full, "{op:?} v{v}");
                }
            }
        }
        // A full prefix is left alone.
        assert_eq!(store.refine(&mut prefixes, 4).unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn group_read_is_bit_equal_to_the_reference_walk() {
    for (op, tag) in [(DeltaOp::Sub, "group-sub"), (DeltaOp::Xor, "group-xor")] {
        let (store, vs, dir) = chain_store(op, tag);
        // Every vertex, then duplicates and members sharing a chain
        // prefix, out of order.
        let mut members = vs.clone();
        members.extend([vs[5], vs[2], vs[5], vs[0], vs[6], vs[3]]);
        let reference: Vec<Vec<u32>> = members
            .iter()
            .map(|&v| reference::recreate(&dir, v))
            .collect();
        {
            let _width = WIDTH.lock().unwrap_or_else(|e| e.into_inner());
            for threads in [Some(1), None] {
                mh_par::set_threads(threads);
                let group = store.recreate_group_parallel(&members).unwrap();
                let got: Vec<Vec<u32>> = group.iter().map(bits).collect();
                assert_eq!(got, reference, "{op:?} at {threads:?} threads");
            }
            mh_par::set_threads(None);
        }

        // Refining to four planes at once equals four one-plane steps.
        let prefixes =
            || -> Vec<_> { vs.iter().map(|&v| store.plane_prefix(v).unwrap()).collect() };
        let (mut at_once, mut stepwise) = (prefixes(), prefixes());
        assert_eq!(store.refine(&mut at_once, 4).unwrap(), 4 * vs.len());
        for k in 1..=4 {
            store.refine(&mut stepwise, k).unwrap();
        }
        for (a, b) in at_once.iter().zip(&stepwise) {
            assert_eq!(a.planes(), 4);
            assert_eq!(bits(&a.to_matrix().unwrap()), bits(&b.to_matrix().unwrap()));
        }

        // Prefixes at different depths refine together: the deep chain
        // needs planes 1..3 of its six objects, the shallow one planes
        // 0..3 of the four it shares, so 2 * 6 + 4 distinct pairs.
        let mut deep = store.plane_prefix(vs[5]).unwrap();
        store.refine(std::slice::from_mut(&mut deep), 1).unwrap();
        let mut mixed = [deep, store.plane_prefix(vs[3]).unwrap()];
        assert_eq!(store.refine(&mut mixed, 3).unwrap(), 2 * 6 + 4);
        for (pre, v) in mixed.iter().zip([vs[5], vs[3]]) {
            let (lo, hi) = pre.bounds().unwrap();
            let (rlo, rhi) = reference::bounds(&dir, v, 3);
            assert_eq!(bits(&lo), f32_bits(&rlo), "{op:?} v{v} lo");
            assert_eq!(bits(&hi), f32_bits(&rhi), "{op:?} v{v} hi");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A three-checkpoint model archived on delta chains, its last
/// checkpoint bound for evaluation, and some inputs.
struct Model {
    store: SegmentStore,
    binding: ModelBinding,
    weights: Weights,
    inputs: Vec<Tensor3>,
    dir: PathBuf,
}

fn model(op: DeltaOp, tag: &str) -> Model {
    let net = zoo::lenet_s(3);
    let w0 = Weights::init(&net, 11).unwrap();
    let drift = |w: &Weights, a: f32, b: f32| -> Weights {
        w.layers()
            .map(|(n, m)| (n.clone(), m.map(|x| x * a + b)))
            .collect()
    };
    let w1 = drift(&w0, 0.99, 3e-4);
    let w2 = drift(&w1, 1.01, -2e-4);
    let mut b = GraphBuilder::new(CostModel::default());
    b.add_snapshot("v", 0, &w0);
    b.add_snapshot("v", 1, &w1);
    let layers = b.add_snapshot("v", 2, &w2);
    b.link_version_chain("v", &[0, 1, 2]);
    let (g, mats) = b.finish();
    let plan = solver::mst(&g).unwrap();
    let dir = temp_dir(tag);
    let store = SegmentStore::create(&dir, &g, &plan, &mats, op, Level::Fast).unwrap();
    let data = synth_dataset(&SynthConfig {
        num_classes: 3,
        train_per_class: 1,
        test_per_class: 4,
        noise: 0.05,
        seed: 9,
        ..Default::default()
    });
    Model {
        store,
        binding: ModelBinding::new(net, layers),
        weights: w2,
        inputs: data.test.into_iter().map(|(x, _)| x).collect(),
        dir,
    }
}

impl Model {
    /// Chain objects behind the bound layers: what one level decodes.
    fn chain_objects(&self) -> u64 {
        self.binding
            .layer_vertex
            .values()
            .map(|&v| self.store.plane_prefix(v).unwrap().chain_len() as u64)
            .sum()
    }
}

#[test]
fn progressive_top1_equals_predict_cold_and_warm_at_any_width() {
    // Pool width is process-global; every width is swept inside this one
    // test, and the results are width-independent by construction, so
    // concurrently running tests are unaffected.
    let _width = WIDTH.lock().unwrap_or_else(|e| e.into_inner());
    for (op, tag) in [(DeltaOp::Sub, "predict-sub"), (DeltaOp::Xor, "predict-xor")] {
        let m = model(op, tag);
        for threads in [Some(1), None] {
            mh_par::set_threads(threads);
            let ev = ProgressiveEvaluator::new(&m.store, &m.binding);
            for round in ["cold", "warm"] {
                for x in &m.inputs {
                    let r = ev.eval(x, 1).unwrap();
                    let exact = predict(&m.binding.net, &m.weights, x).unwrap();
                    assert_eq!(
                        r.prediction,
                        [exact],
                        "{op:?} {round} at {threads:?} threads, {} planes",
                        r.planes_used
                    );
                }
            }
        }
        mh_par::set_threads(None);
        std::fs::remove_dir_all(&m.dir).ok();
    }
}

#[test]
fn a_query_decodes_only_the_planes_it_needs_and_a_repeat_decodes_none() {
    let m = model(DeltaOp::Sub, "decodes");
    let per_level = m.chain_objects();
    let mut deepest = 0;
    for x in &m.inputs {
        // Cold: a fresh evaluator decodes exactly planes_used planes of
        // every chain object.
        let ev = ProgressiveEvaluator::new(&m.store, &m.binding);
        let r = ev.eval(x, 1).unwrap();
        assert_eq!(ev.planes_decoded(), r.planes_used as u64 * per_level);
        assert_eq!(ev.levels_cached(), r.planes_used);
        // Warm: the same query again decodes nothing and answers the same.
        assert_eq!(ev.eval(x, 1).unwrap(), r);
        assert_eq!(ev.planes_decoded(), r.planes_used as u64 * per_level);
        deepest = deepest.max(r.planes_used);
    }
    // One evaluator over every input decodes each level once.
    let ev = ProgressiveEvaluator::new(&m.store, &m.binding);
    for x in &m.inputs {
        ev.eval(x, 1).unwrap();
    }
    assert_eq!(ev.planes_decoded(), deepest as u64 * per_level);
    std::fs::remove_dir_all(&m.dir).ok();
}

#[test]
fn out_of_range_top_k_is_rejected_before_any_plane_is_read() {
    let m = model(DeltaOp::Sub, "topk");
    let ev = ProgressiveEvaluator::new(&m.store, &m.binding);
    let x = &m.inputs[0];
    for top_k in [0, 4, usize::MAX] {
        assert!(
            matches!(ev.eval(x, top_k), Err(PasError::Eval(_))),
            "top-{top_k} of 3 outputs"
        );
    }
    assert_eq!(ev.planes_decoded(), 0);
    assert_eq!(ev.levels_cached(), 0);
    // Every output ranked is fine.
    assert_eq!(ev.eval(x, 3).unwrap().prediction.len(), 3);
    std::fs::remove_dir_all(&m.dir).ok();
}

#[test]
fn read_fraction_does_not_depend_on_the_cache() {
    let m = model(DeltaOp::Xor, "fraction");
    let warm = ProgressiveEvaluator::new(&m.store, &m.binding);
    for x in &m.inputs {
        let cold = ProgressiveEvaluator::new(&m.store, &m.binding)
            .eval(x, 1)
            .unwrap();
        let r = warm.eval(x, 1).unwrap();
        assert_eq!(
            (r.bytes_read, r.full_bytes),
            (cold.bytes_read, cold.full_bytes)
        );
        assert_eq!(
            r.bytes_read,
            m.binding
                .layer_vertex
                .values()
                .map(|&v| m.store.prefix_bytes(v, r.planes_used).unwrap())
                .sum::<u64>()
        );
    }
    std::fs::remove_dir_all(&m.dir).ok();
}
