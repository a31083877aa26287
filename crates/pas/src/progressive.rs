//! Progressive query (inference) evaluation — §IV-D.
//!
//! `dlv eval` against an archived model first fetches only the high-order
//! byte plane of every weight matrix on the model's recreation chains,
//! evaluates the network with interval arithmetic, and checks the
//! error-determinism condition (Lemma 4). Only if the prediction is not
//! determined does it fetch the next plane, and so on — full precision is
//! the last resort, so most queries never touch the low-order bytes.
//!
//! An evaluator keeps what it fetches. Level k — the model's interval
//! weights after k planes, or its exact weights at k = 4 — is built once,
//! by decoding one more plane of every chain object
//! ([`SegmentStore::refine`]), and every later query on the same evaluator
//! runs only the forward passes against the levels already built. The
//! cache lives as long as the evaluator.

use crate::graph::VertexId;
use crate::segstore::{PlanePrefix, SegmentStore};
use crate::PasError;
use mh_dnn::{
    determined_top_k, forward, interval_forward, IntervalWeights, Network, NetworkError, Weights,
};
use mh_par::sync::atomic::{AtomicU64, Ordering};
use mh_par::sync::{Condvar, Mutex};
use mh_tensor::Tensor3;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Binds an archived snapshot to a network: layer name -> vertex holding
/// that layer's weights.
#[derive(Debug, Clone)]
pub struct ModelBinding {
    pub net: Network,
    pub layer_vertex: BTreeMap<String, VertexId>,
}

impl ModelBinding {
    pub fn new(net: Network, layer_vertex: BTreeMap<String, VertexId>) -> Self {
        Self { net, layer_vertex }
    }
}

/// Outcome of one progressive evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressiveResult {
    /// The determined top-k indices (best first).
    pub prediction: Vec<usize>,
    /// Byte planes that had to be fetched (1 = high byte only .. 4 = full).
    pub planes_used: usize,
    /// Compressed size of the `planes_used`-plane prefix of every bound
    /// chain: the bytes this answer depends on. It is the same whether
    /// the evaluator decoded those planes for this query or served them
    /// from its cache, so [`Self::read_fraction`] is a deterministic
    /// property of the query, not of the evaluator's history.
    pub bytes_read: u64,
    /// Compressed bytes a full-precision read would have cost.
    pub full_bytes: u64,
}

impl ProgressiveResult {
    /// Fraction of the full-precision footprint that was read.
    pub fn read_fraction(&self) -> f64 {
        if self.full_bytes == 0 {
            1.0
        } else {
            self.bytes_read as f64 / self.full_bytes as f64
        }
    }
}

/// Progressive evaluator over a segment store, caching every refinement
/// level it builds for its own lifetime.
#[derive(Debug)]
pub struct ProgressiveEvaluator<'a> {
    store: &'a SegmentStore,
    binding: &'a ModelBinding,
    /// Store facts every query needs, computed on the first query.
    facts: OnceLock<Facts>,
    /// `bounds[k - 1]`: the interval weights after `k` planes (k = 1..=3).
    bounds: [OnceLock<IntervalWeights>; 3],
    /// Level 4: the exact weights.
    exact: OnceLock<Weights>,
    /// The running plane prefixes. `None` while a caller has them checked
    /// out to build levels; `returned` wakes callers waiting for them.
    refinement: Mutex<Option<Refinement<'a>>>,
    returned: Condvar,
    planes_decoded: AtomicU64,
}

#[derive(Debug, Clone, Copy)]
struct Facts {
    /// `prefix_bytes[k - 1]`: compressed bytes of the `k`-plane prefix of
    /// every bound chain.
    prefix_bytes: [u64; 4],
    /// Length of the network's output.
    outputs: usize,
}

/// One plane prefix per bound layer (layer order), all at `planes` planes.
#[derive(Debug, Default)]
struct Refinement<'a> {
    prefixes: Vec<PlanePrefix<'a>>,
    planes: usize,
}

/// A checked-out [`Refinement`]: put back, and waiters woken, on drop —
/// unwinding included, so a panicking builder cannot strand the others.
struct Checkout<'e, 'a> {
    ev: &'e ProgressiveEvaluator<'a>,
    r: Refinement<'a>,
}

impl Drop for Checkout<'_, '_> {
    fn drop(&mut self) {
        *self.ev.refinement.lock() = Some(std::mem::take(&mut self.r));
        self.ev.returned.notify_all();
    }
}

fn eval_err(e: NetworkError) -> PasError {
    PasError::Eval(e.to_string())
}

impl<'a> ProgressiveEvaluator<'a> {
    pub fn new(store: &'a SegmentStore, binding: &'a ModelBinding) -> Self {
        Self {
            store,
            binding,
            facts: OnceLock::new(),
            bounds: Default::default(),
            exact: OnceLock::new(),
            refinement: Mutex::new(Some(Refinement::default())),
            returned: Condvar::new(),
            planes_decoded: AtomicU64::new(0),
        }
    }

    /// Byte planes this evaluator has decoded so far, counted once per
    /// (layer, chain object, plane).
    pub fn planes_decoded(&self) -> u64 {
        self.planes_decoded.load(Ordering::Relaxed)
    }

    /// Refinement levels built so far (0..=4).
    pub fn levels_cached(&self) -> usize {
        (1..=4).filter(|&k| self.built(k)).count()
    }

    fn facts(&self) -> Result<Facts, PasError> {
        if let Some(f) = self.facts.get() {
            return Ok(*f);
        }
        let mut prefix_bytes = [0u64; 4];
        for &v in self.binding.layer_vertex.values() {
            for (k, bytes) in (1..=4).zip(prefix_bytes.iter_mut()) {
                *bytes += self.store.prefix_bytes(v, k)?;
            }
        }
        let net = &self.binding.net;
        let shapes = net.infer_shapes().map_err(eval_err)?;
        let sink = net.topo_order().map_err(eval_err)?.last().copied();
        let outputs = sink
            .and_then(|id| shapes.get(&id))
            .map_or(0, |&(_, (c, h, w))| c * h * w);
        Ok(*self.facts.get_or_init(|| Facts {
            prefix_bytes,
            outputs,
        }))
    }

    fn built(&self, k: usize) -> bool {
        match k {
            4 => self.exact.get().is_some(),
            _ => self.bounds.get(k - 1).is_some_and(|l| l.get().is_some()),
        }
    }

    /// Build every level up to `k` not built yet, adding the planes this
    /// decodes to `decoded`. One caller builds at a time: it checks the
    /// refinement out of its mutex and refines with no guard held (the
    /// plane decode fans out to the pool); concurrent callers wait for it
    /// to come back and then find their level built.
    fn ensure(&self, k: usize, decoded: &mut u64) -> Result<(), PasError> {
        if self.built(k) {
            return Ok(());
        }
        let mut guard = self.refinement.lock();
        let r = loop {
            if self.built(k) {
                return Ok(());
            }
            match guard.take() {
                Some(r) => break r,
                None => guard = self.returned.wait(guard),
            }
        };
        drop(guard);
        let mut out = Checkout { ev: self, r };
        self.fill(k, &mut out.r, decoded)
    }

    /// Levels `1..=k`, one plane per level. The refinement only advances
    /// once its level's plane is decoded, and a level is published only
    /// once built, so an error at any point leaves a state the next call
    /// resumes from.
    fn fill(&self, k: usize, r: &mut Refinement<'a>, decoded: &mut u64) -> Result<(), PasError> {
        let layers = &self.binding.layer_vertex;
        for next in 1..=k {
            if self.built(next) {
                continue;
            }
            if r.planes < next {
                if r.planes == 0 {
                    r.prefixes = layers
                        .values()
                        .map(|&v| self.store.plane_prefix(v))
                        .collect::<Result<_, _>>()?;
                }
                let n = self.store.refine(&mut r.prefixes, next)? as u64;
                self.planes_decoded.fetch_add(n, Ordering::Relaxed);
                *decoded += n;
                r.planes = next;
            }
            if next == 4 {
                let mut w = Weights::new();
                for (layer, pre) in layers.keys().zip(&r.prefixes) {
                    w.insert(layer, pre.to_matrix()?);
                }
                let _ = self.exact.set(w);
                // The exact level is all a query can still need.
                r.prefixes = Vec::new();
            } else {
                let mut iw = IntervalWeights::default();
                for (layer, pre) in layers.keys().zip(&r.prefixes) {
                    let (lo, hi) = pre.bounds()?;
                    iw.insert(layer, lo, hi);
                }
                if let Some(cell) = self.bounds.get(next - 1) {
                    let _ = cell.set(iw);
                }
            }
        }
        Ok(())
    }

    fn interval_level(&self, k: usize, decoded: &mut u64) -> Result<&IntervalWeights, PasError> {
        self.ensure(k, decoded)?;
        self.bounds
            .get(k - 1)
            .and_then(OnceLock::get)
            .ok_or_else(|| PasError::Eval(format!("level {k} was not built")))
    }

    fn exact_level(&self, decoded: &mut u64) -> Result<&Weights, PasError> {
        self.ensure(4, decoded)?;
        self.exact
            .get()
            .ok_or_else(|| PasError::Eval("level 4 was not built".to_string()))
    }

    /// Evaluate one input progressively, guaranteeing the returned top-k
    /// prediction equals the full-precision result. `top_k` must lie in
    /// `1..=` the network's output length; anything else is an error
    /// before any plane is read.
    pub fn eval(&self, input: &Tensor3, top_k: usize) -> Result<ProgressiveResult, PasError> {
        let mut sp = mh_obs::span("pas.progressive.eval");
        let facts = self.facts()?;
        if top_k == 0 || top_k > facts.outputs {
            return Err(PasError::Eval(format!(
                "top-{top_k} asked of a network with {} outputs",
                facts.outputs
            )));
        }
        let mut decoded = 0u64;
        let result = self.eval_levels(input, top_k, facts, &mut decoded);
        if sp.is_recording() {
            sp.field("planes_decoded", decoded);
            sp.field("levels_cached", self.levels_cached());
            if let Ok(r) = &result {
                sp.field("planes_used", r.planes_used);
                sp.add_bytes_in(r.bytes_read);
            }
        }
        let r = result?;
        mh_obs::histogram!("pas_progressive_planes_used", &[1.0, 2.0, 3.0])
            .observe(r.planes_used as f64);
        Ok(r)
    }

    fn eval_levels(
        &self,
        input: &Tensor3,
        top_k: usize,
        facts: Facts,
        decoded: &mut u64,
    ) -> Result<ProgressiveResult, PasError> {
        let answer = |prediction, k: usize| ProgressiveResult {
            prediction,
            planes_used: k,
            bytes_read: facts.prefix_bytes[k - 1],
            full_bytes: facts.prefix_bytes[3],
        };
        for k in 1..=3usize {
            let mut step = mh_obs::span("pas.progressive.step");
            let iw = self.interval_level(k, decoded)?;
            let out = interval_forward(&self.binding.net, iw, input).map_err(eval_err)?;
            if step.is_recording() {
                // Residual logit-interval width: the α-error still present
                // after k planes.
                let width = out
                    .hi
                    .as_slice()
                    .iter()
                    .zip(out.lo.as_slice())
                    .map(|(h, l)| h - l)
                    .fold(0.0f32, f32::max);
                step.field("planes", k);
                step.field("logit_interval_width", width);
            }
            if let Some(pred) = determined_top_k(&out, top_k) {
                return Ok(answer(pred, k));
            }
        }
        // Full precision: the point forward pass `predict` runs, on the
        // exact weights. Ties rank as `argmax` breaks them (the later
        // index first), so top-1 is `predict`'s answer.
        let mut step = mh_obs::span("pas.progressive.step");
        step.field("planes", 4);
        let out =
            forward(&self.binding.net, self.exact_level(decoded)?, input).map_err(eval_err)?;
        let v = out.as_slice();
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[b].total_cmp(&v[a]).then(b.cmp(&a)));
        idx.truncate(top_k);
        Ok(answer(idx, 4))
    }

    /// Evaluate a labelled set, reporting per-plane usage histogram and the
    /// top-1 accuracy (identical to full precision by construction).
    pub fn eval_batch(
        &self,
        data: &[(Tensor3, usize)],
        top_k: usize,
    ) -> Result<BatchStats, PasError> {
        let mut stats = BatchStats::default();
        for (x, label) in data {
            stats.record(&self.eval(x, top_k)?, *label);
        }
        Ok(stats)
    }
}

/// Aggregate progressive-evaluation statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchStats {
    /// How many queries stopped after 1, 2, 3, 4 planes.
    pub planes_histogram: [usize; 4],
    pub total_bytes_read: u64,
    pub total_full_bytes: u64,
    pub correct: usize,
    pub total: usize,
}

impl BatchStats {
    /// Count one answered query whose true class is `label`.
    pub fn record(&mut self, r: &ProgressiveResult, label: usize) {
        self.planes_histogram[r.planes_used - 1] += 1;
        self.total_bytes_read += r.bytes_read;
        self.total_full_bytes += r.full_bytes;
        if r.prediction.contains(&label) {
            self.correct += 1;
        }
        self.total += 1;
    }

    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    pub fn read_fraction(&self) -> f64 {
        if self.total_full_bytes == 0 {
            1.0
        } else {
            self.total_bytes_read as f64 / self.total_full_bytes as f64
        }
    }

    /// Fraction of queries that needed more than `k` planes.
    pub fn fraction_beyond(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.planes_histogram[k..].iter().sum::<usize>() as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{CostModel, GraphBuilder};
    use crate::solver;
    use mh_compress::Level;
    use mh_delta::DeltaOp;
    use mh_dnn::{forward, synth_dataset, zoo, Hyperparams, SynthConfig, Trainer, Weights};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mh-prog-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn trained_setup(
        tag: &str,
    ) -> (
        SegmentStore,
        ModelBinding,
        Vec<(Tensor3, usize)>,
        mh_dnn::Weights,
        PathBuf,
    ) {
        let net = zoo::lenet_s(3);
        let data = synth_dataset(&SynthConfig {
            num_classes: 3,
            train_per_class: 10,
            test_per_class: 4,
            noise: 0.05,
            seed: 5,
            ..Default::default()
        });
        let trainer = Trainer::new(Hyperparams {
            base_lr: 0.08,
            ..Default::default()
        });
        let init = Weights::init(&net, 2).unwrap();
        let result = trainer.train(&net, init, &data, 25).unwrap();

        let mut b = GraphBuilder::new(CostModel::default());
        let lv = b.add_snapshot("m", 0, &result.weights);
        let (g, mats) = b.finish();
        let plan = solver::mst(&g).unwrap();
        let dir = temp_dir(tag);
        let store =
            SegmentStore::create(&dir, &g, &plan, &mats, DeltaOp::Sub, Level::Fast).unwrap();
        let binding = ModelBinding::new(net, lv);
        (store, binding, data.test, result.weights, dir)
    }

    #[test]
    fn progressive_matches_full_precision() {
        let (store, binding, test, weights, dir) = trained_setup("match");
        let ev = ProgressiveEvaluator::new(&store, &binding);
        for (x, _) in test.iter().take(6) {
            let r = ev.eval(x, 1).unwrap();
            let exact = forward(&binding.net, &weights, x).unwrap().argmax();
            assert_eq!(r.prediction[0], exact, "progressive must equal exact");
            assert!(r.bytes_read <= r.full_bytes);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn most_queries_avoid_low_planes() {
        let (store, binding, test, _, dir) = trained_setup("hist");
        let ev = ProgressiveEvaluator::new(&store, &binding);
        let stats = ev.eval_batch(&test, 1).unwrap();
        assert_eq!(stats.total, test.len());
        // The design premise (Fig 6d): the overwhelming majority of queries
        // are determined from 1-2 high-order planes.
        assert!(
            stats.fraction_beyond(2) < 0.5,
            "too many full-precision reads: {:?}",
            stats.planes_histogram
        );
        assert!(stats.read_fraction() < 1.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn top5_determination() {
        let (store, binding, test, weights, dir) = trained_setup("top5");
        let ev = ProgressiveEvaluator::new(&store, &binding);
        let (x, _) = &test[0];
        let r = ev.eval(x, 3).unwrap();
        assert_eq!(r.prediction.len(), 3);
        // All classes, so top-3 of 3 = every class; must agree with exact
        // ranking's first element.
        let exact = forward(&binding.net, &weights, x).unwrap().argmax();
        assert_eq!(r.prediction[0], exact);
        std::fs::remove_dir_all(&dir).ok();
    }
}
