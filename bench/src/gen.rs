//! Workload definitions and the seeded input generator.
//!
//! Weights are generated without SGD: `Weights::init` for every
//! independently initialised model and a multiplicative drift
//! `w·(1+ε·u)`, `u` uniform in [-1, 1), for fine-tunes and checkpoints.
//! That keeps set-up cheap and preserves the one property the storage
//! results depend on: adjacent checkpoints and fine-tunes agree in their
//! high-order bytes, retrained models do not.

use mh_dlv::hash::Sha256;
use mh_dlv::CommitRequest;
use mh_dnn::{zoo, Activation, LayerKind, Network, Weights};
use mh_tensor::{Matrix, Tensor3};

/// Relative drift between a fine-tuned version and its parent.
pub const VERSION_DRIFT: f32 = 1.0 / 256.0;
/// Relative drift between adjacent checkpoints of one version.
pub const CHECKPOINT_DRIFT: f32 = 1.0 / 4096.0;

/// Which models a workload commits and how they are related.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One base MLP plus `versions - 1` fine-tuned children of it.
    MlpStar,
    /// `versions` independently initialised MLPs, no lineage.
    MlpUnrelated,
    /// Round-robin over `lenet_s/alexnet_s/vgg_s`, the first of each
    /// architecture being the base the later ones are fine-tuned from.
    ZooStar,
}

/// One benchmark workload. The MLP workloads are the issue's nominal sizes
/// times 0.3 and the zoo has 12 of its 60 versions (see README.md,
/// "Sizes"): a pass has to be short enough for four of them in a run. R, I,
/// Q and the hub repetitions keep every phase that can repeat at about 0.5 s
/// per pass on the 2-thread reference box, and give a run some ten samples
/// of every hub call.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub versions: usize,
    pub checkpoints: usize,
    /// Archive recreation budget as a multiple of the SPT cost. Chosen per
    /// workload so that the solvers arrive at the same plan shape for every
    /// seed (README.md, "Budgets"): a budget on a knife-edge makes storage
    /// ratio and every read-side latency a property of the seed.
    pub alpha: f64,
    /// `get_weights` sweeps over every snapshot per pass (R).
    pub recreate_rounds: usize,
    /// Progressive evaluations per pass (I).
    pub eval_inputs: usize,
    /// Repetitions of the query mix per pass (Q).
    pub query_rounds: usize,
    /// Publishes per pass, each under a fresh hub name (a full upload).
    pub publishes: usize,
    /// Pulls per pass with an empty client cache.
    pub cold_pulls: usize,
    /// Pulls per pass with every object already in the client cache.
    pub warm_pulls: usize,
    /// Size relative to the table below: `--scale`.
    pub scale: f64,
}

impl Spec {
    /// The workload shrunk (or grown) in every dimension: matrix bytes for
    /// the MLPs, whose widths go with √scale, and every count (the zoo's
    /// matrices keep their size; it has fewer of them). Two versions and two
    /// checkpoints stay wherever the table has as many, so that lineage and
    /// checkpoint chains survive any scale.
    pub fn at_scale(&self, scale: f64) -> Spec {
        let n = |count: usize, min: usize| ((count as f64 * scale).round() as usize).max(min);
        Spec {
            versions: n(self.versions, 2.min(self.versions)),
            checkpoints: n(self.checkpoints, self.checkpoints.min(2)),
            recreate_rounds: n(self.recreate_rounds, 1),
            eval_inputs: n(self.eval_inputs, 1),
            query_rounds: n(self.query_rounds, 1),
            publishes: n(self.publishes, 1),
            cold_pulls: n(self.cold_pulls, 1),
            warm_pulls: n(self.warm_pulls, 1),
            scale: self.scale * scale,
            ..*self
        }
    }
}

/// MLP layer widths at scale 1: input, two hidden layers, classes.
const MLP_DIMS: [usize; 4] = [544, 272, 272, 10];

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "finetune_wide",
        why: "few large similar matrices: bytes dominate, so compress/delta/tensor and mh-par batching do the work and catalog/solver cost is invisible",
        shape: Shape::MlpStar,
        versions: 4,
        checkpoints: 4,
        alpha: 2.0,
        recreate_rounds: 4,
        eval_inputs: 24,
        query_rounds: 16,
        publishes: 3,
        cold_pulls: 2,
        warm_pulls: 3,
        scale: 1.0,
    },
    Spec {
        name: "checkpoint_chain",
        why: "same bytes as finetune_wide as two long checkpoint chains under a tighter budget: solver repair and chain depth set the recreate tail",
        shape: Shape::MlpStar,
        versions: 2,
        checkpoints: 8,
        alpha: 1.8,
        recreate_rounds: 5,
        eval_inputs: 36,
        query_rounds: 22,
        publishes: 3,
        cold_pulls: 2,
        warm_pulls: 4,
        scale: 1.0,
    },
    Spec {
        name: "retrain_uncorrelated",
        why: "the bypass case: independently initialised models, deltas never pay, so a delta-path or codec-routing change must leave it unmoved",
        shape: Shape::MlpUnrelated,
        versions: 16,
        checkpoints: 1,
        alpha: 2.0,
        recreate_rounds: 7,
        eval_inputs: 32,
        query_rounds: 26,
        publishes: 2,
        cold_pulls: 2,
        warm_pulls: 5,
        scale: 1.0,
    },
    Spec {
        name: "zoo_small_many",
        why: "many small matrices: per-object work (catalog rows, commit bookkeeping, solver graph, hub framing, DQL over many versions) dominates per-byte work",
        shape: Shape::ZooStar,
        versions: 12,
        checkpoints: 2,
        alpha: 6.0,
        recreate_rounds: 3,
        eval_inputs: 6,
        query_rounds: 18,
        publishes: 6,
        cold_pulls: 3,
        warm_pulls: 3,
        scale: 1.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// SplitMix64: the generator's only source of randomness besides
/// `Weights::init`, which is seeded from it.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1) with 24 random bits.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (2.0 / (1u32 << 24) as f32) - 1.0
    }
}

/// Everything one lifecycle pass is fed.
pub struct Inputs {
    /// One request per version, in commit order (parents first). Version
    /// names are zero-padded so name order equals commit order, which
    /// makes `Repository::list` — and with it the archive's vertex
    /// numbering — independent of the wall-clock second a commit lands in.
    pub commits: Vec<CommitRequest>,
    /// The version whose latest snapshot the progressive phase evaluates.
    pub eval_version: String,
    pub eval_inputs: Vec<Tensor3>,
    /// Σ `Weights::byte_size` over every snapshot: the "user bytes" every
    /// MB/s and every ratio is taken against.
    pub user_bytes: u64,
}

impl Inputs {
    pub fn snapshots(&self) -> impl Iterator<Item = (&CommitRequest, usize, &Weights)> {
        self.commits.iter().flat_map(|c| {
            c.snapshots
                .iter()
                .enumerate()
                .map(move |(i, (_, w))| (c, i, w))
        })
    }

    /// SHA-256 over every generated weight matrix in commit order.
    pub fn digest(&self) -> String {
        let mut h = Sha256::new();
        for (c, i, w) in self.snapshots() {
            h.update(c.name.as_bytes());
            h.update(&(i as u64).to_le_bytes());
            for (layer, m) in w.layers() {
                h.update(layer.as_bytes());
                h.update(&m.to_le_bytes());
            }
        }
        h.finalize_hex()
    }
}

fn mlp(scale: f64) -> Network {
    // Widths scale with √scale so bytes scale with `scale`.
    let dim = |d: usize| ((d as f64 * scale.sqrt()).round() as usize).max(8);
    let mut n = Network::new();
    let layers = [
        (
            "data",
            LayerKind::Input {
                channels: dim(MLP_DIMS[0]),
                height: 1,
                width: 1,
            },
        ),
        (
            "fc1",
            LayerKind::Full {
                out: dim(MLP_DIMS[1]),
            },
        ),
        ("relu1", LayerKind::Act(Activation::ReLU)),
        (
            "fc2",
            LayerKind::Full {
                out: dim(MLP_DIMS[2]),
            },
        ),
        ("relu2", LayerKind::Act(Activation::ReLU)),
        ("fc3", LayerKind::Full { out: MLP_DIMS[3] }),
        ("prob", LayerKind::Softmax),
    ];
    for (name, kind) in layers {
        n.append(name, kind)
            .expect("linear network of fixed shapes");
    }
    n
}

fn drift(w: &Weights, eps: f32, rng: &mut SplitMix64) -> Weights {
    w.layers()
        .map(|(name, m)| {
            let data = m
                .as_slice()
                .iter()
                .map(|x| x * (1.0 + eps * rng.unit()))
                .collect();
            (name.clone(), Matrix::from_vec(m.rows(), m.cols(), data))
        })
        .collect()
}

/// `checkpoints` snapshots starting at `first`, each drifting from the one
/// before it.
fn checkpoint_chain(
    first: Weights,
    checkpoints: usize,
    rng: &mut SplitMix64,
) -> Vec<(usize, Weights)> {
    let mut out = vec![(0, first)];
    for i in 1..checkpoints {
        let next = drift(&out[i - 1].1, CHECKPOINT_DRIFT, rng);
        out.push((i * 100, next));
    }
    out
}

/// Generate a workload's inputs. The same `(spec, seed)` gives the same
/// inputs, bit for bit.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0x6d68_2d62_656e_6368);
    let mut commits: Vec<CommitRequest> = Vec::new();
    let fresh = |net: &Network, rng: &mut SplitMix64| {
        Weights::init(net, rng.next_u64()).expect("generated network has inferable shapes")
    };
    for v in 0..spec.versions {
        let (net, base) = match spec.shape {
            Shape::MlpStar => (mlp(spec.scale), (v > 0).then_some(0)),
            Shape::MlpUnrelated => (mlp(spec.scale), None),
            Shape::ZooStar => {
                let net = match v % 3 {
                    0 => zoo::lenet_s(10),
                    1 => zoo::alexnet_s(10),
                    _ => zoo::vgg_s(10),
                };
                (net, (v >= 3).then_some(v % 3))
            }
        };
        let first = match base {
            None => fresh(&net, &mut rng),
            Some(b) => {
                let (_, parent_latest) = commits[b].snapshots.last().expect("non-empty commit");
                drift(parent_latest, VERSION_DRIFT, &mut rng)
            }
        };
        let mut req = CommitRequest::new(&format!("m{v:03}"), net);
        req.snapshots = checkpoint_chain(first, spec.checkpoints, &mut rng);
        req.parent = base.map(|b| commits[b].name.clone());
        req.comment = format!("{} version {v}", spec.name);
        req.hyperparams
            .insert("base_lr".into(), format!("{}", 0.1 / (v + 1) as f64));
        req.accuracy = Some(0.5 + 0.4 * (rng.unit().abs()));
        commits.push(req);
    }
    let eval = commits.last().expect("at least one version");
    let (c, h, w) = match eval.network.nodes().next().map(|n| &n.kind) {
        Some(LayerKind::Input {
            channels,
            height,
            width,
        }) => (*channels, *height, *width),
        _ => unreachable!("every generated network starts with its input layer"),
    };
    let eval_inputs = (0..spec.eval_inputs)
        .map(|_| Tensor3::from_vec(c, h, w, (0..c * h * w).map(|_| rng.unit()).collect()))
        .collect();
    let user_bytes = commits
        .iter()
        .flat_map(|c| c.snapshots.iter())
        .map(|(_, w)| w.byte_size() as u64)
        .sum();
    Inputs {
        eval_version: eval.name.clone(),
        commits,
        eval_inputs,
        user_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_weights_other_seed_other_weights() {
        for spec in &WORKLOADS {
            let a = generate(&spec.at_scale(0.02), 7).digest();
            assert_eq!(
                a,
                generate(&spec.at_scale(0.02), 7).digest(),
                "{}",
                spec.name
            );
            assert_ne!(
                a,
                generate(&spec.at_scale(0.02), 8).digest(),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn drift_keeps_high_order_bytes() {
        let net = mlp(0.02);
        let mut rng = SplitMix64::new(1);
        let w = Weights::init(&net, 1).unwrap();
        let d = drift(&w, CHECKPOINT_DRIFT, &mut rng);
        let (a, b) = (w.get("fc1").unwrap(), d.get("fc1").unwrap());
        let same_top = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .filter(|(x, y)| x.to_bits() >> 16 == y.to_bits() >> 16)
            .count();
        assert!(same_top * 10 > a.len() * 9, "{same_top} of {}", a.len());
    }

    #[test]
    fn parents_are_committed_first_and_names_sort_in_commit_order() {
        for spec in &WORKLOADS {
            let inputs = generate(&spec.at_scale(0.02), 3);
            let names: Vec<&String> = inputs.commits.iter().map(|c| &c.name).collect();
            let mut sorted = names.clone();
            sorted.sort();
            assert_eq!(names, sorted);
            for (i, c) in inputs.commits.iter().enumerate() {
                if let Some(p) = &c.parent {
                    assert!(names[..i].contains(&p));
                }
            }
        }
    }
}
