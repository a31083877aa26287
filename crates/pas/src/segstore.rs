//! The on-disk segment store: physical storage for a chosen plan.
//!
//! Every plan edge becomes one *object*: the target matrix (materialized)
//! or the delta against its parent, stored as four separately-compressed
//! byte planes (plane 0 = most significant byte of each 32-bit word). This
//! is the paper's segmented design: high-order planes compress well and can
//! be fetched alone; low-order planes can live on slower storage and are
//! only read when a query needs full precision.
//!
//! Partial-precision retrieval composes along the delta chain:
//! * XOR deltas compose bytewise, so a k-plane prefix is exact in its top
//!   k bytes.
//! * SUB (wrapping-add) deltas admit carries from the unknown low bytes;
//!   [`PlanePrefix::bounds`] widens the interval by one carry unit per
//!   chain object, keeping the bounds sound.
//!
//! Every read is a plane-prefix refinement ([`SegmentStore::refine`]):
//! full recreation refines to four planes, partial precision to fewer. The
//! chain walk is linear in the plane decomposition of its words, so a
//! prefix advances without re-reading the planes it holds, and each plane
//! of each chain object is decoded once per call however many chains of
//! the group share it.

use crate::graph::{StorageGraph, VertexId, NULL_VERTEX};
use crate::plan::StoragePlan;
use crate::PasError;
use mh_compress::Level;
use mh_delta::{Delta, DeltaOp};
use mh_tensor::Matrix;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// How an object is encoded on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    Materialized,
    DeltaSub,
    DeltaXor,
}

/// One row of a store's `manifest.mhp`: the object stored for one
/// vertex.
#[derive(Debug, Clone)]
pub struct ManifestRow {
    pub vertex: VertexId,
    pub label: String,
    pub kind: ObjectKind,
    /// Parent vertex (NULL_VERTEX for materialized objects).
    pub parent: VertexId,
    pub rows: usize,
    pub cols: usize,
    /// Compressed size of each plane file.
    pub plane_sizes: [u64; 4],
}

/// The store: a directory of per-object plane files plus a manifest.
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    objects: BTreeMap<VertexId, ManifestRow>,
}

/// Which word-combine a delta plane applies: the same-shape fast path
/// runs the matching `mh_delta::simd` word loop.
#[derive(Debug, Clone, Copy)]
enum WordOp {
    /// Wrapping add: SUB-delta application.
    Add,
    /// XOR: self-inverse delta application.
    Xor,
}

/// One fully-encoded object, ready to hit disk: the output of the parallel
/// archival stage, consumed serially (in vertex order) by the writer.
struct EncodedObject {
    kind: ObjectKind,
    parent: VertexId,
    rows: usize,
    cols: usize,
    planes: [Vec<u8>; 4],
}

/// Delta-encode and compress one matrix vertex. Runs on a pool worker
/// during [`SegmentStore::create`]; `scratch` amortizes the compressor's
/// hash-chain tables across the worker's whole share of the input.
fn encode_object(
    graph: &StorageGraph,
    plan: &StoragePlan,
    matrices: &BTreeMap<VertexId, Matrix>,
    op: DeltaOp,
    level: Level,
    v: VertexId,
    scratch: &mut mh_compress::Scratch,
) -> Result<EncodedObject, PasError> {
    let m = matrices
        .get(&v)
        .ok_or_else(|| PasError::MissingMatrix(graph.label(v).to_string()))?;
    let parent = plan.parent(graph, v).expect("validated plan");
    let (kind, words) = if parent == NULL_VERTEX {
        (ObjectKind::Materialized, matrix_words(m))
    } else {
        let _sp = mh_obs::span("pas.delta_encode");
        let base = matrices
            .get(&parent)
            .ok_or_else(|| PasError::MissingMatrix(graph.label(parent).to_string()))?;
        let delta = Delta::compute(base, m, op);
        let kind = match op {
            DeltaOp::Sub => ObjectKind::DeltaSub,
            DeltaOp::Xor => ObjectKind::DeltaXor,
        };
        let bytes = delta.word_bytes();
        let words = bytes
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes(c.try_into().expect("fixed-size chunk")))
            .collect();
        (kind, words)
    };
    let raw_planes = words_to_planes(&words);
    let mut planes: [Vec<u8>; 4] = std::array::from_fn(|_| Vec::new());
    {
        let mut sp = mh_obs::span("pas.plane_compress");
        for (packed, plane) in planes.iter_mut().zip(&raw_planes) {
            mh_compress::compress_into(plane, level, scratch, packed);
        }
        if sp.is_recording() {
            sp.add_bytes_in(4 * words.len() as u64);
            sp.add_bytes_out(planes.iter().map(|p| p.len() as u64).sum());
        }
    }
    Ok(EncodedObject {
        kind,
        parent,
        rows: m.rows(),
        cols: m.cols(),
        planes,
    })
}

/// The file name of byte plane `plane` of vertex `v`'s object.
pub fn plane_file_name(v: VertexId, plane: usize) -> String {
    format!("obj{v:06}_p{plane}.mhz")
}

fn plane_path(dir: &Path, v: VertexId, plane: usize) -> PathBuf {
    dir.join(plane_file_name(v, plane))
}

/// Parse the text of a `manifest.mhp` into its rows, in file order. The
/// manifest may arrive inside a pulled repository, so every field is
/// validated before use: malformed rows, bad numbers, and `rows * cols`
/// overflow are errors carrying their 1-based line number, never
/// panics. Duplicate vertices are left to the caller.
// mh-audit: no_panic_zone
pub fn parse_manifest(text: &str) -> Result<Vec<ManifestRow>, (usize, &'static str)> {
    let mut lines = text.lines().zip(1..);
    if lines.next().map(|(l, _)| l) != Some("MHPAS1") {
        return Err((1, "bad manifest header"));
    }
    let mut out = Vec::new();
    for (line, lineno) in lines {
        let f: Vec<&str> = line.split('\t').collect();
        let [v, kind, parent, rows, cols, p0, p1, p2, p3, label] = f.as_slice() else {
            return Err((lineno, "bad manifest row"));
        };
        let parse = |s: &&str| -> Result<u64, (usize, &'static str)> {
            s.parse().map_err(|_| (lineno, "bad manifest number"))
        };
        let kind = match *kind {
            "mat" => ObjectKind::Materialized,
            "sub" => ObjectKind::DeltaSub,
            "xor" => ObjectKind::DeltaXor,
            _ => return Err((lineno, "bad object kind")),
        };
        let rows = parse(rows)? as usize;
        let cols = parse(cols)? as usize;
        if rows.checked_mul(cols).is_none() {
            return Err((lineno, "manifest shape overflows"));
        }
        out.push(ManifestRow {
            vertex: parse(v)? as VertexId,
            kind,
            parent: parse(parent)? as VertexId,
            rows,
            cols,
            plane_sizes: [parse(p0)?, parse(p1)?, parse(p2)?, parse(p3)?],
            label: label.to_string(),
        });
    }
    Ok(out)
}

/// The 32-bit words (big-endian semantics) of a matrix's bit patterns.
fn matrix_words(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn words_to_planes(words: &[u32]) -> [Vec<u8>; 4] {
    let mut planes: [Vec<u8>; 4] = std::array::from_fn(|_| Vec::with_capacity(words.len()));
    for &w in words {
        let b = w.to_be_bytes();
        for (p, plane) in planes.iter_mut().enumerate() {
            plane.push(b[p]);
        }
    }
    planes
}

impl SegmentStore {
    /// Materialize a plan: encode every chosen edge and write it under
    /// `dir`. `matrices` maps every matrix vertex to its full-precision
    /// content.
    pub fn create(
        dir: &Path,
        graph: &StorageGraph,
        plan: &StoragePlan,
        matrices: &BTreeMap<VertexId, Matrix>,
        op: DeltaOp,
        level: Level,
    ) -> Result<Self, PasError> {
        let mut sp = mh_obs::span("pas.archive_build");
        plan.validate(graph).map_err(PasError::Plan)?;
        std::fs::create_dir_all(dir).map_err(PasError::Io)?;
        // Delta encoding + per-plane compression is the archival hot path:
        // fan out with worker-local compressor scratch, batching matrices
        // by payload bytes so a queue task carries a real slab of work
        // instead of one small matrix. Results are written serially in
        // vertex order, so the store layout is bit-identical regardless of
        // thread count or batch budget.
        let vertices: Vec<VertexId> = graph.matrix_vertices().collect();
        let encoded = mh_par::parallel_map_batched(
            &vertices,
            |&v| matrices.get(&v).map_or(0, |m| m.len() * 4),
            mh_compress::Scratch::new,
            |scratch, &v| encode_object(graph, plan, matrices, op, level, v, scratch),
        )
        .map_err(PasError::from)?;
        let mut objects = BTreeMap::new();
        for (&v, enc) in vertices.iter().zip(encoded) {
            let enc = enc?;
            let mut plane_sizes = [0u64; 4];
            for (p, packed) in enc.planes.iter().enumerate() {
                plane_sizes[p] = packed.len() as u64;
                std::fs::write(plane_path(dir, v, p), packed).map_err(PasError::Io)?;
                sp.add_bytes_out(packed.len() as u64);
            }
            objects.insert(
                v,
                ManifestRow {
                    vertex: v,
                    label: graph.label(v).to_string(),
                    kind: enc.kind,
                    parent: enc.parent,
                    rows: enc.rows,
                    cols: enc.cols,
                    plane_sizes,
                },
            );
        }
        sp.field("objects", vertices.len());
        let store = Self {
            dir: dir.to_path_buf(),
            objects,
        };
        store.write_manifest()?;
        Ok(store)
    }

    fn manifest_path(dir: &Path) -> PathBuf {
        dir.join("manifest.mhp")
    }

    fn write_manifest(&self) -> Result<(), PasError> {
        let mut out = String::new();
        out.push_str("MHPAS1\n");
        for o in self.objects.values() {
            let kind = match o.kind {
                ObjectKind::Materialized => "mat",
                ObjectKind::DeltaSub => "sub",
                ObjectKind::DeltaXor => "xor",
            };
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                o.vertex,
                kind,
                o.parent,
                o.rows,
                o.cols,
                o.plane_sizes[0],
                o.plane_sizes[1],
                o.plane_sizes[2],
                o.plane_sizes[3],
                o.label.replace(['\t', '\n'], "_"),
            ));
        }
        std::fs::write(Self::manifest_path(&self.dir), out).map_err(PasError::Io)
    }

    /// Open an existing store. The manifest is validated by
    /// [`parse_manifest`]; a vertex with more than one row is corrupt
    /// too.
    // mh-audit: no_panic_zone
    pub fn open(dir: &Path) -> Result<Self, PasError> {
        let text = std::fs::read_to_string(Self::manifest_path(dir)).map_err(PasError::Io)?;
        let rows = parse_manifest(&text).map_err(|(_, msg)| PasError::Corrupt(msg))?;
        Self::from_rows(dir, rows)
    }

    /// A store over `dir` whose manifest was already parsed into `rows`
    /// (a caller that reads the manifest itself need not parse it twice).
    /// A vertex with more than one row is corrupt, as in [`Self::open`].
    pub fn from_rows(dir: &Path, rows: Vec<ManifestRow>) -> Result<Self, PasError> {
        let mut objects = BTreeMap::new();
        for row in rows {
            if objects.insert(row.vertex, row).is_some() {
                return Err(PasError::Corrupt("duplicate vertex in manifest"));
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            objects,
        })
    }

    /// Total compressed bytes on disk (all planes).
    pub fn bytes_on_disk(&self) -> u64 {
        self.objects
            .values()
            .map(|o| o.plane_sizes.iter().sum::<u64>())
            .sum()
    }

    /// Compressed bytes needed to fetch the first `k` planes of everything
    /// on `v`'s recreation path.
    pub fn prefix_bytes(&self, v: VertexId, k: usize) -> Result<u64, PasError> {
        Ok(self
            .path(v)?
            .iter()
            .map(|o| o.plane_sizes.iter().take(k).sum::<u64>())
            .sum())
    }

    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.objects.keys().copied()
    }

    pub fn label(&self, v: VertexId) -> Option<&str> {
        self.objects.get(&v).map(|o| o.label.as_str())
    }

    /// Objects on the recreation path of `v`, root-first. A dangling
    /// parent or a parent cycle in the manifest is a corruption error, not
    /// a panic or an infinite loop.
    fn path(&self, v: VertexId) -> Result<Vec<&ManifestRow>, PasError> {
        let mut rev = Vec::new();
        let mut cur = v;
        while cur != NULL_VERTEX {
            let o = self
                .objects
                .get(&cur)
                .ok_or(PasError::Corrupt("dangling parent in manifest"))?;
            rev.push(o);
            if rev.len() > self.objects.len() {
                return Err(PasError::Corrupt("parent cycle in manifest"));
            }
            cur = o.parent;
        }
        rev.reverse();
        Ok(rev)
    }

    /// Read and decompress plane `p` of one object.
    // mh-audit: no_panic_zone
    fn load_plane(&self, o: &ManifestRow, p: usize) -> Result<Vec<u8>, PasError> {
        let n = o
            .rows
            .checked_mul(o.cols)
            .ok_or(PasError::Corrupt("manifest shape overflows"))?;
        let packed = std::fs::read(plane_path(&self.dir, o.vertex, p)).map_err(PasError::Io)?;
        let plane = mh_compress::decompress(&packed).map_err(PasError::Compress)?;
        if plane.len() != n {
            return Err(PasError::Corrupt("plane length mismatch"));
        }
        Ok(plane)
    }

    /// Recreate the full-precision matrix at `v` by walking its chain: a
    /// one-member [`Self::recreate_group_parallel`].
    pub fn recreate(&self, v: VertexId) -> Result<Matrix, PasError> {
        self.recreate_group_parallel(&[v])?
            .pop()
            .ok_or(PasError::Corrupt("empty group"))
    }

    /// Recreate every member of a snapshot group at full precision: one
    /// [`PlanePrefix`] per member, refined to four planes in one
    /// [`Self::refine`]. Objects shared by several members' chains are
    /// decoded once (Table III's reusable scheme, ψr) and the decode fans
    /// out to the worker pool (its parallel scheme). The chain metadata
    /// and every plane file may come from a pulled archive, so the whole
    /// read is corruption-tolerant.
    // mh-audit: no_panic_zone
    pub fn recreate_group_parallel(&self, members: &[VertexId]) -> Result<Vec<Matrix>, PasError> {
        let mut sp = mh_obs::span("pas.recreate");
        let mut prefixes = members
            .iter()
            .map(|&v| self.plane_prefix(v))
            .collect::<Result<Vec<_>, _>>()?;
        if sp.is_recording() {
            sp.field("members", prefixes.len());
            let longest = prefixes.iter().map(PlanePrefix::chain_len).max();
            sp.field("chain_len", longest.unwrap_or(0));
        }
        self.refine(&mut prefixes, 4)?;
        prefixes.iter().map(PlanePrefix::to_matrix).collect()
    }

    /// Approximate weight histogram from only the first `k` byte planes —
    /// the paper's observation that plots and visualizations "can often be
    /// executed without retrieving the lower-order bytes". Each value is
    /// binned by its interval midpoint; `range` defaults to the observed
    /// bounds.
    pub fn weight_histogram(
        &self,
        v: VertexId,
        k: usize,
        bins: usize,
        range: Option<(f32, f32)>,
    ) -> Result<Histogram, PasError> {
        assert!(bins > 0);
        let (lo, hi) = self.recreate_bounds(v, k)?;
        let mids: Vec<f32> = lo
            .as_slice()
            .iter()
            .zip(hi.as_slice())
            .map(|(l, h)| (l + h) * 0.5)
            .collect();
        let (min, max) = match range {
            Some(r) => r,
            None => {
                let min = mids.iter().copied().fold(f32::INFINITY, f32::min);
                let max = mids.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                if min < max {
                    (min, max)
                } else {
                    (min - 0.5, min + 0.5)
                }
            }
        };
        let width = (max - min) / bins as f32;
        let mut counts = vec![0u64; bins];
        for &m in &mids {
            let idx = if width > 0.0 {
                (((m - min) / width) as usize).min(bins - 1)
            } else {
                0
            };
            counts[idx] += 1;
        }
        Ok(Histogram {
            min,
            max,
            counts,
            planes_used: k,
        })
    }

    /// Sound elementwise bounds on the matrix at `v` using only the first
    /// `k` byte planes of every object on its chain (exact at `k = 4`):
    /// one [`PlanePrefix`] refined to `k` planes. `k` outside `1..=4` is an
    /// error.
    pub fn recreate_bounds(&self, v: VertexId, k: usize) -> Result<(Matrix, Matrix), PasError> {
        if !(1..=4).contains(&k) {
            return Err(PasError::PlaneCount(k));
        }
        let mut prefix = self.plane_prefix(v)?;
        self.refine(std::slice::from_mut(&mut prefix), k)?;
        prefix.bounds()
    }

    /// The empty (zero-plane) prefix of `v`'s chain. The chain's structure
    /// is checked here, once, so [`Self::refine`] cannot fail halfway
    /// through a fold. A chain mixing SUB and XOR deltas is rejected: the
    /// two ops do not commute, so its plane walks do not fold (no store
    /// [`Self::create`] writes has one).
    pub fn plane_prefix(&self, v: VertexId) -> Result<PlanePrefix<'_>, PasError> {
        let path = self.path(v)?;
        let (root, deltas) = path.split_first().ok_or(PasError::Corrupt("empty chain"))?;
        if root.kind != ObjectKind::Materialized {
            return Err(PasError::Corrupt("chain does not start materialized"));
        }
        let (mut sub, mut xor) = (false, false);
        for o in deltas {
            match o.kind {
                ObjectKind::Materialized => {
                    return Err(PasError::Corrupt("materialized object mid-chain"))
                }
                ObjectKind::DeltaSub => sub = true,
                ObjectKind::DeltaXor => xor = true,
            }
        }
        if sub && xor {
            return Err(PasError::Corrupt("chain mixes sub and xor deltas"));
        }
        Ok(PlanePrefix {
            carry_terms: if sub { path.len() as u64 } else { 1 },
            fold: if sub { WordOp::Add } else { WordOp::Xor },
            path,
            planes: 0,
            acc: Vec::new(),
        })
    }

    /// Advance every prefix to `to` byte planes (at most 4), returning how
    /// many (chain object, plane) pairs were decoded. Prefixes already at
    /// `to` planes or more are left alone.
    ///
    /// Every plane the prefixes are missing, of every object on their
    /// chains, is decoded in one byte-batched pool map, each distinct
    /// (object, plane) pair once however many chains share the object.
    /// Then, serially, each object's new planes are joined into words, each
    /// chain is walked once on them, and the walk is folded into the
    /// prefix's accumulator. Results are therefore identical at any width
    /// or batch budget. On error no prefix changes.
    // mh-audit: no_panic_zone
    pub fn refine(&self, prefixes: &mut [PlanePrefix<'_>], to: usize) -> Result<usize, PasError> {
        if to > 4 {
            return Err(PasError::PlaneCount(to));
        }
        let mut sp = mh_obs::span("pas.plane_refine");
        // Per (object, first missing plane): its words over the planes
        // `first..to`, filled in from the decoded planes below.
        let mut words: BTreeMap<(VertexId, usize), Vec<u32>> = BTreeMap::new();
        for pre in prefixes.iter().filter(|pre| pre.planes < to) {
            for &o in &pre.path {
                words.entry((o.vertex, pre.planes)).or_default();
            }
        }
        let jobs = plane_jobs(prefixes, to);
        if sp.is_recording() {
            sp.field("planes_decoded", jobs.len());
            sp.add_bytes_in(
                jobs.iter()
                    .map(|&(o, p)| o.plane_sizes.get(p).copied().unwrap_or(0))
                    .sum(),
            );
        }
        let planes = mh_par::parallel_map_batched(
            &jobs,
            |&(o, p)| plane_weight(o, p),
            || (),
            |(), &(o, p)| self.load_plane(o, p),
        )
        .map_err(PasError::from)?;
        for (&(o, p), plane) in jobs.iter().zip(planes) {
            let plane = plane?;
            let shift = 8 * (3 - p) as u32;
            for w in words
                .range_mut((o.vertex, 0)..=(o.vertex, p))
                .map(|(_, w)| w)
            {
                if w.is_empty() {
                    *w = vec![0; plane.len()];
                }
                for (w, &b) in w.iter_mut().zip(&plane) {
                    *w |= u32::from(b) << shift;
                }
            }
        }
        let mut walks = Vec::with_capacity(prefixes.len());
        for pre in prefixes.iter().filter(|pre| pre.planes < to) {
            let mut acc = Vec::new();
            let mut prev = None;
            for &o in &pre.path {
                let w = words
                    .get(&(o.vertex, pre.planes))
                    .ok_or(PasError::Corrupt("plane count mismatch"))?;
                acc = chain_step(acc, prev, o, w)?;
                prev = Some(o);
            }
            walks.push(acc);
        }
        for (pre, walk) in prefixes.iter_mut().filter(|pre| pre.planes < to).zip(walks) {
            if pre.planes == 0 {
                pre.acc = walk;
            } else {
                match pre.fold {
                    WordOp::Add => mh_delta::simd::add_assign(&mut pre.acc, &walk),
                    WordOp::Xor => mh_delta::simd::xor_assign(&mut pre.acc, &walk),
                }
            }
            pre.planes = to;
        }
        Ok(jobs.len())
    }

    /// Check that every member would recreate, without recreating it:
    /// each member's chain passes [`Self::plane_prefix`]'s structure
    /// checks, then every distinct (chain object, plane) pair on the
    /// members' chains is decoded once, in one byte-batched pool map, and
    /// dropped. Returns the number of pairs decoded; on failure the first
    /// error in member order, then in job order, so the result is the
    /// same at any width.
    ///
    /// This is exactly [`Self::recreate_group_parallel`]'s check. A
    /// recreate fails only in `plane_prefix` (chain structure) or in
    /// `load_plane` (a plane file missing, not decoding, or not
    /// `rows × cols` bytes long). Past those checks nothing else can
    /// fail: `chain_step` rejects only the chain shapes `plane_prefix`
    /// already rejected, `apply_positional` is total, and the chain
    /// walk leaves exactly `rows × cols` words for the final matrix. So
    /// `verify` is `Ok` iff recreating every member is, with no chain
    /// walk, word accumulator or matrix, and with decoded planes held
    /// one batch per worker.
    // mh-audit: no_panic_zone
    pub fn verify(&self, members: &[VertexId]) -> Result<usize, PasError> {
        let prefixes = members
            .iter()
            .map(|&v| self.plane_prefix(v))
            .collect::<Result<Vec<_>, _>>()?;
        let jobs = plane_jobs(&prefixes, 4);
        mh_par::parallel_map_batched(
            &jobs,
            |&(o, p)| plane_weight(o, p),
            || (),
            |(), &(o, p)| self.load_plane(o, p).map(drop),
        )
        .map_err(PasError::from)?
        .into_iter()
        .collect::<Result<(), _>>()?;
        Ok(jobs.len())
    }
}

/// Every distinct (chain object, plane) pair that advancing `prefixes` to
/// `to` planes decodes, in (vertex, plane) order: the planes
/// `planes..to` of each object on each short prefix's chain.
fn plane_jobs<'s>(prefixes: &[PlanePrefix<'s>], to: usize) -> Vec<(&'s ManifestRow, usize)> {
    let mut jobs = BTreeMap::new();
    for pre in prefixes.iter().filter(|pre| pre.planes < to) {
        for &o in &pre.path {
            for p in pre.planes..to {
                jobs.insert((o.vertex, p), o);
            }
        }
    }
    jobs.into_iter().map(|((_, p), o)| (o, p)).collect()
}

/// A vertex's byte-plane prefix: the chain walk over the first
/// [`planes`](Self::planes) planes of every object on its recreation
/// path, held as one running word accumulator and advanced by
/// [`SegmentStore::refine`].
///
/// Why a prefix can be advanced without re-reading its planes: a k-plane
/// word is the sum (equally, the XOR — the bytes occupy disjoint bits) of
/// its single-plane parts, and the chain walk is linear in its inputs —
/// wrapping add for SUB chains, XOR for XOR chains, and the crop /
/// zero-extend of a shape-changing delta both. So
/// `acc(j) = acc(k) ⊕ walk(planes k..j only)`, with ⊕ the chain's own
/// delta op, bit for bit.
#[derive(Debug)]
pub struct PlanePrefix<'s> {
    /// The recreation path, root first, structure-checked.
    path: Vec<&'s ManifestRow>,
    /// How a plane walk folds into `acc`: the chain's delta op.
    fold: WordOp,
    /// Chain objects whose unknown low bytes feed additive carries.
    carry_terms: u64,
    planes: usize,
    acc: Vec<u32>,
}

impl PlanePrefix<'_> {
    /// Byte planes folded in so far (0..=4).
    pub fn planes(&self) -> usize {
        self.planes
    }

    /// Objects on the recreation path: each refinement step decodes one
    /// plane of each.
    pub fn chain_len(&self) -> usize {
        self.path.len()
    }

    fn shape(&self) -> (usize, usize) {
        self.path.last().map_or((0, 0), |o| (o.rows, o.cols))
    }

    /// Sound elementwise bounds on the vertex's matrix from the planes
    /// folded in so far; exact (`lo == hi`, bit-equal to
    /// [`SegmentStore::recreate`]) at four planes. Needs at least one
    /// plane.
    pub fn bounds(&self) -> Result<(Matrix, Matrix), PasError> {
        if self.planes == 4 {
            let m = self.to_matrix()?;
            return Ok((m.clone(), m));
        }
        let (rows, cols) = self.shape();
        let (lo, hi) = word_bounds(&self.acc, self.planes, self.carry_terms);
        let bound =
            |v| Matrix::try_from_vec(rows, cols, v).ok_or(PasError::Corrupt("word count mismatch"));
        Ok((bound(lo)?, bound(hi)?))
    }

    /// The accumulated matrix: bit-equal to [`SegmentStore::recreate`] at
    /// four planes, the chain value with its unread low bytes zeroed
    /// before that.
    pub fn to_matrix(&self) -> Result<Matrix, PasError> {
        let (rows, cols) = self.shape();
        words_to_matrix(&self.acc, rows, cols)
    }
}

/// Pool-batching weight of decoding plane `p` of `o`: compressed plus
/// decompressed bytes.
fn plane_weight(o: &ManifestRow, p: usize) -> usize {
    o.plane_sizes.get(p).map_or(0, |&s| s as usize) + o.rows.saturating_mul(o.cols)
}

/// Fold object `o`'s words into the chain accumulator of its predecessors
/// on the recreation path (`prev` is the one before it, `None` at the
/// root) — the chain walk step of [`SegmentStore::refine`].
fn chain_step(
    acc: Vec<u32>,
    prev: Option<&ManifestRow>,
    o: &ManifestRow,
    words: &[u32],
) -> Result<Vec<u32>, PasError> {
    let op = match (prev, o.kind) {
        (None, ObjectKind::Materialized) => return Ok(words.to_vec()),
        (None, _) => return Err(PasError::Corrupt("chain does not start materialized")),
        (Some(_), ObjectKind::Materialized) => {
            return Err(PasError::Corrupt("materialized object mid-chain"))
        }
        (Some(_), ObjectKind::DeltaSub) => WordOp::Add,
        (Some(_), ObjectKind::DeltaXor) => WordOp::Xor,
    };
    let base_shape = prev.map_or((0, 0), |b| (b.rows, b.cols));
    Ok(apply_positional(
        acc,
        base_shape,
        words,
        (o.rows, o.cols),
        op,
    ))
}

/// Sound elementwise bounds on the words of a `k`-plane chain accumulator.
/// `carry_terms` is the number of chain objects whose unknown low bytes
/// feed additive carries: the chain length for a SUB chain, 1 otherwise
/// (XOR preserves the known top bytes exactly; only the final value's low
/// part is unknown).
fn word_bounds(acc: &[u32], k: usize, carry_terms: u64) -> (Vec<f32>, Vec<f32>) {
    // The unread low bytes; every bit unknown at k = 0.
    let mask: u32 = u32::MAX.checked_shr(8 * k as u32).unwrap_or(0);
    // Total additive slack: each additive term's low bytes lie in
    // [0, mask].
    let slack: u64 = u64::from(mask) * carry_terms;
    let mut lo = Vec::with_capacity(acc.len());
    let mut hi = Vec::with_capacity(acc.len());
    for &p in acc {
        let base = u64::from(p & !mask);
        let top = (base + slack).min(u64::from(u32::MAX));
        let f0 = f32::from_bits(base as u32);
        let f1 = f32::from_bits(top as u32);
        if !f0.is_finite() || !f1.is_finite() {
            // NaN/Inf pattern territory (never reached by real weights):
            // the widest sound interval.
            lo.push(-f32::MAX);
            hi.push(f32::MAX);
        } else if (base as u32) & 0x8000_0000 != 0 && (top as u32) & 0x8000_0000 != 0 {
            // Same negative sign: larger pattern = more negative.
            lo.push(f1);
            hi.push(f0);
        } else if (base as u32) & 0x8000_0000 == 0 && (top as u32) & 0x8000_0000 == 0 {
            lo.push(f0);
            hi.push(f1);
        } else {
            // Pattern range crosses the sign boundary: fall back to the
            // widest sound interval for these magnitudes.
            let m = f0.abs().max(f1.abs());
            lo.push(-m);
            hi.push(m);
        }
    }
    (lo, hi)
}

/// An approximate weight histogram computed from high-order byte planes.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub min: f32,
    pub max: f32,
    pub counts: Vec<u64>,
    pub planes_used: usize,
}

impl Histogram {
    /// Total variation distance to another histogram over the same bins
    /// (0 = identical distributions, 1 = disjoint).
    pub fn distance(&self, other: &Histogram) -> f64 {
        assert_eq!(self.counts.len(), other.counts.len());
        let (na, nb) = (
            self.counts.iter().sum::<u64>().max(1) as f64,
            other.counts.iter().sum::<u64>().max(1) as f64,
        );
        0.5 * self
            .counts
            .iter()
            .zip(&other.counts)
            .map(|(&a, &b)| (a as f64 / na - b as f64 / nb).abs())
            .sum::<f64>()
    }

    /// Render an ASCII bar chart (for the dlv CLI).
    pub fn render_ascii(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        let bin_w = (self.max - self.min) / self.counts.len() as f32;
        for (i, &c) in self.counts.iter().enumerate() {
            let lo = self.min + i as f32 * bin_w;
            let bar = "#".repeat((c as usize * width / max as usize).max(usize::from(c > 0)));
            out.push_str(&format!(
                "{lo:>10.4} | {bar} {c}
"
            ));
        }
        out
    }
}

/// Apply a delta positionally, matching `mh_delta`'s shape semantics: the
/// base is virtually zero-extended or cropped to the target's (row, col)
/// grid, never reflowed.
fn apply_positional(
    base: Vec<u32>,
    base_shape: (usize, usize),
    delta: &[u32],
    target_shape: (usize, usize),
    op: WordOp,
) -> Vec<u32> {
    let (br, bc) = base_shape;
    let (tr, tc) = target_shape;
    let total = tr.saturating_mul(tc);
    // Fast path: same-shape delta application (the overwhelmingly common
    // case on real chains) runs the flat word loops in place — exact
    // integer ops, bit-identical to the positional loop below.
    if (br, bc) == (tr, tc) && base.len() == total && delta.len() == total {
        let mut out = base;
        match op {
            WordOp::Add => mh_delta::simd::add_assign(&mut out, delta),
            WordOp::Xor => mh_delta::simd::xor_assign(&mut out, delta),
        }
        return out;
    }
    let op = |b: u32, d: u32| match op {
        WordOp::Add => b.wrapping_add(d),
        WordOp::Xor => b ^ d,
    };
    let mut out = Vec::with_capacity(total.min(1 << 24));
    for r in 0..tr {
        let base_row = if r < br {
            let start = r.saturating_mul(bc);
            base.get(start..start.saturating_add(bc)).unwrap_or(&[])
        } else {
            &[]
        };
        let delta_start = r.saturating_mul(tc);
        let delta_row = delta
            .get(delta_start..delta_start.saturating_add(tc))
            .unwrap_or(&[]);
        for c in 0..tc {
            let b = base_row.get(c).copied().unwrap_or(0);
            let d = delta_row.get(c).copied().unwrap_or(0);
            out.push(op(b, d));
        }
    }
    out
}

fn words_to_matrix(words: &[u32], rows: usize, cols: usize) -> Result<Matrix, PasError> {
    Matrix::try_from_vec(
        rows,
        cols,
        words.iter().map(|&w| f32::from_bits(w)).collect(),
    )
    .ok_or(PasError::Corrupt("word count mismatch"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeKind;
    use crate::solver;
    use mh_delta::bit_equal;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "mh-pas-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Three close-by matrices chained by deltas plus one independent one.
    fn setup(
        op: DeltaOp,
        tag: &str,
    ) -> (
        StorageGraph,
        StoragePlan,
        BTreeMap<VertexId, Matrix>,
        PathBuf,
    ) {
        let mut g = StorageGraph::new();
        let m0 = Matrix::from_fn(8, 9, |r, c| ((r * 9 + c) as f32 * 0.17).sin() * 0.4);
        let m1 = m0.map(|x| x + 3e-4);
        let m2 = m1.map(|x| x * 1.001 - 1e-4);
        let other = Matrix::from_fn(5, 4, |r, c| (r as f32 - c as f32) * 0.21);
        let v0 = g.add_vertex("v0/conv1");
        let v1 = g.add_vertex("v1/conv1");
        let v2 = g.add_vertex("v2/conv1");
        let v3 = g.add_vertex("other/fc");
        for v in [v0, v1, v2, v3] {
            g.add_edge(NULL_VERTEX, v, EdgeKind::Materialize, 100.0, 10.0);
        }
        g.add_delta_pair(v0, v1, 10.0, 2.0);
        g.add_delta_pair(v1, v2, 10.0, 2.0);
        g.add_snapshot("s0", vec![v0, v3], f64::INFINITY);
        g.add_snapshot("s2", vec![v2], f64::INFINITY);
        let plan = solver::mst(&g).unwrap();
        let mats: BTreeMap<VertexId, Matrix> = [(v0, m0), (v1, m1), (v2, m2), (v3, other)]
            .into_iter()
            .collect();
        let dir = temp_dir(tag);
        let _ = op;
        (g, plan, mats, dir)
    }

    #[test]
    fn full_recreation_is_exact_for_both_ops() {
        for (op, tag) in [(DeltaOp::Sub, "sub"), (DeltaOp::Xor, "xor")] {
            let (g, plan, mats, dir) = setup(op, tag);
            let store = SegmentStore::create(&dir, &g, &plan, &mats, op, Level::Fast).unwrap();
            for (&v, m) in &mats {
                let back = store.recreate(v).unwrap();
                assert!(bit_equal(&back, m), "vertex {v} ({op:?})");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn reopen_from_manifest() {
        let (g, plan, mats, dir) = setup(DeltaOp::Sub, "reopen");
        let store =
            SegmentStore::create(&dir, &g, &plan, &mats, DeltaOp::Sub, Level::Fast).unwrap();
        let disk1 = store.bytes_on_disk();
        drop(store);
        let store = SegmentStore::open(&dir).unwrap();
        assert_eq!(store.bytes_on_disk(), disk1);
        for (&v, m) in &mats {
            assert!(bit_equal(&store.recreate(v).unwrap(), m));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_a_duplicate_vertex_row() {
        let (g, plan, mats, dir) = setup(DeltaOp::Sub, "duprow");
        SegmentStore::create(&dir, &g, &plan, &mats, DeltaOp::Sub, Level::Fast).unwrap();
        let path = SegmentStore::manifest_path(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        // Repeat the first row with another parent: one vertex, two rows.
        let first = text.lines().nth(1).unwrap();
        let mut f: Vec<&str> = first.split('\t').collect();
        f[2] = "0";
        std::fs::write(&path, format!("{text}{}\n", f.join("\t"))).unwrap();
        assert_eq!(
            parse_manifest(&std::fs::read_to_string(&path).unwrap())
                .unwrap()
                .len(),
            5
        );
        assert!(matches!(
            SegmentStore::open(&dir),
            Err(PasError::Corrupt("duplicate vertex in manifest"))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plane_file_names_are_zero_padded() {
        assert_eq!(plane_file_name(7, 2), "obj000007_p2.mhz");
        assert_eq!(plane_file_name(123_456, 0), "obj123456_p0.mhz");
    }

    #[test]
    fn delta_chains_use_less_disk_than_materializing_everything() {
        let (g, plan, mats, dir) = setup(DeltaOp::Sub, "size");
        let store =
            SegmentStore::create(&dir, &g, &plan, &mats, DeltaOp::Sub, Level::Fast).unwrap();
        let chained = store.bytes_on_disk();
        std::fs::remove_dir_all(&dir).ok();

        // All-materialized plan.
        let dir2 = temp_dir("size-mat");
        let mut flat = StoragePlan::empty(&g);
        for v in g.matrix_vertices() {
            let e = g
                .edges()
                .iter()
                .find(|e| e.to == v && e.from == NULL_VERTEX)
                .unwrap()
                .id;
            flat.set_parent(v, e);
        }
        let store2 =
            SegmentStore::create(&dir2, &g, &flat, &mats, DeltaOp::Sub, Level::Fast).unwrap();
        let materialized = store2.bytes_on_disk();
        std::fs::remove_dir_all(&dir2).ok();
        assert!(
            chained < materialized,
            "delta chain {chained} should beat materialization {materialized}"
        );
    }

    #[test]
    fn bounds_contain_truth_at_every_prefix() {
        for (op, tag) in [(DeltaOp::Sub, "bsub"), (DeltaOp::Xor, "bxor")] {
            let (g, plan, mats, dir) = setup(op, tag);
            let store = SegmentStore::create(&dir, &g, &plan, &mats, op, Level::Fast).unwrap();
            for (&v, m) in &mats {
                for k in 1..=4usize {
                    let (lo, hi) = store.recreate_bounds(v, k).unwrap();
                    for i in 0..m.len() {
                        let (l, h, x) = (lo.as_slice()[i], hi.as_slice()[i], m.as_slice()[i]);
                        assert!(
                            l <= x && x <= h,
                            "{op:?} v{v} k{k} elem {i}: {l} <= {x} <= {h}"
                        );
                    }
                }
                // Full precision prefix is exact.
                let (lo, hi) = store.recreate_bounds(v, 4).unwrap();
                assert!(bit_equal(&lo, m) && bit_equal(&hi, m));
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn bounds_tighten_with_planes() {
        let (g, plan, mats, dir) = setup(DeltaOp::Xor, "tighten");
        let store =
            SegmentStore::create(&dir, &g, &plan, &mats, DeltaOp::Xor, Level::Fast).unwrap();
        let v = *mats.keys().next().unwrap();
        let mut prev = f32::INFINITY;
        for k in 1..=4usize {
            let (lo, hi) = store.recreate_bounds(v, k).unwrap();
            let w = lo
                .as_slice()
                .iter()
                .zip(hi.as_slice())
                .map(|(l, h)| h - l)
                .fold(0.0f32, f32::max);
            assert!(w <= prev + 1e-6, "width at k={k}: {w} vs {prev}");
            prev = w;
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_read_matches_single_reads() {
        let (g, plan, mats, dir) = setup(DeltaOp::Sub, "par");
        let store =
            SegmentStore::create(&dir, &g, &plan, &mats, DeltaOp::Sub, Level::Fast).unwrap();
        let members: Vec<VertexId> = mats.keys().copied().collect();
        let group = store.recreate_group_parallel(&members).unwrap();
        for (m, &v) in group.iter().zip(&members) {
            assert!(bit_equal(m, &store.recreate(v).unwrap()));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plane_counts_outside_one_to_four_are_errors() {
        let (g, plan, mats, dir) = setup(DeltaOp::Sub, "planecount");
        let store =
            SegmentStore::create(&dir, &g, &plan, &mats, DeltaOp::Sub, Level::Fast).unwrap();
        let v = *mats.keys().next().unwrap();
        for k in [0, 5] {
            assert!(matches!(
                store.recreate_bounds(v, k),
                Err(PasError::PlaneCount(n)) if n == k
            ));
            assert!(store.weight_histogram(v, k, 8, None).is_err());
        }
        let mut prefix = store.plane_prefix(v).unwrap();
        assert!(matches!(
            store.refine(std::slice::from_mut(&mut prefix), 5),
            Err(PasError::PlaneCount(5))
        ));
        assert_eq!(prefix.planes(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefix_bytes_monotone() {
        let (g, plan, mats, dir) = setup(DeltaOp::Sub, "prefix");
        let store =
            SegmentStore::create(&dir, &g, &plan, &mats, DeltaOp::Sub, Level::Fast).unwrap();
        let v = *mats.keys().last().unwrap();
        let b1 = store.prefix_bytes(v, 1).unwrap();
        let b2 = store.prefix_bytes(v, 2).unwrap();
        let b4 = store.prefix_bytes(v, 4).unwrap();
        assert!(b1 < b2 && b2 < b4);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod group_tests {
    use super::*;
    use crate::graph::EdgeKind;
    use crate::solver;
    use mh_delta::bit_equal;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mh-pas-group-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn group_read_decodes_shared_chain_objects_once() {
        // Chain m0 -> m1 -> m2 -> m3: retrieving {m2, m3} shares the
        // objects of m0..m2, which one refinement decodes once.
        let mut g = StorageGraph::new();
        let m0 = Matrix::from_fn(10, 11, |r, c| ((r * 11 + c) as f32 * 0.31).cos() * 0.5);
        let mats: Vec<Matrix> = (0..4).map(|i| m0.map(|x| x + i as f32 * 1e-4)).collect();
        let vs: Vec<VertexId> = (0..4).map(|i| g.add_vertex(&format!("m{i}"))).collect();
        for &v in &vs {
            g.add_edge(NULL_VERTEX, v, EdgeKind::Materialize, 100.0, 10.0);
        }
        for w in vs.windows(2) {
            g.add_delta_pair(w[0], w[1], 5.0, 1.0);
        }
        g.add_snapshot("s", vec![vs[2], vs[3]], f64::INFINITY);
        let plan = solver::mst(&g).unwrap();
        let map: BTreeMap<VertexId, Matrix> =
            vs.iter().copied().zip(mats.iter().cloned()).collect();
        let dir = temp_dir("basic");
        let store = SegmentStore::create(&dir, &g, &plan, &map, DeltaOp::Sub, Level::Fast).unwrap();
        let group = [vs[3], vs[2], vs[3]];
        let mut prefixes: Vec<_> = group
            .iter()
            .map(|&v| store.plane_prefix(v).unwrap())
            .collect();
        let deepest = prefixes.iter().map(PlanePrefix::chain_len).max().unwrap();
        assert_eq!(store.refine(&mut prefixes, 4).unwrap(), 4 * deepest);
        // Arbitrary order and duplicates read back exactly.
        let back = store.recreate_group_parallel(&group).unwrap();
        for ((m, pre), &v) in back.iter().zip(&prefixes).zip(&group) {
            assert!(bit_equal(m, &map[&v]));
            assert!(bit_equal(&pre.to_matrix().unwrap(), &map[&v]));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod verify_tests {
    use super::*;
    use crate::graph::EdgeKind;
    use crate::solver;
    use std::collections::BTreeSet;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mh-pas-verify-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A SUB chain m0 -> m1 -> m2 -> m3 of 10×11 matrices plus an
    /// independent 5×4 one.
    fn chain_store(dir: &Path) -> Vec<VertexId> {
        let mut g = StorageGraph::new();
        let m0 = Matrix::from_fn(10, 11, |r, c| ((r * 11 + c) as f32 * 0.31).cos() * 0.5);
        let mut mats: Vec<Matrix> = (0..4).map(|i| m0.map(|x| x + i as f32 * 1e-4)).collect();
        mats.push(Matrix::from_fn(5, 4, |r, c| (r as f32 - c as f32) * 0.21));
        let vs: Vec<VertexId> = (0..5).map(|i| g.add_vertex(&format!("m{i}"))).collect();
        for &v in &vs {
            g.add_edge(NULL_VERTEX, v, EdgeKind::Materialize, 100.0, 10.0);
        }
        for w in vs[..4].windows(2) {
            g.add_delta_pair(w[0], w[1], 5.0, 1.0);
        }
        g.add_snapshot("s", vs.clone(), f64::INFINITY);
        let plan = solver::mst(&g).unwrap();
        let map: BTreeMap<VertexId, Matrix> = vs.iter().copied().zip(mats).collect();
        SegmentStore::create(dir, &g, &plan, &map, DeltaOp::Sub, Level::Fast).unwrap();
        vs
    }

    /// Every member set the checks run over: each vertex alone, each
    /// adjacent pair, and all of them.
    fn member_sets(vs: &[VertexId]) -> Vec<Vec<VertexId>> {
        let mut sets: Vec<Vec<VertexId>> = vs.iter().map(|&v| vec![v]).collect();
        sets.extend(vs.windows(2).map(<[VertexId]>::to_vec));
        sets.push(vs.to_vec());
        sets
    }

    /// `verify` agrees with recreating the members: both pass, or both
    /// fail with the same error.
    fn assert_agrees(dir: &Path, sets: &[Vec<VertexId>], what: &str) {
        let store = match SegmentStore::open(dir) {
            Ok(store) => store,
            Err(e) => panic!("{what}: the store must still open: {e}"),
        };
        for members in sets {
            let verified = store.verify(members).map_err(|e| e.to_string());
            let recreated = store
                .recreate_group_parallel(members)
                .map_err(|e| e.to_string());
            assert_eq!(
                verified.as_ref().err(),
                recreated.as_ref().err(),
                "{what}: members {members:?}"
            );
        }
    }

    #[test]
    fn verify_counts_each_chain_plane_once() {
        let dir = temp_dir("count");
        let vs = chain_store(&dir);
        let store = SegmentStore::open(&dir).unwrap();
        let rows =
            parse_manifest(&std::fs::read_to_string(dir.join("manifest.mhp")).unwrap()).unwrap();
        let parent: BTreeMap<VertexId, VertexId> =
            rows.iter().map(|r| (r.vertex, r.parent)).collect();
        assert!(rows.iter().any(|r| r.kind == ObjectKind::DeltaSub));
        for members in member_sets(&vs) {
            let mut on_chains = BTreeSet::new();
            for &v in &members {
                let mut cur = v;
                while cur != NULL_VERTEX {
                    on_chains.insert(cur);
                    cur = parent[&cur];
                }
            }
            assert_eq!(
                store.verify(&members).unwrap(),
                4 * on_chains.len(),
                "{members:?}"
            );
        }
        assert_eq!(store.verify(&[]).unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_fails_exactly_when_recreate_does() {
        let dir = temp_dir("agree");
        let vs = chain_store(&dir);
        let sets = member_sets(&vs);
        assert_agrees(&dir, &sets, "clean");
        // Every plane of every object, damaged four ways.
        let other_shape = std::fs::read(plane_path(&dir, vs[4], 0)).unwrap();
        for &v in &vs {
            for p in 0..4 {
                let path = plane_path(&dir, v, p);
                let good = std::fs::read(&path).unwrap();
                let garbage: Vec<u8> = (0..good.len()).map(|i| (i * 131 + 7) as u8).collect();
                let wrong_len = if v == vs[4] {
                    std::fs::read(plane_path(&dir, vs[0], p)).unwrap()
                } else {
                    other_shape.clone()
                };
                for (how, bytes) in [
                    ("truncated", Some(good[..good.len() / 2].to_vec())),
                    ("garbage", Some(garbage)),
                    ("wrong length", Some(wrong_len)),
                    ("deleted", None),
                ] {
                    match bytes {
                        Some(b) => std::fs::write(&path, b).unwrap(),
                        None => std::fs::remove_file(&path).unwrap(),
                    }
                    assert_agrees(&dir, &sets, &format!("{how} plane {p} of v{v}"));
                    let store = SegmentStore::open(&dir).unwrap();
                    assert!(store.verify(&[v]).is_err(), "{how} plane {p} of v{v}");
                    std::fs::write(&path, &good).unwrap();
                }
            }
        }
        // Manifest damage: a dangling parent, a cycle, a materialized
        // object mid-chain, a chain mixing sub and xor.
        let manifest = dir.join("manifest.mhp");
        let good = std::fs::read_to_string(&manifest).unwrap();
        let edit = |v: VertexId, field: usize, value: &str| -> String {
            let mut out = String::new();
            for line in good.lines() {
                let mut f: Vec<&str> = line.split('\t').collect();
                if f.first() == Some(&v.to_string().as_str()) {
                    f[field] = value;
                }
                out.push_str(&f.join("\t"));
                out.push('\n');
            }
            out
        };
        for (what, text) in [
            ("dangling parent", edit(vs[2], 2, "999999")),
            ("parent cycle", edit(vs[0], 2, &vs[3].to_string())),
            ("materialized mid-chain", edit(vs[1], 1, "mat")),
            ("mixed chain", edit(vs[2], 1, "xor")),
        ] {
            assert_ne!(text, good, "{what}: the edit must change the manifest");
            std::fs::write(&manifest, text).unwrap();
            assert_agrees(&dir, &sets, what);
            let store = SegmentStore::open(&dir).unwrap();
            assert!(store.verify(&vs).is_err(), "{what}");
        }
        std::fs::write(&manifest, &good).unwrap();
        assert_agrees(&dir, &sets, "restored");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;
    use crate::builder::{CostModel, GraphBuilder};
    use crate::solver;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mh-hist-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn histogram_from_two_planes_close_to_full_precision() {
        let net = mh_dnn::zoo::lenet_s(4);
        let w = mh_dnn::Weights::init(&net, 9).unwrap();
        let mut b = GraphBuilder::new(CostModel::default());
        let lv = b.add_snapshot("m", 0, &w);
        let (g, mats) = b.finish();
        let plan = solver::mst(&g).unwrap();
        let dir = temp_dir("close");
        let store =
            SegmentStore::create(&dir, &g, &plan, &mats, DeltaOp::Sub, Level::Fast).unwrap();
        let v = *lv.values().next().unwrap();
        let range = Some((-0.5f32, 0.5f32));
        let full = store.weight_histogram(v, 4, 32, range).unwrap();
        let partial = store.weight_histogram(v, 2, 32, range).unwrap();
        let coarse = store.weight_histogram(v, 1, 32, range).unwrap();
        // Two high-order bytes suffice for a visually-identical histogram.
        assert!(
            full.distance(&partial) < 0.05,
            "2-plane histogram far from truth: {}",
            full.distance(&partial)
        );
        // One byte is much rougher (the exponent LSB is unknown, so
        // midpoints shift by up to 2.5x) yet still bounded away from
        // disjoint.
        assert!(
            full.distance(&coarse) < 0.8,
            "1-plane distance {}",
            full.distance(&coarse)
        );
        assert!(full.distance(&partial) < full.distance(&coarse));
        // Rendering works and mentions every bin.
        let text = full.render_ascii(40);
        assert_eq!(text.lines().count(), 32);
        std::fs::remove_dir_all(&dir).ok();
    }
}
