//! Golden containers: the exact bytes `compress` emits are pinned.
//!
//! Every store, plan, manifest and hub transcript hashes or stores these
//! bytes, so an encoder change that alters even one of them changes
//! `storage_ratio` and breaks byte-identity with existing archives. The
//! corpus is seeded and generated with integer/IEEE arithmetic only (no
//! transcendental functions), so it is the same on every platform. Each
//! entry pins the FNV-1a 64 digest of the container for one
//! (input kind, size, level).

use mh_compress::{compress, compress_into, decompress, Level, Scratch};

/// SplitMix64: a tiny, fully specified PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1) from the top 24 bits: exact in f32.
    fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Bell-shaped value in [-1, 1): an Irwin–Hall sum of four uniforms.
    fn bell(&mut self) -> f32 {
        (self.unit() + self.unit() + self.unit() + self.unit() - 2.0) / 2.0
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A base weight vector and a fine-tuned copy of it (small perturbation),
/// as f32 bit patterns.
fn weight_pair(rng: &mut Rng, n: usize) -> (Vec<u32>, Vec<u32>) {
    let mut base = Vec::with_capacity(n);
    let mut tuned = Vec::with_capacity(n);
    for _ in 0..n {
        let w = rng.bell() * 0.08;
        let t = w + rng.bell() * 1e-3;
        base.push(w.to_bits());
        tuned.push(t.to_bits());
    }
    (base, tuned)
}

fn byte_plane(words: &[u32], byte: u32) -> Vec<u8> {
    words.iter().map(|&w| (w >> (8 * byte)) as u8).collect()
}

const KINDS: [&str; 10] = [
    "f32_hi", "f32_b2", "f32_lo", "sub_hi", "sub_lo", "xor_hi", "xor_b2", "zero", "noise", "skewed",
];

/// Kinds whose hash chains stay short, so every level is cheap at 1 MB.
/// The structured kinds run deep chains at `Default`/`Best`, which costs
/// tens of seconds per MB in an unoptimised test build; at 1 MB they are
/// pinned at `Fast` only (still the full Huffman and 15-bit-limit paths).
const NOISE_LIKE: [&str; 5] = ["f32_b2", "f32_lo", "sub_lo", "zero", "noise"];

const SIZES: [usize; 6] = [0, 1, 300, 2700, 74_000, 1_000_000];

const LEVELS: [(Level, &str); 3] = [
    (Level::Fast, "fast"),
    (Level::Default, "default"),
    (Level::Best, "best"),
];

/// One corpus input of exactly `n` bytes.
fn input(kind: &str, n: usize) -> Vec<u8> {
    let kind_id = KINDS.iter().position(|&k| k == kind).expect("known kind") as u64;
    let mut rng = Rng::new(0x5EED_0000 ^ (kind_id << 32) ^ n as u64);
    let (base, tuned) = weight_pair(&mut rng, n);
    let sub: Vec<u32> = base
        .iter()
        .zip(&tuned)
        .map(|(&a, &b)| b.wrapping_sub(a))
        .collect();
    let xor: Vec<u32> = base.iter().zip(&tuned).map(|(&a, &b)| a ^ b).collect();
    match kind {
        "f32_hi" => byte_plane(&base, 3),
        "f32_b2" => byte_plane(&base, 2),
        "f32_lo" => byte_plane(&base, 0),
        "sub_hi" => byte_plane(&sub, 3),
        "sub_lo" => byte_plane(&sub, 0),
        "xor_hi" => byte_plane(&xor, 3),
        "xor_b2" => byte_plane(&xor, 2),
        "zero" => vec![0u8; n],
        "noise" => (0..n).map(|_| rng.next_u64() as u8).collect(),
        // P(k) = 2^-(k+1): deep enough at 1 MB to hit the 15-bit limit.
        "skewed" => (0..n)
            .map(|_| rng.next_u64().trailing_zeros() as u8)
            .collect(),
        _ => unreachable!("kind list is closed"),
    }
}

/// (kind, size, level, FNV-1a 64 of the container).
const GOLDEN: &[(&str, usize, &str, u64)] = &[
    ("f32_hi", 0, "fast", 0xc99b9149a74e0504),
    ("f32_hi", 0, "default", 0xc99b9149a74e0504),
    ("f32_hi", 0, "best", 0xc99b9149a74e0504),
    ("f32_hi", 1, "fast", 0xe737613120daeb82),
    ("f32_hi", 1, "default", 0xe737613120daeb82),
    ("f32_hi", 1, "best", 0xe737613120daeb82),
    ("f32_hi", 300, "fast", 0xd2bd9b6de13ce80a),
    ("f32_hi", 300, "default", 0x47a2e71d97aa63cb),
    ("f32_hi", 300, "best", 0x47a2e71d97aa63cb),
    ("f32_hi", 2700, "fast", 0xb14f2c13cb464a48),
    ("f32_hi", 2700, "default", 0x5c3e42bb9792cdbb),
    ("f32_hi", 2700, "best", 0x5c3e42bb9792cdbb),
    ("f32_hi", 74000, "fast", 0xc2cfaa752ab6e435),
    ("f32_hi", 74000, "default", 0x96028081600be9d4),
    ("f32_hi", 74000, "best", 0x32fb5442ed4d96c7),
    ("f32_hi", 1000000, "fast", 0x68d04ad3b1452962),
    ("f32_b2", 0, "fast", 0xc99b9149a74e0504),
    ("f32_b2", 0, "default", 0xc99b9149a74e0504),
    ("f32_b2", 0, "best", 0xc99b9149a74e0504),
    ("f32_b2", 1, "fast", 0x0ac45e6801fbd579),
    ("f32_b2", 1, "default", 0x0ac45e6801fbd579),
    ("f32_b2", 1, "best", 0x0ac45e6801fbd579),
    ("f32_b2", 300, "fast", 0xb4f495e10b282ed6),
    ("f32_b2", 300, "default", 0xb4f495e10b282ed6),
    ("f32_b2", 300, "best", 0xb4f495e10b282ed6),
    ("f32_b2", 2700, "fast", 0xf5079ca447690aff),
    ("f32_b2", 2700, "default", 0xf5079ca447690aff),
    ("f32_b2", 2700, "best", 0xf5079ca447690aff),
    ("f32_b2", 74000, "fast", 0xab31f995bd6dd1a8),
    ("f32_b2", 74000, "default", 0xab31f995bd6dd1a8),
    ("f32_b2", 74000, "best", 0xab31f995bd6dd1a8),
    ("f32_b2", 1000000, "fast", 0x5c1db3a0ddb836ff),
    ("f32_b2", 1000000, "default", 0x5c1db3a0ddb836ff),
    ("f32_b2", 1000000, "best", 0x5c1db3a0ddb836ff),
    ("f32_lo", 0, "fast", 0xc99b9149a74e0504),
    ("f32_lo", 0, "default", 0xc99b9149a74e0504),
    ("f32_lo", 0, "best", 0xc99b9149a74e0504),
    ("f32_lo", 1, "fast", 0x8b7143b70ee91619),
    ("f32_lo", 1, "default", 0x8b7143b70ee91619),
    ("f32_lo", 1, "best", 0x8b7143b70ee91619),
    ("f32_lo", 300, "fast", 0xbfbb5d84c36eec96),
    ("f32_lo", 300, "default", 0xbfbb5d84c36eec96),
    ("f32_lo", 300, "best", 0xbfbb5d84c36eec96),
    ("f32_lo", 2700, "fast", 0x14f6242f819a34c1),
    ("f32_lo", 2700, "default", 0x14f6242f819a34c1),
    ("f32_lo", 2700, "best", 0x14f6242f819a34c1),
    ("f32_lo", 74000, "fast", 0x853542eaa0f56f9e),
    ("f32_lo", 74000, "default", 0x8325054099125cd7),
    ("f32_lo", 74000, "best", 0x8325054099125cd7),
    ("f32_lo", 1000000, "fast", 0x9654143b9182d917),
    ("f32_lo", 1000000, "default", 0x65d634fe87a2fdb7),
    ("f32_lo", 1000000, "best", 0x65d634fe87a2fdb7),
    ("sub_hi", 0, "fast", 0xc99b9149a74e0504),
    ("sub_hi", 0, "default", 0xc99b9149a74e0504),
    ("sub_hi", 0, "best", 0xc99b9149a74e0504),
    ("sub_hi", 1, "fast", 0x157acb49515795ae),
    ("sub_hi", 1, "default", 0x157acb49515795ae),
    ("sub_hi", 1, "best", 0x157acb49515795ae),
    ("sub_hi", 300, "fast", 0x7db230c72bcbeccd),
    ("sub_hi", 300, "default", 0x241b75cca063da89),
    ("sub_hi", 300, "best", 0x241b75cca063da89),
    ("sub_hi", 2700, "fast", 0x2a4d3969c0f960c5),
    ("sub_hi", 2700, "default", 0x21ed9be26c18b942),
    ("sub_hi", 2700, "best", 0x6b0d83140506e833),
    ("sub_hi", 74000, "fast", 0x154eac8b89eef2a1),
    ("sub_hi", 74000, "default", 0x3c4a4ea0cf26c902),
    ("sub_hi", 74000, "best", 0xa65138edc6e6ebb9),
    ("sub_hi", 1000000, "fast", 0x56e27a9703f7e820),
    ("sub_lo", 0, "fast", 0xc99b9149a74e0504),
    ("sub_lo", 0, "default", 0xc99b9149a74e0504),
    ("sub_lo", 0, "best", 0xc99b9149a74e0504),
    ("sub_lo", 1, "fast", 0x0db894f095ba3500),
    ("sub_lo", 1, "default", 0x0db894f095ba3500),
    ("sub_lo", 1, "best", 0x0db894f095ba3500),
    ("sub_lo", 300, "fast", 0x1da70103aa74b20c),
    ("sub_lo", 300, "default", 0x1da70103aa74b20c),
    ("sub_lo", 300, "best", 0x1da70103aa74b20c),
    ("sub_lo", 2700, "fast", 0xc3efa9fd79077e15),
    ("sub_lo", 2700, "default", 0xc3efa9fd79077e15),
    ("sub_lo", 2700, "best", 0xc3efa9fd79077e15),
    ("sub_lo", 74000, "fast", 0x4c2b6a6d4e1d5b67),
    ("sub_lo", 74000, "default", 0x4c2b6a6d4e1d5b67),
    ("sub_lo", 74000, "best", 0x4c2b6a6d4e1d5b67),
    ("sub_lo", 1000000, "fast", 0xcdc4c94b27e7ddaa),
    ("sub_lo", 1000000, "default", 0xcdc4c94b27e7ddaa),
    ("sub_lo", 1000000, "best", 0xcdc4c94b27e7ddaa),
    ("xor_hi", 0, "fast", 0xc99b9149a74e0504),
    ("xor_hi", 0, "default", 0xc99b9149a74e0504),
    ("xor_hi", 0, "best", 0xc99b9149a74e0504),
    ("xor_hi", 1, "fast", 0x157acb49515795ae),
    ("xor_hi", 1, "default", 0x157acb49515795ae),
    ("xor_hi", 1, "best", 0x157acb49515795ae),
    ("xor_hi", 300, "fast", 0xa47dbe548fab031a),
    ("xor_hi", 300, "default", 0xa47dbe548fab031a),
    ("xor_hi", 300, "best", 0xa47dbe548fab031a),
    ("xor_hi", 2700, "fast", 0x18394b247d078f85),
    ("xor_hi", 2700, "default", 0x18394b247d078f85),
    ("xor_hi", 2700, "best", 0xa52d8ec4e704aa66),
    ("xor_hi", 74000, "fast", 0xc978515b2becdf6e),
    ("xor_hi", 74000, "default", 0x5dc55a4fa979a30d),
    ("xor_hi", 74000, "best", 0x404f04da40736680),
    ("xor_hi", 1000000, "fast", 0x784f3d494a0c32e2),
    ("xor_b2", 0, "fast", 0xc99b9149a74e0504),
    ("xor_b2", 0, "default", 0xc99b9149a74e0504),
    ("xor_b2", 0, "best", 0xc99b9149a74e0504),
    ("xor_b2", 1, "fast", 0x22e4cd66d4685863),
    ("xor_b2", 1, "default", 0x22e4cd66d4685863),
    ("xor_b2", 1, "best", 0x22e4cd66d4685863),
    ("xor_b2", 300, "fast", 0xe2bfa369f895f042),
    ("xor_b2", 300, "default", 0xe2bfa369f895f042),
    ("xor_b2", 300, "best", 0xe2bfa369f895f042),
    ("xor_b2", 2700, "fast", 0x9df76a1fb9a42934),
    ("xor_b2", 2700, "default", 0xca01745371249fbf),
    ("xor_b2", 2700, "best", 0xca01745371249fbf),
    ("xor_b2", 74000, "fast", 0x519e0bbc4631fdda),
    ("xor_b2", 74000, "default", 0x32f01b17dd23434a),
    ("xor_b2", 74000, "best", 0x8a071b933f5f27f6),
    ("xor_b2", 1000000, "fast", 0xbedb3802d4c0a2d8),
    ("zero", 0, "fast", 0xc99b9149a74e0504),
    ("zero", 0, "default", 0xc99b9149a74e0504),
    ("zero", 0, "best", 0xc99b9149a74e0504),
    ("zero", 1, "fast", 0x157acb49515795ae),
    ("zero", 1, "default", 0x157acb49515795ae),
    ("zero", 1, "best", 0x157acb49515795ae),
    ("zero", 300, "fast", 0x18f267ca18cad5c0),
    ("zero", 300, "default", 0x18f267ca18cad5c0),
    ("zero", 300, "best", 0x18f267ca18cad5c0),
    ("zero", 2700, "fast", 0xc03d88bdc1f2621a),
    ("zero", 2700, "default", 0xc03d88bdc1f2621a),
    ("zero", 2700, "best", 0xc03d88bdc1f2621a),
    ("zero", 74000, "fast", 0x6c16e8277f3b1685),
    ("zero", 74000, "default", 0x6c16e8277f3b1685),
    ("zero", 74000, "best", 0x6c16e8277f3b1685),
    ("zero", 1000000, "fast", 0x35d74eadbd7ec729),
    ("zero", 1000000, "default", 0x35d74eadbd7ec729),
    ("zero", 1000000, "best", 0x35d74eadbd7ec729),
    ("noise", 0, "fast", 0xc99b9149a74e0504),
    ("noise", 0, "default", 0xc99b9149a74e0504),
    ("noise", 0, "best", 0xc99b9149a74e0504),
    ("noise", 1, "fast", 0x64f3cf81f85c80e0),
    ("noise", 1, "default", 0x64f3cf81f85c80e0),
    ("noise", 1, "best", 0x64f3cf81f85c80e0),
    ("noise", 300, "fast", 0xd538d04d4091384d),
    ("noise", 300, "default", 0xd538d04d4091384d),
    ("noise", 300, "best", 0xd538d04d4091384d),
    ("noise", 2700, "fast", 0x6f678af5815b7b04),
    ("noise", 2700, "default", 0x6f678af5815b7b04),
    ("noise", 2700, "best", 0x6f678af5815b7b04),
    ("noise", 74000, "fast", 0xe91bc172a7937db3),
    ("noise", 74000, "default", 0xe91bc172a7937db3),
    ("noise", 74000, "best", 0xe91bc172a7937db3),
    ("noise", 1000000, "fast", 0xdef255bf7568db45),
    ("noise", 1000000, "default", 0xdef255bf7568db45),
    ("noise", 1000000, "best", 0xdef255bf7568db45),
    ("skewed", 0, "fast", 0xc99b9149a74e0504),
    ("skewed", 0, "default", 0xc99b9149a74e0504),
    ("skewed", 0, "best", 0xc99b9149a74e0504),
    ("skewed", 1, "fast", 0x096a93c9e8215439),
    ("skewed", 1, "default", 0x096a93c9e8215439),
    ("skewed", 1, "best", 0x096a93c9e8215439),
    ("skewed", 300, "fast", 0x89465c974c558a34),
    ("skewed", 300, "default", 0xeb24987c300c331e),
    ("skewed", 300, "best", 0xeb24987c300c331e),
    ("skewed", 2700, "fast", 0x510a02da76347d8b),
    ("skewed", 2700, "default", 0xc0ccbddbf6d79f4c),
    ("skewed", 2700, "best", 0x908e6a549484a639),
    ("skewed", 74000, "fast", 0x37c807fee4c89491),
    ("skewed", 74000, "default", 0x7cd5478bdba58fee),
    ("skewed", 74000, "best", 0xb3192533e90d4953),
    ("skewed", 1000000, "fast", 0xb0fe1bb449323692),
];

#[test]
fn containers_are_byte_identical_to_the_pinned_digests() {
    // One scratch for the whole corpus, as an archival worker reuses it;
    // small inputs are also checked against a fresh one.
    let mut scratch = Scratch::new();
    let mut c = Vec::new();
    let mut got = Vec::new();
    for kind in KINDS {
        for n in SIZES {
            let data = input(kind, n);
            assert_eq!(data.len(), n);
            for (level, name) in LEVELS {
                if n == 1_000_000 && level != Level::Fast && !NOISE_LIKE.contains(&kind) {
                    continue;
                }
                compress_into(&data, level, &mut scratch, &mut c);
                if n <= 2700 {
                    assert_eq!(compress(&data, level), c, "fresh scratch {kind}/{n}/{name}");
                }
                assert_eq!(
                    decompress(&c).expect("roundtrip"),
                    data,
                    "{kind}/{n}/{name}"
                );
                got.push((kind, n, name, fnv1a64(&c)));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(k, n, l, d)| format!("    (\"{k}\", {n}, \"{l}\", {d:#018x}),\n"))
        .collect();
    let want: Vec<_> = GOLDEN.to_vec();
    assert_eq!(
        got, want,
        "container digests moved; observed table:\n{table}"
    );
}
