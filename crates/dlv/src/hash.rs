//! SHA-256, implemented from scratch for content-addressing associated
//! files and weight blobs (the role git's object hashing plays in the
//! paper's prototype).
//!
//! Every 64-byte block goes through one private entry point,
//! `compress_blocks`, which picks a block function once per process:
//! on x86_64 hosts with the SHA extensions (and SSE4.1) it runs the
//! `SHA256RNDS2` / `SHA256MSG1` / `SHA256MSG2` instructions, keeping
//! the state in registers across every block of one `update`; anywhere
//! else it loops the portable `compress`. The contract is the same
//! digest on every tier. The portable function is also the test oracle:
//! the tests below pin dispatched ≡ portable on random states, block
//! counts, lengths and chunkings, and check NIST vectors on both tiers,
//! so a SHA-NI host still runs the portable path. On a 2-thread x86_64
//! host the hardware tier hashes about 10× faster (`dlv.sha256_mb_s`
//! 136 → 1403 MB/s), and publish and pull, which hash every object
//! several times, gain with it.
//!
//! `sha256_bytes_total` counts the bytes fed to [`Sha256::update`], so a
//! test can hold the hub's hashed bytes per repository byte in check.

use std::sync::atomic::{AtomicU8, Ordering};

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256: feed data with [`Sha256::update`], close with
/// [`Sha256::finalize`]. The hub wire protocol uses this to checksum whole
/// object transfers without buffering them.
#[derive(Debug, Clone)]
pub struct Sha256 {
    h: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    pub fn new() -> Self {
        Self {
            h: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total: 0,
        }
    }

    // mh-audit: trusted(fixed 64-byte block buffering; take <= 64 - buf_len and whole = len - len % 64 make every slice in range)
    pub fn update(&mut self, mut data: &[u8]) {
        mh_obs::counter!("sha256_bytes_total").add(data.len() as u64);
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress_blocks(&mut self.h, &block);
                self.buf_len = 0;
            }
            if data.is_empty() {
                // Everything fit in the (possibly still partial) buffer;
                // falling through would clobber buf_len with an empty
                // remainder.
                return;
            }
        }
        let whole = data.len() - data.len() % 64;
        compress_blocks(&mut self.h, &data[..whole]);
        let rem = &data[whole..];
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    // mh-audit: trusted(padding tail is a fixed 128-byte array; buf_len < 64 is a struct invariant)
    pub fn finalize(mut self) -> [u8; 32] {
        let bitlen = self.total.wrapping_mul(8);
        let mut tail = [0u8; 128];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let tail_len = if self.buf_len < 56 { 64 } else { 128 };
        tail[tail_len - 8..tail_len].copy_from_slice(&bitlen.to_be_bytes());
        compress_blocks(&mut self.h, &tail[..tail_len]);
        let mut out = [0u8; 32];
        for (i, word) in self.h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The digest as 64 lowercase hex digits.
    // mh-audit: trusted(table lookups index a 16-entry table with a nibble)
    pub fn finalize_hex(self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for b in self.finalize() {
            s.push(char::from(HEX[usize::from(b >> 4)]));
            s.push(char::from(HEX[usize::from(b & 0x0f)]));
        }
        s
    }
}

/// Compute the SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hex string of the digest.
pub fn sha256_hex(data: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize_hex()
}

const LEVEL_UNKNOWN: u8 = 0;
const LEVEL_PORTABLE: u8 = 1;
#[cfg(target_arch = "x86_64")]
const LEVEL_SHA_NI: u8 = 2;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNKNOWN);

fn level() -> u8 {
    let l = LEVEL.load(Ordering::Relaxed);
    if l != LEVEL_UNKNOWN {
        return l;
    }
    #[cfg(target_arch = "x86_64")]
    let detected = if std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        LEVEL_SHA_NI
    } else {
        LEVEL_PORTABLE
    };
    #[cfg(not(target_arch = "x86_64"))]
    let detected = LEVEL_PORTABLE;
    LEVEL.store(detected, Ordering::Relaxed);
    detected
}

/// Run the compression function over each 64-byte block of `blocks`
/// (a whole number of blocks) on the fastest tier the CPU offers.
fn compress_blocks(h: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SHA and SSE4.1 presence established by runtime detection.
        LEVEL_SHA_NI => unsafe { shani::compress_blocks(h, blocks) },
        _ => compress_blocks_portable(h, blocks),
    }
}

// mh-audit: trusted(chunks_exact(64) yields 64-byte slices only)
fn compress_blocks_portable(h: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        compress(h, block.try_into().expect("fixed-size chunk"));
    }
}

// mh-audit: trusted(SHA-256 compression over fixed [u8; 64] / [u32; 64] arrays; all indices are literal-bounded loop counters)
fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, c) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(c.try_into().expect("fixed-size chunk"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
    h[5] = h[5].wrapping_add(f);
    h[6] = h[6].wrapping_add(g);
    h[7] = h[7].wrapping_add(hh);
}

/// The SHA extensions' block function. `SHA256RNDS2` does two rounds on
/// the state split as `ABEF` / `CDGH` (high lane first), so the state is
/// repacked on entry and exit, not per block.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support SHA, SSE2, SSSE3 and SSE4.1.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    // mh-audit: trusted(SHA-NI rounds: every unaligned load or store reads 16 bytes inside the 32-byte state, a 64-byte chunks_exact block or a 4-word chunk of K)
    pub(super) unsafe fn compress_blocks(h: &mut [u32; 8], blocks: &[u8]) {
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let state = h.as_mut_ptr().cast::<__m128i>();
        // SAFETY: `h` is 32 bytes, two unaligned 16-byte loads.
        let (dcba, hgfe) = unsafe { (_mm_loadu_si128(state), _mm_loadu_si128(state.add(1))) };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        for block in blocks.chunks_exact(64) {
            let (abef0, cdgh0) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            // SAFETY: four unaligned 16-byte loads inside a 64-byte block.
            let mut w = unsafe {
                [
                    _mm_shuffle_epi8(_mm_loadu_si128(p), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap),
                ]
            };
            // Round group i consumes w[0] = W[4i..4i+4]; while later groups
            // remain, the schedule derives W[4i+16..4i+20] from the window.
            for (i, k) in K.chunks_exact(4).enumerate() {
                // SAFETY: `k` is 4 words of K, one unaligned 16-byte load.
                let wk = _mm_add_epi32(w[0], unsafe { _mm_loadu_si128(k.as_ptr().cast()) });
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                if i < 12 {
                    let t = _mm_add_epi32(
                        _mm_sha256msg1_epu32(w[0], w[1]),
                        _mm_alignr_epi8(w[3], w[2], 4),
                    );
                    w = [w[1], w[2], w[3], _mm_sha256msg2_epu32(t, w[3])];
                } else {
                    w = [w[1], w[2], w[3], w[3]];
                }
            }
            abef = _mm_add_epi32(abef, abef0);
            cdgh = _mm_add_epi32(cdgh, cdgh0);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        // SAFETY: the same 32 bytes of `h` as the loads above.
        unsafe {
            _mm_storeu_si128(state, _mm_blend_epi16(feba, dchg, 0xf0));
            _mm_storeu_si128(state.add(1), _mm_alignr_epi8(dchg, feba, 8));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// One-shot SHA-256 that pads by hand and runs only the portable
    /// `compress`: the oracle the dispatched incremental hasher is
    /// checked against.
    fn portable_sha256(data: &[u8]) -> [u8; 32] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut h = H0;
        for block in msg.chunks_exact(64) {
            compress(&mut h, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(4).zip(h) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    fn hex(d: &[u8; 32]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// NIST vectors, checked on the dispatched path and the portable one.
    #[test]
    fn known_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let cases: [(&[u8], &str); 5] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            // 448 bits: the padding spills into a second block.
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            // 896 bits: two message blocks.
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (msg, want) in cases {
            assert_eq!(sha256_hex(msg), want, "dispatched, {} bytes", msg.len());
            assert_eq!(
                hex(&portable_sha256(msg)),
                want,
                "portable, {} bytes",
                msg.len()
            );
        }
    }

    #[test]
    fn padding_boundaries() {
        // Lengths that straddle the 56-byte padding cutoff and block size.
        for n in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0x61u8; n];
            assert_eq!(sha256(&data), portable_sha256(&data), "n={n}");
        }
        // Cross-check one boundary value against a known digest
        // ("a" * 64).
        assert_eq!(
            sha256_hex(&[b'a'; 64]),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
    }

    #[test]
    fn different_inputs_different_digests() {
        assert_ne!(sha256(b"model-v1"), sha256(b"model-v2"));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u32..1000).map(|i| (i * 7 + 3) as u8).collect();
        // Feed in awkward chunk sizes that straddle block boundaries.
        for chunk in [1usize, 7, 63, 64, 65, 200] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk={chunk}");
        }
        assert_eq!(Sha256::new().finalize(), sha256(b""));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The dispatched block function and the fallback both equal a
        /// loop of the portable one from any state, not only `H0`.
        #[test]
        fn compress_blocks_matches_portable(
            state in vec(any::<u32>(), 8),
            data in vec(any::<u8>(), 0..64 * 64 + 1),
        ) {
            let whole = data.len() - data.len() % 64;
            let blocks = &data[..whole];
            let mut want: [u32; 8] = state.as_slice().try_into().unwrap();
            let mut got = want;
            let mut fallback = want;
            for block in blocks.chunks_exact(64) {
                compress(&mut want, block.try_into().unwrap());
            }
            compress_blocks(&mut got, blocks);
            compress_blocks_portable(&mut fallback, blocks);
            prop_assert_eq!(got, want);
            prop_assert_eq!(fallback, want);
        }

        /// Incremental hashing over random chunkings equals the portable
        /// one-shot reference.
        #[test]
        fn incremental_matches_portable_reference(
            data in vec(any::<u8>(), 0..2000),
            cuts in vec(0usize..2000, 0..12),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut at = 0;
            for c in cuts.into_iter().chain([data.len()]) {
                h.update(&data[at..c]);
                at = c;
            }
            prop_assert_eq!(h.finalize(), portable_sha256(&data));
        }
    }
}
