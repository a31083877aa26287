//! LZ77 tokenization with a hash-chain match finder.
//!
//! Produces a stream of literals and (length, distance) matches using the
//! DEFLATE parameters: a 32 KiB window, match lengths 3..=258. Higher
//! compression levels enable lazy matching and longer hash chains.

/// Sliding-window size in bytes.
pub const WINDOW_SIZE: usize = 32 * 1024;
/// Minimum encodable match length.
pub const MIN_MATCH: usize = 3;
/// Maximum encodable match length.
pub const MAX_MATCH: usize = 258;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    Literal(u8),
    /// A back-reference: copy `len` bytes starting `dist` bytes back.
    Match {
        len: u16,
        dist: u16,
    },
}

/// Effort knobs derived from the compression level.
#[derive(Debug, Clone, Copy)]
pub struct MatcherConfig {
    /// Maximum hash-chain positions examined per match attempt.
    pub max_chain: usize,
    /// Stop searching once a match at least this long is found.
    pub good_enough: usize,
    /// Defer emitting a match by one byte if the next position matches longer.
    pub lazy: bool,
}

impl MatcherConfig {
    pub fn fast() -> Self {
        Self {
            max_chain: 8,
            good_enough: 32,
            lazy: false,
        }
    }
    pub fn default_level() -> Self {
        Self {
            max_chain: 64,
            good_enough: 128,
            lazy: true,
        }
    }
    pub fn best() -> Self {
        Self {
            max_chain: 1024,
            good_enough: MAX_MATCH,
            lazy: true,
        }
    }
}

#[inline]
fn hash3(data: &[u8], pos: usize) -> usize {
    let v =
        u32::from(data[pos]) | (u32::from(data[pos + 1]) << 8) | (u32::from(data[pos + 2]) << 16);
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

/// Longest common prefix of `data[a..]` and `data[b..]`, capped at
/// MAX_MATCH. `a < b` always holds (candidates sit earlier in the
/// window), so every read below ends at or before `b + max <= data.len()`.
///
/// The hottest loop in archival: every hash-chain candidate funnels
/// through here. It compares 8 bytes at a time as one `u64` XOR (the
/// first differing byte is the lowest set bit of a little-endian word),
/// then bytewise; `match_len_tests` pins it to a byte-by-byte reference.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize) -> usize {
    let max = (data.len() - b).min(MAX_MATCH);
    let mut l = 0;
    while l + 8 <= max {
        let x = u64::from_le_bytes(data[a + l..a + l + 8].try_into().expect("fixed-size chunk"));
        let y = u64::from_le_bytes(data[b + l..b + l + 8].try_into().expect("fixed-size chunk"));
        let xor = x ^ y;
        if xor != 0 {
            return l + (xor.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// Reusable hash-chain buffers so repeated tokenizations (e.g. one per
/// byte plane during archival) neither reallocate nor clear the
/// `head`/`prev` tables.
///
/// Both tables hold position stamps: position `pos` of a call is stored
/// as `base + pos`, and each call's `base` lies above every stamp an
/// earlier call stored, so a stamp below `base` reads as "no position",
/// which is what a cleared table would say. `prev` is a ring over the
/// window: a chain only follows candidates at most `WINDOW_SIZE` back,
/// and none of those slots has been reused yet.
#[derive(Debug, Default)]
pub struct MatcherScratch {
    /// Hash bucket -> stamp of the latest position with that hash.
    head: Vec<u32>,
    /// `pos % WINDOW_SIZE` -> stamp of the previous position in `pos`'s
    /// chain.
    prev: Vec<u32>,
    /// Stamp of position 0 in the next call; every stored stamp is below it.
    next_base: u32,
}

impl MatcherScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a call over `len` bytes and return its `base`. The tables are
    /// cleared only on first use and when stamps would overflow `u32`.
    fn reset(&mut self, len: usize) -> u32 {
        let len = u32::try_from(len).unwrap_or(u32::MAX);
        if self.head.is_empty() || self.next_base.checked_add(len).is_none() {
            self.head = vec![0; HASH_SIZE];
            self.prev = vec![0; WINDOW_SIZE];
            self.next_base = 1;
        }
        let base = self.next_base;
        // Saturates only for inputs of 4 GiB and more; their positions
        // past the saturation point share one stamp, which can only cost
        // matches, never yield a candidate at or after the current position.
        self.next_base = base.saturating_add(len);
        base
    }
}

/// Hash-chain match finder over the whole input buffer.
struct Matcher<'a, 's> {
    data: &'a [u8],
    head: &'s mut [u32],
    prev: &'s mut [u32],
    base: u32,
    cfg: MatcherConfig,
}

impl<'a, 's> Matcher<'a, 's> {
    fn new(data: &'a [u8], cfg: MatcherConfig, scratch: &'s mut MatcherScratch) -> Self {
        let base = scratch.reset(data.len());
        Self {
            data,
            head: &mut scratch.head,
            prev: &mut scratch.prev,
            base,
            cfg,
        }
    }

    /// Insert position `pos` into the hash chains (requires pos+2 < len).
    #[inline]
    fn insert(&mut self, pos: usize) {
        if pos + MIN_MATCH > self.data.len() {
            return;
        }
        let h = hash3(self.data, pos);
        let stamp = u32::try_from(pos).map_or(u32::MAX, |p| self.base.saturating_add(p));
        self.prev[pos % WINDOW_SIZE] = self.head[h];
        self.head[h] = stamp;
    }

    /// Best match at `pos` looking back through the chain, or None.
    fn find(&self, pos: usize) -> Option<(usize, usize)> {
        if pos + MIN_MATCH > self.data.len() {
            return None;
        }
        let h = hash3(self.data, pos);
        let mut stamp = self.head[h];
        let min_pos = pos.saturating_sub(WINDOW_SIZE);
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut chain = self.cfg.max_chain;
        while stamp >= self.base && chain > 0 {
            let c = (stamp - self.base) as usize;
            if c < min_pos {
                break;
            }
            debug_assert!(c < pos);
            let l = match_len(self.data, c, pos);
            if l > best_len {
                best_len = l;
                best_dist = pos - c;
                if l >= self.cfg.good_enough {
                    break;
                }
            }
            stamp = self.prev[c % WINDOW_SIZE];
            chain -= 1;
        }
        if best_len >= MIN_MATCH {
            Some((best_len, best_dist))
        } else {
            None
        }
    }
}

/// Tokenize `data` into an LZ77 token stream.
pub fn tokenize(data: &[u8], cfg: MatcherConfig) -> Vec<Token> {
    let mut scratch = MatcherScratch::new();
    let mut out = Vec::new();
    tokenize_into(data, cfg, &mut scratch, &mut out);
    out
}

/// [`tokenize`] writing into a reusable token buffer with reusable
/// hash-chain state. `out` is cleared first.
pub fn tokenize_into(
    data: &[u8],
    cfg: MatcherConfig,
    scratch: &mut MatcherScratch,
    out: &mut Vec<Token>,
) {
    out.clear();
    out.reserve(data.len() / 2 + 16);
    let mut m = Matcher::new(data, cfg, scratch);
    let mut pos = 0usize;
    while pos < data.len() {
        let found = m.find(pos);
        match found {
            None => {
                out.push(Token::Literal(data[pos]));
                m.insert(pos);
                pos += 1;
            }
            Some((mut len, mut dist)) => {
                // Lazy matching: peek one byte ahead; if strictly longer,
                // emit a literal now and take the later match. Track which
                // positions already entered the dictionary so no position is
                // inserted twice (a double insert creates a hash-chain
                // self-loop).
                let mut insert_from = pos;
                if cfg.lazy && len < cfg.good_enough && pos + 1 < data.len() {
                    m.insert(pos);
                    insert_from = pos + 1;
                    if let Some((l2, d2)) = m.find(pos + 1) {
                        if l2 > len {
                            out.push(Token::Literal(data[pos]));
                            pos += 1;
                            len = l2;
                            dist = d2;
                        }
                    }
                }
                out.push(Token::Match {
                    len: len as u16,
                    dist: dist as u16,
                });
                // Positions inside the match still feed the dictionary.
                let end = (pos + len).min(data.len());
                for p in insert_from..end {
                    m.insert(p);
                }
                pos = end;
            }
        }
    }
}

/// Reconstruct the original bytes from a token stream.
pub fn detokenize(tokens: &[Token], size_hint: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(size_hint);
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let dist = dist as usize;
                let start = out.len() - dist;
                // Overlapping copies are the point of LZ77; copy bytewise.
                for i in 0..len as usize {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], cfg: MatcherConfig) {
        let toks = tokenize(data, cfg);
        let back = detokenize(&toks, data.len());
        assert_eq!(back, data);
    }

    #[test]
    fn empty_and_tiny() {
        for cfg in [
            MatcherConfig::fast(),
            MatcherConfig::default_level(),
            MatcherConfig::best(),
        ] {
            roundtrip(b"", cfg);
            roundtrip(b"a", cfg);
            roundtrip(b"ab", cfg);
            roundtrip(b"abc", cfg);
        }
    }

    #[test]
    fn repetitive_input_uses_matches() {
        let data: Vec<u8> = b"abcabcabcabcabcabcabcabc".to_vec();
        let toks = tokenize(&data, MatcherConfig::default_level());
        assert!(toks.iter().any(|t| matches!(t, Token::Match { .. })));
        assert_eq!(detokenize(&toks, data.len()), data);
    }

    #[test]
    fn overlapping_match_run() {
        let data = vec![7u8; 1000];
        let toks = tokenize(&data, MatcherConfig::best());
        assert!(
            toks.len() < 30,
            "run of equal bytes should compress to few tokens, got {}",
            toks.len()
        );
        assert_eq!(detokenize(&toks, data.len()), data);
    }

    #[test]
    fn pseudo_random_roundtrip() {
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xff) as u8
            })
            .collect();
        for cfg in [
            MatcherConfig::fast(),
            MatcherConfig::default_level(),
            MatcherConfig::best(),
        ] {
            roundtrip(&data, cfg);
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_across_stamp_overflow() {
        let a: Vec<u8> = b"abcdefgh".iter().cycle().take(5000).copied().collect();
        let b: Vec<u8> = (0..5000u32).map(|i| (i * 7 % 13) as u8).collect();
        let cfg = MatcherConfig::default_level();
        let mut scratch = MatcherScratch::new();
        let mut out = Vec::new();
        tokenize_into(&a, cfg, &mut scratch, &mut out);
        // The next call cannot stamp 5000 positions without overflow, so it
        // clears the tables; the one after runs on the fresh stamps.
        scratch.next_base = u32::MAX - 100;
        for data in [&b, &a] {
            tokenize_into(data, cfg, &mut scratch, &mut out);
            assert_eq!(out, tokenize(data, cfg));
        }
        assert_eq!(scratch.next_base, 1 + 10_000);
    }

    #[test]
    fn long_distance_within_window() {
        let mut data = vec![0u8; 0];
        data.extend_from_slice(b"the quick brown fox jumps over the lazy dog");
        data.extend(std::iter::repeat_n(b'x', 20_000));
        data.extend_from_slice(b"the quick brown fox jumps over the lazy dog");
        roundtrip(&data, MatcherConfig::best());
    }
}

#[cfg(test)]
mod match_len_tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// `match_len` against a byte-by-byte compare on one (data, a, b).
    fn assert_match_len_agrees(data: &[u8], a: usize, b: usize) {
        let max = (data.len() - b).min(MAX_MATCH);
        let want = (0..max)
            .find(|&l| data[a + l] != data[b + l])
            .unwrap_or(max);
        assert_eq!(match_len(data, a, b), want, "a={a} b={b}");
    }

    #[test]
    fn mismatch_at_every_lane_boundary() {
        // A long equal run with a single planted mismatch at offsets
        // straddling the 8-byte compare width, plus the fully equal
        // capped-at-MAX_MATCH case.
        for planted in [
            0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 257, 258, 300,
        ] {
            let mut data = vec![0xABu8; 700];
            let b = 350usize;
            if b + planted < data.len() {
                data[b + planted] ^= 0x01;
            }
            assert_match_len_agrees(&data, 0, b);
        }
    }

    proptest! {
        #[test]
        fn match_len_agrees_with_a_bytewise_compare(
            data in vec(0u8..4, 2..400),
            split in any::<u16>(),
        ) {
            // Low-entropy bytes make long common prefixes likely; try
            // every candidate position against a pseudo-random anchor.
            let b = 1 + (split as usize) % (data.len() - 1);
            for a in 0..b {
                assert_match_len_agrees(&data, a, b);
            }
        }
    }
}
