//! Canonical, length-limited Huffman coding.
//!
//! Code lengths are produced with the package-merge algorithm, which yields
//! optimal prefix codes under a maximum-length constraint (we use 15 bits,
//! the DEFLATE limit), in O(15 * m) time for m used symbols. Codes are then
//! assigned canonically so the decoder only needs the length table, and the
//! decoder's lookup table is only as wide as the longest code present.

use crate::bitio::{BitReader, BitWriter};
use crate::CompressError;

/// Maximum code length in bits.
pub const MAX_BITS: u32 = 15;

/// Package-merge over positive weights sorted ascending; returns one code
/// length per weight.
///
/// Level `t` of the merge is the singletons merged with the pairs of
/// consecutive entries of level `t - 1` (a singleton goes first on a weight
/// tie). Each level is kept only as one flag per entry, "singleton" or
/// "pair", so a level costs O(m) and the whole merge O(`max_bits` * m).
/// The cheapest 2m - 2 entries of the top level are the selection: each
/// singleton in a level's selected prefix adds one bit to its symbol, and
/// the p pairs in it select the first 2p entries of the level below.
/// Singletons enter every level in weight order, so the selected
/// singletons of a level are always the first ones.
fn code_lengths(weights: &[u64], max_bits: u32) -> Vec<u8> {
    let m = weights.len();
    if m <= 1 {
        return vec![1; m];
    }
    debug_assert!((1usize << max_bits) >= m, "max_bits too small for alphabet");
    debug_assert!(weights.windows(2).all(|w| w[0] <= w[1]) && weights[0] > 0);

    let levels = max_bits as usize;
    // `is_pair[bounds[t]..bounds[t + 1]]` is level t, cheapest first.
    let mut is_pair: Vec<bool> = Vec::with_capacity(levels * 2 * m);
    let mut bounds: Vec<usize> = Vec::with_capacity(levels + 1);
    let mut prev: Vec<u64> = Vec::with_capacity(2 * m);
    let mut cur: Vec<u64> = Vec::with_capacity(2 * m);
    for _level in 0..levels {
        bounds.push(is_pair.len());
        let pairs = prev.len() / 2;
        let (mut i, mut j) = (0, 0);
        while i < m || j < pairs {
            match (j < pairs).then(|| prev[2 * j] + prev[2 * j + 1]) {
                Some(w) if i >= m || w < weights[i] => {
                    cur.push(w);
                    is_pair.push(true);
                    j += 1;
                }
                _ => {
                    cur.push(weights[i]);
                    is_pair.push(false);
                    i += 1;
                }
            }
        }
        std::mem::swap(&mut prev, &mut cur);
        cur.clear();
    }
    bounds.push(is_pair.len());

    let mut lengths = vec![0u8; m];
    let mut take = 2 * m - 2;
    for t in (0..levels).rev() {
        let level = &is_pair[bounds[t]..bounds[t + 1]];
        let selected = &level[..take.min(level.len())];
        let pairs = selected.iter().filter(|&&p| p).count();
        for l in &mut lengths[..selected.len() - pairs] {
            *l += 1;
        }
        take = 2 * pairs;
    }
    debug_assert!(lengths.iter().all(|&l| l >= 1 && u32::from(l) <= max_bits));
    lengths
}

/// Compute optimal length-limited code lengths for symbol frequencies.
///
/// Symbols with zero frequency get length 0 (absent from the code). If only
/// one symbol occurs it is assigned length 1 so the decoder stays a prefix
/// code.
pub fn sorted_code_lengths(freqs: &[u64], max_bits: u32) -> Vec<u8> {
    // Package-merge requires singletons sorted by weight, so sort here and
    // un-permute at the end.
    let n = freqs.len();
    let mut order: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    order.sort_by_key(|&i| freqs[i]);
    let sorted: Vec<u64> = order.iter().map(|&i| freqs[i]).collect();
    let lens = code_lengths(&sorted, max_bits);
    let mut out = vec![0u8; n];
    for (j, &sym) in order.iter().enumerate() {
        out[sym] = lens[j];
    }
    out
}

/// Canonical encoder: symbol -> (code bits, length).
#[derive(Debug, Clone)]
pub struct Encoder {
    codes: Vec<u16>,
    lengths: Vec<u8>,
}

impl Encoder {
    /// Build from a code-length table (canonical assignment: shorter codes
    /// first, ties broken by symbol order; codes are emitted LSB-first so we
    /// store them bit-reversed).
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, CompressError> {
        // Lengths arrive from attacker-controlled containers on the decode
        // path, so every table access below is `get`-based: the length
        // bound check and the array access are one operation.
        let mut bl_count = [0u32; (MAX_BITS + 1) as usize];
        for &l in lengths {
            match bl_count.get_mut(l as usize) {
                Some(c) => *c += 1,
                None => return Err(CompressError::Corrupt("code length exceeds limit")),
            }
        }
        if let Some(c0) = bl_count.get_mut(0) {
            *c0 = 0;
        }
        let mut next_code = [0u32; (MAX_BITS + 2) as usize];
        let mut code = 0u32;
        for bits in 1..=MAX_BITS as usize {
            code = (code + bl_count.get(bits - 1).copied().unwrap_or(0)) << 1;
            if let Some(nc) = next_code.get_mut(bits) {
                *nc = code;
            }
        }
        let mut codes = vec![0u16; lengths.len()];
        for (sym, &l) in lengths.iter().enumerate() {
            if l == 0 {
                continue;
            }
            // l <= MAX_BITS is established by the bl_count pass above.
            let c = match next_code.get_mut(l as usize) {
                Some(nc) => {
                    let c = *nc;
                    *nc += 1;
                    c
                }
                None => return Err(CompressError::Corrupt("code length exceeds limit")),
            };
            if c >= (1 << l) {
                return Err(CompressError::Corrupt("over-subscribed code"));
            }
            // Reverse the l-bit code for LSB-first emission.
            let mut rev = 0u32;
            for b in 0..l {
                if c & (1 << b) != 0 {
                    rev |= 1 << (l - 1 - b);
                }
            }
            if let Some(slot) = codes.get_mut(sym) {
                *slot = rev as u16;
            }
        }
        Ok(Self {
            codes,
            lengths: lengths.to_vec(),
        })
    }

    #[inline]
    pub fn write(&self, w: &mut BitWriter, sym: usize) {
        let l = self.lengths[sym];
        debug_assert!(l > 0, "writing symbol with zero length: {sym}");
        w.write_bits(u64::from(self.codes[sym]), u32::from(l));
    }
}

/// Table-driven canonical decoder.
///
/// A single-level lookup table indexed by the next `bits` input bits,
/// where `bits` is the longest code length present (at most `MAX_BITS`).
/// A symbol of length `l <= bits` fills every entry whose low `l` bits are
/// its code, so the table answers exactly as a full `MAX_BITS` table would
/// while costing 2^`bits` entries to build, not 2^15, on every call.
#[derive(Debug, Clone)]
pub struct Decoder {
    /// Indexed by the next `bits` input bits (LSB-first): packed
    /// (symbol << 4) | length. length == 0 marks an invalid entry.
    table: Vec<u32>,
    bits: u32,
}

impl Decoder {
    pub fn from_lengths(lengths: &[u8]) -> Result<Self, CompressError> {
        let enc = Encoder::from_lengths(lengths)?;
        // `Encoder::from_lengths` has bounded every length by MAX_BITS.
        let bits = u32::from(lengths.iter().copied().max().unwrap_or(0));
        let mut table = vec![0u32; 1 << bits];
        for (sym, &l) in lengths.iter().enumerate() {
            if l == 0 {
                continue;
            }
            let code = u32::from(enc.codes.get(sym).copied().unwrap_or(0));
            let step = 1u32 << l;
            let mut idx = code;
            while let Some(slot) = table.get_mut(idx as usize) {
                *slot = ((sym as u32) << 4) | u32::from(l);
                idx += step;
            }
        }
        Ok(Self { table, bits })
    }

    /// Decode one symbol from the reader.
    #[inline]
    pub fn read(&self, r: &mut BitReader<'_>) -> Result<usize, CompressError> {
        let idx = r.peek_bits(self.bits) as usize;
        // `idx < 1 << bits` always holds; a zero entry (also the
        // out-of-range default) decodes as "invalid code" below.
        let entry = self.table.get(idx).copied().unwrap_or(0);
        let len = entry & 0xf;
        if len == 0 {
            return Err(CompressError::Corrupt("invalid Huffman code"));
        }
        r.consume(len)?;
        Ok((entry >> 4) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original quadratic package-merge, kept verbatim as the
    /// reference oracle: every package carries a per-item count vector.
    /// Frequencies must already be sorted ascending.
    fn oracle_code_lengths(freqs: &[u64], max_bits: u32) -> Vec<u8> {
        let n = freqs.len();
        let mut lengths = vec![0u8; n];
        let active: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
        match active.len() {
            0 => return lengths,
            1 => {
                lengths[active[0]] = 1;
                return lengths;
            }
            _ => {}
        }
        debug_assert!(
            (1usize << max_bits) >= active.len(),
            "max_bits too small for alphabet"
        );

        // Package-merge. A "package" is a set of original items; we only need
        // each package's total weight and, per original item, how many of the
        // first `level` coin rows it appears in. We track per-item counts via
        // item index lists; packages are small for our alphabets (<= 288), so
        // the quadratic merge cost is fine.
        #[derive(Clone)]
        struct Pkg {
            weight: u64,
            /// Count of each active item contained in this package.
            items: Vec<u32>,
        }

        let m = active.len();
        let singletons: Vec<Pkg> = active
            .iter()
            .enumerate()
            .map(|(j, &sym)| Pkg {
                weight: freqs[sym],
                items: {
                    let mut v = vec![0u32; m];
                    v[j] = 1;
                    v
                },
            })
            .collect();

        // `prev` holds the solution row from the previous level.
        let mut prev: Vec<Pkg> = Vec::new();
        for _level in 0..max_bits {
            // Merge singletons with pairwise packages of `prev`.
            let mut paired: Vec<Pkg> = Vec::with_capacity(prev.len() / 2);
            let mut it = prev.chunks_exact(2);
            for pair in &mut it {
                let mut items = pair[0].items.clone();
                for (a, b) in items.iter_mut().zip(&pair[1].items) {
                    *a += b;
                }
                paired.push(Pkg {
                    weight: pair[0].weight + pair[1].weight,
                    items,
                });
            }
            let mut merged: Vec<Pkg> = Vec::with_capacity(singletons.len() + paired.len());
            let (mut i, mut j) = (0, 0);
            while i < singletons.len() || j < paired.len() {
                let take_single = j >= paired.len()
                    || (i < singletons.len() && singletons[i].weight <= paired[j].weight);
                if take_single {
                    merged.push(singletons[i].clone());
                    i += 1;
                } else {
                    merged.push(paired[j].clone());
                    j += 1;
                }
            }
            prev = merged;
        }

        // Take the cheapest 2m - 2 packages; each occurrence of item j adds one
        // bit to its code length.
        let mut counts = vec![0u32; m];
        for pkg in prev.iter().take(2 * m - 2) {
            for (c, k) in counts.iter_mut().zip(&pkg.items) {
                *c += k;
            }
        }
        for (j, &sym) in active.iter().enumerate() {
            debug_assert!(counts[j] >= 1 && counts[j] <= max_bits);
            lengths[sym] = counts[j] as u8;
        }
        lengths
    }

    /// `sorted_code_lengths` with the oracle in place of `code_lengths`.
    fn oracle_sorted_code_lengths(freqs: &[u64], max_bits: u32) -> Vec<u8> {
        let mut order: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
        order.sort_by_key(|&i| freqs[i]);
        let sorted: Vec<u64> = order.iter().map(|&i| freqs[i]).collect();
        let lens = oracle_code_lengths(&sorted, max_bits);
        let mut out = vec![0u8; freqs.len()];
        for (j, &sym) in order.iter().enumerate() {
            out[sym] = lens[j];
        }
        out
    }

    fn assert_matches_oracle(freqs: &[u64]) {
        assert_eq!(
            sorted_code_lengths(freqs, MAX_BITS),
            oracle_sorted_code_lengths(freqs, MAX_BITS),
            "freqs = {freqs:?}"
        );
    }

    /// A frequency table of `m` symbols in one of five shapes, from a
    /// SplitMix64 stream: narrow values (dense ties), wide values, powers
    /// of two down from 2^40 (past the 15-bit limit), a Fibonacci run
    /// (also past it), and sparse tables with zeros.
    fn table(m: usize, shape: u8, seed: u64) -> Vec<u64> {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        match shape % 5 {
            0 => (0..m).map(|_| 1 + next() % 4).collect(),
            1 => (0..m).map(|_| 1 + next() % 1_000_000).collect(),
            2 => (0..m).map(|i| 1u64 << (40 - (i % 41))).collect(),
            3 => {
                let (mut a, mut b) = (1u64, 1u64);
                (0..m)
                    .map(|_| {
                        let f = a;
                        (a, b) = (b, (a + b).min(1 << 50));
                        f
                    })
                    .collect()
            }
            _ => (0..m)
                .map(|_| if next() % 3 == 0 { 0 } else { next() % 50 })
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn package_merge_matches_quadratic_oracle(
            m in 2usize..=286,
            shape in any::<u8>(),
            seed in any::<u64>(),
        ) {
            assert_matches_oracle(&table(m, shape, seed));
        }
    }

    #[test]
    fn package_merge_matches_oracle_on_edge_tables() {
        // One symbol, two, all tied, the full alphabets, and a table whose
        // unlimited Huffman code would run 40 bits deep.
        let mut one = vec![0u64; 286];
        one[7] = 3;
        assert_matches_oracle(&one);
        assert_matches_oracle(&[9, 0, 4]);
        assert_matches_oracle(&[5; 286]);
        assert_matches_oracle(&(1..=257).collect::<Vec<u64>>());
        assert_matches_oracle(&(1..=286).rev().collect::<Vec<u64>>());
        let deep: Vec<u64> = (0..41).map(|i| 1u64 << i).collect();
        assert!(sorted_code_lengths(&deep, MAX_BITS).contains(&(MAX_BITS as u8)));
        assert_matches_oracle(&deep);
    }

    fn roundtrip(freqs: &[u64], stream: &[usize]) {
        let lens = sorted_code_lengths(freqs, MAX_BITS);
        let enc = Encoder::from_lengths(&lens).unwrap();
        let dec = Decoder::from_lengths(&lens).unwrap();
        let mut w = BitWriter::new();
        for &s in stream {
            enc.write(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in stream {
            assert_eq!(dec.read(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn kraft_inequality_holds() {
        let freqs: Vec<u64> = (0..100).map(|i| (i * i + 1) as u64).collect();
        let lens = sorted_code_lengths(&freqs, MAX_BITS);
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-i32::from(l)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft = {kraft}");
    }

    #[test]
    fn single_symbol_alphabet() {
        let mut freqs = vec![0u64; 10];
        freqs[3] = 42;
        let lens = sorted_code_lengths(&freqs, MAX_BITS);
        assert_eq!(lens[3], 1);
        roundtrip(&freqs, &[3, 3, 3, 3]);
    }

    #[test]
    fn two_symbols() {
        let freqs = vec![5, 1];
        roundtrip(&freqs, &[0, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn skewed_distribution_roundtrip() {
        let mut freqs = vec![0u64; 256];
        for (i, f) in freqs.iter_mut().enumerate() {
            *f = if i < 4 { 10_000 } else { 1 + (i as u64 % 7) };
        }
        let stream: Vec<usize> = (0..2000).map(|i| (i * 37) % 256).collect();
        roundtrip(&freqs, &stream);
    }

    #[test]
    fn length_limit_respected_under_extreme_skew() {
        // Fibonacci-like frequencies force deep trees in unlimited Huffman.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lens = sorted_code_lengths(&freqs, MAX_BITS);
        assert!(lens.iter().all(|&l| u32::from(l) <= MAX_BITS));
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-i32::from(l)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9);
        let stream: Vec<usize> = (0..500).map(|i| i % 40).collect();
        roundtrip(&freqs, &stream);
    }
}
