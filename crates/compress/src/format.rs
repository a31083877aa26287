//! The MHZ container format.
//!
//! Layout: `magic(4) | method(1) | orig_len(varint) | checksum(4) | payload`.
//! Methods: 0 = stored, 1 = RLE, 2 = LZ77+Huffman. The compressor tries the
//! method implied by the level and falls back to whichever encoding is
//! smallest, so output is never much larger than the input.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{sorted_code_lengths, Decoder, Encoder, MAX_BITS};
use crate::lz77::Token;
use crate::CompressError;

pub const MAGIC: [u8; 4] = *b"MHZ1";

pub const METHOD_STORE: u8 = 0;
pub const METHOD_RLE: u8 = 1;
pub const METHOD_LZ_HUFF: u8 = 2;

/// End-of-block symbol in the literal/length alphabet.
const EOB: usize = 256;
/// Size of the literal/length alphabet: 256 literals + EOB + 29 length codes.
const NUM_LITLEN: usize = 286;
const NUM_DIST: usize = 30;

/// DEFLATE length code table: (base length, extra bits) for codes 257..=285.
const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];

/// DEFLATE distance code table: (base distance, extra bits) for codes 0..=29.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Length code index for each match length, indexed by `len - 3`: the
/// largest code whose base does not exceed the length.
const LEN_CODE: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut code = 0;
    let mut len = 3;
    while len <= 258 {
        while code + 1 < LEN_BASE.len() && LEN_BASE[code + 1] as usize <= len {
            code += 1;
        }
        t[len - 3] = code as u8;
        len += 1;
    }
    t
};

/// Distance code index as zlib looks it up: slot `d` for `d = dist - 1 <
/// 256`, else slot `256 + (d >> 7)`. Every code from 16 on starts at a
/// multiple of 128 in `d`, so one slot never straddles two codes.
const DIST_CODE: [u8; 512] = {
    let mut t = [0u8; 512];
    let mut slot = 0;
    while slot < 512 {
        let dist = if slot < 256 {
            slot + 1
        } else {
            ((slot - 256) << 7) + 1
        };
        let mut code = 0;
        while code + 1 < DIST_BASE.len() && DIST_BASE[code + 1] as usize <= dist {
            code += 1;
        }
        t[slot] = code as u8;
        slot += 1;
    }
    t
};

/// Map a match length (3..=258) to (code index 0..29, extra value, extra bits).
#[inline]
fn length_code(len: u16) -> (usize, u16, u8) {
    debug_assert!((3..=258).contains(&len));
    let code = usize::from(LEN_CODE[usize::from(len) - 3]);
    (code, len - LEN_BASE[code], LEN_EXTRA[code])
}

/// Map a distance (1..=32768) to (code index, extra value, extra bits).
#[inline]
fn dist_code(dist: u16) -> (usize, u16, u8) {
    debug_assert!(dist >= 1);
    let d = usize::from(dist) - 1;
    let slot = if d < 256 { d } else { 256 + (d >> 7) };
    let code = usize::from(DIST_CODE[slot]);
    (code, dist - DIST_BASE[code], DIST_EXTRA[code])
}

/// Unsigned LEB128.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

// mh-audit: source(length decoded from attacker-controlled container header)
pub fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64, CompressError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *data.get(*pos).ok_or(CompressError::UnexpectedEof)?;
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(CompressError::Corrupt("varint too long"));
        }
    }
}

/// Adler-32 checksum (the zlib integrity check).
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65521;
    let (mut a, mut b) = (1u32, 0u32);
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += u32::from(byte);
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

/// Serialize code-length tables: each length is 4 bits (0..=15).
fn write_lengths(w: &mut BitWriter, lens: &[u8]) {
    for &l in lens {
        debug_assert!(u32::from(l) <= MAX_BITS);
        w.write_bits(u64::from(l), 4);
    }
}

fn read_lengths(r: &mut BitReader<'_>, n: usize) -> Result<Vec<u8>, CompressError> {
    let mut lens = vec![0u8; n];
    for l in lens.iter_mut() {
        *l = r.read_bits(4)? as u8;
    }
    Ok(lens)
}

/// Encode a token stream as a Huffman-coded payload.
pub fn encode_tokens(tokens: &[Token]) -> Vec<u8> {
    // Gather frequencies.
    let mut lit_freq = vec![0u64; NUM_LITLEN];
    let mut dist_freq = vec![0u64; NUM_DIST];
    for t in tokens {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                let (lc, _, _) = length_code(len);
                lit_freq[257 + lc] += 1;
                let (dc, _, _) = dist_code(dist);
                dist_freq[dc] += 1;
            }
        }
    }
    lit_freq[EOB] += 1;
    // Guarantee at least one distance symbol so the table is decodable.
    if dist_freq.iter().all(|&f| f == 0) {
        dist_freq[0] = 1;
    }
    let lit_lens = sorted_code_lengths(&lit_freq, MAX_BITS);
    let dist_lens = sorted_code_lengths(&dist_freq, MAX_BITS);
    let lit_enc = Encoder::from_lengths(&lit_lens).expect("fresh lengths are valid");
    let dist_enc = Encoder::from_lengths(&dist_lens).expect("fresh lengths are valid");

    let mut w = BitWriter::with_capacity(tokens.len());
    write_lengths(&mut w, &lit_lens);
    write_lengths(&mut w, &dist_lens);
    for t in tokens {
        match *t {
            Token::Literal(b) => lit_enc.write(&mut w, b as usize),
            Token::Match { len, dist } => {
                let (lc, lextra, lbits) = length_code(len);
                lit_enc.write(&mut w, 257 + lc);
                if lbits > 0 {
                    w.write_bits(u64::from(lextra), u32::from(lbits));
                }
                let (dc, dextra, dbits) = dist_code(dist);
                dist_enc.write(&mut w, dc);
                if dbits > 0 {
                    w.write_bits(u64::from(dextra), u32::from(dbits));
                }
            }
        }
    }
    lit_enc.write(&mut w, EOB);
    w.finish()
}

/// Decode a Huffman payload back into raw bytes (`orig_len` is a capacity
/// hint and final-size check).
pub fn decode_tokens(payload: &[u8], orig_len: usize) -> Result<Vec<u8>, CompressError> {
    let mut r = BitReader::new(payload);
    let lit_lens = read_lengths(&mut r, NUM_LITLEN)?;
    let dist_lens = read_lengths(&mut r, NUM_DIST)?;
    let lit_dec = Decoder::from_lengths(&lit_lens)?;
    let dist_dec = Decoder::from_lengths(&dist_lens)?;
    let mut out: Vec<u8> = Vec::with_capacity(orig_len.min(crate::MAX_PREALLOC_BYTES));
    loop {
        let sym = lit_dec.read(&mut r)?;
        if sym < 256 {
            out.push(sym as u8);
        } else if sym == EOB {
            break;
        } else {
            let lc = sym.wrapping_sub(257);
            let (lbase, lbits) = match (LEN_BASE.get(lc), LEN_EXTRA.get(lc)) {
                (Some(&b), Some(&e)) => (b, e),
                _ => return Err(CompressError::Corrupt("invalid length code")),
            };
            let extra = if lbits > 0 {
                r.read_bits(u32::from(lbits))? as u16
            } else {
                0
            };
            let len = usize::from(lbase) + usize::from(extra);
            let dc = dist_dec.read(&mut r)?;
            let (dbase, dbits) = match (DIST_BASE.get(dc), DIST_EXTRA.get(dc)) {
                (Some(&b), Some(&e)) => (b, e),
                _ => return Err(CompressError::Corrupt("invalid distance code")),
            };
            let dextra = if dbits > 0 {
                r.read_bits(u32::from(dbits))? as u16
            } else {
                0
            };
            let dist = usize::from(dbase) + usize::from(dextra);
            let Some(start) = out.len().checked_sub(dist) else {
                return Err(CompressError::Corrupt("distance exceeds output"));
            };
            for i in 0..len {
                // `start + i < out.len()` holds because dist >= 1 and the
                // push below grows `out` every iteration; `get` keeps the
                // invariant checked rather than assumed.
                let b = out
                    .get(start + i)
                    .copied()
                    .ok_or(CompressError::Corrupt("back-reference out of range"))?;
                out.push(b);
            }
        }
        if out.len() > orig_len {
            return Err(CompressError::Corrupt("output exceeds declared length"));
        }
    }
    if out.len() != orig_len {
        return Err(CompressError::Corrupt("output length mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lz77::{self, MatcherConfig};

    /// Tokenize + entropy-code `data` at the given matcher configuration.
    fn lz_huff_compress(data: &[u8], cfg: MatcherConfig) -> Vec<u8> {
        encode_tokens(&lz77::tokenize(data, cfg))
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn adler32_known_value() {
        // "Wikipedia" has a documented Adler-32 of 0x11E60398.
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
        assert_eq!(adler32(b""), 1);
    }

    #[test]
    fn length_and_distance_codes_cover_ranges() {
        // The lookup tables must pick what a scan for the largest base not
        // above the value picks (258 also fits code 27's extra bits).
        let scan = |bases: &[u16], v: u16| bases.iter().rposition(|&b| v >= b).unwrap();
        for len in 3u16..=258 {
            let (c, extra, bits) = length_code(len);
            assert_eq!(c, scan(&LEN_BASE, len), "len {len}");
            assert_eq!(LEN_BASE[c] + extra, len);
            assert_eq!(bits, LEN_EXTRA[c]);
            assert!(extra < (1 << bits) || bits == 0 && extra == 0);
        }
        for dist in 1u16..=32768 {
            let (c, extra, bits) = dist_code(dist);
            assert_eq!(c, scan(&DIST_BASE, dist), "dist {dist}");
            assert_eq!(DIST_BASE[c] + extra, dist);
            assert_eq!(bits, DIST_EXTRA[c]);
            assert!(u32::from(extra) < (1u32 << bits) || bits == 0 && extra == 0);
        }
    }

    #[test]
    fn payload_roundtrip() {
        let data = b"hello hello hello hello world world world".repeat(20);
        let payload = lz_huff_compress(&data, MatcherConfig::default_level());
        let back = decode_tokens(&payload, data.len()).unwrap();
        assert_eq!(back, data);
        assert!(payload.len() < data.len());
    }

    #[test]
    fn empty_payload_roundtrip() {
        let payload = lz_huff_compress(b"", MatcherConfig::fast());
        let back = decode_tokens(&payload, 0).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn corrupt_payload_is_an_error_not_a_panic() {
        let data = b"some reasonably long text that compresses".repeat(10);
        let mut payload = lz_huff_compress(&data, MatcherConfig::fast());
        let mid = payload.len() / 2;
        payload[mid] ^= 0xa5;
        // Must return an error or wrong-length data, never panic.
        let _ = decode_tokens(&payload, data.len());
    }
}
