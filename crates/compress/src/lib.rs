//! # mh-compress
//!
//! A from-scratch general-purpose lossless byte compressor, the ModelHub
//! substitute for zlib: LZ77 (32 KiB window, hash-chain match finder, lazy
//! matching) followed by canonical length-limited Huffman coding, wrapped in
//! a small self-describing container with an Adler-32 integrity check.
//!
//! The compressor also evaluates raw storage and run-length encoding and
//! keeps whichever payload is smallest, so worst-case expansion is a few
//! bytes of header.
//!
//! ```
//! use mh_compress::{compress, decompress, Level};
//! let data = b"high-order bytes of float matrices have low entropy".repeat(8);
//! let packed = compress(&data, Level::Default);
//! assert!(packed.len() < data.len());
//! assert_eq!(decompress(&packed).unwrap(), data);
//! ```

#![forbid(unsafe_code)]

pub mod bitio;
pub mod format;
pub mod huffman;
pub mod lz77;
pub mod rle;

use format::{adler32, read_varint, write_varint, MAGIC, METHOD_LZ_HUFF, METHOD_RLE, METHOD_STORE};

/// Compression-ratio histogram buckets (original/compressed, >= 1 shrank).
const RATIO_BUCKETS: &[f64] = &[1.0, 1.5, 2.0, 3.0, 5.0, 10.0];

/// Hard ceiling on the declared decompressed size. A container claiming
/// more than this is rejected before any allocation, so a few attacker
/// bytes can never demand an arbitrarily large buffer. Matches the hub's
/// per-object cap.
pub const MAX_DECOMPRESSED_BYTES: usize = 1 << 30;

/// Initial allocation granted on the declared length alone; beyond this
/// the output buffer grows only as decoded bytes actually materialize,
/// so the worst-case resident set tracks real payload, not the header.
pub(crate) const MAX_PREALLOC_BYTES: usize = 1 << 20;

/// Pre-register this crate's metric series in the global mh-obs registry
/// so they appear (at zero) in `/metrics` before any (de)compression runs.
pub fn register_metrics() {
    let _ = mh_obs::counter!("compress_calls_total");
    let _ = mh_obs::counter!("compress_bytes_in_total");
    let _ = mh_obs::counter!("compress_bytes_out_total");
    let _ = mh_obs::counter!("compress_matchfind_us_total");
    let _ = mh_obs::histogram!("compress_ratio", RATIO_BUCKETS);
    let _ = mh_obs::counter!("decompress_calls_total");
    let _ = mh_obs::counter!("decompress_bytes_in_total");
    let _ = mh_obs::counter!("decompress_bytes_out_total");
    let _ = mh_obs::counter!("decompress_errors_total");
}

/// Errors produced while decoding a compressed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// The stream ended before decoding completed.
    UnexpectedEof,
    /// Structural corruption with a static description.
    Corrupt(&'static str),
    /// Magic bytes did not match the MHZ container.
    BadMagic,
    /// Unknown method byte.
    UnknownMethod(u8),
    /// Adler-32 mismatch after decoding.
    ChecksumMismatch { expected: u32, actual: u32 },
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnexpectedEof => write!(f, "unexpected end of compressed stream"),
            Self::Corrupt(msg) => write!(f, "corrupt stream: {msg}"),
            Self::BadMagic => write!(f, "not an MHZ container"),
            Self::UnknownMethod(m) => write!(f, "unknown compression method {m}"),
            Self::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: expected {expected:#x}, got {actual:#x}"
                )
            }
        }
    }
}

impl std::error::Error for CompressError {}

/// Compression effort level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Level {
    /// Greedy matching, short chains. Fastest.
    Fast,
    /// Lazy matching, moderate chains. Comparable to zlib level 6, which is
    /// what the paper's evaluation used.
    #[default]
    Default,
    /// Lazy matching, deep chains. Slowest, densest.
    Best,
}

impl Level {
    fn matcher(self) -> lz77::MatcherConfig {
        match self {
            Level::Fast => lz77::MatcherConfig::fast(),
            Level::Default => lz77::MatcherConfig::default_level(),
            Level::Best => lz77::MatcherConfig::best(),
        }
    }
}

/// Reusable compression state: hash-chain tables and token buffer, so hot
/// loops (per-plane compression during parallel archival) pay neither a
/// fresh multi-hundred-KiB allocation nor a table clear per call. One
/// `Scratch` per worker thread; see `mh_par::parallel_map_batched`.
#[derive(Debug, Default)]
pub struct Scratch {
    matcher: lz77::MatcherScratch,
    tokens: Vec<lz77::Token>,
    /// Container buffer reused by [`compressed_len_with`].
    buf: Vec<u8>,
}

impl Scratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Compress `data` into an MHZ container.
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    let mut scratch = Scratch::new();
    let mut out = Vec::new();
    compress_into(data, level, &mut scratch, &mut out);
    out
}

/// [`compress`] writing into a caller-owned output buffer (cleared first)
/// with reusable matcher state. Produces byte-identical containers to
/// [`compress`].
pub fn compress_into(data: &[u8], level: Level, scratch: &mut Scratch, out: &mut Vec<u8>) {
    // Match finding dominates compression cost; time it only when span
    // tracing is on so the disabled path stays clock-read-free.
    // mh-compress sits below mh-par in the dependency graph, so the
    // facade's now() is out of reach; this is a span-only timestamp,
    // gated off unless tracing is enabled.
    // mh-audit: allow(A104, span-only timestamp below mh-par; facade now() unreachable)
    let matchfind_start = mh_obs::enabled().then(std::time::Instant::now);
    lz77::tokenize_into(
        data,
        level.matcher(),
        &mut scratch.matcher,
        &mut scratch.tokens,
    );
    if let Some(t) = matchfind_start {
        mh_obs::counter!("compress_matchfind_us_total").add(t.elapsed().as_micros() as u64);
    }
    let lz = format::encode_tokens(&scratch.tokens);
    let rle = rle::encode(data);

    let (method, payload) = if lz.len() <= rle.len() && lz.len() < data.len() {
        (METHOD_LZ_HUFF, lz.as_slice())
    } else if rle.len() < data.len() {
        (METHOD_RLE, rle.as_slice())
    } else {
        (METHOD_STORE, data)
    };

    out.clear();
    out.reserve(payload.len() + 16);
    out.extend_from_slice(&MAGIC);
    out.push(method);
    write_varint(out, data.len() as u64);
    out.extend_from_slice(&adler32(data).to_le_bytes());
    out.extend_from_slice(payload);

    mh_obs::counter!("compress_calls_total").inc();
    mh_obs::counter!("compress_bytes_in_total").add(data.len() as u64);
    mh_obs::counter!("compress_bytes_out_total").add(out.len() as u64);
    if !data.is_empty() {
        mh_obs::histogram!("compress_ratio", RATIO_BUCKETS)
            .observe(data.len() as f64 / out.len() as f64);
    }
}

/// Decompress an MHZ container produced by [`compress`].
///
/// Total on arbitrary input: corrupt, truncated, or hostile containers
/// produce an error, never a panic, and never an allocation larger than
/// [`MAX_DECOMPRESSED_BYTES`].
// mh-audit: no_panic_zone
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CompressError> {
    let out = decompress_inner(data);
    mh_obs::counter!("decompress_calls_total").inc();
    mh_obs::counter!("decompress_bytes_in_total").add(data.len() as u64);
    match &out {
        Ok(plain) => {
            mh_obs::counter!("decompress_bytes_out_total").add(plain.len() as u64);
        }
        Err(_) => mh_obs::counter!("decompress_errors_total").inc(),
    }
    out
}

fn decompress_inner(data: &[u8]) -> Result<Vec<u8>, CompressError> {
    if data.get(..4) != Some(MAGIC.as_slice()) {
        return Err(CompressError::BadMagic);
    }
    let method = *data.get(4).ok_or(CompressError::UnexpectedEof)?;
    let mut pos = 5usize;
    let orig_len = read_varint(data, &mut pos)? as usize;
    if orig_len > MAX_DECOMPRESSED_BYTES {
        return Err(CompressError::Corrupt("declared length exceeds cap"));
    }
    let checksum_bytes = data
        .get(pos..pos.saturating_add(4))
        .ok_or(CompressError::UnexpectedEof)?;
    let expected = u32::from_le_bytes(
        checksum_bytes
            .try_into()
            .map_err(|_| CompressError::UnexpectedEof)?,
    );
    pos = pos.saturating_add(4);
    let payload = data.get(pos..).unwrap_or_default();
    let out = match method {
        METHOD_STORE => {
            if payload.len() != orig_len {
                return Err(CompressError::Corrupt("stored length mismatch"));
            }
            payload.to_vec()
        }
        METHOD_RLE => rle::decode(payload, orig_len)?,
        METHOD_LZ_HUFF => format::decode_tokens(payload, orig_len)?,
        m => return Err(CompressError::UnknownMethod(m)),
    };
    let actual = adler32(&out);
    if actual != expected {
        return Err(CompressError::ChecksumMismatch { expected, actual });
    }
    Ok(out)
}

/// Compressed size without keeping the container (used by PAS cost
/// estimation when only the footprint matters).
pub fn compressed_len(data: &[u8], level: Level) -> usize {
    compress(data, level).len()
}

/// [`compressed_len`] with reusable scratch state: the allocation-light
/// variant for tight measurement loops. Delegates to [`compress_into`] so
/// the reported size can never diverge from the real container.
pub fn compressed_len_with(data: &[u8], level: Level, scratch: &mut Scratch) -> usize {
    let mut out = std::mem::take(&mut scratch.buf);
    compress_into(data, level, scratch, &mut out);
    let n = out.len();
    scratch.buf = out;
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_roundtrip_all_levels() {
        let data = b"abcabcabc the quick brown fox".repeat(50);
        for level in [Level::Fast, Level::Default, Level::Best] {
            let c = compress(&data, level);
            assert_eq!(decompress(&c).unwrap(), data);
        }
    }

    #[test]
    fn empty_input() {
        let c = compress(b"", Level::Default);
        assert_eq!(decompress(&c).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn incompressible_input_falls_back_to_store() {
        let mut x = 0x243F6A88u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        let c = compress(&data, Level::Default);
        assert!(
            c.len() <= data.len() + 16,
            "expansion bounded: {} vs {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn all_zero_uses_few_bytes() {
        let data = vec![0u8; 1 << 16];
        let c = compress(&data, Level::Default);
        assert!(c.len() < 1024, "zeros should crush: {}", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn checksum_catches_payload_bitflip() {
        let data = b"integrity matters for archived parameters".repeat(30);
        let mut c = compress(&data, Level::Default);
        let idx = c.len() - 3;
        c[idx] ^= 0x40;
        assert!(decompress(&c).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decompress(b"NOPE...."), Err(CompressError::BadMagic));
        assert_eq!(decompress(b""), Err(CompressError::BadMagic));
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = b"some data to compress".repeat(20);
        let c = compress(&data, Level::Default);
        for cut in [5, 8, c.len() / 2, c.len() - 1] {
            assert!(decompress(&c[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn scratch_reuse_is_byte_identical() {
        let inputs: Vec<Vec<u8>> = vec![
            b"abcabcabc the quick brown fox".repeat(50),
            vec![0u8; 1 << 14],
            (0..5000u32).map(|i| (i % 251) as u8).collect(),
            Vec::new(),
        ];
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        for data in &inputs {
            for level in [Level::Fast, Level::Default, Level::Best] {
                compress_into(data, level, &mut scratch, &mut out);
                assert_eq!(out, compress(data, level));
                assert_eq!(compressed_len_with(data, level, &mut scratch), out.len());
            }
        }
    }

    #[test]
    fn level_ordering_on_compressible_data() {
        let data: Vec<u8> = (0..20_000u32).map(|i| ((i / 64) % 17) as u8).collect();
        let fast = compress(&data, Level::Fast).len();
        let best = compress(&data, Level::Best).len();
        assert!(
            best <= fast + 64,
            "best ({best}) should not lose to fast ({fast})"
        );
    }
}
