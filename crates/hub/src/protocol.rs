//! Wire codecs for the hub protocol: search-hit lines, error bodies, and
//! the length-prefixed object stream with its trailing whole-transfer
//! checksum. The manifest grammar and percent-encoding belong to
//! `mh_dlv::hub`, which also stores each publication's manifest in it.
//!
//! ## Object stream
//!
//! ```text
//! obj <sha256-hex> <len>\n      repeated per object, followed by
//! <len raw bytes>               exactly len payload bytes
//! ...
//! end <sha256-hex>\n            sha256 over all payload bytes, in order
//! ```
//!
//! The receiver verifies each object against its header hash as it
//! arrives (so partial transfers are safely resumable object-by-object)
//! and the trailing checksum against the whole payload sequence.

use crate::HubError;
use mh_dlv::hash::{sha256_hex, Sha256};
use mh_dlv::{pct_decode, pct_encode, SearchHit, MAX_OBJECT_BYTES};
use std::io::{BufRead, Write};

/// Hard cap on one protocol line (object headers, manifest lines,
/// request lines all fit in well under this); a peer streaming bytes
/// with no newline is cut off instead of growing the line buffer.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// One search hit per line, fields percent-encoded and space-separated:
/// `<repo> <version> <architecture> <comment>`.
pub fn encode_hits(hits: &[SearchHit]) -> String {
    let mut out = String::new();
    for h in hits {
        out.push_str(&format!(
            "{} {} {} {}\n",
            pct_encode(&h.repo),
            pct_encode(&h.version),
            pct_encode(&h.architecture),
            pct_encode(&h.comment)
        ));
    }
    out
}

// mh-audit: no_panic_zone
pub fn parse_hits(body: &str) -> Result<Vec<SearchHit>, HubError> {
    let mut out = Vec::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(' ').collect();
        let [repo, version, architecture, comment] = fields.as_slice() else {
            return Err(HubError::Protocol(format!("bad search hit line '{line}'")));
        };
        out.push(SearchHit {
            repo: pct_decode(repo)?,
            version: pct_decode(version)?,
            architecture: pct_decode(architecture)?,
            comment: pct_decode(comment)?,
        });
    }
    Ok(out)
}

/// Error body format: `code=<symbol>\nmsg=<pct-encoded text>\n`.
pub fn encode_error(code: &str, message: &str) -> String {
    format!("code={code}\nmsg={}\n", pct_encode(message))
}

/// Parse an error body; falls back to the raw body as the message.
pub fn parse_error(status: u16, body: &str) -> HubError {
    let mut code = "unknown".to_string();
    let mut message = body.trim().to_string();
    for line in body.lines() {
        if let Some(c) = line.strip_prefix("code=") {
            code = c.to_string();
        } else if let Some(m) = line.strip_prefix("msg=") {
            message = pct_decode(m).unwrap_or_else(|_| m.to_string());
        }
    }
    HubError::Server {
        status,
        code,
        message,
    }
}

/// Byte length of an object-stream body for the given `(hash, size)`
/// sequence — computable before any payload is read, so responses can
/// carry an exact `Content-Length` while still streaming object bytes.
// mh-audit: no_panic_zone
pub fn object_stream_len(objects: &[(String, u64)]) -> u64 {
    // Saturating length-prefix arithmetic: sizes are validated against
    // the per-object cap upstream, but a promised Content-Length must
    // never be computed through a silent wrap.
    let mut total = 0u64;
    for (hash, size) in objects {
        let header = ("obj ".len() as u64)
            .saturating_add(hash.len() as u64)
            .saturating_add(1)
            .saturating_add(decimal_len(*size))
            .saturating_add(1);
        total = total.saturating_add(header).saturating_add(*size);
    }
    total.saturating_add("end ".len() as u64 + 64 + 1)
}

fn decimal_len(mut n: u64) -> u64 {
    let mut len = 1;
    while n >= 10 {
        n /= 10;
        len += 1;
    }
    len
}

/// Write one framed object (header line + payload), updating the
/// whole-transfer hasher.
pub fn write_object<W: Write>(
    w: &mut W,
    hash: &str,
    payload: &[u8],
    transfer: &mut Sha256,
) -> std::io::Result<()> {
    w.write_all(format!("obj {hash} {}\n", payload.len()).as_bytes())?;
    w.write_all(payload)?;
    transfer.update(payload);
    Ok(())
}

/// Write the stream terminator carrying the whole-transfer checksum.
pub fn write_object_stream_end<W: Write>(w: &mut W, transfer: Sha256) -> std::io::Result<()> {
    w.write_all(format!("end {}\n", transfer.finalize_hex()).as_bytes())
}

/// Incrementally read an object stream, invoking `on_object` for each
/// verified object as it completes. Per-object hashes are checked before
/// delivery, so everything handed to `on_object` is durable even if the
/// stream later breaks; the trailing whole-transfer checksum is verified
/// at the end. Returns the number of objects received.
// mh-audit: no_panic_zone
pub fn read_object_stream<R: BufRead>(
    r: &mut R,
    mut on_object: impl FnMut(&str, &[u8]) -> Result<(), HubError>,
) -> Result<usize, HubError> {
    let mut transfer = Sha256::new();
    let mut count = 0usize;
    loop {
        let line = read_line(r)?;
        if let Some(rest) = line.strip_prefix("obj ") {
            let (hash, len) = rest
                .split_once(' ')
                .ok_or_else(|| HubError::Protocol(format!("bad object header '{line}'")))?;
            // mh-audit: tainted(object length parsed off the wire)
            let len: u64 = len
                .parse()
                .map_err(|_| HubError::Protocol(format!("bad object length '{len}'")))?;
            if len > MAX_OBJECT_BYTES {
                return Err(HubError::TooLarge(format!("object declares {len} bytes")));
            }
            let mut payload = vec![0u8; len as usize];
            r.read_exact(&mut payload).map_err(|e| {
                HubError::ConnectionDropped(format!("mid-object after {count} objects: {e}"))
            })?;
            let got = sha256_hex(&payload);
            if got != hash {
                return Err(HubError::Checksum {
                    expected: hash.to_string(),
                    got,
                });
            }
            transfer.update(&payload);
            on_object(hash, &payload)?;
            count += 1;
        } else if let Some(sum) = line.strip_prefix("end ") {
            let got = transfer.finalize_hex();
            if got != sum {
                return Err(HubError::Checksum {
                    expected: sum.to_string(),
                    got,
                });
            }
            return Ok(count);
        } else {
            return Err(HubError::Protocol(format!(
                "unexpected stream line '{line}'"
            )));
        }
    }
}

/// Read one `\n`-terminated line (CR stripped); EOF before the newline is
/// a dropped connection, and a line longer than [`MAX_LINE_BYTES`] is a
/// protocol error — the buffer never grows past the cap no matter how
/// many bytes the peer pushes without a newline.
// mh-audit: no_panic_zone
pub fn read_line<R: BufRead>(r: &mut R) -> Result<String, HubError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = r.fill_buf().map_err(HubError::from)?;
        if chunk.is_empty() {
            return Err(HubError::ConnectionDropped(
                "EOF before end of line".to_string(),
            ));
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len().saturating_add(pos) > MAX_LINE_BYTES {
                    return Err(HubError::TooLarge(format!(
                        "line exceeds {MAX_LINE_BYTES} bytes"
                    )));
                }
                buf.extend_from_slice(chunk.get(..pos).unwrap_or_default());
                r.consume(pos + 1);
                break;
            }
            None => {
                let n = chunk.len();
                if buf.len().saturating_add(n) > MAX_LINE_BYTES {
                    return Err(HubError::TooLarge(format!(
                        "line exceeds {MAX_LINE_BYTES} bytes"
                    )));
                }
                buf.extend_from_slice(chunk);
                r.consume(n);
            }
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| HubError::Protocol("non-utf8 line".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mh_dlv::{encode_manifest, parse_manifest, ManifestEntry};
    use std::io::BufReader;

    #[test]
    fn pct_roundtrip() {
        for s in ["%lenet%", "team/vision", "a b\tc\nd", "héllo", ""] {
            assert_eq!(pct_decode(&pct_encode(s)).unwrap(), s);
        }
        assert!(pct_decode("%zz").is_err());
        assert!(pct_decode("%2").is_err());
    }

    #[test]
    fn manifest_roundtrip() {
        let entries = vec![
            ManifestEntry {
                path: "catalog.mhs".into(),
                size: 123,
                hash: "a".repeat(64),
            },
            ManifestEntry {
                path: "weights/m_1_s0.mhw".into(),
                size: 0,
                hash: "b".repeat(64),
            },
        ];
        assert_eq!(parse_manifest(&encode_manifest(&entries)).unwrap(), entries);
        assert!(parse_manifest("nothash 12 x\n").is_err());
    }

    #[test]
    fn object_stream_roundtrip_and_length() {
        let objs: Vec<(String, Vec<u8>)> = vec![
            (sha256_hex(b"alpha"), b"alpha".to_vec()),
            (sha256_hex(b""), Vec::new()),
            (sha256_hex(&[9u8; 300]), vec![9u8; 300]),
        ];
        let mut buf = Vec::new();
        let mut transfer = Sha256::new();
        for (h, p) in &objs {
            write_object(&mut buf, h, p, &mut transfer).unwrap();
        }
        write_object_stream_end(&mut buf, transfer).unwrap();
        let lens: Vec<(String, u64)> = objs
            .iter()
            .map(|(h, p)| (h.clone(), p.len() as u64))
            .collect();
        assert_eq!(buf.len() as u64, object_stream_len(&lens));

        let mut got = Vec::new();
        let n = read_object_stream(&mut BufReader::new(&buf[..]), |h, p| {
            got.push((h.to_string(), p.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 3);
        assert_eq!(got, objs);
    }

    #[test]
    fn truncated_stream_is_dropped_not_hung() {
        let mut buf = Vec::new();
        let mut transfer = Sha256::new();
        write_object(&mut buf, &sha256_hex(b"payload"), b"payload", &mut transfer).unwrap();
        // Chop mid-payload of a second object.
        buf.extend_from_slice(format!("obj {} 100\nonly-a-few", sha256_hex(b"x")).as_bytes());
        let mut received = 0;
        let err = read_object_stream(&mut BufReader::new(&buf[..]), |_, _| {
            received += 1;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, HubError::ConnectionDropped(_)), "{err}");
        assert_eq!(received, 1, "completed objects delivered before the drop");
    }

    #[test]
    fn corrupt_object_is_a_checksum_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(format!("obj {} 3\nxyz", sha256_hex(b"abc")).as_bytes());
        let err = read_object_stream(&mut BufReader::new(&buf[..]), |_, _| Ok(())).unwrap_err();
        assert!(matches!(err, HubError::Checksum { .. }), "{err}");
    }
}
