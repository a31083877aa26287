//! LSB-first bit-level reader and writer used by the Huffman coder.
//!
//! Bits are packed into bytes least-significant-bit first, matching the
//! DEFLATE convention: the first bit written becomes bit 0 of byte 0.

use crate::CompressError;

/// Accumulates bits LSB-first into a byte buffer.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits, low bits first.
    acc: u64,
    /// Number of valid bits in `acc` (always < 8 after `flush_acc`).
    nbits: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Create with a capacity hint for the underlying byte buffer.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
            acc: 0,
            nbits: 0,
        }
    }

    /// Write the low `n` bits of `value` (n <= 57 so the accumulator never
    /// overflows before the flush below).
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 57, "write_bits supports at most 57 bits per call");
        debug_assert!(
            n == 64 || value < (1u64 << n),
            "value does not fit in n bits"
        );
        self.acc |= value << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.buf.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Pad the final partial byte with zero bits and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.buf.push((self.acc & 0xff) as u8);
        }
        self.buf
    }
}

/// Reads bits LSB-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte index to load.
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    #[inline]
    fn refill(&mut self) {
        while self.nbits <= 56 {
            let Some(&b) = self.data.get(self.pos) else {
                break;
            };
            self.acc |= u64::from(b) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Read exactly `n` bits; errors if the stream is exhausted.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, CompressError> {
        debug_assert!(n <= 57);
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(CompressError::UnexpectedEof);
            }
        }
        if n == 0 {
            return Ok(0);
        }
        let v = self.acc & ((1u64 << n) - 1);
        self.acc >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Peek up to `n` bits without consuming; missing bits read as zero.
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 57);
        if self.nbits < n {
            self.refill();
        }
        if n == 0 {
            0
        } else {
            self.acc & ((1u64 << n) - 1)
        }
    }

    /// Consume `n` bits previously peeked. `n` must not exceed the number of
    /// bits actually available.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<(), CompressError> {
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(CompressError::UnexpectedEof);
            }
        }
        self.acc >>= n;
        self.nbits -= n;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        let mut w = BitWriter::new();
        let values: Vec<(u64, u32)> = vec![
            (0b1, 1),
            (0b10, 2),
            (0b101, 3),
            (0x7f, 7),
            (0xff, 8),
            (0x1234, 16),
            (0xdead_beef, 32),
            (0x1f_ffff_ffff, 37),
            (0, 0),
            (1, 1),
        ];
        for &(v, n) in &values {
            w.write_bits(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            assert_eq!(r.read_bits(n).unwrap(), v, "width {n}");
        }
    }

    #[test]
    fn eof_detected() {
        let bytes = [0xffu8];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(8).is_ok());
        assert!(matches!(r.read_bits(1), Err(CompressError::UnexpectedEof)));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011_0110, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(4), 0b0110);
        assert_eq!(r.peek_bits(4), 0b0110);
        r.consume(4).unwrap();
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
    }

    #[test]
    fn partial_final_byte_is_zero_padded() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b11]);
    }
}
