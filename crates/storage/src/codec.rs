//! Shared binary codec primitives for on-disk formats.
//!
//! The write-ahead log ([`crate::wal`]), checkpoint snapshots and the
//! workspace persistence layer in `xnf-core` all frame their payloads with
//! the same little-endian primitives defined here, so every durable format
//! in the engine shares one vocabulary: length-prefixed strings, fixed-width
//! integers, and CRC-32 record checksums.

use crate::error::{Result, StorageError};

// ---------------------------------------------------------------------------
// little-endian primitives
// ---------------------------------------------------------------------------

pub fn write_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn write_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Length-prefixed (u32) UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Length-prefixed (u32) byte blob.
pub fn write_bytes(out: &mut Vec<u8>, b: &[u8]) {
    write_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// A cursor over a byte slice with checked little-endian reads. All reads
/// fail with [`StorageError::Corrupt`] instead of panicking, so torn or
/// damaged log records surface as recoverable errors.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StorageError::Corrupt("truncated record"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    pub fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| StorageError::Corrupt("invalid utf-8 string"))
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — table-driven, no dependencies
// ---------------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, e) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        table
    })
}

/// CRC-32 checksum of `data` (the common IEEE polynomial, as used by zip,
/// PNG and Ethernet). Used to validate WAL record frames on recovery.
pub fn crc32(data: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut buf = Vec::new();
        write_u16(&mut buf, 7);
        write_u32(&mut buf, 40_000);
        write_u64(&mut buf, u64::MAX - 3);
        write_i64(&mut buf, -99);
        write_str(&mut buf, "héllo");
        write_bytes(&mut buf, &[1, 2, 3]);

        let mut r = Reader::new(&buf);
        assert_eq!(r.u16().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 40_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -99);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 100); // claims a 100-byte string follows
        let mut r = Reader::new(&buf);
        assert!(r.str().is_err());

        let mut r = Reader::new(&[1, 2]);
        assert!(r.u32().is_err());
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Sensitivity: a single flipped bit changes the checksum.
        assert_ne!(crc32(b"hello"), crc32(b"hellp"));
    }
}
