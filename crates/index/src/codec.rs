//! Small binary codec helpers shared by the index node serializers.
//!
//! Index nodes are persisted as chunks, so every index defines a compact,
//! deterministic binary layout. The helpers here keep those layouts short
//! and give symmetric read/write routines with explicit failure (`None`)
//! instead of panics on corrupt input.

use spitz_crypto::Hash;

/// Append a `u32` length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    out.extend_from_slice(&(data.len() as u32).to_be_bytes());
    out.extend_from_slice(data);
}

/// Append a `u32`.
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_be_bytes());
}

/// Append a `u64`.
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_be_bytes());
}

/// Append a hash.
pub fn put_hash(out: &mut Vec<u8>, hash: &Hash) {
    out.extend_from_slice(hash.as_bytes());
}

/// Cursor for reading back values written with the `put_*` helpers.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when the whole input has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let end = self.pos.checked_add(4)?;
        if end > self.data.len() {
            return None;
        }
        let value = u32::from_be_bytes(self.data[self.pos..end].try_into().ok()?);
        self.pos = end;
        Some(value)
    }

    /// Read a `u32` entry count and refuse one the remaining input cannot
    /// hold when every entry takes at least `min_entry_len` bytes. Decoders
    /// size a `Vec` from the count, so a hostile count is turned away here,
    /// before it can force a large allocation.
    pub fn count(&mut self, min_entry_len: usize) -> Option<usize> {
        let count = self.u32()? as usize;
        let needed = count.checked_mul(min_entry_len)?;
        (needed <= self.remaining()).then_some(count)
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        if end > self.data.len() {
            return None;
        }
        let value = u64::from_be_bytes(self.data[self.pos..end].try_into().ok()?);
        self.pos = end;
        Some(value)
    }

    /// Read a single byte.
    pub fn u8(&mut self) -> Option<u8> {
        let value = *self.data.get(self.pos)?;
        self.pos += 1;
        Some(value)
    }

    /// Read a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        let end = self.pos.checked_add(len)?;
        if end > self.data.len() {
            return None;
        }
        let out = &self.data[self.pos..end];
        self.pos = end;
        Some(out)
    }

    /// Read `n` raw bytes (no length prefix).
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.data.len() {
            return None;
        }
        let out = &self.data[self.pos..end];
        self.pos = end;
        Some(out)
    }

    /// The unread remainder of the input, without consuming it. Lets a
    /// decoder hand the tail to a nested prefix-decoder and then [`take`]
    /// the bytes it reports consumed.
    ///
    /// [`take`]: Reader::take
    pub fn rest(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }

    /// Read a 32-byte hash.
    pub fn hash(&mut self) -> Option<Hash> {
        let end = self.pos.checked_add(32)?;
        if end > self.data.len() {
            return None;
        }
        let mut bytes = [0u8; 32];
        bytes.copy_from_slice(&self.data[self.pos..end]);
        self.pos = end;
        Some(Hash::from_bytes(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spitz_crypto::sha256;

    #[test]
    fn roundtrip_all_types() {
        let mut out = Vec::new();
        out.push(7u8);
        put_u32(&mut out, 42);
        put_u64(&mut out, u64::MAX);
        put_bytes(&mut out, b"hello");
        put_hash(&mut out, &sha256(b"h"));
        put_bytes(&mut out, b"");

        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(42));
        assert_eq!(r.u64(), Some(u64::MAX));
        assert_eq!(r.bytes(), Some(b"hello".as_ref()));
        assert_eq!(r.hash(), Some(sha256(b"h")));
        assert_eq!(r.bytes(), Some(b"".as_ref()));
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_input_returns_none() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"hello");
        let truncated = &out[..out.len() - 2];
        let mut r = Reader::new(truncated);
        assert_eq!(r.bytes(), None);

        let mut r = Reader::new(&[0u8; 3]);
        assert_eq!(r.u32(), None);
        assert_eq!(r.hash(), None);
        assert_eq!(r.u64(), None);
    }

    #[test]
    fn count_refuses_what_the_input_cannot_hold() {
        let counted = |count: u32, payload: usize| {
            let mut out = Vec::new();
            put_u32(&mut out, count);
            out.resize(4 + payload, 0);
            out
        };
        // Past the payload: 3 entries of 8 bytes need 24, 23 are there.
        assert_eq!(Reader::new(&counted(3, 23)).count(8), None);
        // An exact fit, and entries of no size.
        let input = counted(3, 24);
        let mut r = Reader::new(&input);
        assert_eq!(r.count(8), Some(3));
        assert_eq!(r.remaining(), 24);
        assert_eq!(Reader::new(&counted(7, 0)).count(0), Some(7));
        // A count whose byte size overflows `usize` is refused, not wrapped.
        assert_eq!(Reader::new(&counted(u32::MAX, 16)).count(usize::MAX), None);
        assert_eq!(Reader::new(&counted(2, 16)).count(usize::MAX / 2 + 1), None);
        // No count at all.
        assert_eq!(Reader::new(&[0u8; 3]).count(1), None);
    }

    #[test]
    fn reader_tracks_position() {
        let mut out = Vec::new();
        put_u32(&mut out, 1);
        put_u32(&mut out, 2);
        let mut r = Reader::new(&out);
        assert_eq!(r.remaining(), 8);
        r.u32();
        assert_eq!(r.remaining(), 4);
        r.u32();
        assert!(r.is_exhausted());
        assert_eq!(r.u32(), None);
    }
}
