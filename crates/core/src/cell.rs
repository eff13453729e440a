//! Universal keys: how a cell of the paper's virtual cell store is named.
//!
//! "Built on top of ForkBase is a virtual cell store, as opposed to row or
//! column store in traditional databases. The system maps each cell to a
//! universal key consisting of the column id, primary key, timestamp, and
//! the hash of its value." (Section 5)
//!
//! The encoding of a [`UniversalKey`] is order preserving on
//! `(column id, primary key, timestamp)`, so a SIRI range scan
//! over one column's primary keys is a contiguous key range, and all
//! versions of one cell are adjacent and ordered by time.
//!
//! Beside each cell a typed record also writes one *index cell*, in the
//! same block and with an empty value:
//!
//! ```text
//! column_prefix(INDEX_COLUMN_ID) | column id | order-preserving value | primary key
//! ```
//!
//! Integers encode as `(v ^ i64::MIN)` big-endian; text and bytes escape
//! `0x00` as `0x00 0xFF` and end with `0x00 0x01`, so no value's encoding
//! is a prefix of another's and byte order is value order. An equality or
//! range query over a column is then one contiguous key range, answered
//! by the ledger itself. The column id `INDEX_COLUMN_ID` (`u32::MAX`) is reserved for
//! these cells: no table column ever takes it.

use spitz_crypto::{sha256, Hash};

use crate::error::DbError;
use crate::schema::Value;
use crate::Result;

/// The column id under which every index cell lives; no table column
/// takes it.
pub(crate) const INDEX_COLUMN_ID: u32 = u32::MAX;

/// The universal key identifying one cell version.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UniversalKey {
    /// Identifier of the column the cell belongs to.
    pub column_id: u32,
    /// Primary key of the row.
    pub primary_key: Vec<u8>,
    /// Commit timestamp of the transaction that wrote this cell version.
    pub timestamp: u64,
    /// Hash of the cell value, binding key and content together.
    pub value_hash: Hash,
}

impl UniversalKey {
    /// Build a universal key for a value being written now.
    pub fn new(
        column_id: u32,
        primary_key: impl Into<Vec<u8>>,
        timestamp: u64,
        value: &[u8],
    ) -> Self {
        UniversalKey {
            column_id,
            primary_key: primary_key.into(),
            timestamp,
            value_hash: sha256(value),
        }
    }

    /// Order-preserving binary encoding:
    /// `column_id || len(primary_key) || primary_key || timestamp || value_hash`.
    ///
    /// The primary key is length-prefixed *after* the fact only for decoding;
    /// for ordering, the raw primary key bytes are placed before the
    /// timestamp so that keys sort by `(column, primary key, time)`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.primary_key.len() + 1 + 8 + 32 + 2);
        out.extend_from_slice(&self.column_id.to_be_bytes());
        out.extend_from_slice(&self.primary_key);
        // 0x00 terminator keeps "a" < "ab" ordering consistent with plain
        // byte comparison of the primary keys themselves (keys must not
        // contain 0x00; the schema layer enforces printable primary keys).
        out.push(0x00);
        out.extend_from_slice(&self.timestamp.to_be_bytes());
        out.extend_from_slice(self.value_hash.as_bytes());
        out
    }

    /// Decode a key produced by [`UniversalKey::encode`].
    pub fn decode(data: &[u8]) -> Result<UniversalKey> {
        let bad = || DbError::BadRequest("malformed universal key".into());
        if data.len() < 4 + 1 + 8 + 32 {
            return Err(bad());
        }
        let column_id = u32::from_be_bytes(data[0..4].try_into().map_err(|_| bad())?);
        let rest = &data[4..];
        let terminator = rest.len() - 8 - 32 - 1;
        if rest[terminator] != 0x00 {
            return Err(bad());
        }
        let primary_key = rest[..terminator].to_vec();
        let timestamp = u64::from_be_bytes(
            rest[terminator + 1..terminator + 9]
                .try_into()
                .map_err(|_| bad())?,
        );
        let mut hash = [0u8; 32];
        hash.copy_from_slice(&rest[terminator + 9..]);
        Ok(UniversalKey {
            column_id,
            primary_key,
            timestamp,
            value_hash: Hash::from_bytes(hash),
        })
    }

    /// The encoded prefix shared by every version of every cell of a column —
    /// used to range-scan a whole column.
    pub fn column_prefix(column_id: u32) -> Vec<u8> {
        column_id.to_be_bytes().to_vec()
    }

    /// The encoded prefix shared by every version of one cell.
    pub fn cell_prefix(column_id: u32, primary_key: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + primary_key.len() + 1);
        out.extend_from_slice(&column_id.to_be_bytes());
        out.extend_from_slice(primary_key);
        out.push(0x00);
        out
    }
}

/// The key prefix shared by the index cells of every record whose column
/// `column_id` holds `value`; an index cell's key is this prefix followed
/// by the record's primary key.
pub(crate) fn index_prefix(column_id: u32, value: &Value) -> Vec<u8> {
    let mut out = UniversalKey::column_prefix(INDEX_COLUMN_ID);
    out.extend_from_slice(&column_id.to_be_bytes());
    let bytes = match value {
        Value::Integer(v) => {
            out.extend_from_slice(&(v ^ i64::MIN).to_be_bytes());
            return out;
        }
        Value::Text(text) => text.as_bytes(),
        Value::Bytes(bytes) => bytes,
    };
    for &byte in bytes {
        out.push(byte);
        if byte == 0x00 {
            out.push(0xFF);
        }
    }
    out.extend_from_slice(&[0x00, 0x01]);
    out
}

/// The smallest key above every key that starts with `prefix` (empty when
/// `prefix` is all `0xFF`): the exclusive end of a prefix scan.
pub(crate) fn prefix_end(prefix: &[u8]) -> Vec<u8> {
    let mut end = prefix.to_vec();
    while end.last() == Some(&0xFF) {
        end.pop();
    }
    if let Some(last) = end.last_mut() {
        *last += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universal_key_roundtrip() {
        let key = UniversalKey::new(7, b"order-001".to_vec(), 42, b"some value");
        let decoded = UniversalKey::decode(&key.encode()).unwrap();
        assert_eq!(decoded, key);
        assert!(UniversalKey::decode(b"short").is_err());
    }

    #[test]
    fn encoding_orders_by_column_then_key_then_time() {
        let k = |c: u32, pk: &str, ts: u64| {
            UniversalKey::new(c, pk.as_bytes().to_vec(), ts, b"v").encode()
        };
        assert!(k(1, "a", 5) < k(2, "a", 1));
        assert!(k(1, "a", 1) < k(1, "b", 1));
        assert!(k(1, "a", 1) < k(1, "a", 2));
        assert!(k(1, "a", 9) < k(1, "ab", 0));
    }

    #[test]
    fn prefixes_cover_their_cells() {
        let key = UniversalKey::new(3, b"pk".to_vec(), 10, b"v");
        let encoded = key.encode();
        assert!(encoded.starts_with(&UniversalKey::column_prefix(3)));
        assert!(encoded.starts_with(&UniversalKey::cell_prefix(3, b"pk")));
        assert!(!encoded.starts_with(&UniversalKey::cell_prefix(3, b"other")));
        assert!(encoded.as_slice() < prefix_end(&UniversalKey::cell_prefix(3, b"pk")).as_slice());
        assert_eq!(prefix_end(&[1, 0xFF, 0xFF]), vec![2]);
    }

    #[test]
    fn index_prefixes_order_like_their_values_and_never_nest() {
        let ints = [i64::MIN, -1, 0, 1, i64::MAX];
        for pair in ints.windows(2) {
            let (a, b) = (Value::Integer(pair[0]), Value::Integer(pair[1]));
            assert!(index_prefix(0, &a) < index_prefix(0, &b));
        }
        let texts = ["", "a\0", "a", "a\0b", "icd", "icd10/"];
        let mut sorted = texts.map(|t| Value::Text(t.into()));
        sorted.sort();
        for pair in sorted.windows(2) {
            let (a, b) = (index_prefix(0, &pair[0]), index_prefix(0, &pair[1]));
            assert!(a < b, "{:?} < {:?}", pair[0], pair[1]);
            assert!(!b.starts_with(&a), "{:?} nests in {:?}", pair[0], pair[1]);
        }
        // Every index cell sorts after every table cell.
        let last_cell = UniversalKey::new(INDEX_COLUMN_ID - 1, b"pk".to_vec(), u64::MAX, b"v");
        assert!(last_cell.encode() < index_prefix(0, &Value::Integer(i64::MIN)));
    }
}
