//! The [`Hash`](struct@Hash) digest type used throughout Spitz.
//!
//! A `Hash` is a 32-byte SHA-256 digest. It is `Copy`, ordered, hashable and
//! serde-serializable, so it can be used directly as a content address in the
//! storage layer, as a node identifier in Merkle structures, and as the value
//! hash component of a universal key.

use std::fmt;

use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::hex::{decode as hex_decode, encode as hex_encode};

/// Number of bytes in a SHA-256 digest.
pub const HASH_LEN: usize = 32;

/// A 32-byte SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hash([u8; HASH_LEN]);

impl Hash {
    /// The all-zero hash, used as a sentinel (e.g. the previous-block hash of
    /// a genesis block, or the root of an empty tree).
    pub const ZERO: Hash = Hash([0u8; HASH_LEN]);

    /// Wrap raw digest bytes.
    pub const fn from_bytes(bytes: [u8; HASH_LEN]) -> Self {
        Hash(bytes)
    }

    /// Borrow the digest bytes.
    pub fn as_bytes(&self) -> &[u8; HASH_LEN] {
        &self.0
    }

    /// Consume the hash and return the digest bytes.
    pub fn into_bytes(self) -> [u8; HASH_LEN] {
        self.0
    }

    /// Render the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        hex_encode(&self.0)
    }

    /// Parse a 64-character hex string into a hash.
    pub fn from_hex(s: &str) -> Result<Self, HashParseError> {
        let bytes = hex_decode(s).map_err(|_| HashParseError::InvalidHex)?;
        if bytes.len() != HASH_LEN {
            return Err(HashParseError::WrongLength(bytes.len()));
        }
        let mut out = [0u8; HASH_LEN];
        out.copy_from_slice(&bytes);
        Ok(Hash(out))
    }

    /// True when this is the all-zero sentinel hash.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; HASH_LEN]
    }

    /// A short 8-character prefix of the hex form, useful in logs and
    /// human-readable dumps of ledger blocks.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }

    /// Interpret the first 8 bytes as a big-endian u64, e.g. for sharding or
    /// bucket selection in the Merkle Bucket Tree.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("hash has at least 8 bytes"))
    }
}

impl fmt::Debug for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash({})", self.short())
    }
}

impl fmt::Display for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Hash {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; HASH_LEN]> for Hash {
    fn from(bytes: [u8; HASH_LEN]) -> Self {
        Hash(bytes)
    }
}

impl Serialize for Hash {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        if serializer.is_human_readable() {
            serializer.serialize_str(&self.to_hex())
        } else {
            serializer.serialize_bytes(&self.0)
        }
    }
}

impl<'de> Deserialize<'de> for Hash {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        if deserializer.is_human_readable() {
            let s = String::deserialize(deserializer)?;
            Hash::from_hex(&s).map_err(D::Error::custom)
        } else {
            let bytes = Vec::<u8>::deserialize(deserializer)?;
            if bytes.len() != HASH_LEN {
                return Err(D::Error::custom("hash must be 32 bytes"));
            }
            let mut out = [0u8; HASH_LEN];
            out.copy_from_slice(&bytes);
            Ok(Hash(out))
        }
    }
}

/// Errors produced when parsing a [`Hash`](struct@Hash) from hex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashParseError {
    /// The input was not valid hexadecimal.
    InvalidHex,
    /// The input decoded to the wrong number of bytes.
    WrongLength(usize),
}

impl fmt::Display for HashParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HashParseError::InvalidHex => write!(f, "invalid hex string"),
            HashParseError::WrongLength(n) => {
                write!(f, "expected {HASH_LEN} bytes, got {n}")
            }
        }
    }
}

impl std::error::Error for HashParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256;

    #[test]
    fn hex_roundtrip() {
        let h = sha256(b"roundtrip");
        let parsed = Hash::from_hex(&h.to_hex()).unwrap();
        assert_eq!(h, parsed);
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(Hash::from_hex("zz"), Err(HashParseError::InvalidHex));
        assert_eq!(Hash::from_hex("abcd"), Err(HashParseError::WrongLength(2)));
    }

    #[test]
    fn zero_sentinel() {
        assert!(Hash::ZERO.is_zero());
        assert!(!sha256(b"x").is_zero());
    }

    #[test]
    fn display_and_short() {
        let h = sha256(b"display");
        assert_eq!(format!("{h}"), h.to_hex());
        assert_eq!(h.short().len(), 8);
        assert!(h.to_hex().starts_with(&h.short()));
    }

    #[test]
    fn ordering_matches_byte_order() {
        let a = Hash::from_bytes([0u8; 32]);
        let mut b_bytes = [0u8; 32];
        b_bytes[0] = 1;
        let b = Hash::from_bytes(b_bytes);
        assert!(a < b);
    }

    #[test]
    fn prefix_u64_uses_leading_bytes() {
        let mut bytes = [0u8; 32];
        bytes[7] = 5;
        assert_eq!(Hash::from_bytes(bytes).prefix_u64(), 5);
    }
}
