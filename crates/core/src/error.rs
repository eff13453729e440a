//! Error type for the Spitz database.

use std::fmt;

/// Errors surfaced by the Spitz database API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A storage-layer failure (missing or corrupt chunk).
    Storage(String),
    /// The backing store has flipped read-only (device out of space or
    /// unrecoverable corruption): reads keep serving, writes fail fast.
    /// The payload is the store's reason.
    ReadOnly(String),
    /// A transaction conflict that the caller should retry. Only a
    /// cross-shard `put_batch` returns it: its 2PC participants take no-wait
    /// locks, so the loser of two overlapping batches aborts. A single put
    /// or single-shard batch is one ledger commit and never conflicts; on a
    /// read-only store it returns [`DbError::ReadOnly`].
    TxnConflict(String),
    /// The request referenced a column or table not present in the schema.
    UnknownColumn(String),
    /// A value had the wrong type for its column.
    TypeMismatch {
        /// The column involved.
        column: String,
        /// The expected column type name.
        expected: &'static str,
    },
    /// Malformed input: an undecodable universal key or typed value, or a
    /// shard store whose membership record does not match the layout it is
    /// opened with.
    BadRequest(String),
    /// Verification of a proof failed — evidence of tampering.
    VerificationFailed(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Storage(msg) => write!(f, "storage error: {msg}"),
            DbError::ReadOnly(reason) => write!(f, "store is read-only: {reason}"),
            DbError::TxnConflict(msg) => write!(f, "transaction conflict: {msg}"),
            DbError::UnknownColumn(name) => write!(f, "unknown column: {name}"),
            DbError::TypeMismatch { column, expected } => {
                write!(f, "column {column} expects a {expected} value")
            }
            DbError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            DbError::VerificationFailed(msg) => write!(f, "verification failed: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<spitz_storage::StorageError> for DbError {
    fn from(e: spitz_storage::StorageError) -> Self {
        match e {
            spitz_storage::StorageError::ReadOnly(reason) => DbError::ReadOnly(reason),
            other => DbError::Storage(other.to_string()),
        }
    }
}

impl From<spitz_txn::TxnError> for DbError {
    fn from(e: spitz_txn::TxnError) -> Self {
        match e {
            spitz_txn::TxnError::Storage(msg) => DbError::Storage(msg),
            other => DbError::TxnConflict(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: DbError = spitz_storage::StorageError::KeyNotFound("x".into()).into();
        assert!(matches!(e, DbError::Storage(_)));
        assert!(e.to_string().contains("storage error"));

        let e: DbError = spitz_txn::TxnError::Conflict("busy".into()).into();
        assert!(matches!(e, DbError::TxnConflict(_)));

        let e: DbError = spitz_storage::StorageError::ReadOnly("disk full".into()).into();
        assert!(matches!(e, DbError::ReadOnly(_)));
        assert!(e.to_string().contains("read-only"));

        let e = DbError::TypeMismatch {
            column: "age".into(),
            expected: "integer",
        };
        assert!(e.to_string().contains("age"));
    }
}
