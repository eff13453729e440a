//! Error type for the storage substrate.

use std::fmt;

use spitz_crypto::Hash;

/// Coarse classification of an OS-level I/O failure, so retry and
/// degraded-mode logic can match on the *kind* of failure instead of
/// substring-sniffing an error message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoErrorKind {
    /// The device (or quota) is out of space — `ENOSPC`/`EDQUOT`. Retrying
    /// cannot help; the correct response is to stop accepting writes.
    NoSpace,
    /// A transient condition (`EINTR`, timeouts, busy resources) that a
    /// bounded retry with backoff may clear.
    Transient,
    /// Any other failure: hard `EIO`, permissions, bad descriptors,
    /// injected faults. Treated as fail-stop for the affected operation.
    Other,
}

impl IoErrorKind {
    /// Classify a raw OS error.
    pub(crate) fn classify(err: &std::io::Error) -> IoErrorKind {
        use std::io::ErrorKind as K;
        match err.kind() {
            K::StorageFull | K::QuotaExceeded => IoErrorKind::NoSpace,
            K::Interrupted | K::TimedOut | K::WouldBlock | K::ResourceBusy => {
                IoErrorKind::Transient
            }
            _ => match err.raw_os_error() {
                // ENOSPC on platforms where the mapped kind is opaque.
                Some(28) => IoErrorKind::NoSpace,
                _ => IoErrorKind::Other,
            },
        }
    }
}

impl fmt::Display for IoErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoErrorKind::NoSpace => write!(f, "no-space"),
            IoErrorKind::Transient => write!(f, "transient"),
            IoErrorKind::Other => write!(f, "other"),
        }
    }
}

/// Structured payload of [`StorageError::Io`]: what failed, where, and
/// whether it is worth retrying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoError {
    /// Failure classification (drives retry / read-only decisions).
    pub kind: IoErrorKind,
    /// The storage operation that failed (`"append"`, `"fsync"`, ...).
    pub op: &'static str,
    /// The file or directory involved; empty for synthetic errors that are
    /// not tied to a path (aborted commits, injected faults).
    pub path: String,
    /// The underlying OS error message (or the injected fault description).
    pub message: String,
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "i/o error [{}] during {}: {}", self.kind, self.op, {
                &self.message
            })
        } else {
            write!(
                f,
                "i/o error [{}] during {} on {}: {}",
                self.kind, self.op, self.path, self.message
            )
        }
    }
}

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A chunk referenced by hash was not present in the store.
    ChunkNotFound(Hash),
    /// A chunk was found but had an unexpected kind (e.g. a blob chunk where
    /// a meta node was expected). Carries `(expected, found)` kind names.
    WrongChunkKind {
        /// The kind the caller expected.
        expected: &'static str,
        /// The kind actually stored under the hash.
        found: &'static str,
    },
    /// A chunk's payload failed to decode (corrupt or truncated encoding).
    CorruptChunk(Hash),
    /// The content hash of a chunk did not match the address it was fetched
    /// under — the store (or an attacker) tampered with the data.
    IntegrityViolation {
        /// The address the chunk was requested under.
        expected: Hash,
        /// The hash of the bytes actually returned.
        actual: Hash,
    },
    /// A named branch/key was not found in the version manager.
    KeyNotFound(String),
    /// Invalid configuration (e.g. chunker min size larger than max size).
    InvalidConfig(String),
    /// An operating-system I/O failure in a durable store, with the failing
    /// operation, path and a retryability classification.
    Io(IoError),
    /// The store has entered read-only degraded mode (out of space, or
    /// corruption that salvage could not fully repair): reads keep serving,
    /// writes fail fast with this error. Carries the reason the store
    /// degraded.
    ReadOnly(String),
    /// A durable segment file failed validation: a record in the *middle* of
    /// a segment has a bad CRC or an undecodable header. (A damaged record at
    /// the very tail of the last segment is treated as a torn write and
    /// dropped instead.)
    SegmentCorrupt {
        /// Segment id containing the bad record.
        segment: u64,
        /// Byte offset of the bad record within the segment file.
        offset: u64,
        /// What failed to validate.
        reason: String,
    },
    /// The manifest file of a durable store could not be parsed.
    ManifestCorrupt(String),
    /// The component (e.g. a commit pipeline) has shut down and accepts no
    /// further operations.
    Closed,
}

impl StorageError {
    /// Wrap an OS error together with the operation and path it occurred on.
    pub fn io(op: &'static str, path: &std::path::Path, err: std::io::Error) -> Self {
        StorageError::Io(IoError {
            kind: IoErrorKind::classify(&err),
            op,
            path: path.display().to_string(),
            message: err.to_string(),
        })
    }

    /// Construct a synthetic I/O error that is not backed by a real OS error
    /// (fault injection, aborted group commits).
    pub fn io_synthetic(kind: IoErrorKind, op: &'static str, message: impl Into<String>) -> Self {
        StorageError::Io(IoError {
            kind,
            op,
            path: String::new(),
            message: message.into(),
        })
    }

    /// The I/O failure classification, if this is an [`StorageError::Io`].
    pub fn io_kind(&self) -> Option<IoErrorKind> {
        match self {
            StorageError::Io(e) => Some(e.kind),
            _ => None,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ChunkNotFound(h) => write!(f, "chunk {h} not found"),
            StorageError::WrongChunkKind { expected, found } => {
                write!(f, "expected {expected} chunk, found {found}")
            }
            StorageError::CorruptChunk(h) => write!(f, "chunk {h} is corrupt"),
            StorageError::IntegrityViolation { expected, actual } => write!(
                f,
                "integrity violation: requested {expected}, content hashes to {actual}"
            ),
            StorageError::KeyNotFound(k) => write!(f, "key {k:?} not found"),
            StorageError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            StorageError::Io(e) => write!(f, "{e}"),
            StorageError::ReadOnly(reason) => {
                write!(f, "store is read-only: {reason}")
            }
            StorageError::SegmentCorrupt {
                segment,
                offset,
                reason,
            } => write!(f, "segment {segment} corrupt at offset {offset}: {reason}"),
            StorageError::ManifestCorrupt(msg) => write!(f, "manifest corrupt: {msg}"),
            StorageError::Closed => write!(f, "component is closed"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;
    use spitz_crypto::sha256;

    #[test]
    fn display_messages_are_informative() {
        let h = sha256(b"x");
        assert!(StorageError::ChunkNotFound(h)
            .to_string()
            .contains("not found"));
        assert!(StorageError::CorruptChunk(h)
            .to_string()
            .contains("corrupt"));
    }

    #[test]
    fn io_errors_carry_op_path_and_kind() {
        let os = std::io::Error::from_raw_os_error(28); // ENOSPC
        let err = StorageError::io("append", std::path::Path::new("/tmp/seg"), os);
        assert_eq!(err.io_kind(), Some(IoErrorKind::NoSpace));
        let msg = err.to_string();
        assert!(msg.contains("append"), "{msg}");
        assert!(msg.contains("/tmp/seg"), "{msg}");
        assert!(msg.contains("no-space"), "{msg}");

        let synth = StorageError::io_synthetic(IoErrorKind::Transient, "fsync", "injected");
        assert_eq!(synth.io_kind(), Some(IoErrorKind::Transient));
        assert!(synth.to_string().contains("injected"));
        assert_eq!(StorageError::Closed.io_kind(), None);
    }

    #[test]
    fn classification_covers_the_retry_relevant_kinds() {
        use std::io::{Error, ErrorKind};
        assert_eq!(
            IoErrorKind::classify(&Error::new(ErrorKind::StorageFull, "full")),
            IoErrorKind::NoSpace
        );
        assert_eq!(
            IoErrorKind::classify(&Error::from_raw_os_error(28)),
            IoErrorKind::NoSpace
        );
        assert_eq!(
            IoErrorKind::classify(&Error::new(ErrorKind::Interrupted, "eintr")),
            IoErrorKind::Transient
        );
        assert_eq!(
            IoErrorKind::classify(&Error::new(ErrorKind::PermissionDenied, "no")),
            IoErrorKind::Other
        );
    }

    #[test]
    fn read_only_error_names_the_reason() {
        let err = StorageError::ReadOnly("device out of space".into());
        assert!(err.to_string().contains("read-only"));
        assert!(err.to_string().contains("out of space"));
    }
}
