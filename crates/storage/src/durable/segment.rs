//! Segment files: append-only carriers of chunk and root records.
//!
//! A [`Segment`] wraps one open file handle, its only descriptor, shared by
//! the appender (the active segment), by random-access readers (all
//! segments) and by `fsync`. Reads are positional (`pread`), so they move
//! no shared seek position and take no lock: readers of one segment, of
//! different segments, and cache hits, which never reach a segment at all,
//! all proceed in parallel, and a sync in progress blocks none of them.
//! The handle is opened for appending, so every write lands at the end of
//! the file; appends are serialized by the store's writer lock.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use spitz_crypto::Hash;

use crate::chunk::{Chunk, ChunkKind};
use crate::error::{IoErrorKind, StorageError};
use crate::Result;

use super::format::{
    decode_record, decode_segment_header, encode_record, encode_root_record, encode_segment_header,
    RecordBody, SEGMENT_HEADER_LEN,
};
use super::io::{FsyncOutcome, SegmentIoHandle, WriteOutcome};

/// Location of one chunk record inside the segment set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkLocation {
    /// Id of the segment holding the record.
    pub segment: u64,
    /// Byte offset of the record within the segment file.
    pub offset: u64,
    /// Total encoded length of the record.
    pub len: u32,
    /// Kind of the stored chunk (kept in the index so `get_kind` mismatches
    /// fail without touching the disk).
    pub kind: ChunkKind,
}

/// File name of segment `id` (fixed width so lexicographic = numeric order).
pub(crate) fn segment_file_name(id: u64) -> String {
    format!("seg-{id:010}.spitz")
}

/// Parse a segment id back out of a file name produced by
/// [`segment_file_name`].
pub(crate) fn parse_segment_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".spitz")?
        .parse()
        .ok()
}

/// One open segment file.
#[derive(Debug)]
pub struct Segment {
    /// Segment id (position in the manifest's segment order).
    pub id: u64,
    path: PathBuf,
    /// The one handle: positional reads, appends and `fsync`.
    file: File,
    /// Current file length; the append offset for the active segment.
    len: AtomicU64,
    /// Fault-injection seam consulted before every append and fsync; the
    /// production handle ([`real_io`]) never injects.
    io: SegmentIoHandle,
}

/// Outcome of scanning a segment at open time.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Address and location of every intact chunk record, in file order.
    pub records: Vec<(Hash, ChunkLocation)>,
    /// Every intact root-publication record, in file order (later entries
    /// supersede earlier ones for the same name).
    pub roots: Vec<(String, Hash)>,
    /// Bytes dropped from the tail as a torn write (0 when the file was
    /// clean). Only ever non-zero when scanning with `tolerate_torn_tail`.
    pub torn_bytes: u64,
}

impl Segment {
    /// Create a fresh segment file (fails if it already exists), writing
    /// through the fault-injection seam `io`.
    pub(crate) fn create(dir: &Path, id: u64, io: SegmentIoHandle) -> Result<Segment> {
        let path = dir.join(segment_file_name(id));
        let mut file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| StorageError::io("create", &path, e))?;
        let header = encode_segment_header(id);
        file.write_all(&header)
            .map_err(|e| StorageError::io("create", &path, e))?;
        Ok(Segment {
            id,
            path,
            file,
            len: AtomicU64::new(SEGMENT_HEADER_LEN),
            io,
        })
    }

    /// Open an existing segment file and validate its header; writes go
    /// through the fault-injection seam `io`.
    pub(crate) fn open(dir: &Path, id: u64, io: SegmentIoHandle) -> Result<Segment> {
        let path = dir.join(segment_file_name(id));
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| StorageError::io("open", &path, e))?;
        let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
        file.read_exact_at(&mut header, 0)
            .map_err(|e| StorageError::io("open", &path, e))?;
        match decode_segment_header(&header) {
            Some(found) if found == id => {}
            _ => {
                return Err(StorageError::SegmentCorrupt {
                    segment: id,
                    offset: 0,
                    reason: "bad segment header".into(),
                })
            }
        }
        let len = file
            .metadata()
            .map_err(|e| StorageError::io("open", &path, e))?
            .len();
        Ok(Segment {
            id,
            path,
            file,
            len: AtomicU64::new(len),
            io,
        })
    }

    /// Current file length (the append offset for the active segment).
    pub(crate) fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// Append pre-encoded record bytes; returns the offset they start at.
    /// On a failed write the file is cut back to its previous length so a
    /// partial record never sits in the middle of later appends — except for
    /// an injected *torn* write, which deliberately leaves the partial tail
    /// in place (that is the fault being modelled; the store responds by
    /// refusing further appends, and the reopen scan truncates the tail).
    fn append_bytes(&self, record: &[u8]) -> Result<u64> {
        let offset = self.len.load(Ordering::Acquire);
        let mut file = &self.file;
        match self.io.on_append(self.id, record.len()) {
            WriteOutcome::Full => {
                if let Err(e) = file.write_all(record) {
                    let _ = file.set_len(offset);
                    return Err(StorageError::io("append", &self.path, e));
                }
            }
            WriteOutcome::Torn { prefix } => {
                let prefix = prefix.min(record.len());
                let _ = file.write_all(&record[..prefix]);
                return Err(StorageError::io_synthetic(
                    IoErrorKind::Other,
                    "append",
                    format!("injected torn write ({prefix}/{} bytes)", record.len()),
                ));
            }
            WriteOutcome::Corrupt { offset: at, mask } => {
                let mut damaged = record.to_vec();
                let at = at.min(damaged.len().saturating_sub(1));
                damaged[at] ^= if mask == 0 { 0x01 } else { mask };
                if let Err(e) = file.write_all(&damaged) {
                    let _ = file.set_len(offset);
                    return Err(StorageError::io("append", &self.path, e));
                }
            }
            WriteOutcome::Fail(kind) => {
                return Err(StorageError::io_synthetic(
                    kind,
                    "append",
                    format!("injected append fault ({kind})"),
                ));
            }
        }
        self.len
            .store(offset + record.len() as u64, Ordering::Release);
        Ok(offset)
    }

    /// Append one encoded chunk record; returns its location.
    pub(crate) fn append(&self, address: &Hash, chunk: &Chunk) -> Result<ChunkLocation> {
        let record = encode_record(address, chunk);
        let offset = self.append_bytes(&record)?;
        Ok(ChunkLocation {
            segment: self.id,
            offset,
            len: record.len() as u32,
            kind: chunk.kind(),
        })
    }

    /// Append one root-publication record ("root `name` → `hash`").
    pub(crate) fn append_root(&self, name: &str, hash: &Hash) -> Result<()> {
        self.append_bytes(&encode_root_record(name, hash))
            .map(|_| ())
    }

    /// Read back and validate the chunk record at `location`.
    pub(crate) fn read(&self, location: &ChunkLocation) -> Result<Chunk> {
        let mut buf = vec![0u8; location.len as usize];
        self.file
            .read_exact_at(&mut buf, location.offset)
            .map_err(|e| StorageError::io("read", &self.path, e))?;
        let corrupt = |reason: String| StorageError::SegmentCorrupt {
            segment: self.id,
            offset: location.offset,
            reason,
        };
        let (decoded, _) = decode_record(&buf).map_err(|e| corrupt(format!("{e:?}")))?;
        match decoded.body {
            RecordBody::Chunk { kind, payload } => Ok(Chunk::new(kind, payload)),
            RecordBody::Root { .. } => {
                Err(corrupt("root record where a chunk was expected".into()))
            }
        }
    }

    /// Flush file contents to stable storage (`fsync`). Readers take no
    /// lock, so a sync in progress blocks none of them.
    pub(crate) fn sync(&self) -> Result<()> {
        match self.io.on_fsync(self.id) {
            FsyncOutcome::Ok => self
                .file
                .sync_all()
                .map_err(|e| StorageError::io("fsync", &self.path, e)),
            FsyncOutcome::Fail(kind) => Err(StorageError::io_synthetic(
                kind,
                "fsync",
                format!("injected fsync fault ({kind})"),
            )),
        }
    }

    /// Scan every record in the segment, rebuilding index entries and
    /// replaying root publications.
    ///
    /// `tolerate_torn_tail` is set for the *last* segment only: a record
    /// that is cut short or fails its CRC **at the very end of the file** is
    /// treated as the remnant of a crashed append — the file is truncated
    /// back to the last intact record and the scan succeeds. The same damage
    /// anywhere else (or in a sealed segment) is corruption and fails the
    /// open.
    pub(crate) fn scan(&self, tolerate_torn_tail: bool) -> Result<ScanOutcome> {
        let io_error = |e| StorageError::io("scan", &self.path, e);
        let len = self.file.metadata().map_err(io_error)?.len();
        let mut bytes = vec![0u8; len as usize];
        self.file.read_exact_at(&mut bytes, 0).map_err(io_error)?;
        if decode_segment_header(&bytes).is_none() {
            return Err(StorageError::SegmentCorrupt {
                segment: self.id,
                offset: 0,
                reason: "bad segment header".into(),
            });
        }

        let mut records = Vec::new();
        let mut roots = Vec::new();
        let mut offset = SEGMENT_HEADER_LEN as usize;
        while offset < bytes.len() {
            match decode_record(&bytes[offset..]) {
                Ok((decoded, consumed)) => {
                    match decoded.body {
                        RecordBody::Chunk { kind, .. } => records.push((
                            decoded.address,
                            ChunkLocation {
                                segment: self.id,
                                offset: offset as u64,
                                len: consumed as u32,
                                kind,
                            },
                        )),
                        RecordBody::Root { name } => roots.push((name.to_owned(), decoded.address)),
                    }
                    offset += consumed;
                }
                Err(error) => {
                    // A damaged record that still claims to end before EOF
                    // cannot be a torn append — refuse to open.
                    let claimed_end = record_claimed_end(&bytes, offset);
                    let reaches_eof = claimed_end.map(|end| end >= bytes.len()).unwrap_or(true);
                    if !(tolerate_torn_tail && reaches_eof) {
                        return Err(StorageError::SegmentCorrupt {
                            segment: self.id,
                            offset: offset as u64,
                            reason: format!("{error:?}"),
                        });
                    }
                    let torn = (bytes.len() - offset) as u64;
                    self.truncate_to(offset as u64)?;
                    return Ok(ScanOutcome {
                        records,
                        roots,
                        torn_bytes: torn,
                    });
                }
            }
        }
        self.len.store(bytes.len() as u64, Ordering::Release);
        Ok(ScanOutcome {
            records,
            roots,
            torn_bytes: 0,
        })
    }

    /// Cut the file back to `len` bytes (dropping a torn tail record).
    fn truncate_to(&self, len: u64) -> Result<()> {
        self.file
            .set_len(len)
            .map_err(|e| StorageError::io("truncate", &self.path, e))?;
        self.len.store(len, Ordering::Release);
        Ok(())
    }
}

/// Where the record starting at `offset` claims to end, if its length
/// prefix is readable.
fn record_claimed_end(bytes: &[u8], offset: usize) -> Option<usize> {
    let prefix = bytes.get(offset..offset + 4)?;
    let payload_len = u32::from_be_bytes(prefix.try_into().ok()?) as usize;
    Some(offset + super::format::RECORD_OVERHEAD + payload_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::io::real_io;
    use crate::durable::testutil::TempDir;

    fn blob(data: &[u8]) -> Chunk {
        Chunk::new(ChunkKind::Blob, data.to_vec())
    }

    #[test]
    fn append_scan_read_roundtrip() {
        let dir = TempDir::new("segment-roundtrip");
        let segment = Segment::create(dir.path(), 0, real_io()).unwrap();
        let chunks: Vec<Chunk> = (0..10u8).map(|i| blob(&[i; 33])).collect();
        let mut locations = Vec::new();
        for chunk in &chunks {
            locations.push(segment.append(&chunk.address(), chunk).unwrap());
        }
        for (chunk, location) in chunks.iter().zip(&locations) {
            assert_eq!(&segment.read(location).unwrap(), chunk);
        }

        let reopened = Segment::open(dir.path(), 0, real_io()).unwrap();
        let outcome = reopened.scan(true).unwrap();
        assert_eq!(outcome.torn_bytes, 0);
        assert_eq!(outcome.records.len(), 10);
        assert!(outcome.roots.is_empty());
        for ((address, location), chunk) in outcome.records.iter().zip(&chunks) {
            assert_eq!(*address, chunk.address());
            assert_eq!(&reopened.read(location).unwrap(), chunk);
        }
    }

    #[test]
    fn root_records_interleave_with_chunks_and_replay_in_order() {
        let dir = TempDir::new("segment-roots");
        let segment = Segment::create(dir.path(), 0, real_io()).unwrap();
        let chunk1 = blob(b"block one");
        let chunk2 = blob(b"block two");
        segment.append(&chunk1.address(), &chunk1).unwrap();
        segment.append_root("head", &chunk1.address()).unwrap();
        segment.append(&chunk2.address(), &chunk2).unwrap();
        segment.append_root("head", &chunk2.address()).unwrap();
        segment.append_root("other", &chunk1.address()).unwrap();

        let reopened = Segment::open(dir.path(), 0, real_io()).unwrap();
        let outcome = reopened.scan(true).unwrap();
        assert_eq!(outcome.records.len(), 2);
        assert_eq!(
            outcome.roots,
            vec![
                ("head".to_string(), chunk1.address()),
                ("head".to_string(), chunk2.address()),
                ("other".to_string(), chunk1.address()),
            ]
        );
    }

    #[test]
    fn reading_a_root_record_as_a_chunk_fails() {
        let dir = TempDir::new("segment-root-read");
        let segment = Segment::create(dir.path(), 0, real_io()).unwrap();
        let offset = segment.len();
        let hash = spitz_crypto::sha256(b"target");
        segment.append_root("head", &hash).unwrap();
        let bogus = ChunkLocation {
            segment: 0,
            offset,
            len: (segment.len() - offset) as u32,
            kind: ChunkKind::Blob,
        };
        assert!(matches!(
            segment.read(&bogus),
            Err(StorageError::SegmentCorrupt { .. })
        ));
    }

    #[test]
    fn torn_tail_is_truncated_only_when_tolerated() {
        let dir = TempDir::new("segment-torn");
        let segment = Segment::create(dir.path(), 3, real_io()).unwrap();
        for i in 0..5u8 {
            let chunk = blob(&[i; 50]);
            segment.append(&chunk.address(), &chunk).unwrap();
        }
        let full_len = segment.len();
        drop(segment);

        // Cut into the middle of the last record.
        let path = dir.path().join(segment_file_name(3));
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full_len - 20).unwrap();
        drop(file);

        let sealed = Segment::open(dir.path(), 3, real_io()).unwrap();
        assert!(matches!(
            sealed.scan(false),
            Err(StorageError::SegmentCorrupt { segment: 3, .. })
        ));

        let tail = Segment::open(dir.path(), 3, real_io()).unwrap();
        let outcome = tail.scan(true).unwrap();
        assert_eq!(outcome.records.len(), 4);
        assert!(outcome.torn_bytes > 0);
        // The file is physically truncated back to the intact prefix and
        // appends keep working.
        let chunk = blob(b"after recovery");
        let location = tail.append(&chunk.address(), &chunk).unwrap();
        assert_eq!(tail.read(&location).unwrap(), chunk);
        let rescanned = Segment::open(dir.path(), 3, real_io())
            .unwrap()
            .scan(true)
            .unwrap();
        assert_eq!(rescanned.records.len(), 5);
        assert_eq!(rescanned.torn_bytes, 0);
    }

    #[test]
    fn torn_root_record_is_dropped_like_any_tail() {
        let dir = TempDir::new("segment-torn-root");
        let segment = Segment::create(dir.path(), 0, real_io()).unwrap();
        let chunk = blob(b"data before the root");
        segment.append(&chunk.address(), &chunk).unwrap();
        segment.append_root("head", &chunk.address()).unwrap();
        let full_len = segment.len();
        drop(segment);

        let path = dir.path().join(segment_file_name(0));
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full_len - 2).unwrap(); // tear the root record's CRC
        drop(file);

        let tail = Segment::open(dir.path(), 0, real_io()).unwrap();
        let outcome = tail.scan(true).unwrap();
        assert_eq!(outcome.records.len(), 1, "the data record survives");
        assert!(outcome.roots.is_empty(), "the torn root must not replay");
        assert!(outcome.torn_bytes > 0);
    }

    #[test]
    fn mid_file_corruption_fails_even_with_tolerance() {
        let dir = TempDir::new("segment-midflip");
        let segment = Segment::create(dir.path(), 0, real_io()).unwrap();
        for i in 0..5u8 {
            let chunk = blob(&[i; 50]);
            segment.append(&chunk.address(), &chunk).unwrap();
        }
        drop(segment);

        // Flip one payload byte of the first record.
        let path = dir.path().join(segment_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let index = SEGMENT_HEADER_LEN as usize + 40;
        bytes[index] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let reopened = Segment::open(dir.path(), 0, real_io()).unwrap();
        assert!(matches!(
            reopened.scan(true),
            Err(StorageError::SegmentCorrupt { .. })
        ));
    }

    /// A segment holds exactly one descriptor on its file, through appends,
    /// syncs, reads and a reopen scan.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_segment_holds_one_descriptor() {
        fn descriptors(path: &Path) -> usize {
            let path = std::fs::canonicalize(path).unwrap();
            std::fs::read_dir("/proc/self/fd")
                .unwrap()
                .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
                .filter(|target| *target == path)
                .count()
        }
        let dir = TempDir::new("segment-descriptors");
        let path = dir.path().join(segment_file_name(0));
        let segment = Segment::create(dir.path(), 0, real_io()).unwrap();
        let chunk = blob(b"one descriptor");
        let location = segment.append(&chunk.address(), &chunk).unwrap();
        segment.sync().unwrap();
        assert_eq!(segment.read(&location).unwrap(), chunk);
        assert_eq!(descriptors(&path), 1);
        drop(segment);

        let reopened = Segment::open(dir.path(), 0, real_io()).unwrap();
        assert_eq!(reopened.scan(true).unwrap().records.len(), 1);
        assert_eq!(reopened.read(&location).unwrap(), chunk);
        assert_eq!(descriptors(&path), 1);
    }

    #[test]
    fn segment_file_names_roundtrip() {
        assert_eq!(segment_file_name(7), "seg-0000000007.spitz");
        assert_eq!(parse_segment_file_name("seg-0000000007.spitz"), Some(7));
        assert_eq!(parse_segment_file_name("seg-x.spitz"), None);
        assert_eq!(parse_segment_file_name("other"), None);
    }
}
