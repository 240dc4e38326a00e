//! Metadata protocol (paper §3.2.4).
//!
//! * **File size records** — creating a file stores an *open* record
//!   under the file key; closing it replaces that with the file size. A
//!   file none of whose bytes left the write buffer before `close` — one
//!   shorter than a stripe — is closed with its bytes *inside* the record
//!   instead, so it has no stripe keys at all, and one `set` publishes
//!   size and bytes together: a reader sees the whole file or an open
//!   record, never part. Every record names its file's *generation*: a
//!   64-bit value `create` picks ([`new_generation`]), which is also part
//!   of each stripe key (`s:<path>#<i>@<generation>`). An incarnation
//!   made after an unlink gets a new generation, so its reader never
//!   reaches an old incarnation's stripes, and every copy of one stripe
//!   key holds the same bytes.
//! * **Directory logs** — a directory's value is an append-only log of
//!   child records. Adding a file/directory appends one record via the
//!   store's atomic `append`; deletions append a tombstone. `readdir`
//!   folds the log. A mutation is one request with no read-modify-write
//!   race, but the store's `append` copies the whole log into a new
//!   value, so its cost grows with the directory's size. The append doubles as the parent check:
//!   the store refuses an `append` to a missing key, so `create` never
//!   reads the log it extends — nor does an existence check (a
//!   zero-length ranged probe answers; the log never compacts).
//!
//! Size record format, three states told apart by the first byte:
//!
//! ```text
//! O<generation: u64 LE>                          open: created, not yet closed
//! S<generation: u64 LE><size: u64 LE>            closed, its bytes in stripes
//! I<generation: u64 LE><size: u64 LE><bytes>     closed, its bytes inline
//! ```
//!
//! The first [`RECORD_HEAD`] bytes of any record give its state,
//! generation and size, so `stat`, `exists`, `unlink` and the repair pass
//! read only that head (`getrange`), never an inline file's bytes.
//!
//! Directory log format (one record per line, names cannot contain
//! whitespace):
//!
//! ```text
//! F<name>\n    child file created
//! D<name>\n    child directory created
//! -<name>\n    child removed (tombstone)
//! ```

use std::collections::BTreeMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{MemFsError, MemFsResult};

/// Child entry kind recorded in a directory log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildKind {
    /// A regular file.
    File,
    /// A directory.
    Dir,
}

/// The state a file-size record gives its file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeRecord {
    /// Created but not yet closed — size unknown.
    Open,
    /// Closed with the given final size; the bytes are in stripes.
    Striped(u64),
    /// Closed with the given final size; the bytes follow the record's
    /// [`INLINE_HEAD`] and the file has no stripes.
    Inline(u64),
}

impl SizeRecord {
    /// The final size, once closed.
    pub fn size(self) -> Option<u64> {
        match self {
            SizeRecord::Open => None,
            SizeRecord::Striped(size) | SizeRecord::Inline(size) => Some(size),
        }
    }
}

/// A decoded file-size record: which incarnation of the file it is, and
/// its state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// The incarnation, picked at `create`; its stripes are keyed by it.
    pub generation: u64,
    /// Open, or closed with a size.
    pub state: SizeRecord,
}

const OPEN_TAG: u8 = b'O';
const STRIPED_TAG: u8 = b'S';
const INLINE_TAG: u8 = b'I';

/// Bytes of an open record: the tag and the generation.
const OPEN_LEN: usize = 1 + 8;

/// Bytes of a striped record, and of an inline record before the file's
/// own: the tag, the generation and the size.
pub const INLINE_HEAD: usize = 1 + 8 + 8;

/// How much of a record tells its state, generation and size: the longest
/// fixed-size record and one byte more, so a longer one is caught as
/// corrupt; of an inline record, the head and the file's first byte.
pub const RECORD_HEAD: usize = INLINE_HEAD + 1;

/// A fresh generation for a file `create` is about to publish: a process
/// counter hashed under `std`'s randomly keyed hasher, so two incarnations
/// of one path — from one mount or from any two — do not share one.
pub fn new_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let mut hasher = std::collections::hash_map::RandomState::new().build_hasher();
    hasher.write_u64(NEXT.fetch_add(1, Ordering::Relaxed));
    hasher.finish()
}

/// Encode the open record of generation `generation`.
pub fn encode_open(generation: u64) -> Vec<u8> {
    let mut record = vec![OPEN_TAG];
    record.extend_from_slice(&generation.to_le_bytes());
    record
}

/// Encode a striped file's closed record.
pub fn encode_size(generation: u64, size: u64) -> Vec<u8> {
    let mut record = inline_head(generation, size);
    record[0] = STRIPED_TAG;
    record.to_vec()
}

/// The head of an inline record of a `size`-byte file; the file's bytes
/// follow it.
pub fn inline_head(generation: u64, size: u64) -> [u8; INLINE_HEAD] {
    let mut head = [INLINE_TAG; INLINE_HEAD];
    head[1..9].copy_from_slice(&generation.to_le_bytes());
    head[9..].copy_from_slice(&size.to_le_bytes());
    head
}

/// Decode a whole file-size record (`path` is only for error messages).
pub fn decode_size(raw: &[u8], path: &str) -> MemFsResult<Record> {
    decode(raw, true, path)
}

/// Decode a record from its first [`RECORD_HEAD`] bytes; fewer are the
/// whole record. The state, generation and size are exact; only the
/// length of an inline file's bytes past the head goes unchecked.
pub fn decode_head(head: &[u8], path: &str) -> MemFsResult<Record> {
    decode(head, head.len() < RECORD_HEAD, path)
}

fn decode(raw: &[u8], whole: bool, path: &str) -> MemFsResult<Record> {
    let corrupt = |what: &str| {
        MemFsError::CorruptMetadata(format!(
            "file record of {path} {what}: {:?}",
            String::from_utf8_lossy(&raw[..raw.len().min(RECORD_HEAD)])
        ))
    };
    let word = |at: usize| {
        let bytes: Option<[u8; 8]> = raw.get(at..at + 8).and_then(|b| b.try_into().ok());
        bytes.map(u64::from_le_bytes)
    };
    let generation = word(1).ok_or_else(|| corrupt("is cut inside its head"))?;
    let fixed = |len: usize| raw.len() == len;
    let state = match (raw[0], word(9)) {
        (OPEN_TAG, _) if fixed(OPEN_LEN) => SizeRecord::Open,
        (STRIPED_TAG, Some(size)) if fixed(INLINE_HEAD) => SizeRecord::Striped(size),
        (INLINE_TAG, Some(size)) => {
            let bytes = (raw.len() - INLINE_HEAD) as u64;
            let fits = if whole { bytes == size } else { bytes <= size };
            if !fits {
                return Err(corrupt(&format!("holds {bytes} bytes of an inline {size}")));
            }
            SizeRecord::Inline(size)
        }
        (STRIPED_TAG | INLINE_TAG, None) => return Err(corrupt("is cut inside its head")),
        (OPEN_TAG | STRIPED_TAG, _) => return Err(corrupt("is longer than its state")),
        _ => return Err(corrupt("has no known state")),
    };
    Ok(Record { generation, state })
}

/// Encode one directory-log record for an added child.
pub fn encode_add(name: &str, kind: ChildKind) -> Vec<u8> {
    let tag = match kind {
        ChildKind::File => 'F',
        ChildKind::Dir => 'D',
    };
    format!("{tag}{name}\n").into_bytes()
}

/// Encode one tombstone record for a removed child.
pub fn encode_remove(name: &str) -> Vec<u8> {
    format!("-{name}\n").into_bytes()
}

/// Fold a directory log into the live children, sorted by name.
///
/// Later records win: add → remove → add leaves the child present (name
/// reuse after deletion is allowed even under write-once semantics — the
/// *file* key is a fresh object).
pub fn fold_dir_log(raw: &[u8], path: &str) -> MemFsResult<Vec<(String, ChildKind)>> {
    let text = std::str::from_utf8(raw).map_err(|_| {
        MemFsError::CorruptMetadata(format!("directory log of {path} is not UTF-8"))
    })?;
    let mut live: BTreeMap<&str, ChildKind> = BTreeMap::new();
    for line in text.split('\n').filter(|l| !l.is_empty()) {
        let (tag, name) = line.split_at(1);
        if name.is_empty() {
            return Err(MemFsError::CorruptMetadata(format!(
                "empty child name in directory log of {path}"
            )));
        }
        match tag {
            "F" => {
                live.insert(name, ChildKind::File);
            }
            "D" => {
                live.insert(name, ChildKind::Dir);
            }
            "-" => {
                live.remove(name);
            }
            other => {
                return Err(MemFsError::CorruptMetadata(format!(
                    "unknown record tag {other:?} in directory log of {path}"
                )))
            }
        }
    }
    Ok(live
        .into_iter()
        .map(|(name, kind)| (name.to_string(), kind))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(generation: u64, state: SizeRecord) -> Record {
        Record { generation, state }
    }

    #[test]
    fn size_record_round_trip() {
        for g in [0, 1, 0x0123_4567_89ab_cdef, u64::MAX] {
            assert_eq!(
                decode_size(&encode_open(g), "/f").unwrap(),
                record(g, SizeRecord::Open)
            );
            assert_eq!(decode_head(&encode_open(g), "/f").unwrap().generation, g);
            for size in [0, 12345, u64::MAX] {
                assert_eq!(
                    decode_size(&encode_size(g, size), "/f").unwrap(),
                    record(g, SizeRecord::Striped(size))
                );
            }
            for len in [0usize, 1, 11, 12, 13, 300] {
                let mut bytes = inline_head(g, len as u64).to_vec();
                bytes.extend((0..len).map(|i| i as u8));
                let inline = record(g, SizeRecord::Inline(len as u64));
                assert_eq!(decode_size(&bytes, "/f").unwrap(), inline, "{len}");
                let head = &bytes[..bytes.len().min(RECORD_HEAD)];
                assert_eq!(decode_head(head, "/f").unwrap(), inline, "{len}");
            }
        }
    }

    #[test]
    fn generations_differ() {
        let mut seen: Vec<u64> = (0..1000).map(|_| new_generation()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 1000);
    }

    #[test]
    fn corrupt_size_record_detected() {
        assert!(decode_size(b"", "/f").is_err());
        assert!(decode_size(b"not-a-number", "/f").is_err());
        assert!(decode_size(&[0xFF; 17], "/f").is_err());
        assert!(decode_size(b"4096", "/f").is_err());
        // Cut inside the generation, or a closed record inside its size.
        assert!(decode_size(&encode_open(1)[..5], "/f").is_err());
        assert!(decode_size(&encode_size(1, 2)[..12], "/f").is_err());
        assert!(decode_head(&inline_head(1, 0)[..12], "/f").is_err());
        // A fixed-size record with a byte too many, whole or as a head.
        for mut long in [encode_open(1), encode_size(1, 2)] {
            long.push(0);
            assert!(decode_size(&long, "/f").is_err());
            assert!(decode_head(&long, "/f").is_err());
        }
        // An inline record whose size disagrees with its length, whole or
        // as a head that is the whole record.
        let mut bytes = inline_head(1, 5).to_vec();
        assert!(decode_head(&bytes, "/f").is_err());
        bytes.extend_from_slice(b"four");
        assert!(decode_size(&bytes, "/f").is_err());
        bytes.extend_from_slice(b"56");
        assert!(decode_size(&bytes, "/f").is_err());
        assert!(decode_head(&bytes[..RECORD_HEAD], "/f").is_ok());
        // A head claiming fewer bytes than it has.
        let mut long = inline_head(1, 0).to_vec();
        long.push(0);
        assert!(decode_head(&long, "/f").is_err());
        // A head of a longer record is not checked past itself.
        long[9..INLINE_HEAD].copy_from_slice(&1000u64.to_le_bytes());
        assert_eq!(
            decode_head(&long, "/f").unwrap(),
            record(1, SizeRecord::Inline(1000))
        );
        assert!(decode_size(&long, "/f").is_err());
    }

    #[test]
    fn dir_log_folds_adds() {
        let mut log = Vec::new();
        log.extend(encode_add("b.dat", ChildKind::File));
        log.extend(encode_add("a.dat", ChildKind::File));
        log.extend(encode_add("sub", ChildKind::Dir));
        let children = fold_dir_log(&log, "/d").unwrap();
        assert_eq!(
            children,
            vec![
                ("a.dat".to_string(), ChildKind::File),
                ("b.dat".to_string(), ChildKind::File),
                ("sub".to_string(), ChildKind::Dir),
            ]
        );
    }

    #[test]
    fn tombstones_hide_children() {
        let mut log = Vec::new();
        log.extend(encode_add("x", ChildKind::File));
        log.extend(encode_remove("x"));
        assert!(fold_dir_log(&log, "/d").unwrap().is_empty());
    }

    #[test]
    fn name_reuse_after_delete() {
        let mut log = Vec::new();
        log.extend(encode_add("x", ChildKind::File));
        log.extend(encode_remove("x"));
        log.extend(encode_add("x", ChildKind::Dir));
        let children = fold_dir_log(&log, "/d").unwrap();
        assert_eq!(children, vec![("x".to_string(), ChildKind::Dir)]);
    }

    #[test]
    fn empty_log_is_empty_dir() {
        assert!(fold_dir_log(b"", "/d").unwrap().is_empty());
    }

    #[test]
    fn corrupt_dir_log_detected() {
        assert!(fold_dir_log(b"Zbogus\n", "/d").is_err());
        assert!(fold_dir_log(b"F\n", "/d").is_err());
        assert!(fold_dir_log(&[0xC0, 0xAF], "/d").is_err());
    }

    #[test]
    fn interleaved_adds_and_removes_fold_correctly() {
        let mut log = Vec::new();
        for i in 0..10 {
            log.extend(encode_add(&format!("f{i}"), ChildKind::File));
        }
        for i in (0..10).step_by(2) {
            log.extend(encode_remove(&format!("f{i}")));
        }
        let children = fold_dir_log(&log, "/d").unwrap();
        assert_eq!(children.len(), 5);
        assert!(children.iter().all(|(n, _)| {
            let i: usize = n[1..].parse().unwrap();
            i % 2 == 1
        }));
    }
}
