//! Metadata protocol (paper §3.2.4).
//!
//! * **File size records** — creating a file stores an *empty* value under
//!   the file key; closing it replaces the empty value with the file size.
//!   An empty record therefore means "still being written". A file none of
//!   whose bytes left the write buffer before `close` — one shorter than a
//!   stripe — is closed with its bytes *inside* the record instead, so it
//!   has no stripe keys at all, and one `set` publishes size and bytes
//!   together: a reader sees the whole file or an open record, never part.
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
//! (empty)                    open: created, not yet closed
//! <decimal size>             closed, its bytes in stripes s:<path>#<i>
//! I<size: u64 LE><bytes>     closed, its bytes inline (size = |bytes|)
//! ```
//!
//! The first [`RECORD_HEAD`] bytes of any record give its state and size,
//! so `stat`, `exists` and `unlink` read only that head (`getrange`),
//! never an inline file's bytes.
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

use crate::error::{MemFsError, MemFsResult};

/// Child entry kind recorded in a directory log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildKind {
    /// A regular file.
    File,
    /// A directory.
    Dir,
}

/// The decoded state of a file-size record.
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

/// Opens an inline record: not a decimal digit, so no striped record
/// starts with it.
const INLINE_TAG: u8 = b'I';

/// Bytes of an inline record before the file's own: the tag and the size.
pub const INLINE_HEAD: usize = 1 + 8;

/// How much of a record tells its state and size: a whole decimal record
/// (`u64::MAX` has 20 digits) and one byte more, so a longer number is
/// caught as corrupt; of an inline record, the head and the file's first
/// bytes.
pub const RECORD_HEAD: usize = 21;

/// Encode a striped file's size record.
pub fn encode_size(size: u64) -> Vec<u8> {
    size.to_string().into_bytes()
}

/// The head of an inline record of a `size`-byte file; the file's bytes
/// follow it.
pub fn inline_head(size: u64) -> [u8; INLINE_HEAD] {
    let mut head = [INLINE_TAG; INLINE_HEAD];
    head[1..].copy_from_slice(&size.to_le_bytes());
    head
}

/// Decode a whole file-size record (`path` is only for error messages).
pub fn decode_size(raw: &[u8], path: &str) -> MemFsResult<SizeRecord> {
    decode(raw, true, path)
}

/// Decode a record from its first [`RECORD_HEAD`] bytes; fewer are the
/// whole record. The state and size are exact; only the length of an
/// inline file's bytes past the head goes unchecked.
pub fn decode_head(head: &[u8], path: &str) -> MemFsResult<SizeRecord> {
    decode(head, head.len() < RECORD_HEAD, path)
}

fn decode(raw: &[u8], whole: bool, path: &str) -> MemFsResult<SizeRecord> {
    let corrupt = |what: &str| {
        MemFsError::CorruptMetadata(format!(
            "file record of {path} {what}: {:?}",
            String::from_utf8_lossy(&raw[..raw.len().min(RECORD_HEAD)])
        ))
    };
    match raw.first() {
        None => Ok(SizeRecord::Open),
        Some(&INLINE_TAG) => {
            let size = raw
                .get(1..INLINE_HEAD)
                .map(|le| u64::from_le_bytes(le.try_into().expect("eight bytes")))
                .ok_or_else(|| corrupt("is cut inside its head"))?;
            let bytes = (raw.len() - INLINE_HEAD) as u64;
            let fits = if whole { bytes == size } else { bytes <= size };
            if !fits {
                return Err(corrupt(&format!("holds {bytes} bytes of an inline {size}")));
            }
            Ok(SizeRecord::Inline(size))
        }
        Some(_) => std::str::from_utf8(raw)
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map(SizeRecord::Striped)
            .ok_or_else(|| corrupt("is not a size")),
    }
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

    #[test]
    fn size_record_round_trip() {
        assert_eq!(decode_size(b"", "/f").unwrap(), SizeRecord::Open);
        assert_eq!(
            decode_size(&encode_size(12345), "/f").unwrap(),
            SizeRecord::Striped(12345)
        );
        assert_eq!(
            decode_size(&encode_size(0), "/f").unwrap(),
            SizeRecord::Striped(0)
        );
        assert_eq!(
            decode_size(&encode_size(u64::MAX), "/f").unwrap(),
            SizeRecord::Striped(u64::MAX)
        );
        for len in [0usize, 1, 11, 12, 13, 300] {
            let mut record = inline_head(len as u64).to_vec();
            record.extend((0..len).map(|i| i as u8));
            let inline = SizeRecord::Inline(len as u64);
            assert_eq!(decode_size(&record, "/f").unwrap(), inline, "{len}");
            let head = &record[..record.len().min(RECORD_HEAD)];
            assert_eq!(decode_head(head, "/f").unwrap(), inline, "{len}");
        }
    }

    #[test]
    fn corrupt_size_record_detected() {
        assert!(decode_size(b"not-a-number", "/f").is_err());
        assert!(decode_size(&[0xFF], "/f").is_err());
        assert!(decode_size(b"-5", "/f").is_err());
        // Twenty-one digits: past u64, and past any head that is not cut.
        assert!(decode_head(b"123456789012345678901", "/f").is_err());
        // An inline record whose size disagrees with its length, whole or
        // as a head that is the whole record.
        let mut record = inline_head(5).to_vec();
        record.extend_from_slice(b"four");
        assert!(decode_size(&record, "/f").is_err());
        assert!(decode_head(&record, "/f").is_err());
        record.extend_from_slice(b"56");
        assert!(decode_size(&record, "/f").is_err());
        assert!(decode_head(&record, "/f").is_err());
        // Cut inside the head, or a head claiming fewer bytes than it has.
        assert!(decode_size(&inline_head(0)[..5], "/f").is_err());
        let mut long = inline_head(11).to_vec();
        long.extend_from_slice(&[0; 12]);
        assert!(decode_head(&long, "/f").is_err());
        // A head of a longer record is not checked past itself.
        long[1..INLINE_HEAD].copy_from_slice(&1000u64.to_le_bytes());
        assert_eq!(decode_head(&long, "/f").unwrap(), SizeRecord::Inline(1000));
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
