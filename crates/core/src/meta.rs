//! Metadata protocol (paper §3.2.4).
//!
//! * **File size records** — creating a file stores an *empty* value under
//!   the file key; closing it replaces the empty value with the file size.
//!   An empty record therefore means "still being written".
//! * **Directory logs** — a directory's value is an append-only log of
//!   child records. Adding a file/directory appends one record via the
//!   store's atomic `append`; deletions append a tombstone. `readdir`
//!   folds the log. This gives constant-time metadata mutations with no
//!   read-modify-write races. The append doubles as the parent check:
//!   the store refuses an `append` to a missing key, so `create` never
//!   reads the log it extends — nor does an existence check (a
//!   zero-length ranged probe answers; the log never compacts).
//!
//! Record format (one per line, names cannot contain whitespace):
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
    /// Closed with the given final size.
    Finalized(u64),
}

/// Encode a finalized size record.
pub fn encode_size(size: u64) -> Vec<u8> {
    size.to_string().into_bytes()
}

/// Decode a file-size record (`path` is only for error messages).
pub fn decode_size(raw: &[u8], path: &str) -> MemFsResult<SizeRecord> {
    if raw.is_empty() {
        return Ok(SizeRecord::Open);
    }
    std::str::from_utf8(raw)
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(SizeRecord::Finalized)
        .ok_or_else(|| {
            MemFsError::CorruptMetadata(format!(
                "file record of {path} is not a size: {:?}",
                String::from_utf8_lossy(raw)
            ))
        })
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
            SizeRecord::Finalized(12345)
        );
        assert_eq!(
            decode_size(&encode_size(0), "/f").unwrap(),
            SizeRecord::Finalized(0)
        );
    }

    #[test]
    fn corrupt_size_record_detected() {
        assert!(decode_size(b"not-a-number", "/f").is_err());
        assert!(decode_size(&[0xFF], "/f").is_err());
        assert!(decode_size(b"-5", "/f").is_err());
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
