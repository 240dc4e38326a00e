//! Path handling: MemFS uses absolute, `/`-separated, normalized paths as
//! its canonical file identifiers (they are embedded verbatim in storage
//! keys, so normalization must be exact and stable).
//!
//! Because the memcached key space cannot carry whitespace or control
//! bytes, paths containing them are rejected up front. A production FUSE
//! deployment would escape such names; for the MTC workloads of the paper
//! (Montage/BLAST intermediate files) plain names are the reality.

use memfs_hashring::schema::KeySchema;
use memfs_memkv::store::MAX_KEY_LEN;

use crate::error::{MemFsError, MemFsResult};

/// Normalize `raw` to a canonical absolute path:
/// collapse `//`, resolve `.` and `..` (never above the root), strip any
/// trailing slash (except for the root itself).
///
/// Errors on relative paths and on names the key layer cannot carry.
pub fn normalize(raw: &str) -> MemFsResult<String> {
    if !raw.starts_with('/') {
        return Err(MemFsError::InvalidPath(raw.to_string()));
    }
    if raw.bytes().any(|b| b <= b' ' || b == 0x7f) {
        return Err(MemFsError::InvalidPath(raw.to_string()));
    }
    let mut parts: Vec<&str> = Vec::new();
    for comp in raw.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            name => parts.push(name),
        }
    }
    if parts.is_empty() {
        Ok("/".to_string())
    } else {
        Ok(format!("/{}", parts.join("/")))
    }
}

/// [`normalize`] for a name about to be created (`create`, `mkdir`):
/// additionally refuses a path whose stripe keys would not all fit a
/// storage key. `s:<path>#<index>@<generation>` is the longest key a path
/// is embedded in (the generation is always 16 hex digits), so a path
/// that passes can be written to any length, read, listed and unlinked —
/// a longer one would be accepted by the shorter `f:<path>` and then fail
/// mid-write, and again in `unlink`.
pub fn normalize_new(raw: &str) -> MemFsResult<String> {
    let path = normalize(raw)?;
    if KeySchema::stripe_key(&path, u64::MAX, u64::MAX).len() > MAX_KEY_LEN {
        return Err(MemFsError::InvalidPath(path));
    }
    Ok(path)
}

/// The parent directory of a normalized path (`/` is its own parent).
pub fn parent(path: &str) -> &str {
    debug_assert!(path.starts_with('/'));
    match path.rfind('/') {
        Some(0) | None => "/",
        Some(i) => &path[..i],
    }
}

/// The final component of a normalized path (empty for the root).
pub fn basename(path: &str) -> &str {
    debug_assert!(path.starts_with('/'));
    match path.rfind('/') {
        Some(i) => &path[i + 1..],
        None => path,
    }
}

/// Join a normalized directory path and a child name.
pub fn join(dir: &str, name: &str) -> String {
    if dir == "/" {
        format!("/{name}")
    } else {
        format!("{dir}/{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_rules() {
        assert_eq!(normalize("/a/b").unwrap(), "/a/b");
        assert_eq!(normalize("/a//b/").unwrap(), "/a/b");
        assert_eq!(normalize("/a/./b").unwrap(), "/a/b");
        assert_eq!(normalize("/a/../b").unwrap(), "/b");
        assert_eq!(normalize("/../..").unwrap(), "/");
        assert_eq!(normalize("/").unwrap(), "/");
    }

    #[test]
    fn rejects_relative_and_unrepresentable() {
        assert!(normalize("relative/path").is_err());
        assert!(normalize("").is_err());
        assert!(normalize("/has space").is_err());
        assert!(normalize("/has\ttab").is_err());
        assert!(normalize("/has\nnl").is_err());
    }

    #[test]
    fn parent_and_basename() {
        assert_eq!(parent("/a/b/c"), "/a/b");
        assert_eq!(parent("/a"), "/");
        assert_eq!(parent("/"), "/");
        assert_eq!(basename("/a/b/c"), "c");
        assert_eq!(basename("/a"), "a");
        assert_eq!(basename("/"), "");
    }

    #[test]
    fn join_handles_root() {
        assert_eq!(join("/", "x"), "/x");
        assert_eq!(join("/a", "x"), "/a/x");
    }

    #[test]
    fn join_then_parent_round_trips() {
        for dir in ["/", "/a", "/a/b"] {
            let joined = join(dir, "leaf");
            assert_eq!(parent(&joined), dir);
            assert_eq!(basename(&joined), "leaf");
        }
    }
}
