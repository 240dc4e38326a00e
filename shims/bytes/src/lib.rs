//! Offline stand-in for the `bytes` crate.
//!
//! The build container has no access to crates.io, so the workspace vendors
//! the small API subset it actually uses: [`Bytes`] (a cheaply cloneable,
//! immutable byte buffer) and [`BytesMut`] (a growable builder that freezes
//! into a `Bytes`). Semantics match the real crate for this subset; the
//! zero-copy `slice`/`split_to` machinery of the real crate is reduced to
//! an `Arc`-shared backing vector with an offset window, which preserves
//! the two properties MemFS relies on: `clone` is O(1), and frozen buffers
//! never reallocate.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A cheaply cloneable, immutable contiguous byte buffer.
#[derive(Clone)]
pub struct Bytes {
    inner: Inner,
}

#[derive(Clone)]
enum Inner {
    /// Borrowed from static storage — no allocation, no refcount.
    Static(&'static [u8]),
    /// Shared ownership of a heap buffer; `off..off + len` is this view.
    Shared {
        buf: Arc<Vec<u8>>,
        off: usize,
        len: usize,
    },
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub const fn new() -> Bytes {
        Bytes {
            inner: Inner::Static(&[]),
        }
    }

    /// Wrap a static slice without copying.
    pub const fn from_static(data: &'static [u8]) -> Bytes {
        Bytes {
            inner: Inner::Static(data),
        }
    }

    /// Copy a slice into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Static(s) => s.len(),
            Inner::Shared { len, .. } => *len,
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-view sharing the same backing storage (O(1), no copy).
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        match &self.inner {
            Inner::Static(s) => Bytes {
                inner: Inner::Static(&s[range]),
            },
            Inner::Shared { buf, off, .. } => Bytes {
                inner: Inner::Shared {
                    buf: Arc::clone(buf),
                    off: off + range.start,
                    len: range.end - range.start,
                },
            },
        }
    }

    /// Split off and return the first `at` bytes as their own view,
    /// advancing this buffer past them. O(1): both halves share the same
    /// backing storage (matching the real crate's `split_to`).
    ///
    /// # Panics
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.slice(0..at);
        match &mut self.inner {
            Inner::Static(s) => *s = &s[at..],
            Inner::Shared { off, len, .. } => {
                *off += at;
                *len -= at;
            }
        }
        head
    }

    fn as_slice(&self) -> &[u8] {
        match &self.inner {
            Inner::Static(s) => s,
            Inner::Shared { buf, off, len } => &buf[*off..*off + *len],
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            inner: Inner::Shared {
                buf: Arc::new(v),
                off: 0,
                len,
            },
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// Memcached-ish `b"...."` rendering with escapes, truncated for large
/// payloads (stripes are megabytes; debug output should not be).
fn fmt_bytes(data: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "b\"")?;
    for &b in data.iter().take(64) {
        match b {
            b'"' => write!(f, "\\\"")?,
            b'\\' => write!(f, "\\\\")?,
            b'\r' => write!(f, "\\r")?,
            b'\n' => write!(f, "\\n")?,
            0x20..=0x7e => write!(f, "{}", b as char)?,
            _ => write!(f, "\\x{b:02x}")?,
        }
    }
    if data.len() > 64 {
        write!(f, "… ({} bytes)", data.len())?;
    }
    write!(f, "\"")
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_bytes(self.as_slice(), f)
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> BytesMut {
        BytesMut { buf: Vec::new() }
    }

    /// An empty builder with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the builder holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Reserved capacity.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Make room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Truncate to `len` bytes (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Clear contents, keeping capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Take the accumulated bytes, leaving this builder empty (the real
    /// crate splits off the filled prefix; for the append-then-drain use
    /// in this workspace the two are equivalent).
    pub fn split(&mut self) -> BytesMut {
        BytesMut {
            buf: std::mem::take(&mut self.buf),
        }
    }

    /// Convert into an immutable shared buffer.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_bytes(&self.buf, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_is_shared_not_copied() {
        let b = Bytes::from(vec![1u8; 1024]);
        let c = b.clone();
        assert_eq!(b, c);
        if let (Inner::Shared { buf: a, .. }, Inner::Shared { buf: d, .. }) = (&b.inner, &c.inner) {
            assert!(Arc::ptr_eq(a, d));
        } else {
            panic!("expected shared buffers");
        }
    }

    #[test]
    fn static_and_slice_views() {
        let s = Bytes::from_static(b"hello world");
        assert_eq!(s.len(), 11);
        let w = s.slice(6..11);
        assert_eq!(w.as_ref(), b"world");
        let v = Bytes::from(b"hello world".to_vec()).slice(0..5);
        assert_eq!(v.as_ref(), b"hello");
    }

    #[test]
    fn bytes_mut_round_trip() {
        let mut m = BytesMut::with_capacity(8);
        m.extend_from_slice(b"ab");
        m.extend_from_slice(b"cd");
        assert_eq!(m.len(), 4);
        let taken = m.split();
        assert!(m.is_empty());
        assert_eq!(taken.freeze().as_ref(), b"abcd");
    }

    #[test]
    fn split_to_shares_storage_and_advances() {
        let mut b = Bytes::from((0u8..100).collect::<Vec<u8>>());
        let head = b.split_to(30);
        assert_eq!(head.len(), 30);
        assert_eq!(b.len(), 70);
        assert_eq!(head[0], 0);
        assert_eq!(b[0], 30);
        if let (Inner::Shared { buf: a, .. }, Inner::Shared { buf: d, .. }) =
            (&head.inner, &b.inner)
        {
            assert!(Arc::ptr_eq(a, d), "split_to must not copy");
        } else {
            panic!("expected shared buffers");
        }
        // Static views split too.
        let mut s = Bytes::from_static(b"hello world");
        assert_eq!(s.split_to(5).as_ref(), b"hello");
        assert_eq!(s.as_ref(), b" world");
    }

    #[test]
    fn equality_and_debug() {
        let b = Bytes::from_static(b"x\r\n");
        assert_eq!(b, Bytes::copy_from_slice(b"x\r\n"));
        assert_eq!(format!("{b:?}"), "b\"x\\r\\n\"");
    }
}
