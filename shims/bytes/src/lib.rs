//! Offline stand-in for the `bytes` crate.
//!
//! [`Bytes`] is a cheaply cloneable immutable view — a shared buffer plus
//! `(offset, len)` — so freezing a builder, converting a `Vec<u8>`,
//! [`Bytes::slice`] and [`Bytes::slice_ref`] are all O(1) and copy nothing. [`BytesMut`] is a
//! growable builder, and [`Buf`]/[`BufMut`] the reading and writing traits —
//! restricted to the little-endian accessors the workspace wire format uses.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous byte buffer.
///
/// Clones and slices share one allocation, which lives until the last of
/// them is dropped: a small slice keeps its whole parent alive.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` for the empty buffer, so `Bytes::new()` allocates nothing.
    buf: Option<Arc<Vec<u8>>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies `data` into a new buffer of exactly `data.len()` bytes.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// A view of `range` within this buffer, sharing its allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is inverted or reaches past the end.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            begin <= end && end <= self.len,
            "range {begin}..{end} out of bounds of {} bytes",
            self.len
        );
        if begin == end {
            // an empty view pins nothing
            return Bytes::new();
        }
        Bytes {
            buf: self.buf.clone(),
            off: self.off + begin,
            len: end - begin,
        }
    }

    /// The view of this buffer that `subset` — a sub-slice borrowed from
    /// it — occupies, sharing its allocation.
    ///
    /// # Panics
    ///
    /// Panics if `subset` does not lie inside this buffer.
    #[must_use]
    pub fn slice_ref(&self, subset: &[u8]) -> Self {
        if subset.is_empty() {
            return Bytes::new();
        }
        let base = self.as_ptr() as usize;
        let at = subset.as_ptr() as usize;
        assert!(
            base <= at && at + subset.len() <= base + self.len,
            "subset is not inside this buffer"
        );
        self.slice(at - base..at - base + subset.len())
    }

    /// Whether this is the only handle to its allocation.
    #[must_use]
    pub fn is_unique(&self) -> bool {
        self.buf.as_ref().is_none_or(|b| Arc::strong_count(b) == 1)
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of `v`'s allocation; nothing is copied.
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            buf: (len > 0).then(|| Arc::new(v)),
            off: 0,
            len,
        }
    }
}

impl From<Bytes> for Vec<u8> {
    /// Hands the allocation back when `b` is its only handle and views it
    /// from the start; copies otherwise.
    fn from(b: Bytes) -> Self {
        match b.buf {
            Some(buf) if b.off == 0 => match Arc::try_unwrap(buf) {
                Ok(mut v) => {
                    v.truncate(b.len);
                    v
                }
                Err(shared) => shared[..b.len].to_vec(),
            },
            Some(buf) => buf[b.off..b.off + b.len].to_vec(),
            None => Vec::new(),
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.buf {
            Some(buf) => &buf[self.off..self.off + self.len],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    /// Equal bytes are equal wherever they live; two views of one buffer
    /// over one range are answered without reading them.
    fn eq(&self, other: &Self) -> bool {
        let same_view = match (&self.buf, &other.buf) {
            (Some(a), Some(b)) => {
                Arc::ptr_eq(a, b) && self.off == other.off && self.len == other.len
            }
            _ => false,
        };
        same_view || **self == **other
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty builder with `cap` bytes preallocated.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Converts into an immutable [`Bytes`] without copying.
    #[must_use]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BytesMut")
            .field("len", &self.buf.len())
            .finish()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

/// Write access to a byte buffer (little-endian subset).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Read access to a byte buffer (little-endian subset).
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];

    /// Skips `cnt` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `cnt` bytes remain.
    fn advance(&mut self, cnt: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.chunk()[..4].try_into().expect("4 bytes"));
        self.advance(4);
        v
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.chunk()[..8].try_into().expect("8 bytes"));
        self.advance(8);
        v
    }

    /// Reads a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        let v = i64::from_le_bytes(self.chunk()[..8].try_into().expect("8 bytes"));
        self.advance(8);
        v
    }

    /// Reads a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        let v = f64::from_le_bytes(self.chunk()[..8].try_into().expect("8 bytes"));
        self.advance(8);
        v
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let mut b = BytesMut::new();
        b.put_u64_le(7);
        b.put_i64_le(-9);
        b.put_f64_le(1.5);
        b.put_u32_le(3);
        b.put_slice(b"abc");
        let frozen = b.freeze();
        let mut r: &[u8] = &frozen;
        assert_eq!(r.get_u64_le(), 7);
        assert_eq!(r.get_i64_le(), -9);
        assert_eq!(r.get_f64_le(), 1.5);
        assert_eq!(r.get_u32_le(), 3);
        assert_eq!(r, b"abc");
    }

    #[test]
    fn bytes_equality_and_clone() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a.clone(), b);
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(&a[..2], &[1, 2][..]);
    }

    #[test]
    fn from_vec_and_freeze_take_the_allocation() {
        let v = vec![9u8; 100];
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at, "From<Vec<u8>> must not copy");
        // a unique handle gives the allocation back, a shared one copies
        assert!(b.is_unique());
        let shared = b.clone();
        assert!(!b.is_unique());
        let copied = Vec::from(shared);
        assert_ne!(copied.as_ptr(), at);
        let returned = Vec::from(b);
        assert_eq!(returned.as_ptr(), at);

        let mut m = BytesMut::with_capacity(64);
        m.put_slice(b"abc");
        let at = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), at, "freeze must not copy");
    }

    #[test]
    fn slices_are_views() {
        let b = Bytes::from((0u8..10).collect::<Vec<u8>>());
        let mid = b.slice(2..6);
        assert_eq!(mid, [2u8, 3, 4, 5][..]);
        assert_eq!(mid.as_ptr(), b[2..].as_ptr(), "a view, not a copy");
        assert_eq!(b.slice(..), b);
        assert_eq!(b.slice(8..), [8u8, 9][..]);
        assert_eq!(b.slice(..=1), [0u8, 1][..]);
        assert_eq!(
            mid.slice(1..3),
            [3u8, 4][..],
            "ranges are relative to the view"
        );
        assert_eq!(mid.clone(), mid);
        // equality and hashing see the bytes, not where they live
        use std::collections::HashSet;
        let set: HashSet<Bytes> = [mid.clone()].into();
        assert!(set.contains(&Bytes::copy_from_slice(&[2, 3, 4, 5])));
        assert!(!set.contains(&b.slice(3..7)));
    }

    #[test]
    fn slice_ref_finds_a_borrowed_sub_slice() {
        let b = Bytes::from((0u8..10).collect::<Vec<u8>>());
        let view = b.slice(2..8);
        let found = view.slice_ref(&view[1..4]);
        assert_eq!(found, [3u8, 4, 5][..]);
        assert_eq!(found.as_ptr(), b[3..].as_ptr(), "a view, not a copy");
        assert_eq!(view.slice_ref(&view[..]), view);
        assert!(view.slice_ref(&[]).is_empty());
        // bytes of the same allocation, but outside this view
        let outside = std::panic::catch_unwind(|| view.slice_ref(&b[..3]));
        assert!(outside.is_err());
        let elsewhere = std::panic::catch_unwind(|| view.slice_ref(&[3, 4, 5]));
        assert!(elsewhere.is_err());
    }

    #[test]
    fn an_empty_slice_pins_nothing_and_a_full_one_its_parent() {
        let b = Bytes::from(vec![1u8; 8]);
        let empty = b.slice(3..3);
        assert!(empty.is_empty());
        assert!(b.is_unique(), "an empty view must not share the buffer");
        assert_eq!(Bytes::new().slice(..), Bytes::new());

        let tail = b.slice(6..);
        drop(b);
        assert_eq!(tail, [1u8, 1][..], "a view keeps its parent alive");
        assert!(tail.is_unique());
        assert_eq!(Vec::from(tail), vec![1, 1]);
    }

    #[test]
    fn views_of_one_range_are_equal_and_others_compare_their_bytes() {
        let b = Bytes::from(vec![1u8, 2, 1, 2, 3]);
        // one buffer, one range
        assert_eq!(b.slice(1..3), b.slice(1..3));
        assert_eq!(b.clone(), b);
        // one buffer, different ranges: equal exactly when the bytes are
        assert_eq!(b.slice(0..2), b.slice(2..4));
        assert_ne!(b.slice(1..3), b.slice(2..4));
        assert_ne!(b.slice(0..2), b.slice(0..3));
        assert_ne!(b.slice(0..3), b.slice(2..5));
        // different buffers with equal bytes
        assert_eq!(b.slice(2..5), Bytes::copy_from_slice(&[1, 2, 3]));
        assert_ne!(b, Bytes::copy_from_slice(&[1, 2, 1, 2, 4]));
        // empty equals empty, whatever it was cut from
        assert_eq!(b.slice(3..3), Bytes::new());
        assert_eq!(Bytes::new(), Bytes::from(Vec::new()));
        assert_ne!(Bytes::new(), b.slice(..1));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slicing_past_the_end_panics() {
        let _ = Bytes::from(vec![0u8; 4]).slice(2..5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn an_inverted_range_panics() {
        #[allow(clippy::reversed_empty_ranges)]
        let _ = Bytes::from(vec![0u8; 4]).slice(3..2);
    }
}
