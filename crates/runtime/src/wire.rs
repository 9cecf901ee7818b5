//! Minimal byte-encoding helpers for payloads and linearized state.
//!
//! The workspace deliberately has no serialization *format* dependency;
//! objects own their wire representation. These helpers cover the common
//! cases (integers, strings, length-prefixed sequences) on top of
//! [`bytes::Buf`]/[`bytes::BufMut`].

use crate::store::StoredCheckpoint;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Incrementally builds a payload.
///
/// # Example
///
/// ```
/// use oml_runtime::wire::{WireReader, WireWriter};
///
/// let bytes = WireWriter::new().u64(42).str("hello").finish();
/// let mut r = WireReader::new(&bytes);
/// assert_eq!(r.u64().unwrap(), 42);
/// assert_eq!(r.str().unwrap(), "hello");
/// assert!(r.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Creates an empty writer with room for `cap` bytes, so a large
    /// payload is written into its final allocation instead of growing
    /// there by doubling.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Appends a little-endian `u64`.
    #[must_use]
    pub fn u64(mut self, v: u64) -> Self {
        self.buf.put_u64_le(v);
        self
    }

    /// Appends a little-endian `i64`.
    #[must_use]
    pub fn i64(mut self, v: i64) -> Self {
        self.buf.put_i64_le(v);
        self
    }

    /// Appends a little-endian `u32`.
    #[must_use]
    pub fn u32(mut self, v: u32) -> Self {
        self.buf.put_u32_le(v);
        self
    }

    /// Appends an `f64`.
    #[must_use]
    pub fn f64(mut self, v: f64) -> Self {
        self.buf.put_f64_le(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    #[must_use]
    pub fn str(mut self, s: &str) -> Self {
        self.buf.put_u32_le(s.len() as u32);
        self.buf.put_slice(s.as_bytes());
        self
    }

    /// Appends length-prefixed raw bytes.
    #[must_use]
    pub fn bytes(mut self, b: &[u8]) -> Self {
        self.buf.put_u32_le(b.len() as u32);
        self.buf.put_slice(b);
        self
    }

    /// Appends `ckpt`'s type tag, state and object epoch: the tail of every
    /// message that carries an object, and of a [`CheckpointFrame`] before
    /// its `seq`. [`StoredCheckpoint::wire_len`] bytes.
    #[must_use]
    pub(crate) fn checkpoint(self, ckpt: &StoredCheckpoint) -> Self {
        self.str(&ckpt.type_tag)
            .bytes(&ckpt.state)
            .u64(ckpt.object_epoch)
    }

    /// Finalizes into an immutable buffer.
    #[must_use]
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Reads back what a [`WireWriter`] produced.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Wraps a byte slice.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf }
    }

    /// Whether all bytes were consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns a description of the truncation if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, String> {
        if self.buf.remaining() < 8 {
            return Err("truncated u64".to_owned());
        }
        Ok(self.buf.get_u64_le())
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// Returns a description of the truncation if fewer than 8 bytes remain.
    pub fn i64(&mut self) -> Result<i64, String> {
        if self.buf.remaining() < 8 {
            return Err("truncated i64".to_owned());
        }
        Ok(self.buf.get_i64_le())
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns a description of the truncation if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, String> {
        if self.buf.remaining() < 4 {
            return Err("truncated u32".to_owned());
        }
        Ok(self.buf.get_u32_le())
    }

    /// Reads an `f64`.
    ///
    /// # Errors
    ///
    /// Returns a description of the truncation if fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64, String> {
        if self.buf.remaining() < 8 {
            return Err("truncated f64".to_owned());
        }
        Ok(self.buf.get_f64_le())
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Reports truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, String> {
        let raw = self.bytes_ref()?.to_vec();
        String::from_utf8(raw).map_err(|_| "invalid utf-8".to_owned())
    }

    /// Reads length-prefixed raw bytes.
    ///
    /// # Errors
    ///
    /// Reports truncation.
    pub fn bytes(&mut self) -> Result<Vec<u8>, String> {
        self.bytes_ref().map(<[u8]>::to_vec)
    }

    /// Reads what [`WireWriter::checkpoint`] wrote, its `state` a view of
    /// `buf` — the buffer this reader wraps — and its `seq` 0.
    ///
    /// # Errors
    ///
    /// Reports truncation or invalid UTF-8 in the type tag.
    pub(crate) fn checkpoint(&mut self, buf: &Bytes) -> Result<StoredCheckpoint, String> {
        Ok(StoredCheckpoint {
            type_tag: self.str()?,
            state: buf.slice_ref(self.bytes_ref()?),
            object_epoch: self.u64()?,
            seq: 0,
        })
    }

    /// Reads length-prefixed raw bytes without copying them: the body as
    /// a borrow of the buffer this reader wraps. When that buffer is a
    /// [`Bytes`], `buf.slice_ref(body)` turns the borrow into a view that
    /// shares its allocation.
    ///
    /// # Errors
    ///
    /// Reports truncation.
    pub(crate) fn bytes_ref(&mut self) -> Result<&'a [u8], String> {
        if self.buf.remaining() < 4 {
            return Err("truncated length prefix".to_owned());
        }
        let len = self.buf.get_u32_le() as usize;
        if self.buf.remaining() < len {
            return Err("truncated body".to_owned());
        }
        let (body, rest) = self.buf.split_at(len);
        self.buf = rest;
        Ok(body)
    }
}

/// An object's linearized passive state plus the `(object_epoch, seq)`
/// freshness stamp that orders it against other replicas — the
/// [`StoredCheckpoint`] a replica stores, under the name it has as bytes.
/// In-process, a `CheckpointPut` carries the record itself, as an
/// `Install` does; this encoding, written with [`WireWriter`] like any
/// object payload, is for a copy that must cross a byte stream — a reader
/// on the far side of a lossy link can always decode or reject it.
pub type CheckpointFrame = StoredCheckpoint;

impl StoredCheckpoint {
    /// Bytes [`WireWriter::checkpoint`] writes for this copy: two length
    /// prefixes and the object epoch around the variable parts.
    pub(crate) fn wire_len(&self) -> usize {
        16 + self.type_tag.len() + self.state.len()
    }

    /// Encodes the frame.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        WireWriter::with_capacity(self.wire_len() + 8)
            .checkpoint(self)
            .u64(self.seq)
            .finish()
    }

    /// Decodes a frame; its `state` is a view of `buf`, not a copy.
    ///
    /// # Errors
    ///
    /// Reports truncation or invalid UTF-8 in the type tag.
    pub fn decode(buf: &Bytes) -> Result<Self, String> {
        let mut r = WireReader::new(buf);
        let ckpt = r.checkpoint(buf)?;
        Ok(StoredCheckpoint {
            seq: r.u64()?,
            ..ckpt
        })
    }
}

/// Lowercase hex of `bytes`: how the golden-bytes tests spell an encoding.
#[cfg(test)]
pub(crate) fn hex(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    bytes.iter().fold(String::new(), |mut out, b| {
        let _ = write!(out, "{b:02x}");
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_type() {
        let b = WireWriter::new()
            .u64(7)
            .i64(-9)
            .u32(11)
            .f64(1.5)
            .str("héllo")
            .bytes(&[0xde, 0xad])
            .finish();
        let mut r = WireReader::new(&b);
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.i64().unwrap(), -9);
        assert_eq!(r.u32().unwrap(), 11);
        assert_eq!(r.f64().unwrap().to_bits(), 1.5f64.to_bits());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), vec![0xde, 0xad]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_reported_not_panicked() {
        let b = WireWriter::new().u64(7).finish();
        let mut r = WireReader::new(&b[..4]);
        assert!(r.u64().unwrap_err().contains("truncated"));

        let b = WireWriter::new().u32(7).finish();
        let mut r = WireReader::new(&b[..2]);
        assert!(r.u32().unwrap_err().contains("truncated u32"));

        let mut r = WireReader::new(&[2, 0, 0, 0, 1]); // claims 2 bytes, has 1
        assert!(r.bytes().unwrap_err().contains("truncated body"));

        let mut r = WireReader::new(&[1, 0]);
        assert!(r.str().unwrap_err().contains("length prefix"));
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let b = WireWriter::new().bytes(&[0xff, 0xfe]).finish();
        let mut r = WireReader::new(&b);
        assert!(r.str().unwrap_err().contains("utf-8"));
    }

    #[test]
    fn empty_reader_is_empty() {
        assert!(WireReader::new(&[]).is_empty());
    }

    #[test]
    fn checkpoint_frame_round_trips() {
        let f = CheckpointFrame {
            type_tag: "counter".into(),
            state: Bytes::copy_from_slice(&[1, 2, 3]),
            object_epoch: 4,
            seq: 19,
        };
        let decoded = CheckpointFrame::decode(&f.encode()).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn borrowed_reads_become_views_of_the_source() {
        let src = WireWriter::new()
            .u32(7)
            .bytes(b"abc")
            .bytes(b"")
            .u32(9)
            .finish();
        let mut r = WireReader::new(&src);
        assert_eq!(r.u32().unwrap(), 7);
        let abc = src.slice_ref(r.bytes_ref().unwrap());
        assert_eq!(abc, b"abc"[..]);
        assert_eq!(abc.as_ptr(), src[8..].as_ptr(), "a view, not a copy");
        assert!(r.bytes_ref().unwrap().is_empty());
        assert_eq!(r.u32().unwrap(), 9);
        assert!(r.is_empty());
        // and truncation is still an error, not a panic
        assert!(WireReader::new(&src[..9]).bytes_ref().is_err());
    }

    #[test]
    fn truncated_checkpoint_frame_is_an_error() {
        let f = CheckpointFrame {
            type_tag: "counter".into(),
            state: Bytes::copy_from_slice(&[9]),
            object_epoch: 1,
            seq: 2,
        };
        let enc = f.encode();
        for cut in 0..enc.len() {
            assert!(
                CheckpointFrame::decode(&enc.slice(..cut)).is_err(),
                "cut at {cut} decoded"
            );
        }
    }
}
