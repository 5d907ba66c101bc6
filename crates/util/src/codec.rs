//! A hand-rolled **little-endian** binary codec (replaces `bytes` + `serde`).
//!
//! Two types, mirroring the `bytes` crate's split between cheap shared reads
//! and exclusive writes:
//!
//! * [`Bytes`] — an immutable, cheaply-cloneable byte buffer
//!   (`Arc<[u8]>` + range) with a consuming read cursor: `get_u32`,
//!   `get_i64`, `split_to`, `advance`, … All multi-byte reads are
//!   little-endian.
//! * [`BytesMut`] — a growable writer (`Vec<u8>`) with the matching `put_*`
//!   surface; [`BytesMut::freeze`] converts to [`Bytes`] without copying.
//!
//! Every page format in the workspace (MVBT nodes, the page store, the
//! paged tree nodes) is written and read through this module, so their
//! byte order is defined in one place. The index file is the packed image,
//! a little-endian word buffer `docs/FORMAT.md` specifies.

use std::fmt;
use std::sync::Arc;

/// An immutable, cheaply-cloneable byte buffer with a read cursor.
///
/// `len()` is the number of *unread* bytes; the `get_*` family consumes from
/// the front. Cloning shares the underlying allocation.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// A buffer borrowing nothing: the static slice is copied once.
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    /// A buffer holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::from(data),
            start: 0,
            end: data.len(),
        }
    }

    /// Unread bytes remaining.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether no unread bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unread bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copies the unread bytes into a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Skips `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes remain.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of buffer");
        self.start += n;
    }

    /// Splits off and returns the first `n` unread bytes; `self` keeps the
    /// rest. Shares the allocation.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes remain.
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "split_to past end of buffer");
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + n,
        };
        self.start += n;
        head
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        assert!(N <= self.len(), "read past end of buffer");
        let mut out = [0u8; N];
        out.copy_from_slice(&self.data[self.start..self.start + N]);
        self.start += N;
        out
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take())
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    /// Reads a little-endian `u128`.
    pub fn get_u128(&mut self) -> u128 {
        u128::from_le_bytes(self.take())
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> i64 {
        i64::from_le_bytes(self.take())
    }

    /// Reads a little-endian `f64`.
    pub fn get_f64(&mut self) -> f64 {
        f64::from_le_bytes(self.take())
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::from(v),
            start: 0,
            end,
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// A growable little-endian byte writer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty writer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty writer with `capacity` bytes preallocated.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The written bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a raw slice.
    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends `count` copies of `byte` (padding).
    pub fn put_bytes(&mut self, byte: u8, count: usize) {
        self.buf.resize(self.buf.len() + count, byte);
    }

    /// Converts to an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Copies the written bytes into a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut w = BytesMut::with_capacity(64);
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_u128(u128::MAX - 7);
        w.put_i64(-42);
        w.put_f64(std::f64::consts::PI);
        w.put_slice(b"tail");
        let mut r = w.freeze();
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u16(), 0xBEEF);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_u128(), u128::MAX - 7);
        assert_eq!(r.get_i64(), -42);
        assert_eq!(r.get_f64(), std::f64::consts::PI);
        assert_eq!(r.as_slice(), b"tail");
    }

    #[test]
    fn encoding_is_little_endian() {
        let mut w = BytesMut::new();
        w.put_u32(0x0102_0304);
        assert_eq!(w.as_slice(), &[0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn split_and_advance_share_allocation() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(head.as_slice(), &[1, 2]);
        assert_eq!(b.as_slice(), &[3, 4, 5]);
        b.advance(1);
        assert_eq!(b.as_slice(), &[4, 5]);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn clone_is_cheap_and_independent_cursor() {
        let mut a = Bytes::from(vec![9, 8, 7]);
        let b = a.clone();
        let _ = a.get_u8();
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 3, "clone keeps its own cursor");
    }

    #[test]
    fn equality_ignores_consumed_prefix() {
        let mut a = Bytes::from(vec![1, 2, 3]);
        a.advance(1);
        let b = Bytes::from(vec![2, 3]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn truncated_read_panics() {
        let mut b = Bytes::from(vec![1, 2]);
        let _ = b.get_u32();
    }

    #[test]
    fn put_bytes_pads() {
        let mut w = BytesMut::new();
        w.put_bytes(0, 5);
        assert_eq!(w.len(), 5);
        assert!(w.as_slice().iter().all(|&b| b == 0));
    }
}
