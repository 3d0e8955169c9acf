//! Minimal offline stand-in for the `bytes` crate.
//!
//! Provides exactly the subset the workspace uses: [`Bytes`] (cheaply
//! cloneable immutable view with a consuming read cursor), [`BytesMut`]
//! (append-only builder), and the [`Buf`]/[`BufMut`] traits with the
//! big-endian integer/float accessors of the real crate. Build this
//! workspace against the real `bytes` by deleting this shim and pointing
//! the workspace dependency at crates.io.

use std::sync::Arc;

/// Read-side accessors. Like the real crate, `get_*` consume from the
/// front and panic when the buffer is too short; pair them with
/// [`Buf::remaining`] checks.
pub trait Buf {
    fn remaining(&self) -> usize;
    /// Discards the next `n` bytes (panics past the end, like the real
    /// crate).
    fn advance(&mut self, n: usize);
    fn get_u8(&mut self) -> u8;
    fn get_u32(&mut self) -> u32;
    fn get_u64(&mut self) -> u64;
    fn get_f32(&mut self) -> f32;
    fn get_f64(&mut self) -> f64;
}

/// Write-side accessors (big-endian, matching the real crate's defaults).
pub trait BufMut {
    fn put_u8(&mut self, v: u8);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    fn put_f32(&mut self, v: f32);
    fn put_f64(&mut self, v: f64);
}

/// An immutable, cheaply cloneable byte buffer with a read cursor.
#[derive(Debug, Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    /// Copies a slice into a fresh buffer, in one allocation — how a
    /// server ships the contents of a reused encode buffer without
    /// surrendering it.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::from(data),
            start: 0,
            end: data.len(),
        }
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Sub-view of the remaining bytes; `range` is relative to the cursor.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && self.start + range.end <= self.end,
            "slice out of bounds: {range:?} of {}",
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    #[inline]
    fn take(&mut self, n: usize) -> &[u8] {
        assert!(
            self.len() >= n,
            "buffer underflow: need {n}, have {}",
            self.len()
        );
        let at = self.start;
        self.start += n;
        &self.data[at..at + n]
    }
}

impl From<Vec<u8>> for Bytes {
    /// A copy: a `Vec`'s buffer cannot hold an `Arc`'s counts.
    fn from(v: Vec<u8>) -> Self {
        Bytes::copy_from_slice(&v)
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];

    #[inline]
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

macro_rules! get_be {
    ($self:ident, $ty:ty) => {{
        let mut raw = [0u8; std::mem::size_of::<$ty>()];
        raw.copy_from_slice($self.take(std::mem::size_of::<$ty>()));
        <$ty>::from_be_bytes(raw)
    }};
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        self.take(n);
    }

    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn get_u32(&mut self) -> u32 {
        get_be!(self, u32)
    }

    fn get_u64(&mut self) -> u64 {
        get_be!(self, u64)
    }

    fn get_f32(&mut self) -> f32 {
        f32::from_bits(get_be!(self, u32))
    }

    fn get_f64(&mut self) -> f64 {
        f64::from_bits(get_be!(self, u64))
    }
}

/// A growable byte buffer; [`BytesMut::freeze`] converts to [`Bytes`].
#[derive(Debug, Default, Clone)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(n),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Reserves capacity for at least `additional` more bytes — the exact
    /// one-allocation reserve the codec's encoders rely on.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Empties the buffer, keeping its allocation — the reuse primitive of
    /// the server dispatch loop.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Appends a slice: a record the codec assembled, in one write.
    #[inline]
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Shortens the buffer to `len` bytes, keeping its allocation (no-op
    /// when it is no longer): how a record written at full width is cut
    /// back to the bytes it used.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Tallies the calling thread's allocations (reallocations included).
    struct Counting;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    // SAFETY: defers to `System` unchanged; the tally touches no allocator state.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOCATOR: Counting = Counting;

    #[test]
    fn copy_from_slice_allocates_once() {
        let data = [7u8; 300];
        let before = ALLOCATIONS.with(Cell::get);
        let copy = Bytes::copy_from_slice(&data);
        assert_eq!(ALLOCATIONS.with(Cell::get) - before, 1);
        assert_eq!(copy.as_slice(), data);
    }

    #[test]
    fn roundtrip_all_widths() {
        let mut b = BytesMut::with_capacity(32);
        b.put_u8(0xAB);
        b.put_u32(0xDEAD_BEEF);
        b.put_u64(0x0123_4567_89AB_CDEF);
        b.put_f32(1.5);
        b.put_f64(-2.25);
        let mut r = b.freeze();
        assert_eq!(r.remaining(), 1 + 4 + 8 + 4 + 8);
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f32(), 1.5);
        assert_eq!(r.get_f64(), -2.25);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn slice_is_relative_to_cursor() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        b.get_u8();
        let s = b.slice(1..3);
        assert_eq!(s.as_slice(), &[3, 4]);
    }

    #[test]
    fn clear_keeps_capacity_for_reuse() {
        let mut b = BytesMut::with_capacity(8);
        b.reserve(100);
        let cap = b.capacity();
        assert!(cap >= 100);
        b.put_u64(7);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap, "clear must keep the allocation");
        b.put_u32(9);
        assert_eq!(Bytes::copy_from_slice(&b).as_slice(), 9u32.to_be_bytes());
        // A record written at full width and cut back; a longer cut is
        // no cut.
        b.put_u64(u64::MAX);
        b.truncate(4);
        b.truncate(5);
        assert_eq!(Bytes::copy_from_slice(&b).as_slice(), 9u32.to_be_bytes());
        assert_eq!(b.capacity(), cap, "truncate must keep the allocation");
    }

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![9; 1024]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.len(), 1024);
    }
}
