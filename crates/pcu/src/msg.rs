//! Typed message packing (§II-D "message buffer management").
//!
//! All cross-part data crosses the simulated network as little-endian byte
//! streams. [`MsgWriter`] appends primitives to a growable buffer;
//! [`MsgReader`] consumes them in the same order. Framing is the caller's
//! contract (as in MPI).
//!
//! # Buffer pooling
//!
//! Phased algorithms (migrate, ghost, field sync) allocate one writer per
//! destination per round; [`MsgWriter::pooled`] seeds a writer from a
//! thread-local free list of capacity-retaining buffers instead of the
//! allocator. The list is refilled when a [`MsgReader`] holding the last
//! handle to a message drops ([`Bytes::try_unfreeze`]), so in steady-state
//! neighbour exchange the same allocations circulate between the pack and
//! unpack sides of a rank without touching `malloc`. Each rank is one OS
//! thread, so thread-local means per-rank.
//!
//! # Zero-copy reads
//!
//! [`MsgReader::try_get_bytes_shared`] returns a length-prefixed payload as
//! a [`Bytes`] sub-slice sharing the incoming message's allocation —
//! deserialization layers that unpack nested buffers (the part exchange,
//! checkpoint sections) use it to avoid copying every payload into a fresh
//! `Vec<u8>`.
//!
//! # Fallible and infallible reads
//!
//! Every read exists in two forms:
//!
//! * `try_get_*` returns `Result<T, MsgError>` on underrun — use these in
//!   deserialization layers that want to name the corrupt frame before
//!   failing (migration, ghosting, field sync all do),
//! * `get_*` is a thin wrapper that panics with the [`MsgError`] text —
//!   fine for short fixed frames where the writer is in the same function.
//!
//! Note that an underrun is always a *bug* (the writer and reader disagree),
//! never an environmental condition, and most reads happen inside
//! collectives where an early return would deadlock the other ranks. So the
//! layered convention is: `try_get_*` upward through pure deserialization
//! code, then one `expect`/panic with frame context at the collective
//! boundary — not `Result` signatures on collective operations themselves.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Thread-local free list of message buffers (capacity-retaining).
mod pool {
    use bytes::{Bytes, BytesMut};
    use std::cell::RefCell;

    /// Buffers kept per thread; beyond this, returns go to the allocator.
    const MAX_BUFS: usize = 32;
    /// Capacities worth retaining: below this a fresh alloc is cheap, above
    /// it a pooled buffer would pin too much memory between phases.
    const MIN_CAP: usize = 64;
    const MAX_CAP: usize = 1 << 20;

    thread_local! {
        static POOL: RefCell<Vec<BytesMut>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn take() -> BytesMut {
        POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default()
    }

    pub(super) fn put(buf: BytesMut) {
        if !(MIN_CAP..=MAX_CAP).contains(&buf.capacity()) {
            return;
        }
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < MAX_BUFS {
                p.push(buf);
            }
        });
    }

    /// Reclaim a frozen buffer's allocation if this is the last handle.
    pub(super) fn recycle(b: Bytes) {
        if let Ok(m) = b.try_unfreeze() {
            put(m);
        }
    }
}

/// A message deserialization failure: writer and reader disagreed on the
/// frame layout, or the frame's content does not decode. Carried upward by
/// `try_get_*`-style deserialization code and turned into one panic (or a
/// typed domain error) with frame context at the collective boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgError {
    /// The reader ran past the end of the buffer.
    Underrun {
        /// Bytes the failing read needed.
        needed: usize,
        /// Bytes that were left in the buffer.
        available: usize,
    },
    /// A byte decoded to no known value of an enumeration (dimension,
    /// topology, tag kind, ...).
    BadEnum {
        /// What was being decoded.
        what: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// A frame referenced an entity the receiving part does not hold.
    Missing {
        /// What was being looked up.
        what: &'static str,
        /// Entity dimension (`0..=3`).
        dim: u8,
        /// The global id that failed to resolve.
        gid: u64,
    },
    /// A nested payload passed framing but its content does not decode.
    Corrupt {
        /// What was being decoded.
        what: &'static str,
    },
    /// A record decodes but contradicts what the receiving part holds: it
    /// would land on an existing entity, or make a side bound a third
    /// element.
    Conflict {
        /// What the record would do.
        what: &'static str,
        /// Dimension (`0..=3`) of the entity it conflicts with.
        dim: u8,
        /// Global id of the entity it conflicts with.
        gid: u64,
    },
}

impl MsgError {
    /// An [`MsgError::Underrun`].
    pub fn underrun(needed: usize, available: usize) -> MsgError {
        MsgError::Underrun { needed, available }
    }

    /// An [`MsgError::BadEnum`].
    pub fn bad_enum(what: &'static str, value: u8) -> MsgError {
        MsgError::BadEnum { what, value }
    }

    /// An [`MsgError::Missing`].
    pub fn missing(what: &'static str, dim: u8, gid: u64) -> MsgError {
        MsgError::Missing { what, dim, gid }
    }

    /// An [`MsgError::Corrupt`].
    pub fn corrupt(what: &'static str) -> MsgError {
        MsgError::Corrupt { what }
    }

    /// An [`MsgError::Conflict`].
    pub fn conflict(what: &'static str, dim: u8, gid: u64) -> MsgError {
        MsgError::Conflict { what, dim, gid }
    }
}

impl std::fmt::Display for MsgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsgError::Underrun { needed, available } => {
                write!(f, "message underrun: need {needed} bytes, have {available}")
            }
            MsgError::BadEnum { what, value } => {
                write!(f, "bad {what} code {value:#04x}")
            }
            MsgError::Missing { what, dim, gid } => {
                write!(f, "{what} not held by this part (dim {dim}, gid {gid})")
            }
            MsgError::Corrupt { what } => write!(f, "undecodable {what}"),
            MsgError::Conflict { what, dim, gid } => write!(f, "{what} (dim {dim}, gid {gid})"),
        }
    }
}

impl std::error::Error for MsgError {}

/// Append-only typed writer over a [`BytesMut`].
#[derive(Debug, Default)]
pub struct MsgWriter {
    buf: BytesMut,
}

impl MsgWriter {
    /// An empty writer.
    pub fn new() -> MsgWriter {
        MsgWriter::default()
    }

    /// An empty writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> MsgWriter {
        MsgWriter {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// An empty writer seeded from the thread-local buffer pool: reuses the
    /// capacity of a previously finished-and-consumed message when one is
    /// available, so per-destination packing in a phase loop stops paying an
    /// allocation per round.
    pub fn pooled() -> MsgWriter {
        MsgWriter { buf: pool::take() }
    }

    /// Return this writer's backing buffer to the thread-local pool without
    /// sending it (e.g. a staging buffer whose contents were re-framed into
    /// another writer).
    pub fn recycle(self) {
        let mut buf = self.buf;
        buf.clear();
        pool::put(buf);
    }

    /// Reserve room for at least `additional` more bytes, so a run of
    /// puts that fits does not grow the buffer piecemeal.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// View the bytes written so far.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        self.buf.as_slice()
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a `u8`.
    #[inline]
    pub fn put_u8(&mut self, x: u8) {
        self.buf.put_u8(x);
    }

    /// Write a `u32` (little endian).
    #[inline]
    pub fn put_u32(&mut self, x: u32) {
        self.buf.put_u32_le(x);
    }

    /// Write a `u64` (little endian).
    #[inline]
    pub fn put_u64(&mut self, x: u64) {
        self.buf.put_u64_le(x);
    }

    /// Write an `i64` (little endian).
    #[inline]
    pub fn put_i64(&mut self, x: i64) {
        self.buf.put_i64_le(x);
    }

    /// Write an `f64` (little endian bit pattern).
    #[inline]
    pub fn put_f64(&mut self, x: f64) {
        self.buf.put_f64_le(x);
    }

    /// Write bytes as they are, with no length prefix: for a frame
    /// re-assembled from parts of another writer.
    #[inline]
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.put_slice(b);
    }

    /// Write a length-prefixed byte slice.
    #[inline]
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.buf.put_slice(b);
    }

    /// Write a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, xs: &[u32]) {
        self.put_u32(xs.len() as u32);
        for &x in xs {
            self.put_u32(x);
        }
    }

    /// Write a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, xs: &[u64]) {
        self.put_u32(xs.len() as u32);
        for &x in xs {
            self.put_u64(x);
        }
    }

    /// Write a length-prefixed `f64` slice.
    pub fn put_f64_slice(&mut self, xs: &[f64]) {
        self.put_u32(xs.len() as u32);
        for &x in xs {
            self.put_f64(x);
        }
    }

    /// Finish, producing an immutable buffer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// A typed-value byte sink: the framing of [`MsgWriter`], written anywhere.
/// `MsgWriter` implements it for the wire, and the checkpoint writer's
/// chunk streams for the disk, so one encoder (an entity record, a
/// residence row) serves both. Encoders take `&mut impl SectionSink`, so
/// every value is an inlined copy into the sink's buffer, not a call
/// through a vtable.
pub trait SectionSink {
    /// Append raw bytes (no length prefix).
    fn put_raw(&mut self, b: &[u8]);

    /// Write a `u8`.
    fn put_u8(&mut self, x: u8) {
        self.put_raw(&[x]);
    }
    /// Write a `u32` (little endian).
    fn put_u32(&mut self, x: u32) {
        self.put_raw(&x.to_le_bytes());
    }
    /// Write a `u64` (little endian).
    fn put_u64(&mut self, x: u64) {
        self.put_raw(&x.to_le_bytes());
    }
    /// Write an `f64` (little-endian bit pattern).
    fn put_f64(&mut self, x: f64) {
        self.put_raw(&x.to_bits().to_le_bytes());
    }
    /// Write a length-prefixed byte slice.
    fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.put_raw(b);
    }
    /// Write a length-prefixed `u32` slice.
    fn put_u32_slice(&mut self, xs: &[u32]) {
        self.put_u32(xs.len() as u32);
        for &x in xs {
            self.put_u32(x);
        }
    }
    /// Write a length-prefixed `u64` slice.
    fn put_u64_slice(&mut self, xs: &[u64]) {
        self.put_u32(xs.len() as u32);
        for &x in xs {
            self.put_u64(x);
        }
    }
    /// Write a length-prefixed `f64` slice.
    fn put_f64_slice(&mut self, xs: &[f64]) {
        self.put_u32(xs.len() as u32);
        for &x in xs {
            self.put_f64(x);
        }
    }
}

impl SectionSink for MsgWriter {
    #[inline]
    fn put_raw(&mut self, b: &[u8]) {
        self.buf.put_slice(b);
    }
}

/// Sequential typed reader over a byte buffer.
#[derive(Debug)]
pub struct MsgReader {
    buf: Bytes,
}

impl MsgReader {
    /// Read from an immutable buffer.
    pub fn new(buf: Bytes) -> MsgReader {
        MsgReader { buf }
    }

    /// Read from a `Vec<u8>`.
    pub fn from_vec(v: Vec<u8>) -> MsgReader {
        MsgReader {
            buf: Bytes::from(v),
        }
    }

    /// Bytes remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Whether the stream is fully consumed.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
    fn check(&self, n: usize) -> Result<(), MsgError> {
        if self.buf.remaining() >= n {
            Ok(())
        } else {
            Err(MsgError::underrun(n, self.buf.remaining()))
        }
    }

    /// Read a `u8`, or report an underrun.
    #[inline]
    pub fn try_get_u8(&mut self) -> Result<u8, MsgError> {
        self.check(1)?;
        Ok(self.buf.get_u8())
    }

    /// Read a `u32`, or report an underrun.
    #[inline]
    pub fn try_get_u32(&mut self) -> Result<u32, MsgError> {
        self.check(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Read a `u64`, or report an underrun.
    #[inline]
    pub fn try_get_u64(&mut self) -> Result<u64, MsgError> {
        self.check(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Read an `i64`, or report an underrun.
    #[inline]
    pub fn try_get_i64(&mut self) -> Result<i64, MsgError> {
        self.check(8)?;
        Ok(self.buf.get_i64_le())
    }

    /// Read an `f64`, or report an underrun.
    #[inline]
    pub fn try_get_f64(&mut self) -> Result<f64, MsgError> {
        self.check(8)?;
        Ok(self.buf.get_f64_le())
    }

    /// Read a length-prefixed byte vector, or report an underrun (including
    /// a length prefix pointing past the end of the buffer).
    pub fn try_get_bytes(&mut self) -> Result<Vec<u8>, MsgError> {
        let n = self.try_get_u32()? as usize;
        self.check(n)?;
        let mut v = vec![0u8; n];
        self.buf.copy_to_slice(&mut v);
        Ok(v)
    }

    /// Read a length-prefixed payload as a zero-copy [`Bytes`] sub-slice
    /// sharing this message's allocation, or report an underrun. The frame
    /// layout is identical to [`MsgWriter::put_bytes`] /
    /// [`Self::try_get_bytes`]; only the ownership of the result differs.
    pub fn try_get_bytes_shared(&mut self) -> Result<Bytes, MsgError> {
        let n = self.try_get_u32()? as usize;
        self.try_get_raw(n)
    }

    /// Read the next `n` bytes as they are, with no length prefix (the read
    /// side of [`MsgWriter::put_raw`]), as a zero-copy [`Bytes`] sub-slice,
    /// or report an underrun: one bounds check for a run of values.
    pub fn try_get_raw(&mut self, n: usize) -> Result<Bytes, MsgError> {
        self.check(n)?;
        Ok(self.buf.split_to(n))
    }

    /// Read a length-prefixed `u32` vector, or report an underrun.
    pub fn try_get_u32_slice(&mut self) -> Result<Vec<u32>, MsgError> {
        let n = self.try_get_u32()? as usize;
        self.check(n.saturating_mul(4))?;
        Ok((0..n).map(|_| self.buf.get_u32_le()).collect())
    }

    /// Read a length-prefixed `u64` vector, or report an underrun.
    pub fn try_get_u64_slice(&mut self) -> Result<Vec<u64>, MsgError> {
        let n = self.try_get_u32()? as usize;
        self.check(n.saturating_mul(8))?;
        Ok((0..n).map(|_| self.buf.get_u64_le()).collect())
    }

    /// Read a length-prefixed `f64` vector, or report an underrun.
    pub fn try_get_f64_slice(&mut self) -> Result<Vec<f64>, MsgError> {
        let n = self.try_get_u32()? as usize;
        self.check(n.saturating_mul(8))?;
        Ok((0..n).map(|_| self.buf.get_f64_le()).collect())
    }

    /// Read a `u8`.
    ///
    /// # Panics
    /// On underrun, with the [`MsgError`] message.
    #[inline]
    pub fn get_u8(&mut self) -> u8 {
        self.try_get_u8().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Read a `u32`. Panics on underrun.
    #[inline]
    pub fn get_u32(&mut self) -> u32 {
        self.try_get_u32().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Read a `u64`. Panics on underrun.
    #[inline]
    pub fn get_u64(&mut self) -> u64 {
        self.try_get_u64().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Read an `i64`. Panics on underrun.
    #[inline]
    pub fn get_i64(&mut self) -> i64 {
        self.try_get_i64().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Read an `f64`. Panics on underrun.
    #[inline]
    pub fn get_f64(&mut self) -> f64 {
        self.try_get_f64().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Read a length-prefixed byte vector. Panics on underrun.
    pub fn get_bytes(&mut self) -> Vec<u8> {
        self.try_get_bytes().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Read a length-prefixed `u32` vector. Panics on underrun.
    pub fn get_u32_slice(&mut self) -> Vec<u32> {
        self.try_get_u32_slice().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Read a length-prefixed `u64` vector. Panics on underrun.
    pub fn get_u64_slice(&mut self) -> Vec<u64> {
        self.try_get_u64_slice().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Read a length-prefixed `f64` vector. Panics on underrun.
    pub fn get_f64_slice(&mut self) -> Vec<f64> {
        self.try_get_f64_slice().unwrap_or_else(|e| panic!("{e}"))
    }
}

impl Drop for MsgReader {
    fn drop(&mut self) {
        // If this reader held the last handle to the message, its allocation
        // returns to the thread-local pool for the next MsgWriter::pooled().
        pool::recycle(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = MsgWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_f64(3.5);
        w.put_bytes(b"hello");
        w.put_u32_slice(&[1, 2, 3]);
        w.put_u64_slice(&[9, 8]);
        w.put_f64_slice(&[0.25]);
        let mut r = MsgReader::new(w.finish());
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64(), u64::MAX - 1);
        assert_eq!(r.get_i64(), -42);
        assert_eq!(r.get_f64(), 3.5);
        assert_eq!(r.get_bytes(), b"hello");
        assert_eq!(r.get_u32_slice(), vec![1, 2, 3]);
        assert_eq!(r.get_u64_slice(), vec![9, 8]);
        assert_eq!(r.get_f64_slice(), vec![0.25]);
        assert!(r.is_done());
    }

    #[test]
    #[should_panic(expected = "underrun")]
    fn underrun_panics() {
        let mut r = MsgReader::from_vec(vec![1, 2]);
        r.get_u32();
    }

    #[test]
    fn try_get_reports_needed_and_available() {
        let mut r = MsgReader::from_vec(vec![1, 2]);
        assert_eq!(r.try_get_u32(), Err(MsgError::underrun(4, 2)));
        // The failed read consumed nothing; smaller reads still work.
        assert_eq!(r.try_get_u8(), Ok(1));
        assert_eq!(r.remaining(), 1);
        let e = r.try_get_f64().unwrap_err();
        assert_eq!(e.to_string(), "message underrun: need 8 bytes, have 1");
    }

    #[test]
    fn content_error_variants_display_context() {
        let e = MsgError::bad_enum("topology", 0xFE);
        assert_eq!(e.to_string(), "bad topology code 0xfe");
        let e = MsgError::missing("closure vertex", 0, 41);
        assert!(e.to_string().contains("closure vertex"), "{e}");
        assert!(e.to_string().contains("gid 41"), "{e}");
        let e = MsgError::corrupt("tag value");
        assert_eq!(e.to_string(), "undecodable tag value");
    }

    #[test]
    fn try_get_slice_rejects_lying_length_prefix() {
        // Length prefix claims 1000 u64s but the body is empty.
        let mut w = MsgWriter::new();
        w.put_u32(1000);
        let mut r = MsgReader::new(w.finish());
        let e = r.try_get_u64_slice().unwrap_err();
        assert_eq!(e, MsgError::underrun(8000, 0));

        // Same for a byte vector.
        let mut w = MsgWriter::new();
        w.put_u32(10);
        w.put_u8(1);
        let mut r = MsgReader::new(w.finish());
        let e = r.try_get_bytes().unwrap_err();
        assert_eq!(e, MsgError::underrun(10, 1));
    }

    #[test]
    fn try_get_roundtrip_matches_infallible() {
        let mut w = MsgWriter::new();
        w.put_u32(5);
        w.put_f64_slice(&[1.0, 2.0]);
        w.put_bytes(b"xy");
        let mut r = MsgReader::new(w.finish());
        assert_eq!(r.try_get_u32(), Ok(5));
        assert_eq!(r.try_get_f64_slice(), Ok(vec![1.0, 2.0]));
        assert_eq!(r.try_get_bytes(), Ok(b"xy".to_vec()));
        assert!(r.is_done());
        assert_eq!(r.try_get_u8(), Err(MsgError::underrun(1, 0)));
    }

    #[test]
    fn raw_reads_are_bounded_slices() {
        let mut w = MsgWriter::new();
        w.put_raw(b"abcdef");
        let mut r = MsgReader::new(w.finish());
        assert_eq!(&r.try_get_raw(4).unwrap()[..], b"abcd");
        let short = r.try_get_raw(3);
        assert!(matches!(
            short,
            Err(MsgError::Underrun {
                needed: 3,
                available: 2
            })
        ));
        assert_eq!(
            &r.try_get_raw(2).unwrap()[..],
            b"ef",
            "an underrun reads nothing"
        );
        assert!(r.try_get_raw(0).unwrap().is_empty());
        assert!(r.is_done());
    }

    #[test]
    fn bytes_shared_matches_copying_read() {
        let mut w = MsgWriter::new();
        w.put_bytes(b"alpha");
        w.put_bytes(b"");
        w.put_bytes(b"omega");
        let frozen = w.finish();
        let mut a = MsgReader::new(frozen.clone());
        let mut b = MsgReader::new(frozen);
        assert_eq!(&a.try_get_bytes_shared().unwrap()[..], &b.get_bytes()[..]);
        assert_eq!(&a.try_get_bytes_shared().unwrap()[..], &b.get_bytes()[..]);
        assert_eq!(&a.try_get_bytes_shared().unwrap()[..], &b.get_bytes()[..]);
        assert!(a.is_done());
        // Underrun reporting matches the copying variant.
        let mut w = MsgWriter::new();
        w.put_u32(10);
        w.put_u8(1);
        let mut r = MsgReader::new(w.finish());
        assert_eq!(
            r.try_get_bytes_shared().unwrap_err(),
            MsgError::underrun(10, 1)
        );
    }

    #[test]
    fn pooled_writer_recycles_reader_capacity() {
        // Drain whatever earlier tests left in this thread's pool (a pooled
        // writer from an empty pool has a fresh zero-capacity buffer).
        loop {
            let w = MsgWriter::pooled();
            if w.buf.capacity() == 0 {
                break;
            }
        }
        let mut w = MsgWriter::with_capacity(512);
        w.put_bytes(&[7u8; 100]);
        let r = MsgReader::new(w.finish());
        drop(r); // last handle: allocation returns to the pool
        let w2 = MsgWriter::pooled();
        assert!(w2.buf.capacity() >= 512, "capacity was not retained");
        assert!(w2.is_empty());
        w2.recycle();
    }

    #[test]
    fn shared_slice_blocks_reclaim_until_dropped() {
        let mut w = MsgWriter::with_capacity(256);
        w.put_bytes(&[1u8; 64]);
        let mut r = MsgReader::new(w.finish());
        let slice = r.try_get_bytes_shared().unwrap();
        drop(r); // slice still alive: no reclaim, no corruption
        assert_eq!(&slice[..], &[1u8; 64]);
    }

    #[test]
    fn empty_slices_roundtrip() {
        let mut w = MsgWriter::new();
        w.put_u32_slice(&[]);
        w.put_bytes(&[]);
        let mut r = MsgReader::new(w.finish());
        assert!(r.get_u32_slice().is_empty());
        assert!(r.get_bytes().is_empty());
        assert!(r.is_done());
    }
}
