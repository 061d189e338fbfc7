//! Chunked, compressed section streams — the payload container of `.pmb`.
//!
//! A section payload is not one flat byte run but a sequence of *chunks*,
//! each independently compressed (LZ4 block via the vendored `minilz4`)
//! and CRC-checked:
//!
//! ```text
//! chunk: raw_len u32 | comp_len u32 | crc32 u32 | payload
//! ```
//!
//! `comp_len == 0` marks a stored (incompressible) chunk whose payload is
//! `raw_len` bytes verbatim; otherwise the payload is `comp_len` bytes of
//! LZ4 that must decompress to exactly `raw_len` bytes. The CRC covers the
//! payload *as stored*, so a flipped bit is caught before the decompressor
//! runs; `raw_len` is deliberately outside the CRC, so a damaged length
//! header is caught by a bound against what `comp_len` bytes can expand to
//! (before anything is allocated for it) and then by the
//! decompressed-length comparison — all surface as [`IoError::BadChunk`]
//! naming part, section and chunk index.
//!
//! [`ChunkWriter`] is the streaming producer: encoders push typed values
//! through [`pumi_pcu::SectionSink`], the trait `MsgWriter` implements for
//! the wire, and every `chunk_len` raw bytes are compressed and flushed to
//! the underlying `Write` immediately, so a part's serialized image is
//! never resident in memory — peak buffering is one chunk. A value that fits in the current chunk costs one inlined
//! copy; only a value that fills it takes the out-of-line path that
//! flushes. A flush allocates the compressor's output block and position
//! table and nothing else, so writing a section costs a fixed number of
//! allocations per chunk, whatever its values are.
//! [`section_raw_bytes`] is the one consumer: it walks a
//! section's chunk stream and reassembles it, handing each chunk to a
//! caller-supplied decode step ([`decode_chunk`] directly, or through
//! `pumi-serve`'s shared cache).

use crate::crc::crc32;
use crate::error::{IoError, Section};
use crate::format::SectionEntry;
use pumi_pcu::SectionSink;
use pumi_util::PartId;
use std::io::Write;
use std::sync::Arc;

/// Default raw-chunk size (bytes of uncompressed section stream per chunk).
pub const DEFAULT_CHUNK_LEN: usize = 256 * 1024;

/// On-disk size of a chunk header.
pub const CHUNK_HEADER_LEN: usize = 12;

/// An LZ4 block expands at most this many times: a length-extension byte
/// adds at most 255 output bytes per input byte.
const LZ4_MAX_EXPANSION: u64 = 255;

/// A parsed chunk header.
#[derive(Debug, Clone, Copy)]
pub struct ChunkHeader {
    /// Decompressed payload length.
    pub raw_len: u32,
    /// Stored payload length; `0` means the chunk is stored raw
    /// (`raw_len` bytes).
    pub comp_len: u32,
    /// CRC-32 of the stored payload bytes.
    pub crc: u32,
}

impl ChunkHeader {
    /// Bytes the payload occupies on disk.
    pub fn disk_payload_len(&self) -> usize {
        if self.comp_len == 0 {
            self.raw_len as usize
        } else {
            self.comp_len as usize
        }
    }
}

/// Typed error constructor shared by the chunk readers.
pub(crate) fn bad_chunk(part: PartId, section: Section, chunk: u32, detail: String) -> IoError {
    IoError::BadChunk {
        part,
        section,
        chunk,
        detail,
    }
}

/// Parse the 12-byte header of chunk `idx` from `bytes` (which starts at
/// the chunk boundary).
pub fn parse_chunk_header(
    part: PartId,
    section: Section,
    idx: u32,
    bytes: &[u8],
) -> Result<ChunkHeader, IoError> {
    if bytes.len() < CHUNK_HEADER_LEN {
        return Err(bad_chunk(
            part,
            section,
            idx,
            format!(
                "chunk header truncated: need {CHUNK_HEADER_LEN} bytes, have {}",
                bytes.len()
            ),
        ));
    }
    let le32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds"));
    Ok(ChunkHeader {
        raw_len: le32(0),
        comp_len: le32(4),
        crc: le32(8),
    })
}

/// Verify and decompress one chunk payload (`payload` must be exactly
/// [`ChunkHeader::disk_payload_len`] bytes).
pub fn decode_chunk(
    part: PartId,
    section: Section,
    idx: u32,
    hdr: &ChunkHeader,
    payload: &[u8],
) -> Result<Vec<u8>, IoError> {
    let stored = crc32(payload);
    if stored != hdr.crc {
        return Err(bad_chunk(
            part,
            section,
            idx,
            format!(
                "payload CRC mismatch: stored {:#010x}, computed {stored:#010x}",
                hdr.crc
            ),
        ));
    }
    if hdr.comp_len == 0 {
        return Ok(payload.to_vec());
    }
    // `raw_len` is outside the CRC: bound it before it sizes an allocation.
    if hdr.raw_len as u64 > LZ4_MAX_EXPANSION * payload.len() as u64 {
        return Err(bad_chunk(
            part,
            section,
            idx,
            format!(
                "promised {} raw bytes, more than {} compressed bytes can expand to",
                hdr.raw_len,
                payload.len()
            ),
        ));
    }
    let raw = minilz4::decompress(payload, hdr.raw_len as usize).map_err(|e| {
        bad_chunk(
            part,
            section,
            idx,
            format!(
                "decompression failed (promised {} raw bytes): {e}",
                hdr.raw_len
            ),
        )
    })?;
    Ok(raw)
}

/// Reassemble one section from in-memory file bytes: walk the chunk
/// stream `entry` describes, pass each chunk's header and stored payload to
/// `decode` ([`decode_chunk`], or a cache in front of it), and concatenate
/// the results. Errors name the part, section, and damaged chunk.
pub fn section_raw_bytes(
    part: PartId,
    data: &[u8],
    entry: &SectionEntry,
    mut decode: impl FnMut(u32, &ChunkHeader, &[u8]) -> Result<Arc<Vec<u8>>, IoError>,
) -> Result<Vec<u8>, IoError> {
    let section = entry.section;
    let end = entry.offset.saturating_add(entry.disk_len);
    if end > data.len() as u64 {
        return Err(IoError::Truncated {
            part,
            section,
            needed: end,
            have: data.len() as u64,
        });
    }
    // Reserve what the table promises, but never more than the bytes
    // present could decode to.
    let cap = entry
        .raw_len
        .min(entry.disk_len.saturating_mul(LZ4_MAX_EXPANSION));
    let mut out = Vec::with_capacity(cap as usize);
    let mut at = entry.offset as usize;
    let section_end = end as usize;
    for idx in 0..entry.nchunks {
        let hdr = parse_chunk_header(part, section, idx, &data[at..section_end])?;
        at += CHUNK_HEADER_LEN;
        let plen = hdr.disk_payload_len();
        if plen > section_end - at {
            return Err(bad_chunk(
                part,
                section,
                idx,
                format!(
                    "chunk payload truncated: need {plen} bytes, have {}",
                    section_end - at
                ),
            ));
        }
        out.extend_from_slice(&decode(idx, &hdr, &data[at..at + plen])?);
        at += plen;
    }
    if out.len() as u64 != entry.raw_len {
        return Err(IoError::Decode {
            part,
            section,
            detail: format!(
                "section reassembled to {} bytes, table promised {}",
                out.len(),
                entry.raw_len
            ),
        });
    }
    Ok(out)
}

/// Statistics of one finished chunked section.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkedSection {
    /// Bytes the section occupies on disk (headers + payloads).
    pub disk_len: u64,
    /// Total raw (uncompressed) section bytes.
    pub raw_len: u64,
    /// Number of chunks written.
    pub nchunks: u32,
}

/// Streaming chunked-section writer: buffers at most `chunk_len` raw bytes,
/// compressing and flushing a chunk to the underlying writer whenever the
/// buffer fills. I/O errors are latched and surfaced once at
/// [`ChunkWriter::finish_section`] so the encoder hot path stays
/// infallible.
pub struct ChunkWriter<'w, W: Write> {
    out: &'w mut W,
    chunk_len: usize,
    buf: Vec<u8>,
    section: ChunkedSection,
    io_err: Option<std::io::Error>,
}

impl<'w, W: Write> ChunkWriter<'w, W> {
    /// A writer streaming chunks of `chunk_len` raw bytes to `out`.
    pub fn new(out: &'w mut W, chunk_len: usize) -> Self {
        let chunk_len = chunk_len.max(4096);
        ChunkWriter {
            out,
            chunk_len,
            buf: Vec::with_capacity(chunk_len),
            section: ChunkedSection::default(),
            io_err: None,
        }
    }

    fn flush_chunk(&mut self) {
        if self.buf.is_empty() || self.io_err.is_some() {
            self.buf.clear();
            return;
        }
        let raw_len = self.buf.len() as u32;
        let compressed = minilz4::compress(&self.buf);
        let (comp_len, payload): (u32, &[u8]) = if compressed.len() < self.buf.len() {
            (compressed.len() as u32, &compressed)
        } else {
            (0, &self.buf)
        };
        let crc = crc32(payload);
        let mut hdr = [0u8; CHUNK_HEADER_LEN];
        hdr[0..4].copy_from_slice(&raw_len.to_le_bytes());
        hdr[4..8].copy_from_slice(&comp_len.to_le_bytes());
        hdr[8..12].copy_from_slice(&crc.to_le_bytes());
        let res = self
            .out
            .write_all(&hdr)
            .and_then(|()| self.out.write_all(payload));
        if let Err(e) = res {
            self.io_err = Some(e);
        } else {
            self.section.disk_len += (CHUNK_HEADER_LEN + payload.len()) as u64;
            self.section.raw_len += raw_len as u64;
            self.section.nchunks += 1;
        }
        self.buf.clear();
    }

    /// Flush the trailing partial chunk and return the section's stats,
    /// or the first latched I/O error.
    pub fn finish_section(mut self) -> Result<ChunkedSection, std::io::Error> {
        self.flush_chunk();
        match self.io_err {
            Some(e) => Err(e),
            None => Ok(self.section),
        }
    }

    /// [`SectionSink::put_raw`] for bytes that fill the current chunk:
    /// fill it, flush, and go on chunk by chunk.
    #[cold]
    #[inline(never)]
    fn put_raw_across(&mut self, b: &[u8]) {
        let mut rest = b;
        while !rest.is_empty() {
            let room = self.chunk_len - self.buf.len();
            let take = room.min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() == self.chunk_len {
                self.flush_chunk();
            }
        }
    }
}

impl<W: Write> SectionSink for ChunkWriter<'_, W> {
    /// Bytes that leave room in the current chunk are one copy into its
    /// buffer, which never reallocates: it was made with the chunk's
    /// capacity and a full chunk is flushed at once.
    #[inline]
    fn put_raw(&mut self, b: &[u8]) {
        if b.len() < self.chunk_len - self.buf.len() {
            self.buf.extend_from_slice(b);
        } else {
            self.put_raw_across(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reassemble a section written at offset 0 of `file`.
    fn reassemble(
        part: PartId,
        section: Section,
        file: &[u8],
        sec: &ChunkedSection,
    ) -> Result<Vec<u8>, IoError> {
        let entry = SectionEntry {
            section,
            offset: 0,
            disk_len: sec.disk_len,
            raw_len: sec.raw_len,
            nchunks: sec.nchunks,
        };
        section_raw_bytes(part, file, &entry, |idx, hdr, payload| {
            decode_chunk(part, section, idx, hdr, payload).map(Arc::new)
        })
    }

    #[test]
    fn chunk_stream_roundtrip() {
        let mut file: Vec<u8> = Vec::new();
        let mut w = ChunkWriter::new(&mut file, 4096);
        // > 3 chunks of structured data.
        for i in 0..4000u64 {
            w.put_u64(i);
            w.put_f64(i as f64 * 0.5);
        }
        let sec = w.finish_section().expect("no io errors");
        assert!(sec.nchunks > 3, "expected multiple chunks: {sec:?}");
        assert_eq!(sec.raw_len, 4000 * 16);
        assert!(sec.disk_len < sec.raw_len, "compressible data must shrink");
        let raw = reassemble(0, Section::Entities, &file, &sec).expect("reassemble");
        let mut r = pumi_pcu::MsgReader::from_vec(raw);
        for i in 0..4000u64 {
            assert_eq!(r.try_get_u64().unwrap(), i);
            assert_eq!(r.try_get_f64().unwrap(), i as f64 * 0.5);
        }
        assert!(r.is_done());
    }

    #[test]
    fn values_straddle_chunk_boundaries() {
        let mut file: Vec<u8> = Vec::new();
        let mut w = ChunkWriter::new(&mut file, 4096);
        // 9-byte records guarantee straddles of the 4096-byte boundary.
        for i in 0..2000u64 {
            w.put_u8(i as u8);
            w.put_u64(i);
        }
        let sec = w.finish_section().expect("io");
        let raw = reassemble(3, Section::Fields, &file, &sec).expect("reassemble");
        let mut r = pumi_pcu::MsgReader::from_vec(raw);
        for i in 0..2000u64 {
            assert_eq!(r.try_get_u8().unwrap(), i as u8);
            assert_eq!(r.try_get_u64().unwrap(), i);
        }
    }

    #[test]
    fn flipped_payload_bit_names_chunk() {
        let mut file: Vec<u8> = Vec::new();
        let mut w = ChunkWriter::new(&mut file, 4096);
        for i in 0..4000u64 {
            w.put_u64(i);
        }
        let sec = w.finish_section().expect("io");
        // Corrupt a byte inside the second chunk's payload.
        let hdr0 = parse_chunk_header(1, Section::Fields, 0, &file).unwrap();
        let c1_at = CHUNK_HEADER_LEN + hdr0.disk_payload_len();
        file[c1_at + CHUNK_HEADER_LEN + 5] ^= 0x08;
        let err = reassemble(1, Section::Fields, &file, &sec).expect_err("corruption must surface");
        match err {
            IoError::BadChunk {
                part: 1,
                section: Section::Fields,
                chunk: 1,
                ref detail,
            } => assert!(detail.contains("CRC"), "{detail}"),
            other => panic!("expected BadChunk(chunk 1), got {other:?}"),
        }
    }

    #[test]
    fn wrong_raw_len_names_chunk() {
        let mut file: Vec<u8> = Vec::new();
        let mut w = ChunkWriter::new(&mut file, 4096);
        for i in 0..4000u64 {
            w.put_u64(i % 17);
        }
        let sec = w.finish_section().expect("io");
        // Lie about chunk 0's raw length, a little short and absurdly long;
        // the CRC (payload-only) still passes, so the decompressed-length
        // comparison must catch the first and the expansion bound the
        // second — before 4 GiB is reserved for it.
        for bogus in [4096u32 - 9, 0xFFFF_FFF0] {
            file[0..4].copy_from_slice(&bogus.to_le_bytes());
            let err =
                reassemble(2, Section::Entities, &file, &sec).expect_err("length lie must surface");
            assert!(
                matches!(
                    err,
                    IoError::BadChunk {
                        part: 2,
                        section: Section::Entities,
                        chunk: 0,
                        ..
                    }
                ),
                "raw_len {bogus:#x}: got {err:?}"
            );
        }
    }

    #[test]
    fn truncated_chunk_names_chunk() {
        let mut file: Vec<u8> = Vec::new();
        let mut w = ChunkWriter::new(&mut file, 4096);
        for i in 0..4000u64 {
            w.put_u64(i);
        }
        let sec = w.finish_section().expect("io");
        let cut = file.len() - 20;
        let err = reassemble(4, Section::Remotes, &file[..cut], &sec)
            .expect_err("truncation must surface");
        // Either the section bound or the last chunk's payload is short —
        // both carry the typed location.
        match err {
            IoError::Truncated { part: 4, .. } => {}
            IoError::BadChunk { part: 4, .. } => {}
            other => panic!("expected Truncated/BadChunk, got {other:?}"),
        }
    }
}
