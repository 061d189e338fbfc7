//! # pumi-serve: many-reader checkpoint restore service
//!
//! A long-lived simulation writes one checkpoint; many downstream readers
//! — visualization clients, co-processing analyses, restart probes — each
//! want a *different slice* of it, often at a different granularity than
//! the writer's part count. Re-running the collective N→M restore once
//! per reader decompresses every shared chunk over and over.
//!
//! [`CheckpointServer`] amortizes that: it opens a `.pmb` checkpoint once
//! and serves any number of concurrent [`restore_slice`] calls through a
//! shared, CRC-verified chunk cache. The first reader to touch a
//! compressed chunk pays for verification and decompression; a reader that
//! touches it while that decode is under way waits for it instead of
//! decoding it again, and everyone later gets the cached raw bytes. Part
//! files (base and delta rounds) are read from disk exactly once regardless
//! of reader count.
//!
//! Slice `s` of `M` is the part rank `s` builds in `read_checkpoint` on M
//! ranks: the file parts [`pumi_io::slice_of`] names, built by the same
//! loader ([`PartRows::read`], then [`build_part`]) — one part merged from a
//! block of file parts when M ≤ N, a Morton piece of one file part when
//! M > N. The server only supplies its [`SectionSource`], the resident files
//! and the chunk cache, so the readers of one file part decompress it once.
//! Slices are standalone: ghost copies are dropped, remote-copy links are
//! not stitched, and field values stay staged under `__io:f:<name>` tags
//! (see [`pumi_io::staged_field_tag`]). Slices tile the mesh.
//!
//! Every slice restore runs under a `serve.slice` span (with the loader's
//! `io.rows` and `io.build` under it); cache traffic is metered through the
//! `serve.chunk.hit` / `serve.chunk.miss` / `serve.bytes.disk` /
//! `serve.bytes.raw` counters and the per-server [`ServeStats`] snapshot.
//! Every decompressed chunk stays resident for the server's lifetime.
//!
//! [`restore_slice`]: CheckpointServer::restore_slice

#![warn(missing_docs)]

use pumi_core::Part;
use pumi_io::chunk::{decode_chunk, ChunkHeader};
use pumi_io::format::{parse_manifest, MANIFEST_FILE};
use pumi_io::{
    build_part, slice_of, IoError, Manifest, PartFile, PartRows, Section, SectionSource,
};
use pumi_util::{FxHashMap, PartId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Cache traffic counters, readable at any time with
/// [`CheckpointServer::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Section chunks served from the shared cache.
    pub chunk_hits: u64,
    /// Section chunks that had to be verified + decompressed.
    pub chunk_misses: u64,
    /// Compressed bytes read from disk (each part file counted once).
    pub disk_bytes: u64,
    /// Raw (decompressed) section bytes handed to the decoders.
    pub raw_bytes: u64,
}

impl std::fmt::Debug for Slice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slice")
            .field("parts", &self.parts.len())
            .field("fparts", &self.fparts)
            .finish()
    }
}

/// One restored slice: a subset of the checkpointed mesh.
pub struct Slice {
    /// The slice's one part, numbered by the slice. Field values are staged
    /// as `__io:f:<name>` tags.
    pub parts: Vec<Part>,
    /// The checkpoint part files this slice drew from.
    pub fparts: Vec<PartId>,
}

/// Part file key: (delta round or `None` for base, file part).
type FileKey = (Option<u32>, PartId);

/// Chunk cache key: (delta round or `None` for base, file part, section
/// code, chunk index).
type ChunkKey = (Option<u32>, PartId, u8, u32);

/// A chunk decode under way. The decoding reader publishes its outcome
/// here — the raw bytes, or `None` when the decode failed — and wakes the
/// readers waiting for it.
#[derive(Default)]
struct Flight {
    outcome: Mutex<Option<Option<Arc<Vec<u8>>>>>,
    done: Condvar,
}

impl Flight {
    /// Never panics, so [`Claim`]'s `Drop` can call it: the outcome is one
    /// store, valid whatever a panicking holder left behind.
    fn publish(&self, raw: Option<Arc<Vec<u8>>>) {
        let mut outcome = self.outcome.lock().unwrap_or_else(|e| e.into_inner());
        *outcome = Some(raw);
        self.done.notify_all();
    }

    fn wait(&self) -> Option<Arc<Vec<u8>>> {
        let mut outcome = self.outcome.lock().expect("flight lock");
        loop {
            match &*outcome {
                Some(raw) => return raw.clone(),
                None => outcome = self.done.wait(outcome).expect("flight lock"),
            }
        }
    }
}

/// A cache entry: decoded bytes, or a decode another reader has under way.
enum Slot {
    Ready(Arc<Vec<u8>>),
    Decoding(Arc<Flight>),
}

/// The decoding reader's claim on a [`Flight`]. Dropped without
/// [`Claim::land`] — the decode failed or panicked — it withdraws the
/// flight, so the failure is never cached and a waiting reader decodes the
/// chunk itself.
struct Claim<'a> {
    server: &'a CheckpointServer,
    key: ChunkKey,
    flight: Arc<Flight>,
    landed: bool,
}

impl Claim<'_> {
    /// Cache the decoded bytes and hand them to every waiting reader.
    fn land(mut self, raw: &Arc<Vec<u8>>) {
        let mut chunks = self.server.chunks.lock().expect("chunk cache lock");
        chunks.insert(self.key, Slot::Ready(Arc::clone(raw)));
        drop(chunks);
        self.flight.publish(Some(Arc::clone(raw)));
        self.landed = true;
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if self.landed {
            return;
        }
        if let Ok(mut chunks) = self.server.chunks.lock() {
            chunks.remove(&self.key);
        }
        self.flight.publish(None);
    }
}

/// A checkpoint opened for concurrent slice restores. `Sync`: share it
/// across reader threads with `&` or [`Arc`].
pub struct CheckpointServer {
    dir: PathBuf,
    manifest: Manifest,
    /// Resident part files, compressed as on disk (decompressed data lives
    /// in `chunks`).
    files: Mutex<FxHashMap<FileKey, Arc<PartFile>>>,
    chunks: Mutex<FxHashMap<ChunkKey, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_bytes: AtomicU64,
    raw_bytes: AtomicU64,
}

impl CheckpointServer {
    /// Open the checkpoint at `dir`. Only the manifest is read here; part
    /// files load lazily on first touch.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointServer, IoError> {
        let _span = pumi_obs::span!("serve.open");
        let dir = dir.into();
        let mpath = dir.join(MANIFEST_FILE);
        let data = std::fs::read(&mpath).map_err(|e| IoError::Io {
            path: mpath.clone(),
            source: e,
        })?;
        let manifest = parse_manifest(&mpath, &data)?;
        Ok(CheckpointServer {
            dir,
            manifest,
            files: Mutex::new(FxHashMap::default()),
            chunks: Mutex::new(FxHashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_bytes: AtomicU64::new(data.len() as u64),
            raw_bytes: AtomicU64::new(0),
        })
    }

    /// The checkpoint's manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// A snapshot of the cache traffic counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            chunk_hits: self.hits.load(Ordering::Relaxed),
            chunk_misses: self.misses.load(Ordering::Relaxed),
            disk_bytes: self.disk_bytes.load(Ordering::Relaxed),
            raw_bytes: self.raw_bytes.load(Ordering::Relaxed),
        }
    }

    /// Restore slice `slice` of `nslices`: the part rank `slice` builds in
    /// `read_checkpoint` on `nslices` ranks ([`slice_of`]), unlinked. Safe
    /// to call from many threads at once; `slice` must be `< nslices`.
    pub fn restore_slice(&self, slice: usize, nslices: usize) -> Result<Slice, IoError> {
        let _span = pumi_obs::span!("serve.slice");
        assert!(
            slice < nslices,
            "slice {slice} out of range (nslices = {nslices})"
        );
        let (fparts, pick) = slice_of(slice, nslices, self.manifest.nparts as usize);
        let fparts: Vec<PartId> = fparts.map(|p| p as PartId).collect();
        let block = fparts
            .iter()
            .map(|&p| PartRows::read(&self.manifest, p, self))
            .collect::<Result<Vec<_>, _>>()?;
        let part = build_part(slice as PartId, &block, pick, true)?.part;
        Ok(Slice {
            parts: vec![part],
            fparts,
        })
    }

    /// One chunk's raw bytes through the shared cache. `decode` (CRC check
    /// and decompression) runs only on a miss; a reader that misses while
    /// another reader's decode of the same chunk is under way waits for it
    /// and counts a hit. A failed decode is never cached: its waiting
    /// readers decode the chunk themselves.
    fn cached_chunk(
        &self,
        key: ChunkKey,
        decode: impl FnOnce() -> Result<Vec<u8>, IoError>,
    ) -> Result<Arc<Vec<u8>>, IoError> {
        loop {
            let mut chunks = self.chunks.lock().expect("chunk cache lock");
            let flight = match chunks.get(&key) {
                Some(Slot::Ready(raw)) => {
                    let raw = Arc::clone(raw);
                    drop(chunks);
                    self.hit();
                    return Ok(raw);
                }
                Some(Slot::Decoding(flight)) => Arc::clone(flight),
                None => {
                    let flight = Arc::new(Flight::default());
                    chunks.insert(key, Slot::Decoding(Arc::clone(&flight)));
                    drop(chunks);
                    let claim = Claim {
                        server: self,
                        key,
                        flight,
                        landed: false,
                    };
                    let raw = Arc::new(decode()?);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    pumi_obs::metrics::counter_add("serve.chunk.miss", 1);
                    claim.land(&raw);
                    return Ok(raw);
                }
            };
            drop(chunks);
            if let Some(raw) = flight.wait() {
                self.hit();
                return Ok(raw);
            }
        }
    }

    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        pumi_obs::metrics::counter_add("serve.chunk.hit", 1);
    }
}

impl SectionSource for CheckpointServer {
    fn part_file(&self, fpart: PartId, delta: Option<u32>) -> Result<Arc<PartFile>, IoError> {
        // The load happens under the map lock: concurrent first-touchers
        // would otherwise stampede the same file and each pay the disk
        // read. Serializing the one-time loads keeps "each part file is
        // read from disk exactly once" an invariant the stats can assert.
        let mut files = self.files.lock().expect("file map lock");
        if let Some(pf) = files.get(&(delta, fpart)) {
            return Ok(Arc::clone(pf));
        }
        let pf = Arc::new(PartFile::read(&self.dir, fpart, delta)?);
        self.disk_bytes
            .fetch_add(pf.data.len() as u64, Ordering::Relaxed);
        pumi_obs::metrics::counter_add("serve.bytes.disk", pf.data.len() as u64);
        files.insert((delta, fpart), Arc::clone(&pf));
        Ok(pf)
    }

    fn chunk(
        &self,
        file: &PartFile,
        section: Section,
        idx: u32,
        hdr: &ChunkHeader,
        payload: &[u8],
    ) -> Result<Arc<Vec<u8>>, IoError> {
        let fpart = file.header.part;
        let key = (file.delta, fpart, section.to_u8(), idx);
        let raw = self.cached_chunk(key, || decode_chunk(fpart, section, idx, hdr, payload))?;
        self.raw_bytes
            .fetch_add(raw.len() as u64, Ordering::Relaxed);
        pumi_obs::metrics::counter_add("serve.bytes.raw", raw.len() as u64);
        Ok(raw)
    }
}
