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
//! Slices follow the same balanced-block rule as the collective reader
//! ([`pumi_io::balanced_block`]), and every part comes from the same loader
//! ([`PartRows::read`], then [`build_part`]) — the server only supplies its
//! [`SectionSource`]: the resident files and the chunk cache. With N
//! checkpoint parts and M slices,
//!
//! * **M ≤ N** — slice `s` is the part block `[s·N/M, (s+1)·N/M)`, one
//!   built [`Part`] per file part;
//! * **M > N** — file part `p` fans out over the slice block
//!   `[p·M/N, (p+1)·M/N)`: each reader decodes `p`'s rows (through the
//!   shared cache, so the decompression is paid once) and builds only its
//!   sub-part ([`Pick::Piece`]): a contiguous range of `p`'s elements in
//!   Morton order, and their closure — the cut the collective reader splits
//!   with, so slice `s` holds the elements rank `s` holds after
//!   `read_checkpoint` on M ranks.
//!
//! Slices are standalone: ghost copies are dropped, remote-copy links are
//! not stitched, and field values stay staged under `__io:f:<name>` tags
//! (see [`pumi_io::staged_field_tag`]). Element sets of distinct slices
//! are disjoint and their union is the whole mesh.
//!
//! Every slice restore runs under a `serve.slice` span (with the loader's
//! `io.rows` and `io.build` under it); cache traffic is
//! metered through the `serve.chunk.hit` / `serve.chunk.miss` /
//! `serve.chunk.evict` / `serve.bytes.disk` / `serve.bytes.raw` counters
//! and the per-server [`ServeStats`] snapshot. By default the chunk cache
//! is unbounded — every decompressed chunk stays resident for the
//! server's lifetime. Long-lived servers can cap it with
//! [`ServeOpts::chunk_cache_bytes`] (FIFO eviction; evicted chunks are
//! simply decoded again on the next touch).
//!
//! [`restore_slice`]: CheckpointServer::restore_slice

#![warn(missing_docs)]

use pumi_core::Part;
use pumi_io::chunk::{decode_chunk, ChunkHeader};
use pumi_io::format::{parse_manifest, MANIFEST_FILE};
use pumi_io::{
    balanced_block, build_part, IoError, Manifest, PartFile, PartRows, Pick, Section, SectionSource,
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
    /// Cached chunks evicted to stay under the configured capacity
    /// ([`ServeOpts::chunk_cache_bytes`]); 0 for an unbounded cache.
    pub chunk_evictions: u64,
    /// Compressed bytes read from disk (each part file counted once).
    pub disk_bytes: u64,
    /// Raw (decompressed) section bytes handed to the decoders.
    pub raw_bytes: u64,
}

/// Tuning knobs for [`CheckpointServer::open_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeOpts {
    /// Cap on the total raw (decompressed) bytes held by the shared chunk
    /// cache. `None` (the default) keeps every chunk for the server's
    /// lifetime; with a cap, the oldest cached chunks are evicted
    /// first-in-first-out once an insert pushes the total over. Evicted
    /// chunks are re-verified and re-decompressed on the next touch, so a
    /// cap trades decode work for bounded memory — correctness is
    /// unaffected. The most recent chunk always stays resident, even when
    /// it alone exceeds the cap.
    pub chunk_cache_bytes: Option<u64>,
}

impl ServeOpts {
    /// Defaults: unbounded cache.
    pub fn new() -> ServeOpts {
        ServeOpts::default()
    }

    /// Cap the chunk cache at `bytes` of raw chunk data.
    #[must_use]
    pub fn chunk_cache_bytes(mut self, bytes: u64) -> ServeOpts {
        self.chunk_cache_bytes = Some(bytes);
        self
    }
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
    /// The slice's parts (one per file part for M ≤ N, exactly one for
    /// M > N). Field values are staged as `__io:f:<name>` tags.
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

/// The shared raw-chunk cache: a keyed map plus FIFO insertion order for
/// capacity eviction. Keys appear in `order` exactly once — they are
/// pushed when a decode lands and removed only by eviction; a decode under
/// way is in `map` but not in `order`.
#[derive(Default)]
struct ChunkCache {
    map: FxHashMap<ChunkKey, Slot>,
    order: std::collections::VecDeque<ChunkKey>,
    bytes: u64,
    cap: Option<u64>,
}

impl ChunkCache {
    /// Evict oldest-first until the cache fits its cap again, keeping at
    /// least the newest entry. Returns the number of chunks evicted.
    fn evict_over_cap(&mut self) -> u64 {
        let Some(cap) = self.cap else { return 0 };
        let mut evicted = 0;
        while self.bytes > cap && self.order.len() > 1 {
            let key = self.order.pop_front().expect("non-empty order");
            let Some(Slot::Ready(raw)) = self.map.remove(&key) else {
                unreachable!("order lists landed chunks only");
            };
            self.bytes -= raw.len() as u64;
            evicted += 1;
        }
        evicted
    }
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
        chunks.map.insert(self.key, Slot::Ready(Arc::clone(raw)));
        chunks.order.push_back(self.key);
        chunks.bytes += raw.len() as u64;
        let evicted = chunks.evict_over_cap();
        drop(chunks);
        if evicted > 0 {
            self.server.evictions.fetch_add(evicted, Ordering::Relaxed);
            pumi_obs::metrics::counter_add("serve.chunk.evict", evicted);
        }
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
            chunks.map.remove(&self.key);
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
    chunks: Mutex<ChunkCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    disk_bytes: AtomicU64,
    raw_bytes: AtomicU64,
}

impl CheckpointServer {
    /// Open the checkpoint at `dir` with default options (unbounded chunk
    /// cache). Only the manifest is read here; part files load lazily on
    /// first touch.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointServer, IoError> {
        CheckpointServer::open_with(dir, ServeOpts::default())
    }

    /// [`open`](CheckpointServer::open) with explicit [`ServeOpts`].
    pub fn open_with(
        dir: impl Into<PathBuf>,
        opts: ServeOpts,
    ) -> Result<CheckpointServer, IoError> {
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
            chunks: Mutex::new(ChunkCache {
                cap: opts.chunk_cache_bytes,
                ..ChunkCache::default()
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
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
            chunk_evictions: self.evictions.load(Ordering::Relaxed),
            disk_bytes: self.disk_bytes.load(Ordering::Relaxed),
            raw_bytes: self.raw_bytes.load(Ordering::Relaxed),
        }
    }

    /// Restore slice `slice` of `nslices` (see the module docs for the
    /// slice → part arithmetic). Safe to call from many threads at once;
    /// `slice` must be `< nslices`.
    pub fn restore_slice(&self, slice: usize, nslices: usize) -> Result<Slice, IoError> {
        let _span = pumi_obs::span!("serve.slice");
        assert!(
            slice < nslices,
            "slice {slice} out of range (nslices = {nslices})"
        );
        let n = self.manifest.nparts as usize;
        let load = |p: usize, pick: Pick| {
            let rows = PartRows::read(&self.manifest, p as PartId, self)?;
            Ok(build_part(p as PartId, &[rows], pick, true)?.part)
        };
        let (fparts, parts) = if nslices <= n {
            let block = balanced_block(slice, nslices, n);
            let parts = block.clone().map(|p| load(p, Pick::Whole));
            (block, parts.collect::<Result<_, IoError>>()?)
        } else {
            // The one file part whose fan-out block holds this slice.
            let (p, block) = (0..n)
                .map(|p| (p, balanced_block(p, n, nslices)))
                .find(|(_, block)| block.contains(&slice))
                .expect("fan-out blocks tile the slices");
            let pick = match block.len() {
                1 => Pick::Whole,
                k => Pick::Piece(slice - block.start, k),
            };
            (p..p + 1, vec![load(p, pick)?])
        };
        Ok(Slice {
            parts,
            fparts: fparts.map(|p| p as PartId).collect(),
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
            let flight = match chunks.map.get(&key) {
                Some(Slot::Ready(raw)) => {
                    let raw = Arc::clone(raw);
                    drop(chunks);
                    self.hit();
                    return Ok(raw);
                }
                Some(Slot::Decoding(flight)) => Arc::clone(flight),
                None => {
                    let flight = Arc::new(Flight::default());
                    chunks.map.insert(key, Slot::Decoding(Arc::clone(&flight)));
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
