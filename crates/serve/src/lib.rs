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
//! compressed chunk pays for verification and decompression; everyone
//! else gets the cached raw bytes. Part files (base and delta rounds) are
//! read from disk exactly once regardless of reader count.
//!
//! Slices follow the same balanced-block rule as the collective reader
//! ([`pumi_io::balanced_block`]), and every part is rebuilt by the same
//! loader ([`pumi_io::load_part`]) — the server only supplies its
//! [`SectionSource`]: the resident files and the chunk cache. With N
//! checkpoint parts and M slices,
//!
//! * **M ≤ N** — slice `s` is the part block `[s·N/M, (s+1)·N/M)`, one
//!   loaded [`Part`] per file part;
//! * **M > N** — file part `p` fans out over the slice block
//!   `[p·M/N, (p+1)·M/N)`: each reader loads `p` (through the shared
//!   cache, so the load is paid once in decompression terms) and keeps
//!   only its sub-partition, computed with the local graph partitioner.
//!
//! Slices are standalone: ghost copies are dropped, remote-copy links are
//! not stitched, and field values stay staged under `__io:f:<name>` tags
//! (see [`pumi_io::staged_field_tag`]). Element sets of distinct slices
//! are disjoint and their union is the whole mesh.
//!
//! Every slice restore runs under a `serve.slice` span; cache traffic is
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
use pumi_io::{balanced_block, load_part, IoError, Manifest, PartFile, Section, SectionSource};
use pumi_partition::partition_mesh;
use pumi_util::{Dim, FxHashMap, FxHashSet, MeshEnt, PartId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// The shared raw-chunk cache: a keyed map plus FIFO insertion order for
/// capacity eviction. Keys appear in `order` exactly once — they are
/// pushed only on a fresh insert and removed only by eviction.
#[derive(Default)]
struct ChunkCache {
    map: FxHashMap<ChunkKey, Arc<Vec<u8>>>,
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
            let raw = self.map.remove(&key).expect("order/map out of sync");
            self.bytes -= raw.len() as u64;
            evicted += 1;
        }
        evicted
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
        let load = |p: usize| Ok(load_part(&self.manifest, p as PartId, self, true)?.part);
        if nslices <= n {
            let block = balanced_block(slice, nslices, n);
            Ok(Slice {
                parts: block.clone().map(load).collect::<Result<_, IoError>>()?,
                fparts: block.map(|p| p as PartId).collect(),
            })
        } else {
            // The one file part whose fan-out block holds this slice.
            let (p, block) = (0..n)
                .map(|p| (p, balanced_block(p, n, nslices)))
                .find(|(_, block)| block.contains(&slice))
                .expect("fan-out blocks tile the slices");
            let full = load(p)?;
            let part = if block.len() <= 1 {
                full
            } else {
                let labels = partition_mesh(&full.mesh, block.len());
                extract_labeled(&full, &labels, (slice - block.start) as PartId)
            };
            Ok(Slice {
                parts: vec![part],
                fparts: vec![p as PartId],
            })
        }
    }

    /// One chunk's raw bytes through the shared cache. `decode` runs only
    /// on a miss (CRC check + decompression).
    fn cached_chunk(
        &self,
        key: ChunkKey,
        decode: impl FnOnce() -> Result<Vec<u8>, IoError>,
    ) -> Result<Arc<Vec<u8>>, IoError> {
        if let Some(raw) = self.chunks.lock().expect("chunk cache lock").map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            pumi_obs::metrics::counter_add("serve.chunk.hit", 1);
            return Ok(Arc::clone(raw));
        }
        // Decode outside the lock; concurrent first-touchers of the same
        // chunk may both decode, but only one copy is kept.
        let raw = Arc::new(decode()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        pumi_obs::metrics::counter_add("serve.chunk.miss", 1);
        let mut chunks = self.chunks.lock().expect("chunk cache lock");
        if let Some(existing) = chunks.map.get(&key) {
            return Ok(Arc::clone(existing));
        }
        chunks.map.insert(key, Arc::clone(&raw));
        chunks.order.push_back(key);
        chunks.bytes += raw.len() as u64;
        let evicted = chunks.evict_over_cap();
        drop(chunks);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            pumi_obs::metrics::counter_add("serve.chunk.evict", evicted);
        }
        Ok(raw)
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

/// Build a standalone sub-part from the elements of `src` labeled `want`.
/// Vertices referenced by a kept element come along; intermediate entities
/// come along when all their vertices did (boundary edges/faces shared
/// with a neighboring slice are duplicated, like part-boundary copies).
/// Tag rows — including staged `__io:f:` field values — ride with their
/// entities; global ids are preserved so slices stay globally consistent.
fn extract_labeled(src: &Part, labels: &[PartId], want: PartId) -> Part {
    let elem_dim = src.mesh.elem_dim();
    let d_elem = Dim::from_usize(elem_dim);
    let mut out = Part::new(src.id, elem_dim);
    let mut vwant: FxHashSet<u32> = FxHashSet::default();
    for e in src.mesh.iter(d_elem) {
        if labels[e.idx()] == want {
            vwant.extend(src.mesh.verts_of(e).iter().copied());
        }
    }
    // Old local index → new local index (vertices), old → new handles (all
    // dimensions, for the tag pass).
    let mut vmap: FxHashMap<u32, u32> = FxHashMap::default();
    let mut emap: Vec<(MeshEnt, MeshEnt)> = Vec::new();
    for v in src.mesh.iter(Dim::Vertex) {
        if !vwant.contains(&v.index()) {
            continue;
        }
        let nv = out.add_vertex(src.mesh.coords(v), src.mesh.class_of(v), src.gid_of(v));
        vmap.insert(v.index(), nv.index());
        emap.push((v, nv));
    }
    for d in 1..=elem_dim {
        let dim = Dim::from_usize(d);
        for e in src.mesh.iter(dim) {
            let keep = if d == elem_dim {
                labels[e.idx()] == want
            } else {
                src.mesh.verts_of(e).iter().all(|v| vmap.contains_key(v))
            };
            if !keep {
                continue;
            }
            let verts: Vec<u32> = src.mesh.verts_of(e).iter().map(|v| vmap[v]).collect();
            let ne = out.add_entity(
                src.mesh.topo(e),
                &verts,
                src.mesh.class_of(e),
                src.gid_of(e),
            );
            emap.push((e, ne));
        }
    }
    let tm = src.mesh.tags();
    for tid in tm.tags() {
        if tm.count(tid) == 0 {
            continue;
        }
        let ntid = out
            .mesh
            .tags_mut()
            .declare(tm.name(tid), tm.kind(tid), tm.len_of(tid));
        for &(old, new) in &emap {
            if let Some(data) = tm.get(tid, old) {
                out.mesh.tags_mut().set(ntid, new, data);
            }
        }
    }
    out
}
