//! The **Tag** component: "attaching arbitrary user data to arbitrary data or
//! set with common tagging requirements" (§II, refs 11–13 — the
//! ITAPS/MOAB tagging conventions).
//!
//! Tags are declared once on a [`TagManager`] (name, kind, length) yielding a
//! [`TagId`]; values are then attached per entity. Tag data migrates with
//! entities and is carried by ghost copies, so values must serialize — the
//! supported kinds mirror MOAB's: integers, doubles, and opaque bytes, scalar
//! or fixed-length array. Values live in per-dimension arrays indexed by the
//! entity's slot (see [`TagManager`]); [`TagData`] is the form they are
//! exchanged in.

use crate::fxhash::FxHashMap;
use crate::ids::MeshEnt;

/// The value kind a tag stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagKind {
    /// 64-bit signed integers.
    Int,
    /// 64-bit floats.
    Double,
    /// Raw bytes (opaque user data).
    Bytes,
}

/// A single attached tag value.
#[derive(Debug, Clone, PartialEq)]
pub enum TagData {
    /// Integer array value (length = tag's declared `len`).
    Ints(Vec<i64>),
    /// Double array value (length = tag's declared `len`).
    Dbls(Vec<f64>),
    /// Opaque byte value (any length).
    Bytes(Vec<u8>),
}

impl TagData {
    /// The kind of this value.
    pub fn kind(&self) -> TagKind {
        match self {
            TagData::Ints(_) => TagKind::Int,
            TagData::Dbls(_) => TagKind::Double,
            TagData::Bytes(_) => TagKind::Bytes,
        }
    }

    /// Serialize to bytes for migration/ghost messages.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TagData::Ints(v) => {
                out.push(0);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            TagData::Dbls(v) => {
                out.push(1);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            TagData::Bytes(v) => {
                out.push(2);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v);
            }
        }
    }

    /// Deserialize from bytes, advancing `pos`. Returns `None` on malformed
    /// input (only possible if a message was corrupted or mis-framed).
    pub fn decode(buf: &[u8], pos: &mut usize) -> Option<TagData> {
        let kind = *buf.get(*pos)?;
        *pos += 1;
        let n = u32::from_le_bytes(buf.get(*pos..*pos + 4)?.try_into().ok()?) as usize;
        *pos += 4;
        match kind {
            // Capacity capped by what the buffer can hold: a corrupt count
            // must not allocate for values that are not there.
            0 => {
                let mut v = Vec::with_capacity(n.min(buf.len() / 8));
                for _ in 0..n {
                    v.push(i64::from_le_bytes(
                        buf.get(*pos..*pos + 8)?.try_into().ok()?,
                    ));
                    *pos += 8;
                }
                Some(TagData::Ints(v))
            }
            1 => {
                let mut v = Vec::with_capacity(n.min(buf.len() / 8));
                for _ in 0..n {
                    v.push(f64::from_le_bytes(
                        buf.get(*pos..*pos + 8)?.try_into().ok()?,
                    ));
                    *pos += 8;
                }
                Some(TagData::Dbls(v))
            }
            2 => {
                let v = buf.get(*pos..*pos + n)?.to_vec();
                *pos += n;
                Some(TagData::Bytes(v))
            }
            _ => None,
        }
    }
}

/// A value borrowed from its column: what [`TagManager::get`] builds, without
/// the heap block. [`TagRef::encode_with`] gives [`TagData::encode`]'s bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TagRef<'a> {
    /// Integer array value, as the values' bit patterns.
    Ints(&'a [u64]),
    /// Double array value, as the values' bit patterns.
    Dbls(&'a [u64]),
    /// Opaque byte value.
    Bytes(&'a [u8]),
}

impl TagRef<'_> {
    /// The value in its exchange form.
    pub fn to_data(self) -> TagData {
        match self {
            TagRef::Ints(w) => TagData::Ints(w.iter().map(|&x| x as i64).collect()),
            TagRef::Dbls(w) => TagData::Dbls(w.iter().map(|&x| f64::from_bits(x)).collect()),
            TagRef::Bytes(b) => TagData::Bytes(b.to_vec()),
        }
    }

    /// The length of [`TagData::encode`]'s output for this value.
    pub fn encoded_len(self) -> usize {
        5 + match self {
            TagRef::Ints(w) | TagRef::Dbls(w) => 8 * w.len(),
            TagRef::Bytes(b) => b.len(),
        }
    }

    /// Hand [`TagData::encode`]'s bytes for this value to `put`, piece by
    /// piece.
    #[inline]
    pub fn encode_with(self, mut put: impl FnMut(&[u8])) {
        let (code, n) = match self {
            TagRef::Ints(w) => (0u8, w.len()),
            TagRef::Dbls(w) => (1, w.len()),
            TagRef::Bytes(b) => (2, b.len()),
        };
        put(&[code]);
        put(&(n as u32).to_le_bytes());
        match self {
            TagRef::Ints(w) | TagRef::Dbls(w) => w.iter().for_each(|x| put(&x.to_le_bytes())),
            TagRef::Bytes(b) => put(b),
        }
    }
}

/// Handle to a declared tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TagId(pub u32);

/// One declared tag and its values: dense per entity dimension, in the
/// manner of `pumi_field::Field`. A dimension the tag was never set on stays
/// empty.
#[derive(Debug)]
struct Column {
    name: String,
    kind: TagKind,
    /// The declared array length.
    len: usize,
    /// Per dimension: whether the slot holds a value.
    present: [Vec<bool>; 4],
    /// `Int`/`Double` tags: `width` words per slot, each a value's bit
    /// pattern.
    words: [Vec<u64>; 4],
    /// `Bytes` tags: one buffer per slot.
    blobs: [Vec<Vec<u8>>; 4],
    /// Slots holding a value, over all dimensions.
    count: usize,
}

impl Column {
    /// 8-byte words per slot: `len` for an `Int`/`Double` tag, none for a
    /// `Bytes` tag.
    #[inline]
    fn width(&self) -> usize {
        match self.kind {
            TagKind::Int | TagKind::Double => self.len,
            TagKind::Bytes => 0,
        }
    }

    #[inline]
    fn has(&self, ent: MeshEnt) -> bool {
        self.present[ent.dim().as_usize()]
            .get(ent.idx())
            .copied()
            .unwrap_or(false)
    }

    /// The fixed-width value of `ent` as stored, if it has one.
    #[inline]
    fn words_of(&self, ent: MeshEnt) -> Option<&[u64]> {
        let (d, i, w) = (ent.dim().as_usize(), ent.idx(), self.width());
        self.has(ent).then(|| &self.words[d][i * w..(i + 1) * w])
    }

    /// The slot of `ent`, grown to reach it and marked as holding a value:
    /// `(dimension, index)`.
    fn occupy(&mut self, ent: MeshEnt) -> (usize, usize) {
        let (d, i) = (ent.dim().as_usize(), ent.idx());
        if i >= self.present[d].len() {
            self.present[d].resize(i + 1, false);
            self.words[d].resize((i + 1) * self.width(), 0);
            if self.kind == TagKind::Bytes {
                self.blobs[d].resize(i + 1, Vec::new());
            }
        }
        let had = std::mem::replace(&mut self.present[d][i], true);
        self.count += usize::from(!had);
        (d, i)
    }

    /// The words of slot `(d, i)`.
    fn slot_mut(&mut self, (d, i): (usize, usize)) -> &mut [u64] {
        let w = self.width();
        &mut self.words[d][i * w..(i + 1) * w]
    }

    /// Empty the slot of `ent`.
    fn vacate(&mut self, ent: MeshEnt) {
        let (d, i) = (ent.dim().as_usize(), ent.idx());
        if self.has(ent) {
            self.present[d][i] = false;
            self.count -= 1;
            if let Some(blob) = self.blobs[d].get_mut(i) {
                *blob = Vec::new();
            }
        }
    }
}

/// Declares tags and stores per-entity values.
///
/// One manager exists per mesh part. Storage is slot-indexed: each tag keeps,
/// per entity dimension, an array indexed by [`MeshEnt::idx`] plus a presence
/// mask, grown lazily to the highest index ever set — how DMPlex attaches
/// data to mesh points through a section rather than a map per label.
/// Fixed-length `Int`/`Double` values sit in one flat column, so reading,
/// writing, deleting an entity or handing a value on to its children costs
/// an index, not a hash and not a heap value. [`TagData`] is the exchange
/// form: what [`TagManager::set`] takes, what [`TagManager::get`] and
/// [`TagManager::collect`] build, and what goes on the wire.
#[derive(Debug, Default)]
pub struct TagManager {
    by_name: FxHashMap<String, TagId>,
    /// `columns[tag.0]`
    columns: Vec<Column>,
}

/// Tag values saved from entities a cavity operation is about to delete, for
/// the entities it creates in their place — possibly in the very same slots —
/// to inherit ([`TagManager::save`], [`TagManager::restore`]). Meant to be
/// kept and [cleared](TagStash::clear) between operations, so that saving
/// and restoring fixed-length values allocates nothing once it has grown.
#[derive(Debug, Default)]
pub struct TagStash {
    /// Row `r` is `vals[rows[r]..rows[r + 1]]` (the last row runs to the end).
    rows: Vec<u32>,
    /// `(tag, start, length)` in `words` (`Int`/`Double`) or `bytes`.
    vals: Vec<(TagId, u32, u32)>,
    words: Vec<u64>,
    bytes: Vec<u8>,
}

impl TagStash {
    /// Forget every saved row, keeping the buffers.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.vals.clear();
        self.words.clear();
        self.bytes.clear();
    }
}

impl TagManager {
    /// Create an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a tag. `len` is the array length for `Int`/`Double` kinds
    /// (ignored for `Bytes`). Re-declaring an existing name with the same
    /// kind/len returns the existing id.
    ///
    /// # Panics
    /// Panics if the name exists with a different kind or length.
    pub fn declare(&mut self, name: &str, kind: TagKind, len: usize) -> TagId {
        if let Some(&id) = self.by_name.get(name) {
            let d = &self.columns[id.0 as usize];
            assert!(
                d.kind == kind && d.len == len,
                "tag '{name}' re-declared with different signature"
            );
            return id;
        }
        let id = TagId(self.columns.len() as u32);
        self.by_name.insert(name.to_string(), id);
        self.columns.push(Column {
            name: name.to_string(),
            kind,
            len,
            present: Default::default(),
            words: Default::default(),
            blobs: Default::default(),
            count: 0,
        });
        id
    }

    /// Look up a tag by name.
    pub fn find(&self, name: &str) -> Option<TagId> {
        self.by_name.get(name).copied()
    }

    /// The tag's name.
    pub fn name(&self, tag: TagId) -> &str {
        &self.columns[tag.0 as usize].name
    }

    /// The tag's kind.
    pub fn kind(&self, tag: TagId) -> TagKind {
        self.columns[tag.0 as usize].kind
    }

    /// The tag's declared array length.
    pub fn len_of(&self, tag: TagId) -> usize {
        self.columns[tag.0 as usize].len
    }

    /// Number of declared tags.
    pub fn num_tags(&self) -> usize {
        self.columns.len()
    }

    /// All declared tag ids.
    pub fn tags(&self) -> impl Iterator<Item = TagId> + '_ {
        (0..self.columns.len() as u32).map(TagId)
    }

    /// Attach a value to an entity.
    ///
    /// # Panics
    /// Panics (debug) if the value kind or length mismatches the declaration.
    pub fn set(&mut self, tag: TagId, ent: MeshEnt, data: TagData) {
        let col = &mut self.columns[tag.0 as usize];
        debug_assert_eq!(data.kind(), col.kind);
        let at = col.occupy(ent);
        match data {
            TagData::Ints(v) => {
                debug_assert_eq!(v.len(), col.width());
                for (slot, x) in col.slot_mut(at).iter_mut().zip(v) {
                    *slot = x as u64;
                }
            }
            TagData::Dbls(v) => {
                debug_assert_eq!(v.len(), col.width());
                for (slot, x) in col.slot_mut(at).iter_mut().zip(v) {
                    *slot = x.to_bits();
                }
            }
            TagData::Bytes(v) => col.blobs[at.0][at.1] = v,
        }
    }

    /// Convenience: attach a scalar double.
    pub fn set_dbl(&mut self, tag: TagId, ent: MeshEnt, x: f64) {
        let col = &mut self.columns[tag.0 as usize];
        debug_assert_eq!((col.kind, col.width()), (TagKind::Double, 1));
        let at = col.occupy(ent);
        col.slot_mut(at)[0] = x.to_bits();
    }

    /// Attach an `Int`/`Double` value from the bit patterns it is stored
    /// as (`i64 as u64`, `f64::to_bits`), without building a [`TagData`].
    pub fn set_words(&mut self, tag: TagId, ent: MeshEnt, words: &[u64]) {
        let col = &mut self.columns[tag.0 as usize];
        debug_assert!(col.kind != TagKind::Bytes && col.width() == words.len());
        let at = col.occupy(ent);
        col.slot_mut(at).copy_from_slice(words);
    }

    /// Attach a `Bytes` value from a slice.
    pub fn set_bytes(&mut self, tag: TagId, ent: MeshEnt, bytes: &[u8]) {
        let col = &mut self.columns[tag.0 as usize];
        debug_assert_eq!(col.kind, TagKind::Bytes);
        let at = col.occupy(ent);
        col.blobs[at.0][at.1] = bytes.to_vec();
    }

    /// Convenience: attach a scalar integer.
    pub fn set_int(&mut self, tag: TagId, ent: MeshEnt, x: i64) {
        let col = &mut self.columns[tag.0 as usize];
        debug_assert_eq!((col.kind, col.width()), (TagKind::Int, 1));
        let at = col.occupy(ent);
        col.slot_mut(at)[0] = x as u64;
    }

    /// Read a value, in its exchange form.
    pub fn get(&self, tag: TagId, ent: MeshEnt) -> Option<TagData> {
        self.get_ref(tag, ent).map(TagRef::to_data)
    }

    /// Read a value in place.
    #[inline]
    pub fn get_ref(&self, tag: TagId, ent: MeshEnt) -> Option<TagRef<'_>> {
        let col = &self.columns[tag.0 as usize];
        let words = col.words_of(ent)?;
        Some(match col.kind {
            TagKind::Int => TagRef::Ints(words),
            TagKind::Double => TagRef::Dbls(words),
            TagKind::Bytes => TagRef::Bytes(&col.blobs[ent.dim().as_usize()][ent.idx()]),
        })
    }

    /// Read a scalar double value.
    #[inline]
    pub fn get_dbl(&self, tag: TagId, ent: MeshEnt) -> Option<f64> {
        let col = &self.columns[tag.0 as usize];
        if col.kind != TagKind::Double {
            return None;
        }
        col.words_of(ent)?.first().map(|&x| f64::from_bits(x))
    }

    /// Read a scalar integer value.
    #[inline]
    pub fn get_int(&self, tag: TagId, ent: MeshEnt) -> Option<i64> {
        let col = &self.columns[tag.0 as usize];
        if col.kind != TagKind::Int {
            return None;
        }
        col.words_of(ent)?.first().map(|&x| x as i64)
    }

    /// Whether the entity carries this tag.
    #[inline]
    pub fn has(&self, tag: TagId, ent: MeshEnt) -> bool {
        self.columns[tag.0 as usize].has(ent)
    }

    /// Remove a tag value from an entity; returns the removed value.
    pub fn remove(&mut self, tag: TagId, ent: MeshEnt) -> Option<TagData> {
        let old = self.get(tag, ent);
        self.columns[tag.0 as usize].vacate(ent);
        old
    }

    /// Remove every tag value attached to `ent` (entity deletion).
    pub fn remove_all(&mut self, ent: MeshEnt) {
        for col in &mut self.columns {
            col.vacate(ent);
        }
    }

    /// Collect all (tag, value) pairs on an entity, in ascending tag order —
    /// used when packing an entity for migration or ghosting.
    pub fn collect(&self, ent: MeshEnt) -> Vec<(TagId, TagData)> {
        self.tags()
            .filter_map(|t| Some((t, self.get(t, ent)?)))
            .collect()
    }

    /// Save every value on `ent` as the next row of `stash`; returns the
    /// row's number.
    pub fn save(&self, ent: MeshEnt, stash: &mut TagStash) -> usize {
        stash.rows.push(stash.vals.len() as u32);
        for (t, col) in self.tags().zip(&self.columns) {
            let (start, len) = match col.words_of(ent) {
                None => continue,
                Some(_) if col.kind == TagKind::Bytes => {
                    let b = &col.blobs[ent.dim().as_usize()][ent.idx()];
                    stash.bytes.extend_from_slice(b);
                    (stash.bytes.len() - b.len(), b.len())
                }
                Some(words) => {
                    stash.words.extend_from_slice(words);
                    (stash.words.len() - words.len(), words.len())
                }
            };
            stash.vals.push((t, start as u32, len as u32));
        }
        stash.rows.len() - 1
    }

    /// Attach the values of row `row` of `stash` to `ent`.
    pub fn restore(&mut self, stash: &TagStash, row: usize, ent: MeshEnt) {
        let end = stash
            .rows
            .get(row + 1)
            .map_or(stash.vals.len(), |&e| e as usize);
        for &(t, start, len) in &stash.vals[stash.rows[row] as usize..end] {
            let col = &mut self.columns[t.0 as usize];
            let at = col.occupy(ent);
            let range = start as usize..(start + len) as usize;
            if col.kind == TagKind::Bytes {
                col.blobs[at.0][at.1] = stash.bytes[range].to_vec();
            } else {
                col.slot_mut(at).copy_from_slice(&stash.words[range]);
            }
        }
    }

    /// Number of entities carrying `tag`.
    pub fn count(&self, tag: TagId) -> usize {
        self.columns[tag.0 as usize].count
    }

    /// Bytes held by the value arrays: per tag and dimension, slots times
    /// the value width plus the presence mask (plus what `Bytes` values
    /// hold).
    pub fn memory_bytes(&self) -> usize {
        self.columns
            .iter()
            .flat_map(|col| (0..4).map(move |d| (col, d)))
            .map(|(col, d)| {
                col.present[d].len()
                    + col.words[d].len() * 8
                    + col.blobs[d].len() * std::mem::size_of::<Vec<u8>>()
                    + col.blobs[d].iter().map(Vec::len).sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_set_get() {
        let mut tm = TagManager::new();
        let t = tm.declare("size", TagKind::Double, 1);
        tm.set_dbl(t, MeshEnt::vertex(3), 0.25);
        assert_eq!(tm.get_dbl(t, MeshEnt::vertex(3)), Some(0.25));
        assert_eq!(tm.get_dbl(t, MeshEnt::vertex(4)), None);
        assert_eq!(tm.find("size"), Some(t));
        assert_eq!(tm.name(t), "size");
        assert_eq!(tm.kind(t), TagKind::Double);
    }

    #[test]
    fn borrowed_values_encode_like_exchange_values() {
        let mut tm = TagManager::new();
        let a = tm.declare("a", TagKind::Int, 2);
        let b = tm.declare("b", TagKind::Double, 3);
        let c = tm.declare("c", TagKind::Bytes, 0);
        let e = MeshEnt::edge(4);
        tm.set(a, e, TagData::Ints(vec![-3, 1 << 40]));
        tm.set(b, e, TagData::Dbls(vec![0.5, -0.0, f64::MAX]));
        tm.set(c, e, TagData::Bytes(vec![9, 8, 7, 6, 5]));
        for t in [a, b, c] {
            let (owned, borrowed) = (tm.get(t, e).unwrap(), tm.get_ref(t, e).unwrap());
            let mut want = Vec::new();
            owned.encode(&mut want);
            let mut got = Vec::new();
            borrowed.encode_with(|b| got.extend_from_slice(b));
            assert_eq!(got, want);
            assert_eq!(borrowed.encoded_len(), want.len());
        }
        assert_eq!(tm.get_ref(a, MeshEnt::edge(5)), None);
    }

    #[test]
    fn redeclare_same_signature_is_idempotent() {
        let mut tm = TagManager::new();
        let a = tm.declare("w", TagKind::Int, 2);
        let b = tm.declare("w", TagKind::Int, 2);
        assert_eq!(a, b);
        assert_eq!(tm.num_tags(), 1);
    }

    #[test]
    #[should_panic(expected = "re-declared")]
    fn redeclare_different_signature_panics() {
        let mut tm = TagManager::new();
        tm.declare("w", TagKind::Int, 2);
        tm.declare("w", TagKind::Double, 2);
    }

    #[test]
    fn remove_and_remove_all() {
        let mut tm = TagManager::new();
        let a = tm.declare("a", TagKind::Int, 1);
        let b = tm.declare("b", TagKind::Double, 1);
        let e = MeshEnt::face(7);
        tm.set_int(a, e, 5);
        tm.set_dbl(b, e, 2.5);
        assert!(tm.has(a, e) && tm.has(b, e));
        tm.remove(a, e);
        assert!(!tm.has(a, e) && tm.has(b, e));
        tm.remove_all(e);
        assert!(!tm.has(b, e));
    }

    #[test]
    fn stash_hands_values_to_a_reused_slot() {
        let mut tm = TagManager::new();
        let a = tm.declare("a", TagKind::Int, 2);
        let b = tm.declare("b", TagKind::Bytes, 0);
        let c = tm.declare("c", TagKind::Double, 1);
        let (e, f) = (MeshEnt::edge(1), MeshEnt::edge(2));
        tm.set(a, e, TagData::Ints(vec![9, -1]));
        tm.set(b, e, TagData::Bytes(vec![7, 8]));
        tm.set_dbl(c, f, 0.5);
        let mut stash = TagStash::default();
        let (re, rf) = (tm.save(e, &mut stash), tm.save(f, &mut stash));
        tm.remove_all(e);
        tm.remove_all(f);
        assert_eq!(tm.collect(e), vec![]);
        // The rows swap slots: each lands whole, and only where restored.
        tm.restore(&stash, re, f);
        tm.restore(&stash, rf, e);
        assert_eq!(
            tm.collect(f),
            vec![
                (a, TagData::Ints(vec![9, -1])),
                (b, TagData::Bytes(vec![7, 8]))
            ]
        );
        assert_eq!(tm.collect(e), vec![(c, TagData::Dbls(vec![0.5]))]);
        assert_eq!((tm.count(a), tm.count(b), tm.count(c)), (1, 1, 1));
    }

    #[test]
    fn tagdata_encode_decode_roundtrip() {
        let cases = vec![
            TagData::Ints(vec![1, -2, i64::MAX]),
            TagData::Dbls(vec![0.5, -1e300]),
            TagData::Bytes(vec![1, 2, 3, 255]),
            TagData::Ints(vec![]),
        ];
        for d in cases {
            let mut buf = Vec::new();
            d.encode(&mut buf);
            let mut pos = 0;
            let back = TagData::decode(&buf, &mut pos).unwrap();
            assert_eq!(back, d);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn decode_rejects_truncated() {
        let mut buf = Vec::new();
        TagData::Ints(vec![1, 2, 3]).encode(&mut buf);
        buf.truncate(buf.len() - 1);
        let mut pos = 0;
        assert!(TagData::decode(&buf, &mut pos).is_none());
    }
}
