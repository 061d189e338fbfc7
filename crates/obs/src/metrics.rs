//! Per-thread metrics registry: counters, histograms, and message
//! traffic accounted per `(span path, link class)`.
//!
//! This is the per-phase extension of PCU's world-total `TrafficCounters`:
//! the runtime keeps calling those for whole-run totals, and additionally
//! reports every message here, where it lands under the phase (span path)
//! that sent it. Cross-rank reduction happens in `pumi_pcu::obs`.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Link classification, mirroring `pumi_pcu::LinkClass` (this crate sits
/// below the runtime and cannot name that type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Link {
    /// Rank messaging itself (local pack/unpack only).
    SelfLoop,
    /// Ranks sharing a node (shared-memory path).
    OnNode,
    /// Ranks on different nodes (network path).
    OffNode,
}

impl Link {
    /// All classes, in report order.
    pub const ALL: [Link; 3] = [Link::SelfLoop, Link::OnNode, Link::OffNode];

    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Link::SelfLoop => "self",
            Link::OnNode => "on_node",
            Link::OffNode => "off_node",
        }
    }

    fn index(self) -> usize {
        match self {
            Link::SelfLoop => 0,
            Link::OnNode => 1,
            Link::OffNode => 2,
        }
    }
}

/// Message/byte totals for one link class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkTotals {
    /// Messages sent.
    pub msgs: u64,
    /// Payload bytes sent.
    pub bytes: u64,
}

/// One row of drained traffic: what a phase sent over one link class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficRow {
    /// Span path of the sender (`""` for traffic outside any span).
    pub phase: String,
    /// Link classification.
    pub link: Link,
    /// Totals.
    pub totals: LinkTotals,
}

/// One row of drained frame digests: an order-free fingerprint of the
/// logical frames a phase received over one link class. Two runs that
/// deliver the same frames — in any order — produce identical rows; a run
/// that drops, duplicates, or corrupts a frame does not. The determinism
/// suite compares these across chaos seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestRow {
    /// Span path of the receiver (`""` outside any span).
    pub phase: String,
    /// Link classification of the frame's origin → receiver link.
    pub link: Link,
    /// Logical frames folded into the digest.
    pub frames: u64,
    /// Commutative fold (wrapping sum) of the per-frame hashes.
    pub digest: u64,
}

/// Value distribution summary (count/sum/min/max).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistStat {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl HistStat {
    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

impl Default for HistStat {
    fn default() -> Self {
        HistStat {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// Counters and histograms; per-phase traffic and digests live in the span
/// path's slot (`crate::span`).
#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistStat>,
}

thread_local! {
    static REG: RefCell<Registry> = RefCell::new(Registry::default());
}

/// Add `v` to the named monotonic counter.
pub fn counter_add(name: &str, v: u64) {
    REG.with(|r| {
        let mut r = r.borrow_mut();
        match r.counters.get_mut(name) {
            Some(c) => *c += v,
            None => {
                r.counters.insert(name.to_string(), v);
            }
        }
    });
}

/// Record one sample into the named histogram.
pub fn hist_record(name: &str, v: f64) {
    REG.with(|r| {
        let mut r = r.borrow_mut();
        match r.hists.get_mut(name) {
            Some(h) => h.record(v),
            None => {
                let mut h = HistStat::default();
                h.record(v);
                r.hists.insert(name.to_string(), h);
            }
        }
    });
}

/// Record one message of `bytes` over `link`, attributed to the calling
/// thread's current span path. Called by the runtime's send path.
pub fn record_traffic(link: Link, bytes: u64) {
    crate::span::with_slot(|slot| {
        let cell = &mut slot.traffic[link.index()];
        cell.msgs += 1;
        cell.bytes += bytes;
    });
}

/// Fold one received logical frame's `hash` into the calling thread's
/// digest row for `(current span path, link)`. The fold is a wrapping sum,
/// so it is independent of delivery order — which is exactly what lets two
/// runs under different chaos schedules be compared. Called by the
/// runtime's exchange collection path.
pub fn record_frame_digest(link: Link, hash: u64) {
    crate::span::with_slot(|slot| {
        let cell = &mut slot.digests[link.index()];
        cell.0 += 1;
        cell.1 = cell.1.wrapping_add(hash);
    });
}

/// Drain this thread's counters, sorted by name.
pub fn take_counters() -> Vec<(String, u64)> {
    REG.with(|r| {
        std::mem::take(&mut r.borrow_mut().counters)
            .into_iter()
            .collect()
    })
}

/// Drain this thread's histograms, sorted by name.
pub fn take_hists() -> Vec<(String, HistStat)> {
    REG.with(|r| {
        std::mem::take(&mut r.borrow_mut().hists)
            .into_iter()
            .collect()
    })
}

/// Drain this thread's per-phase traffic, sorted by phase path then link.
/// Rows with zero messages are omitted.
pub fn take_traffic() -> Vec<TrafficRow> {
    crate::span::drain(|slot, rows| {
        for link in Link::ALL {
            let totals = std::mem::take(&mut slot.traffic[link.index()]);
            if totals.msgs > 0 {
                rows.push(TrafficRow {
                    phase: slot.path.clone(),
                    link,
                    totals,
                });
            }
        }
    })
}

/// Drain this thread's per-phase frame digests, sorted by phase path then
/// link. Rows with zero frames are omitted.
pub fn take_digests() -> Vec<DigestRow> {
    crate::span::drain(|slot, rows| {
        for link in Link::ALL {
            let (frames, digest) = std::mem::take(&mut slot.digests[link.index()]);
            if frames > 0 {
                rows.push(DigestRow {
                    phase: slot.path.clone(),
                    link,
                    frames,
                    digest,
                });
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_hists_roundtrip() {
        let _ = (take_counters(), take_hists());
        counter_add("msgs", 2);
        counter_add("msgs", 3);
        hist_record("sz", 10.0);
        hist_record("sz", 30.0);
        assert_eq!(take_counters(), vec![("msgs".to_string(), 5)]);
        let hists = take_hists();
        assert_eq!(hists[0].0, "sz");
        let h = hists[0].1;
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 10.0);
        assert_eq!(h.max, 30.0);
        assert_eq!(h.mean(), 20.0);
        assert!(take_counters().is_empty());
    }

    #[test]
    fn traffic_keys_on_current_span_path() {
        let _ = take_traffic();
        record_traffic(Link::OffNode, 100);
        {
            let _g = crate::span!("phase-a");
            record_traffic(Link::OffNode, 10);
            record_traffic(Link::OnNode, 5);
            record_traffic(Link::OffNode, 10);
        }
        let rows = take_traffic();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].phase, "");
        assert_eq!(rows[0].link, Link::OffNode);
        assert_eq!(rows[0].totals.bytes, 100);
        assert_eq!(rows[1].phase, "phase-a");
        assert_eq!(rows[1].link, Link::OnNode);
        assert_eq!(rows[2].link, Link::OffNode);
        assert_eq!(rows[2].totals, LinkTotals { msgs: 2, bytes: 20 });
        let _ = crate::span::take();
    }

    #[test]
    fn frame_digests_fold_order_free() {
        let _ = take_digests();
        let fold = |hashes: &[u64]| {
            let _g = crate::span!("phase-d");
            for &h in hashes {
                record_frame_digest(Link::OnNode, h);
            }
            let rows = take_digests();
            let _ = crate::span::take();
            rows
        };
        let a = fold(&[3, 11, 7]);
        let b = fold(&[7, 3, 11]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].phase, "phase-d");
        assert_eq!(a[0].frames, 3);
        assert_eq!(a[0].digest, 21);
        // A dropped frame changes both count and digest.
        let c = fold(&[3, 11]);
        assert_ne!(a[0].digest, c[0].digest);
    }
}
