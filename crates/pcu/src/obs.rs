//! Cross-rank reduction of observability data.
//!
//! `pumi-obs` records spans and per-phase traffic thread-locally, one store
//! per rank; it has no communicator and cannot aggregate across the world.
//! This module is the bridge: collectives that drain every rank's local
//! store, gather to rank 0, and merge — giving the world view the paper's
//! tables are written in (max-over-ranks phase times, summed per-link
//! traffic, summed counters, merged histograms).
//!
//! All functions here are **collective**: every rank of the world must call
//! them at the same point, and rank 0 gets `Some(..)`.

use crate::comm::Comm;
use crate::msg::{MsgReader, MsgWriter};
use pumi_obs::json::Json;
use pumi_obs::metrics::{HistStat, Link};
use std::collections::BTreeMap;

/// One span path reduced across the world.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldSpan {
    /// Slash-joined span path.
    pub path: String,
    /// Entries summed over all ranks.
    pub count: u64,
    /// Inclusive seconds summed over all ranks (CPU-time-like).
    pub total_seconds: f64,
    /// Largest single rank's inclusive seconds (wall-time-like; the
    /// critical-path view used for phase timings).
    pub max_rank_seconds: f64,
    /// Self seconds summed over all ranks: inclusive time less the spans
    /// entered directly under this one (`SpanStat::self_nanos`).
    pub self_seconds: f64,
    /// Ranks that entered this span at least once.
    pub ranks: u32,
}

/// One `(phase, link class)` traffic cell reduced across the world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldTraffic {
    /// Span path of the sending phase (`""` for unphased traffic).
    pub phase: String,
    /// Link classification.
    pub link: Link,
    /// Messages summed over all ranks.
    pub msgs: u64,
    /// Payload bytes summed over all ranks.
    pub bytes: u64,
}

/// Drain every rank's span aggregates and reduce them to rank 0, sorted by
/// path. Collective; `Some` on rank 0 only.
pub fn reduce_spans(comm: &Comm) -> Option<Vec<WorldSpan>> {
    let spans = pumi_obs::span::take();
    let mut w = MsgWriter::new();
    w.put_u32(spans.len() as u32);
    for (path, s) in &spans {
        w.put_bytes(path.as_bytes());
        w.put_u64(s.count);
        w.put_u64(s.nanos);
        w.put_u64(s.self_nanos);
    }
    let gathered = comm.gather_bytes(0, w.finish())?;
    let mut agg: BTreeMap<String, WorldSpan> = BTreeMap::new();
    for b in gathered {
        let mut r = MsgReader::new(b);
        let n = r.get_u32();
        for _ in 0..n {
            let path = String::from_utf8(r.get_bytes()).expect("span paths are utf-8");
            let count = r.get_u64();
            let seconds = r.get_u64() as f64 * 1e-9;
            let self_seconds = r.get_u64() as f64 * 1e-9;
            let e = agg.entry(path.clone()).or_insert_with(|| WorldSpan {
                path,
                count: 0,
                total_seconds: 0.0,
                max_rank_seconds: 0.0,
                self_seconds: 0.0,
                ranks: 0,
            });
            e.count += count;
            e.total_seconds += seconds;
            e.self_seconds += self_seconds;
            e.max_rank_seconds = e.max_rank_seconds.max(seconds);
            e.ranks += 1;
        }
    }
    Some(agg.into_values().collect())
}

/// Drain every rank's per-phase traffic and reduce it to rank 0, sorted by
/// `(phase, link)`. Collective; `Some` on rank 0 only. Counters and
/// histograms ride the same gather and are dropped here; [`world_report`]
/// keeps them.
pub fn reduce_traffic(comm: &Comm) -> Option<Vec<WorldTraffic>> {
    reduce_metrics(comm).map(|m| m.traffic)
}

/// Everything `pumi_obs::metrics` records, reduced across the world.
struct WorldMetrics {
    traffic: Vec<WorldTraffic>,
    /// Counters summed over all ranks, sorted by name.
    counters: Vec<(String, u64)>,
    /// Histograms merged over all ranks (count and sum added, min and max
    /// widened), sorted by name.
    hists: Vec<(String, HistStat)>,
}

/// Drain every rank's metrics registry — traffic, counters, histograms — and
/// reduce it to rank 0 with one gather.
fn reduce_metrics(comm: &Comm) -> Option<WorldMetrics> {
    let rows = pumi_obs::metrics::take_traffic();
    let counters = pumi_obs::metrics::take_counters();
    let hists = pumi_obs::metrics::take_hists();
    let mut w = MsgWriter::new();
    w.put_u32(rows.len() as u32);
    for row in &rows {
        w.put_bytes(row.phase.as_bytes());
        w.put_u8(link_code(row.link));
        w.put_u64(row.totals.msgs);
        w.put_u64(row.totals.bytes);
    }
    w.put_u32(counters.len() as u32);
    for (name, v) in &counters {
        w.put_bytes(name.as_bytes());
        w.put_u64(*v);
    }
    w.put_u32(hists.len() as u32);
    for (name, h) in &hists {
        w.put_bytes(name.as_bytes());
        w.put_u64(h.count);
        w.put_f64(h.sum);
        w.put_f64(h.min);
        w.put_f64(h.max);
    }
    let gathered = comm.gather_bytes(0, w.finish())?;
    let mut traffic: BTreeMap<(String, u8), WorldTraffic> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut hists: BTreeMap<String, HistStat> = BTreeMap::new();
    for b in gathered {
        let mut r = MsgReader::new(b);
        let name = |r: &mut MsgReader| String::from_utf8(r.get_bytes()).expect("names are utf-8");
        for _ in 0..r.get_u32() {
            let phase = name(&mut r);
            let code = r.get_u8();
            let msgs = r.get_u64();
            let bytes = r.get_u64();
            let e = traffic
                .entry((phase.clone(), code))
                .or_insert_with(|| WorldTraffic {
                    phase,
                    link: link_from_code(code),
                    msgs: 0,
                    bytes: 0,
                });
            e.msgs += msgs;
            e.bytes += bytes;
        }
        for _ in 0..r.get_u32() {
            let counter = counters.entry(name(&mut r)).or_default();
            *counter += r.get_u64();
        }
        for _ in 0..r.get_u32() {
            let h = hists.entry(name(&mut r)).or_default();
            h.count += r.get_u64();
            h.sum += r.get_f64();
            h.min = h.min.min(r.get_f64());
            h.max = h.max.max(r.get_f64());
        }
    }
    Some(WorldMetrics {
        traffic: traffic.into_values().collect(),
        counters: counters.into_iter().collect(),
        hists: hists.into_iter().collect(),
    })
}

fn link_code(link: Link) -> u8 {
    match link {
        Link::SelfLoop => 0,
        Link::OnNode => 1,
        Link::OffNode => 2,
    }
}

fn link_from_code(code: u8) -> Link {
    match code {
        0 => Link::SelfLoop,
        1 => Link::OnNode,
        2 => Link::OffNode,
        other => panic!("bad link code {other}"),
    }
}

/// Reduce spans and metrics and render them as the standard report
/// sections: `{"spans": [...], "traffic": [...], "counters": [...],
/// "hists": [...]}` — so "how many migrations, how many entities" has an
/// answer for any traced run. Collective; `Some` on rank 0 only. The
/// typical bench pattern:
///
/// ```ignore
/// let out = execute(n, |c| {
///     run_workload(c);
///     pumi_pcu::obs::world_report(c)   // drain + reduce at the end
/// });
/// let obs = out.into_iter().flatten().next().unwrap();
/// ```
pub fn world_report(comm: &Comm) -> Option<Json> {
    let spans = reduce_spans(comm);
    let metrics = reduce_metrics(comm);
    let spans = spans?;
    let m = metrics.expect("rank 0 sees both reductions");
    Some(Json::obj([
        (
            "spans",
            Json::arr(spans.iter().map(|s| {
                Json::obj([
                    ("path", Json::str(&s.path)),
                    ("count", Json::U64(s.count)),
                    ("total_seconds", Json::F64(s.total_seconds)),
                    ("max_rank_seconds", Json::F64(s.max_rank_seconds)),
                    ("self_seconds", Json::F64(s.self_seconds)),
                    ("ranks", Json::U64(s.ranks as u64)),
                ])
            })),
        ),
        (
            "traffic",
            Json::arr(m.traffic.iter().map(|t| {
                Json::obj([
                    ("phase", Json::str(&t.phase)),
                    ("link", Json::str(t.link.name())),
                    ("msgs", Json::U64(t.msgs)),
                    ("bytes", Json::U64(t.bytes)),
                ])
            })),
        ),
        (
            "counters",
            Json::arr(
                m.counters.iter().map(|(name, v)| {
                    Json::obj([("name", Json::str(name)), ("value", Json::U64(*v))])
                }),
            ),
        ),
        ("hists", hists_to_json(&m.hists)),
    ]))
}

/// Render world-merged histograms.
fn hists_to_json(hists: &[(String, HistStat)]) -> Json {
    Json::arr(hists.iter().map(|(name, h)| {
        Json::obj([
            ("name", Json::str(name)),
            ("count", Json::U64(h.count)),
            ("sum", Json::F64(h.sum)),
            ("min", Json::F64(h.min)),
            ("max", Json::F64(h.max)),
            ("mean", Json::F64(h.mean())),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{execute, execute_on};
    use crate::machine::MachineModel;

    #[test]
    fn silent_world_reduces_to_empty() {
        let out = execute(3, |c| {
            // Drain anything earlier tests on this thread left behind.
            let _ = pumi_obs::span::take();
            let _ = pumi_obs::metrics::take_traffic();
            let spans = reduce_spans(c);
            let traffic = reduce_traffic(c);
            (c.rank() == 0) == (spans.is_some() && traffic.is_some())
        });
        assert!(out.into_iter().all(|ok| ok));
    }

    #[test]
    fn spans_reduce_with_max_and_sum() {
        let out = execute(4, |c| {
            let _ = pumi_obs::span::take();
            {
                let _g = pumi_obs::span!("work");
                std::thread::sleep(std::time::Duration::from_millis(1 + c.rank() as u64));
            }
            reduce_spans(c)
        });
        let spans = out.into_iter().flatten().next().unwrap();
        let row = spans.iter().find(|s| s.path == "work").unwrap();
        assert_eq!(row.count, 4);
        assert_eq!(row.ranks, 4);
        assert!(row.max_rank_seconds >= 0.001);
        assert!(row.total_seconds >= row.max_rank_seconds);
        // No span under it: all of its time is its own.
        assert_eq!(row.self_seconds, row.total_seconds);
        // The reduction's own gather also ran under no span on each rank —
        // it must not pollute the reduced set (it was drained before).
        assert!(spans.iter().all(|s| !s.path.contains("pcu.gather")));
    }

    /// Buffers crossing node boundaries on a multi-node machine: per-phase
    /// traffic must split between on-node and off-node link classes.
    #[test]
    fn traffic_reduces_per_phase_and_link() {
        let m = MachineModel::new(2, 2); // ranks 0,1 on node 0; 2,3 on node 1
        let out = execute_on(m, |c| {
            let _ = pumi_obs::span::take();
            let _ = pumi_obs::metrics::take_traffic();
            {
                let _g = pumi_obs::span!("halo");
                let mut ex = crate::phased::Exchange::new(c);
                // Each rank sends 8 bytes to every other rank and 8 to itself.
                for dest in 0..c.nranks() {
                    ex.to(dest).put_u64(c.rank() as u64);
                }
                let got = ex.finish();
                assert_eq!(got.len(), c.nranks());
                assert_eq!(got.total_bytes(), 8 * c.nranks() as u64);
            }
            reduce_traffic(c)
        });
        let traffic = out.into_iter().flatten().next().unwrap();
        let find = |link: Link| {
            traffic
                .iter()
                .find(|t| t.phase.ends_with("halo/pcu.exchange") && t.link == link)
                .unwrap_or_else(|| panic!("no {link:?} row in {traffic:?}"))
        };
        // 4 ranks × 1 on-node peer, × 2 off-node peers, × 1 self.
        assert_eq!(find(Link::OnNode).msgs, 4);
        assert_eq!(find(Link::OnNode).bytes, 32);
        assert_eq!(find(Link::OffNode).msgs, 8);
        assert_eq!(find(Link::OffNode).bytes, 64);
        assert_eq!(find(Link::SelfLoop).msgs, 4);
        // The termination-detection barrier is shared-memory consensus —
        // it must contribute no traffic rows of its own.
        assert!(traffic.iter().all(|t| !t.phase.contains("pcu.barrier")));
    }

    /// Under two-level routing the exchange-path rows stay identical to
    /// direct routing (logical rank-to-rank traffic), while the physical
    /// off-node envelopes land under the nested relay span: one
    /// super-message per ordered node pair. The same 32 ranks are also laid
    /// out from one fat node (1×32) to many thin ones (8×4).
    #[test]
    fn relay_span_shows_off_node_envelope_reduction() {
        use crate::phased::{Exchange, ExchangeOpts};
        let run = |m: MachineModel, opts: ExchangeOpts| {
            execute_on(m, move |c| {
                let _ = pumi_obs::span::take();
                let _ = pumi_obs::metrics::take_traffic();
                {
                    let _g = pumi_obs::span!("halo");
                    let mut ex = Exchange::with_opts(c, opts);
                    // Dense all-to-all: the worst case for direct routing.
                    for dest in 0..c.nranks() {
                        ex.to(dest).put_u64(c.rank() as u64);
                    }
                    let got = ex.finish();
                    assert_eq!(got.len(), c.nranks());
                }
                reduce_traffic(c)
            })
            .into_iter()
            .flatten()
            .next()
            .unwrap()
        };
        let exchange_rows = |t: &[WorldTraffic]| {
            t.iter()
                .filter(|r| r.phase.ends_with("halo/pcu.exchange"))
                .cloned()
                .collect::<Vec<_>>()
        };
        let off_node_msgs = |t: &[WorldTraffic], suffix: &str| {
            t.iter()
                .find(|r| r.phase.ends_with(suffix) && r.link == Link::OffNode)
                .map_or(0, |r| r.msgs)
        };
        let relay = format!("halo/pcu.exchange/{}", pumi_obs::metrics::RELAY_SPAN);
        for (nodes, cores) in [(4, 2), (1, 32), (2, 16), (4, 8), (8, 4)] {
            let m = MachineModel::new(nodes, cores);
            let direct = run(m, ExchangeOpts::direct());
            let agg = run(m, ExchangeOpts::two_level());
            let shape = format!("{nodes}x{cores}");
            // Logical per-phase accounting is routing-invariant.
            assert_eq!(exchange_rows(&direct), exchange_rows(&agg), "{shape}");
            // Directly, every rank sends one envelope to each off-node rank;
            // relayed, those collapse to one per ordered node pair.
            let ranks = nodes * cores;
            let direct_off = off_node_msgs(&direct, "halo/pcu.exchange");
            assert_eq!(direct_off, (ranks * (ranks - cores)) as u64, "{shape}");
            let relay_off = off_node_msgs(&agg, &relay);
            assert_eq!(relay_off, (nodes * (nodes - 1)) as u64, "{shape}");
            // Direct mode never enters the relay span.
            assert!(
                !direct
                    .iter()
                    .any(|r| r.phase.contains(pumi_obs::metrics::RELAY_SPAN)),
                "{shape}"
            );
        }
    }

    /// Counters are summed and histograms merged across ranks, and both
    /// land in the report beside spans and traffic.
    #[test]
    fn counters_and_hists_reach_the_world_report() {
        let out = execute(3, |c| {
            let _ = pumi_obs::metrics::take_counters();
            let _ = pumi_obs::metrics::take_hists();
            pumi_obs::metrics::counter_add("migrate.calls", 2);
            if c.rank() == 1 {
                pumi_obs::metrics::counter_add("only.rank1", 7);
            }
            pumi_obs::metrics::hist_record("moved", 10.0 * (c.rank() + 1) as f64);
            let m = reduce_metrics(c);
            // A second report finds the registries drained.
            (m, world_report(c).map(|j| j.render()))
        });
        let (m, again) = out.into_iter().next().unwrap();
        let m = m.expect("rank 0 holds the reduction");
        assert_eq!(
            m.counters,
            vec![
                ("migrate.calls".to_string(), 6),
                ("only.rank1".to_string(), 7)
            ]
        );
        let (name, h) = &m.hists[0];
        assert_eq!(name, "moved");
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 60.0, 10.0, 30.0));
        let again = again.unwrap();
        assert!(again.contains("\"counters\": []") && again.contains("\"hists\": []"));
    }

    #[test]
    fn world_report_shape() {
        let out = execute(2, |c| {
            let _ = pumi_obs::span::take();
            let _ = pumi_obs::metrics::take_traffic();
            {
                let _g = pumi_obs::span!("phase");
                c.barrier();
            }
            world_report(c).map(|j| j.render())
        });
        let j = out.into_iter().flatten().next().unwrap();
        assert!(j.contains("\"spans\""));
        assert!(j.contains("\"traffic\""));
        assert!(j.contains("\"path\": \"phase/pcu.barrier\""));
        assert!(j.contains("\"self_seconds\""));
    }
}
