//! Collective operations over a [`Comm`].
//!
//! All collectives are SPMD: every rank must call the same collectives in the
//! same order. Reductions are performed in rank order at a root and broadcast
//! back, so results are deterministic (floating-point sums do not depend on
//! thread scheduling) — a property the distributed tests rely on.

use crate::comm::Comm;
use crate::msg::{MsgReader, MsgWriter};
use bytes::Bytes;

impl Comm {
    /// Block until every rank reaches the barrier.
    ///
    /// Shared-memory consensus (a sense-reversing barrier in world state),
    /// not a message pattern: entering costs one lock, the last arriver
    /// issues one wakeup burst, and no envelopes or collective tags are
    /// consumed. Because the simulated transport enqueues sends
    /// synchronously before the sender can reach the barrier, completion
    /// still proves every prior send of every rank sits in its
    /// destination's mailbox — the termination-consensus property the
    /// phased exchange relies on — while eliminating the O(N log N)
    /// control envelopes (and their wake chains) the old dissemination
    /// barrier paid per phase.
    pub fn barrier(&self) {
        let _span = pumi_obs::span!("pcu.barrier");
        self.barrier_wait();
    }

    /// Gather one buffer from every rank to `root`; returns `Some(bufs)` on
    /// the root (indexed by rank), `None` elsewhere.
    pub fn gather_bytes(&self, root: usize, data: Bytes) -> Option<Vec<Bytes>> {
        let _span = pumi_obs::span!("pcu.gather");
        let tag = self.next_coll_tag();
        if self.rank() == root {
            let mut out: Vec<Bytes> = vec![Bytes::new(); self.nranks()];
            out[root] = data;
            for _ in 0..self.nranks() - 1 {
                let (from, d) = self.recv_raw(tag);
                out[from] = d;
            }
            Some(out)
        } else {
            self.send_raw(root, tag, data);
            None
        }
    }

    /// Broadcast a buffer from `root` to all ranks.
    pub fn bcast_bytes(&self, root: usize, data: Bytes) -> Bytes {
        let _span = pumi_obs::span!("pcu.bcast");
        let tag = self.next_coll_tag();
        if self.rank() == root {
            for r in 0..self.nranks() {
                if r != root {
                    self.send_raw(r, tag, data.clone());
                }
            }
            data
        } else {
            // Only the root sends on this tag.
            self.recv_raw(tag).1
        }
    }

    /// All ranks contribute one buffer; all ranks receive every buffer,
    /// indexed by rank.
    pub fn allgather_bytes(&self, data: Bytes) -> Vec<Bytes> {
        let _span = pumi_obs::span!("pcu.allgather");
        let gathered = self.gather_bytes(0, data);
        // Root packs the concatenation with offsets and broadcasts.
        let packed = if self.rank() == 0 {
            let bufs = gathered.unwrap();
            let mut w = MsgWriter::new();
            w.put_u32(bufs.len() as u32);
            for b in &bufs {
                w.put_bytes(b);
            }
            w.finish()
        } else {
            Bytes::new()
        };
        let all = self.bcast_bytes(0, packed);
        let mut r = MsgReader::new(all);
        let n = r.get_u32() as usize;
        (0..n).map(|_| Bytes::from(r.get_bytes())).collect()
    }

    /// All-gather a single `u64` per rank.
    pub fn allgather_u64(&self, x: u64) -> Vec<u64> {
        let mut w = MsgWriter::with_capacity(8);
        w.put_u64(x);
        self.allgather_bytes(w.finish())
            .into_iter()
            .map(|b| MsgReader::new(b).get_u64())
            .collect()
    }

    /// All-gather a single `f64` per rank.
    pub fn allgather_f64(&self, x: f64) -> Vec<f64> {
        let mut w = MsgWriter::with_capacity(8);
        w.put_f64(x);
        self.allgather_bytes(w.finish())
            .into_iter()
            .map(|b| MsgReader::new(b).get_f64())
            .collect()
    }

    /// Sum-reduce a `u64` across all ranks.
    pub fn allreduce_sum_u64(&self, x: u64) -> u64 {
        self.allgather_u64(x).into_iter().sum()
    }

    /// Sum-reduce an `f64` across all ranks (rank-ordered, deterministic).
    pub fn allreduce_sum_f64(&self, x: f64) -> f64 {
        self.allgather_f64(x).into_iter().sum()
    }

    /// Max-reduce a `u64` across all ranks.
    pub fn allreduce_max_u64(&self, x: u64) -> u64 {
        self.allgather_u64(x).into_iter().max().unwrap_or(0)
    }

    /// Max-reduce an `f64` across all ranks.
    pub fn allreduce_max_f64(&self, x: f64) -> f64 {
        self.allgather_f64(x)
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Element-wise sum of a `u64` vector across ranks. All ranks pass a
    /// vector of identical length and receive the summed vector.
    pub fn allreduce_sum_u64_vec(&self, xs: &[u64]) -> Vec<u64> {
        let _span = pumi_obs::span!("pcu.allreduce_vec");
        let mut w = MsgWriter::with_capacity(8 * xs.len() + 4);
        w.put_u64_slice(xs);
        let gathered = self.gather_bytes(0, w.finish());
        let packed = if self.rank() == 0 {
            let mut sum = vec![0u64; xs.len()];
            for b in gathered.unwrap() {
                let v = MsgReader::new(b).get_u64_slice();
                assert_eq!(v.len(), sum.len(), "vector allreduce length mismatch");
                for (s, x) in sum.iter_mut().zip(v) {
                    *s += x;
                }
            }
            let mut w = MsgWriter::new();
            w.put_u64_slice(&sum);
            w.finish()
        } else {
            Bytes::new()
        };
        let all = self.bcast_bytes(0, packed);
        MsgReader::new(all).get_u64_slice()
    }

    /// Element-wise sum of an `f64` vector across ranks (rank-ordered).
    pub fn allreduce_sum_f64_vec(&self, xs: &[f64]) -> Vec<f64> {
        let _span = pumi_obs::span!("pcu.allreduce_vec");
        let mut w = MsgWriter::with_capacity(8 * xs.len() + 4);
        w.put_f64_slice(xs);
        let gathered = self.gather_bytes(0, w.finish());
        let packed = if self.rank() == 0 {
            let mut sum = vec![0f64; xs.len()];
            for b in gathered.unwrap() {
                let v = MsgReader::new(b).get_f64_slice();
                assert_eq!(v.len(), sum.len(), "vector allreduce length mismatch");
                for (s, x) in sum.iter_mut().zip(v) {
                    *s += x;
                }
            }
            let mut w = MsgWriter::new();
            w.put_f64_slice(&sum);
            w.finish()
        } else {
            Bytes::new()
        };
        let all = self.bcast_bytes(0, packed);
        MsgReader::new(all).get_f64_slice()
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::execute;

    #[test]
    fn barrier_completes() {
        // If the barrier deadlocked or mismatched, this would hang/panic.
        let out = execute(7, |c| {
            for _ in 0..3 {
                c.barrier();
            }
            c.rank()
        });
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn allgather_and_reductions() {
        let n = 6;
        execute(n, |c| {
            let xs = c.allgather_u64(c.rank() as u64 + 1);
            assert_eq!(xs, (1..=n as u64).collect::<Vec<_>>());
            assert_eq!(c.allreduce_sum_u64(c.rank() as u64 + 1), 21);
            assert_eq!(c.allreduce_max_u64(c.rank() as u64), n as u64 - 1);
            let s = c.allreduce_sum_f64(0.5);
            assert!((s - 3.0).abs() < 1e-12);
            assert!((c.allreduce_max_f64(-(c.rank() as f64)) - 0.0).abs() < 1e-12);
        });
    }

    #[test]
    fn vector_allreduce_sums_elementwise() {
        let n = 4;
        execute(n, |c| {
            let mine = vec![c.rank() as u64, 1, 10];
            let sum = c.allreduce_sum_u64_vec(&mine);
            assert_eq!(sum, vec![6, 4, 40]);
            let fsum = c.allreduce_sum_f64_vec(&[0.25, c.rank() as f64]);
            assert_eq!(fsum, vec![1.0, 6.0]);
        });
    }

    #[test]
    fn bcast_from_nonzero_root() {
        execute(4, |c| {
            let data = if c.rank() == 2 {
                bytes::Bytes::from_static(b"payload")
            } else {
                bytes::Bytes::new()
            };
            let got = c.bcast_bytes(2, data);
            assert_eq!(&got[..], b"payload");
        });
    }

    #[test]
    fn gather_collects_by_rank() {
        execute(3, |c| {
            let mine = bytes::Bytes::from(vec![c.rank() as u8; c.rank() + 1]);
            match c.gather_bytes(1, mine) {
                Some(all) => {
                    assert_eq!(c.rank(), 1);
                    for (r, b) in all.iter().enumerate() {
                        assert_eq!(b.len(), r + 1);
                        assert!(b.iter().all(|&x| x == r as u8));
                    }
                }
                None => assert_ne!(c.rank(), 1),
            }
        });
    }
}
