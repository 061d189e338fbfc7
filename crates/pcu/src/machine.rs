//! Architecture awareness (§II-D).
//!
//! "Architecture awareness supports mapping each MPI process to the largest
//! hardware entity whose memory is shared (usually called a node) and each
//! thread to the smallest hardware entity capable of independent computation
//! (processing unit)." The paper obtains this from hwloc; here the machine is
//! described explicitly by a [`MachineModel`] — nodes × cores — and the
//! runtime uses it to classify every message as on-node or off-node and to
//! meter traffic per link class (Figs 5/6: on-node vs off-node part
//! boundaries). The model does not route: every message travels straight
//! to its destination rank, and an off-node link costs what an on-node one
//! costs. Architecture awareness acts through placement — node-major part
//! labels keep neighbouring parts on one node — and the meters show it.

use pumi_util::stats::Counter;

/// Classification of a communication link between two ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Both ranks on the same node: shared-memory path (dashed boundary in
    /// Fig 3).
    OnNode,
    /// Ranks on different nodes: network path (solid boundary in Fig 3).
    OffNode,
    /// A rank messaging itself (local pack/unpack only).
    SelfLoop,
}

impl LinkClass {
    /// The observability-layer mirror of this class (`pumi-obs` sits below
    /// the runtime and defines its own copy).
    pub fn to_obs(self) -> pumi_obs::metrics::Link {
        match self {
            LinkClass::OnNode => pumi_obs::metrics::Link::OnNode,
            LinkClass::OffNode => pumi_obs::metrics::Link::OffNode,
            LinkClass::SelfLoop => pumi_obs::metrics::Link::SelfLoop,
        }
    }
}

/// An explicit description of the machine: `nodes` × `cores_per_node`.
///
/// Ranks are laid out node-major: rank `r` lives on node `r / cores_per_node`,
/// core `r % cores_per_node` — the paper's mapping of processes to nodes and
/// threads to processing units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineModel {
    /// Number of shared-memory nodes.
    pub nodes: usize,
    /// Processing units per node.
    pub cores_per_node: usize,
}

impl MachineModel {
    /// A machine with `nodes` nodes of `cores_per_node` cores each.
    pub fn new(nodes: usize, cores_per_node: usize) -> MachineModel {
        assert!(nodes > 0 && cores_per_node > 0);
        MachineModel {
            nodes,
            cores_per_node,
        }
    }

    /// A flat machine: every rank on its own node (pure-MPI view).
    pub fn flat(nranks: usize) -> MachineModel {
        MachineModel::new(nranks.max(1), 1)
    }

    /// Total rank slots.
    pub fn nranks(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.cores_per_node
    }

    /// The core (processing unit) hosting `rank` within its node.
    pub fn core_of(&self, rank: usize) -> usize {
        rank % self.cores_per_node
    }

    /// Classify the link between two ranks.
    pub fn link(&self, a: usize, b: usize) -> LinkClass {
        if a == b {
            LinkClass::SelfLoop
        } else if self.node_of(a) == self.node_of(b) {
            LinkClass::OnNode
        } else {
            LinkClass::OffNode
        }
    }
}

/// Shared traffic meters, one set per world. Cloning shares the counters.
#[derive(Debug, Clone, Default)]
pub struct TrafficCounters {
    /// Messages sent over on-node (shared-memory) links.
    pub on_node_msgs: Counter,
    /// Bytes over on-node links.
    pub on_node_bytes: Counter,
    /// Messages over off-node (network) links.
    pub off_node_msgs: Counter,
    /// Bytes over off-node links.
    pub off_node_bytes: Counter,
    /// Self-loop messages (no transport).
    pub self_msgs: Counter,
}

impl TrafficCounters {
    /// Record one message of `bytes` over the link class.
    pub fn record(&self, class: LinkClass, bytes: usize) {
        match class {
            LinkClass::OnNode => {
                self.on_node_msgs.add(1);
                self.on_node_bytes.add(bytes as u64);
            }
            LinkClass::OffNode => {
                self.off_node_msgs.add(1);
                self.off_node_bytes.add(bytes as u64);
            }
            LinkClass::SelfLoop => self.self_msgs.add(1),
        }
    }

    /// Snapshot the current totals.
    pub fn report(&self) -> TrafficReport {
        TrafficReport {
            on_node_msgs: self.on_node_msgs.get(),
            on_node_bytes: self.on_node_bytes.get(),
            off_node_msgs: self.off_node_msgs.get(),
            off_node_bytes: self.off_node_bytes.get(),
            self_msgs: self.self_msgs.get(),
        }
    }

    /// Reset all meters to zero.
    pub fn reset(&self) {
        self.on_node_msgs.take();
        self.on_node_bytes.take();
        self.off_node_msgs.take();
        self.off_node_bytes.take();
        self.self_msgs.take();
    }
}

/// A snapshot of world traffic, printed by the architecture-aware benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficReport {
    /// Messages over shared-memory links.
    pub on_node_msgs: u64,
    /// Bytes over shared-memory links.
    pub on_node_bytes: u64,
    /// Messages over network links.
    pub off_node_msgs: u64,
    /// Bytes over network links.
    pub off_node_bytes: u64,
    /// Rank-to-self messages.
    pub self_msgs: u64,
}

impl TrafficReport {
    /// Total messages over real links (excludes self loops).
    pub fn total_msgs(&self) -> u64 {
        self.on_node_msgs + self.off_node_msgs
    }

    /// Total bytes over real links.
    pub fn total_bytes(&self) -> u64 {
        self.on_node_bytes + self.off_node_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_major_layout() {
        let m = MachineModel::new(4, 8);
        assert_eq!(m.nranks(), 32);
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(7), 0);
        assert_eq!(m.node_of(8), 1);
        assert_eq!(m.core_of(9), 1);
    }

    #[test]
    fn link_classes() {
        let m = MachineModel::new(2, 4);
        assert_eq!(m.link(0, 0), LinkClass::SelfLoop);
        assert_eq!(m.link(0, 3), LinkClass::OnNode);
        assert_eq!(m.link(0, 4), LinkClass::OffNode);
        assert_eq!(m.link(7, 6), LinkClass::OnNode);
    }

    #[test]
    fn flat_machine_has_no_on_node_links() {
        let m = MachineModel::flat(5);
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    assert_eq!(m.link(a, b), LinkClass::OffNode);
                }
            }
        }
    }

    #[test]
    fn counters_accumulate_per_class() {
        let c = TrafficCounters::default();
        c.record(LinkClass::OnNode, 100);
        c.record(LinkClass::OnNode, 50);
        c.record(LinkClass::OffNode, 10);
        c.record(LinkClass::SelfLoop, 5);
        let r = c.report();
        assert_eq!(r.on_node_msgs, 2);
        assert_eq!(r.on_node_bytes, 150);
        assert_eq!(r.off_node_msgs, 1);
        assert_eq!(r.off_node_bytes, 10);
        assert_eq!(r.self_msgs, 1);
        assert_eq!(r.total_msgs(), 3);
        assert_eq!(r.total_bytes(), 160);
        c.reset();
        assert_eq!(c.report().total_bytes(), 0);
    }
}
