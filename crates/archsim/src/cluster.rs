//! A cluster of simulated nodes plus a simple interconnect model.
//!
//! The paper's MPI applications run on 2–16 nodes. Nodes execute outer-loop
//! iterations in lock-step (the applications are bulk-synchronous); the
//! interconnect model turns per-iteration message volumes into
//! communication time, which the MPI layer (`ear-mpisim`) charges to each
//! node as waiting.

use crate::config::NodeConfig;
use crate::node::Node;
use crate::time::SimTime;

/// Latency/bandwidth model of the cluster fabric (EDR InfiniBand-class).
#[derive(Debug, Clone)]
pub struct Interconnect {
    /// Per-message latency (s).
    pub latency_s: f64,
    /// Link bandwidth per node (bytes/s).
    pub bandwidth_bytes: f64,
    /// Fixed software overhead per collective operation (s).
    pub collective_overhead_s: f64,
}

impl Default for Interconnect {
    fn default() -> Self {
        Self {
            latency_s: 1.5e-6,
            bandwidth_bytes: 12e9,
            collective_overhead_s: 4e-6,
        }
    }
}

impl Interconnect {
    /// Time for one point-to-point message of `bytes`.
    pub fn p2p_time(&self, bytes: f64) -> f64 {
        self.latency_s + bytes.max(0.0) / self.bandwidth_bytes
    }

    /// Time for a collective over `nodes` nodes moving `bytes` per node
    /// (logarithmic tree model).
    pub fn collective_time(&self, nodes: usize, bytes: f64) -> f64 {
        let rounds = (nodes.max(1) as f64).log2().ceil().max(1.0);
        self.collective_overhead_s + rounds * self.p2p_time(bytes)
    }
}

/// A set of identical nodes sharing a fabric.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<Node>,
    /// The interconnect model (public: the MPI layer reads it).
    pub fabric: Interconnect,
}

impl Cluster {
    /// Boots `n` nodes with the given configuration; each node gets a
    /// distinct noise seed derived from `seed`.
    pub fn new(config: NodeConfig, n: usize, seed: u64) -> Self {
        assert!(n > 0, "a cluster needs at least one node");
        let nodes = (0..n)
            .map(|i| {
                Node::new(
                    config.clone(),
                    seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9),
                )
            })
            .collect();
        Self {
            nodes,
            fabric: Interconnect::default(),
        }
    }

    /// Builds a cluster from pre-constructed (possibly heterogeneous)
    /// nodes — e.g. a partition mixing compute and GPU nodes.
    pub fn from_nodes(nodes: Vec<Node>) -> Self {
        assert!(!nodes.is_empty(), "a cluster needs at least one node");
        Self {
            nodes,
            fabric: Interconnect::default(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the cluster has no nodes (never after construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node.
    pub fn node(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, idx: usize) -> &mut Node {
        &mut self.nodes[idx]
    }

    /// Iterates over the nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Mutable iteration over the nodes.
    pub fn nodes_mut(&mut self) -> impl Iterator<Item = &mut Node> {
        self.nodes.iter_mut()
    }

    /// The latest clock among the nodes (nodes advance independently
    /// between synchronisation points).
    pub fn horizon(&self) -> SimTime {
        self.nodes
            .iter()
            .map(|n| n.now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Advances every node that is behind `t` with idle time, modelling a
    /// barrier: after the call all clocks are equal.
    pub fn synchronise_to(&mut self, t: SimTime) {
        for node in &mut self.nodes {
            let lag = t - node.now();
            if lag > 0.0 {
                node.run_idle(lag);
            }
        }
    }

    /// Total exact DC energy across nodes (J).
    pub fn total_dc_energy_j(&self) -> f64 {
        self.nodes.iter().map(|n| n.dc_energy_exact_j()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::PhaseDemand;

    #[test]
    fn fabric_times_scale() {
        let f = Interconnect::default();
        assert!(f.p2p_time(1e6) > f.p2p_time(1e3));
        assert!(f.collective_time(16, 1e6) > f.collective_time(2, 1e6));
        // Latency floor for empty messages.
        assert!(f.p2p_time(0.0) >= f.latency_s);
    }

    #[test]
    fn cluster_boots_distinct_seeds() {
        let mut c = Cluster::new(NodeConfig::sd530_6148(), 4, 7);
        assert_eq!(c.len(), 4);
        let d = PhaseDemand {
            instructions: 1e10,
            mem_bytes: 5e9,
            active_cores: 40,
            ..Default::default()
        };
        let t0 = c.node_mut(0).run_phase(&d).duration_s();
        let t1 = c.node_mut(1).run_phase(&d).duration_s();
        // Different noise seeds: not bit-identical.
        assert_ne!(t0, t1);
        // But physically equal to within noise.
        assert!((t0 - t1).abs() / t0 < 0.05);
    }

    #[test]
    fn heterogeneous_cluster_from_nodes() {
        use crate::config::NodeConfig;
        let nodes = vec![
            Node::new(NodeConfig::sd530_6148(), 1),
            Node::new(NodeConfig::gpu_node_6142m(), 2),
        ];
        let c = Cluster::from_nodes(nodes);
        assert_eq!(c.len(), 2);
        assert_eq!(c.node(0).config.total_cores(), 40);
        assert_eq!(c.node(1).config.total_cores(), 32);
        assert_eq!(c.node(1).config.gpus, 2);
    }

    #[test]
    fn synchronise_fills_idle() {
        let mut c = Cluster::new(NodeConfig::sd530_6148(), 2, 3);
        let d = PhaseDemand {
            instructions: 1e10,
            mem_bytes: 5e9,
            active_cores: 40,
            ..Default::default()
        };
        c.node_mut(0).run_phase(&d);
        let horizon = c.horizon();
        c.synchronise_to(horizon);
        assert_eq!(c.node(0).now(), c.node(1).now());
    }
}
