//! Node and GPU inventory.
//!
//! Models the paper's testbeds: nodes of 8×V100-32GB or 4×A100-80GB, with
//! per-GPU health and allocation that can exclude failed devices —
//! rescheduling after a hard error "on a set of nodes which excludes any
//! failing GPU(s)" (§3, step 3).

use simcore::cost::GpuGeneration;
use simcore::{GpuId, NodeId, SimError, SimResult};
use std::collections::{HashMap, HashSet};

/// A host node and the GPUs attached to it.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node identity.
    pub id: NodeId,
    /// GPUs attached (global ids).
    pub gpus: Vec<GpuId>,
    /// Node-level health (false after a node failure).
    pub healthy: bool,
}

/// Cluster inventory: nodes, GPUs, and health.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// GPU generation (uniform per cluster, as in the paper's testbeds).
    pub generation: GpuGeneration,
    nodes: Vec<Node>,
    gpu_health: HashMap<GpuId, bool>,
    gpu_node: HashMap<GpuId, NodeId>,
}

impl Cluster {
    /// Builds a cluster of `n_nodes` homogeneous nodes.
    pub fn new(generation: GpuGeneration, n_nodes: usize) -> Self {
        let per_node = generation.gpus_per_node();
        let mut nodes = Vec::with_capacity(n_nodes);
        let mut gpu_health = HashMap::new();
        let mut gpu_node = HashMap::new();
        let mut next_gpu = 0u32;
        for n in 0..n_nodes {
            let id = NodeId(n as u32);
            let gpus: Vec<GpuId> = (0..per_node)
                .map(|_| {
                    let g = GpuId(next_gpu);
                    next_gpu += 1;
                    gpu_health.insert(g, true);
                    gpu_node.insert(g, id);
                    g
                })
                .collect();
            nodes.push(Node {
                id,
                gpus,
                healthy: true,
            });
        }
        Cluster {
            generation,
            nodes,
            gpu_health,
            gpu_node,
        }
    }

    /// Total GPU count.
    pub fn total_gpus(&self) -> usize {
        self.gpu_health.len()
    }

    /// Number of currently healthy GPUs.
    pub fn healthy_gpus(&self) -> usize {
        self.gpu_health.values().filter(|h| **h).count()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node hosting a GPU.
    pub fn node_of(&self, gpu: GpuId) -> SimResult<NodeId> {
        self.gpu_node
            .get(&gpu)
            .copied()
            .ok_or_else(|| SimError::InvalidHandle(gpu.to_string()))
    }

    /// True when two GPUs share a node (selects NVLink vs NIC transfer
    /// paths).
    pub fn same_node(&self, a: GpuId, b: GpuId) -> bool {
        match (self.gpu_node.get(&a), self.gpu_node.get(&b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// The node id of every GPU in `gpus`, in order — the real-placement
    /// node assignment the collective layer consumes
    /// (`Communicator::set_topology`): ring hop classes, inter-hop
    /// counts, and the hierarchical engine's per-node group sizes are all
    /// derived from it. Errors on a GPU the cluster doesn't know.
    pub fn node_assignment(&self, gpus: &[GpuId]) -> SimResult<Vec<usize>> {
        gpus.iter()
            .map(|g| self.node_of(*g).map(|n| n.index()))
            .collect()
    }

    /// Marks a GPU failed (hard error).
    pub fn mark_gpu_failed(&mut self, gpu: GpuId) {
        if let Some(h) = self.gpu_health.get_mut(&gpu) {
            *h = false;
        }
    }

    /// True if a GPU is healthy.
    pub fn gpu_healthy(&self, gpu: GpuId) -> bool {
        self.gpu_health.get(&gpu).copied().unwrap_or(false)
    }

    /// Allocates `n` healthy GPUs, excluding `exclude`, preferring to fill
    /// whole nodes (minimizes cross-node traffic, matching schedulers that
    /// pack data-parallel groups onto NVLink islands).
    pub fn allocate(&self, n: usize, exclude: &HashSet<GpuId>) -> SimResult<Vec<GpuId>> {
        let mut out = Vec::with_capacity(n);
        for node in &self.nodes {
            if !node.healthy {
                continue;
            }
            for &g in &node.gpus {
                if out.len() == n {
                    break;
                }
                if self.gpu_healthy(g) && !exclude.contains(&g) {
                    out.push(g);
                }
            }
            if out.len() == n {
                break;
            }
        }
        if out.len() < n {
            return Err(SimError::Scheduling(format!(
                "need {n} GPUs, only {} available",
                out.len()
            )));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_paper_testbed_shapes() {
        let v = Cluster::new(GpuGeneration::V100_32G, 4);
        assert_eq!(v.total_gpus(), 32);
        assert_eq!(v.nodes().len(), 4);
        assert_eq!(v.nodes()[0].gpus.len(), 8);
        let a = Cluster::new(GpuGeneration::A100_80G, 2);
        assert_eq!(a.total_gpus(), 8);
        assert_eq!(a.nodes()[0].gpus.len(), 4);
    }

    #[test]
    fn same_node_detection() {
        let c = Cluster::new(GpuGeneration::V100_32G, 2);
        assert!(c.same_node(GpuId(0), GpuId(7)));
        assert!(!c.same_node(GpuId(7), GpuId(8)));
    }

    #[test]
    fn allocation_prefers_whole_nodes_and_respects_exclusion() {
        let c = Cluster::new(GpuGeneration::V100_32G, 2);
        let got = c.allocate(8, &HashSet::new()).unwrap();
        // All from node 0.
        assert!(got.iter().all(|g| c.node_of(*g).unwrap() == NodeId(0)));
        let exclude: HashSet<GpuId> = [GpuId(0)].into_iter().collect();
        let got = c.allocate(8, &exclude).unwrap();
        assert!(!got.contains(&GpuId(0)));
    }

    #[test]
    fn node_assignment_reflects_placement() {
        let c = Cluster::new(GpuGeneration::V100_32G, 2);
        // Sixteen GPUs across both nodes, eight on each.
        let gpus: Vec<GpuId> = (0..16).map(GpuId).collect();
        let nodes = c.node_assignment(&gpus).unwrap();
        assert_eq!(nodes, [[0; 8], [1; 8]].concat());
        // Data-parallel pairs placed on different nodes.
        assert_eq!(c.node_assignment(&[GpuId(0), GpuId(8)]).unwrap(), [0, 1]);
        assert!(c.node_assignment(&[GpuId(16)]).is_err());
    }

    #[test]
    fn failed_gpus_are_skipped() {
        let mut c = Cluster::new(GpuGeneration::V100_32G, 1);
        c.mark_gpu_failed(GpuId(3));
        assert_eq!(c.healthy_gpus(), 7);
        let got = c.allocate(7, &HashSet::new()).unwrap();
        assert!(!got.contains(&GpuId(3)));
        assert!(c.allocate(8, &HashSet::new()).is_err());
    }
}
