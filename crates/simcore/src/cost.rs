//! Cost models: how long simulated operations take.
//!
//! Timing in this reproduction is driven by an explicit, calibrated cost
//! model rather than host wall-clock. Each device API, collective, storage
//! write, and recovery step asks the [`CostModel`] for its duration and
//! advances the issuing rank's virtual clock by that amount.
//!
//! Calibration targets the published numbers of the paper's evaluation
//! (Tables 4–7): e.g. an effective per-rank checkpoint write bandwidth of
//! ~0.8 GB/s on 8-GPU V100 nodes reproduces the 5 s BERT-L-PT checkpoint
//! and 20.5 s GPT2-18B checkpoint, and a ~1 s per-communicator NCCL
//! rendezvous reproduces the Table 7 breakdown where communicator
//! re-creation dominates transient recovery.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Simulated GPU hardware generations used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuGeneration {
    /// NVIDIA V100 32 GB (8 per node in the paper's testbed).
    V100_32G,
    /// NVIDIA A100 80 GB (4 per node in the paper's testbed).
    A100_80G,
}

impl GpuGeneration {
    /// Device memory capacity in bytes.
    pub fn memory_bytes(self) -> u64 {
        match self {
            GpuGeneration::V100_32G => 32 * (1 << 30),
            GpuGeneration::A100_80G => 80 * (1 << 30),
        }
    }

    /// GPUs per node in the simulated testbed.
    pub fn gpus_per_node(self) -> usize {
        match self {
            GpuGeneration::V100_32G => 8,
            GpuGeneration::A100_80G => 4,
        }
    }

    /// Effective training throughput in FLOP/s (mixed precision, realistic
    /// utilization, not peak datasheet numbers).
    pub(crate) fn flops_per_sec(self) -> f64 {
        match self {
            GpuGeneration::V100_32G => 60e12,
            GpuGeneration::A100_80G => 180e12,
        }
    }
}

/// Which storage tier a checkpoint (or other bulk write) lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StorageTier {
    /// Local persistent disk / NFS in the critical path (`PC_disk`,
    /// `torch.save` semantics).
    Disk,
    /// Host memory via a tmpfs mount (`PC_mem`, Nebula-style).
    HostMemory,
    /// Remote blob/object store (asynchronous drain target).
    RemoteBlob,
}

/// Calibrated cost parameters for the simulated cluster.
///
/// All bandwidths are bytes/second. Per-node bandwidths are shared by the
/// ranks on that node, which is why checkpoint time scales with
/// `ranks_per_node` in [`CostModel::checkpoint_write`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    /// GPU generation the model is calibrated for.
    pub gpu: GpuGeneration,
    /// Per-kernel launch overhead.
    pub kernel_launch: SimTime,
    /// GPU↔host bandwidth over PCIe (per GPU).
    pub pcie_bw: f64,
    /// Intra-node GPU↔GPU bandwidth (NVLink).
    pub nvlink_bw: f64,
    /// Inter-node per-GPU network bandwidth (InfiniBand).
    pub nic_bw: f64,
    /// Per-node persistent disk write bandwidth (shared by ranks).
    pub disk_bw: f64,
    /// Per-node host-memory (tmpfs) write bandwidth (shared by ranks).
    pub tmpfs_bw: f64,
    /// Per-node remote blob store bandwidth (shared by ranks).
    pub remote_bw: f64,
    /// Per-hop latency of an inter-node (NIC) ring step; also the base
    /// latency of a barrier step and of a single-rank collective.
    pub coll_latency: SimTime,
    /// Per-hop latency of an intra-node (NVLink) ring step.
    pub nvlink_latency: SimTime,
    /// Rendezvous + bootstrap time to create one NCCL-style communicator.
    pub comm_init: SimTime,
    /// Time to tear down communicators and device handles during recovery.
    pub comm_teardown: SimTime,
    /// Time to create one GPU object handle (stream/event).
    pub handle_create: SimTime,
    /// CRIU-style CPU process snapshot bandwidth.
    pub criu_bw: f64,
    /// Fixed CRIU snapshot/restore base cost.
    pub criu_base: SimTime,
    /// Fixed process/framework re-initialization cost on a cold restart
    /// (the fixed `r` component that transparent JIT eliminates).
    pub process_restart: SimTime,
    /// Fixed serialization overhead per checkpoint (state-dict walk etc.).
    pub serialize_overhead: SimTime,
    /// CPU-side cost to log one device API into the replay log (if it
    /// were synchronous).
    pub api_log_overhead: SimTime,
    /// Fraction of the logging cost NOT hidden by the device proxy's
    /// asynchronous execution (§4.1: logging is overlapped with device
    /// work, making the steady-state overhead "nearly zero"). The
    /// ablation benches set this to 1.0 to model synchronous logging.
    pub log_async_residual: f64,
    /// Cost of restarting the device proxy server process (clears
    /// corrupted driver state, §4.2.1 cases 2–3).
    pub proxy_restart: SimTime,
    /// CPU dispatch cost per replayed device API (recovery replays are
    /// asynchronous re-submissions; GPU re-execution overlaps, §6.4).
    pub replay_dispatch: SimTime,
}

impl CostModel {
    /// Calibrated model for a V100 32 GB testbed (8 GPUs/node).
    pub fn v100() -> Self {
        CostModel {
            gpu: GpuGeneration::V100_32G,
            kernel_launch: SimTime::from_micros(6.0),
            pcie_bw: 12e9,
            nvlink_bw: 130e9,
            nic_bw: 12.5e9,
            disk_bw: 6.4e9,
            tmpfs_bw: 8.0e9,
            remote_bw: 2.5e9,
            coll_latency: SimTime::from_micros(40.0),
            nvlink_latency: SimTime::from_micros(8.0),
            comm_init: SimTime::from_secs(1.0),
            comm_teardown: SimTime::from_secs(0.85),
            handle_create: SimTime::from_micros(120.0),
            criu_bw: 1.2e9,
            criu_base: SimTime::from_secs(2.2),
            process_restart: SimTime::from_secs(5.0),
            serialize_overhead: SimTime::from_secs(0.9),
            api_log_overhead: SimTime::from_micros(0.4),
            log_async_residual: 0.05,
            proxy_restart: SimTime::from_secs(1.5),
            replay_dispatch: SimTime::from_micros(4.0),
        }
    }

    /// Calibrated model for an A100 80 GB testbed (4 GPUs/node).
    pub(crate) fn a100() -> Self {
        CostModel {
            gpu: GpuGeneration::A100_80G,
            kernel_launch: SimTime::from_micros(5.0),
            pcie_bw: 26e9,
            nvlink_bw: 300e9,
            nic_bw: 25e9,
            disk_bw: 8.0e9,
            tmpfs_bw: 12.0e9,
            remote_bw: 4.0e9,
            coll_latency: SimTime::from_micros(30.0),
            nvlink_latency: SimTime::from_micros(6.0),
            comm_init: SimTime::from_secs(1.1),
            comm_teardown: SimTime::from_secs(0.8),
            handle_create: SimTime::from_micros(100.0),
            criu_bw: 2.0e9,
            criu_base: SimTime::from_secs(1.6),
            process_restart: SimTime::from_secs(3.5),
            serialize_overhead: SimTime::from_secs(0.6),
            api_log_overhead: SimTime::from_micros(0.3),
            log_async_residual: 0.05,
            proxy_restart: SimTime::from_secs(1.2),
            replay_dispatch: SimTime::from_micros(3.0),
        }
    }

    /// Returns the model for a GPU generation.
    pub fn for_gpu(gen: GpuGeneration) -> Self {
        match gen {
            GpuGeneration::V100_32G => Self::v100(),
            GpuGeneration::A100_80G => Self::a100(),
        }
    }

    /// Duration of a compute kernel given its FLOP count.
    pub fn kernel(&self, flops: f64) -> SimTime {
        self.kernel_launch + SimTime::from_secs(flops / self.gpu.flops_per_sec())
    }

    /// Duration of a host↔device memcpy of `bytes`.
    pub fn memcpy(&self, bytes: u64) -> SimTime {
        SimTime::from_micros(8.0) + SimTime::from_secs(bytes as f64 / self.pcie_bw)
    }

    /// Duration of one synchronous step of a chunked ring schedule moving
    /// one `seg_bytes` segment per rank. Every rank sends simultaneously,
    /// so the step takes as long as its slowest hop: an inter-node (NIC)
    /// hop if the ring crosses a node boundary, an NVLink hop otherwise.
    fn ring_step_secs(&self, seg_bytes: f64, crosses_nodes: bool) -> f64 {
        let (bw, lat) = if crosses_nodes {
            (self.nic_bw, self.coll_latency)
        } else {
            (self.nvlink_bw, self.nvlink_latency)
        };
        lat.as_secs() + seg_bytes / bw
    }

    /// Chunked ring all-reduce (reduce-scatter then all-gather) of `bytes`
    /// over `n_ranks`, where `inter_hops` of the ring's hops cross a node
    /// boundary (0 means the whole ring rides NVLink).
    ///
    /// The latency term reflects the actual 2·(n−1) ring steps, each
    /// gated by the slowest link class present in the ring — so a ring
    /// spanning nodes pays linear-in-n NIC hop latencies, while an
    /// intra-node ring pays much cheaper NVLink hops. The bandwidth term
    /// is the usual 2·(n−1)/n volume through the bottleneck link.
    pub fn ring_all_reduce(&self, bytes: u64, n_ranks: usize, inter_hops: usize) -> SimTime {
        if n_ranks <= 1 {
            return self.coll_latency;
        }
        let n = n_ranks as f64;
        let steps = 2.0 * (n - 1.0);
        SimTime::from_secs(steps * self.ring_step_secs(bytes as f64 / n, inter_hops > 0))
    }

    /// Chunked ring all-gather / reduce-scatter / broadcast cost: n−1 ring
    /// steps (half the all-reduce volume).
    pub fn ring_all_gather(&self, bytes: u64, n_ranks: usize, inter_hops: usize) -> SimTime {
        if n_ranks <= 1 {
            return self.coll_latency;
        }
        let n = n_ranks as f64;
        let steps = n - 1.0;
        SimTime::from_secs(steps * self.ring_step_secs(bytes as f64 / n, inter_hops > 0))
    }

    /// Two-level hierarchical all-reduce of `bytes` over nodes holding
    /// `node_sizes[i]` ranks each: reduce-scatter on each intra-node ring
    /// (NVLink hops), a ring all-reduce across one leader per node (NIC
    /// hops), then an intra-node all-gather.
    ///
    /// With `m = max(node_sizes)` and `k` nodes, the schedule is
    /// `2·(m−1)` NVLink steps of `B/m` plus `2·(k−1)` NIC steps of `B/k`.
    /// The NIC *bandwidth* term matches the flat ring's (the same bytes
    /// cross the same links), but the NIC *latency* term collapses from
    /// `2·(n−1)` hops to `2·(k−1)` — the whole point of the hierarchy at
    /// multi-node scale, where the flat ring's per-hop α dominates.
    /// Degenerates to the pure-NVLink flat ring on a single node.
    pub fn hier_all_reduce(&self, bytes: u64, node_sizes: &[usize]) -> SimTime {
        let n: usize = node_sizes.iter().sum();
        if n <= 1 {
            return self.coll_latency;
        }
        let k = node_sizes.iter().filter(|s| **s > 0).count();
        let m = node_sizes.iter().copied().max().unwrap_or(1).max(1);
        let mut secs = 0.0;
        if m > 1 {
            // Intra-node reduce-scatter + all-gather phases.
            secs += 2.0 * (m as f64 - 1.0) * self.ring_step_secs(bytes as f64 / m as f64, false);
        }
        if k > 1 {
            // Leader ring all-reduce across nodes.
            secs += 2.0 * (k as f64 - 1.0) * self.ring_step_secs(bytes as f64 / k as f64, true);
        }
        SimTime::from_secs(secs)
    }

    /// Hierarchical all-gather / reduce-scatter / broadcast cost: half
    /// the all-reduce schedule — `(m−1)` NVLink steps of `B/m` plus
    /// `(k−1)` NIC steps of `B/k`.
    pub fn hier_all_gather(&self, bytes: u64, node_sizes: &[usize]) -> SimTime {
        let n: usize = node_sizes.iter().sum();
        if n <= 1 {
            return self.coll_latency;
        }
        let k = node_sizes.iter().filter(|s| **s > 0).count();
        let m = node_sizes.iter().copied().max().unwrap_or(1).max(1);
        let mut secs = 0.0;
        if m > 1 {
            secs += (m as f64 - 1.0) * self.ring_step_secs(bytes as f64 / m as f64, false);
        }
        if k > 1 {
            secs += (k as f64 - 1.0) * self.ring_step_secs(bytes as f64 / k as f64, true);
        }
        SimTime::from_secs(secs)
    }

    /// CPU-side cost to CRC-frame one recovery-stream shard of `bytes`
    /// (a host-memory pass over the payload).
    pub fn shard_encode(&self, bytes: u64) -> SimTime {
        SimTime::from_secs(bytes as f64 / self.tmpfs_bw)
    }

    /// Point-to-point transfer cost (pipeline activations, replica state
    /// copies). Chooses NVLink within a node, NIC across nodes.
    pub fn p2p(&self, bytes: u64, same_node: bool) -> SimTime {
        let bw = if same_node {
            self.nvlink_bw
        } else {
            self.nic_bw
        };
        self.coll_latency + SimTime::from_secs(bytes as f64 / bw)
    }

    /// Storage-tier write bandwidth per node.
    pub(crate) fn tier_bw(&self, tier: StorageTier) -> f64 {
        match tier {
            StorageTier::Disk => self.disk_bw,
            StorageTier::HostMemory => self.tmpfs_bw,
            StorageTier::RemoteBlob => self.remote_bw,
        }
    }

    /// Time for one rank to write a checkpoint of `bytes` to `tier`, when
    /// `ranks_per_node` ranks write concurrently through the same node.
    ///
    /// Includes the GPU→host copy (PCIe) and the fixed serialization
    /// overhead; the node storage bandwidth is divided among the writers.
    pub fn checkpoint_write(
        &self,
        bytes: u64,
        tier: StorageTier,
        ranks_per_node: usize,
    ) -> SimTime {
        let share = self.tier_bw(tier) / ranks_per_node.max(1) as f64;
        let d2h = bytes as f64 / self.pcie_bw;
        let store = bytes as f64 / share;
        self.serialize_overhead + SimTime::from_secs(d2h.max(0.0) + store)
    }

    /// Time for one rank to read a checkpoint of `bytes` from `tier`.
    pub fn checkpoint_read(&self, bytes: u64, tier: StorageTier, ranks_per_node: usize) -> SimTime {
        let share = self.tier_bw(tier) / ranks_per_node.max(1) as f64;
        let h2d = bytes as f64 / self.pcie_bw;
        SimTime::from_secs(bytes as f64 / share + h2d)
    }

    /// Snapshot-only cost (GPU→host copy while GPU stays paused); used by
    /// CheckFreq-style pipelined checkpointing for the stalled portion.
    /// Named only by the benchmark; it goes at ROADMAP item 3 step 1.
    pub fn snapshot_to_host(&self, bytes: u64) -> SimTime {
        SimTime::from_secs(bytes as f64 / self.pcie_bw)
    }

    /// Cost of a CRIU-style CPU process checkpoint or restore of
    /// `cpu_state_bytes`.
    pub fn criu(&self, cpu_state_bytes: u64) -> SimTime {
        self.criu_base + SimTime::from_secs(cpu_state_bytes as f64 / self.criu_bw)
    }

    /// Effective charged per-call logging cost after async overlap.
    pub fn effective_log_overhead(&self) -> SimTime {
        SimTime::from_secs(self.api_log_overhead.as_secs() * self.log_async_residual)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::v100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_checkpoint_write_matches_paper_ballpark() {
        // BERT-L-PT: 0.334 B params × 14 B/param ≈ 4.7 GB per rank on an
        // 8-GPU node; the paper measures 5.0 s (Table 4).
        let cm = CostModel::v100();
        let bytes = (0.334e9 * 14.0) as u64;
        let t = cm.checkpoint_write(bytes, StorageTier::Disk, 8).as_secs();
        assert!((3.0..8.0).contains(&t), "got {t}");
    }

    #[test]
    fn criu_cost_is_a_base_plus_the_image_size_over_bandwidth() {
        let cm = CostModel::v100();
        assert!(cm.criu(1 << 30) > cm.criu_base);
        assert!(cm.criu(8 << 30) > cm.criu(1 << 20));
    }

    #[test]
    fn ring_cost_tracks_link_classes() {
        let cm = CostModel::v100();
        // An all-NVLink ring is cheaper than one crossing nodes.
        let intra = cm.ring_all_reduce(1 << 30, 8, 0);
        let inter = cm.ring_all_reduce(1 << 30, 8, 2);
        assert!(intra < inter, "NIC hops must dominate the ring step");
        // Hop latency scales linearly with ring length.
        let lat_small = cm.ring_all_reduce(0, 4, 1).as_secs();
        let lat_big = cm.ring_all_reduce(0, 16, 1).as_secs();
        assert!((lat_big / lat_small - 5.0).abs() < 1e-9, "2(n-1) steps");
        // At large payloads the ring converges to the classic 2(n-1)/n
        // volume through the bottleneck link.
        let volume = 2.0 * 15.0 / 16.0 * (1u64 << 30) as f64 / cm.nic_bw;
        let ring = cm.ring_all_reduce(1 << 30, 16, 2).as_secs();
        assert!(
            (ring / volume - 1.0).abs() < 0.05,
            "ring {ring} volume {volume}"
        );
        assert!(cm.ring_all_reduce(1 << 20, 16, 2) < cm.ring_all_reduce(1 << 30, 16, 2));
        // A single rank pays one collective latency.
        assert_eq!(cm.ring_all_reduce(1 << 30, 1, 0), cm.coll_latency);
        // All-gather is n-1 steps, half the all-reduce schedule.
        let ag = cm.ring_all_gather(1 << 30, 8, 1).as_secs();
        let ar = cm.ring_all_reduce(1 << 30, 8, 1).as_secs();
        assert!((ar / ag - 2.0).abs() < 1e-9);
    }

    #[test]
    fn hier_cost_beats_flat_ring_at_multi_node_scale() {
        let cm = CostModel::v100();
        let payload = 4 << 20; // the gradient-bucket case
        for nodes in [2usize, 8, 32, 128, 256] {
            let node_sizes = vec![8usize; nodes];
            let world = nodes * 8;
            let flat = cm.ring_all_reduce(payload, world, 2).as_secs();
            let hier = cm.hier_all_reduce(payload, &node_sizes).as_secs();
            assert!(
                hier < flat,
                "hier must beat the flat ring at {world} ranks: {hier} vs {flat}"
            );
        }
        // At world 2048 the flat ring's 2·(n−1) NIC α term dominates;
        // the hierarchy collapses it to 2·(k−1).
        let flat = cm.ring_all_reduce(payload, 2048, 2).as_secs();
        let hier = cm.hier_all_reduce(payload, &vec![8usize; 256]).as_secs();
        assert!(flat / hier > 5.0, "flat {flat} hier {hier}");
    }

    #[test]
    fn hier_cost_degenerates_on_a_single_node() {
        let cm = CostModel::v100();
        // One node: the hier schedule *is* the pure-NVLink flat ring.
        assert_eq!(
            cm.hier_all_reduce(1 << 20, &[8]),
            cm.ring_all_reduce(1 << 20, 8, 0)
        );
        assert_eq!(
            cm.hier_all_gather(1 << 20, &[8]),
            cm.ring_all_gather(1 << 20, 8, 0)
        );
        // One rank per node: pure inter-node leader ring.
        assert_eq!(
            cm.hier_all_reduce(1 << 20, &[1, 1, 1, 1]),
            cm.ring_all_reduce(1 << 20, 4, 4)
        );
        // A single rank pays one collective latency.
        assert_eq!(cm.hier_all_reduce(1 << 30, &[1]), cm.coll_latency);
        assert_eq!(cm.hier_all_gather(1 << 30, &[1]), cm.coll_latency);
    }

    #[test]
    fn hier_all_gather_is_half_the_all_reduce_schedule() {
        let cm = CostModel::v100();
        let sizes = vec![8usize; 4];
        let ar = cm.hier_all_reduce(1 << 24, &sizes).as_secs();
        let ag = cm.hier_all_gather(1 << 24, &sizes).as_secs();
        assert!((ar / ag - 2.0).abs() < 1e-9);
    }

    #[test]
    fn host_memory_faster_than_disk_faster_than_blob() {
        let cm = CostModel::v100();
        let b = 4 << 30;
        let mem = cm.checkpoint_write(b, StorageTier::HostMemory, 8);
        let disk = cm.checkpoint_write(b, StorageTier::Disk, 8);
        let blob = cm.checkpoint_write(b, StorageTier::RemoteBlob, 8);
        assert!(mem < disk && disk < blob);
    }

    #[test]
    fn a100_is_faster_than_v100() {
        let v = CostModel::v100();
        let a = CostModel::a100();
        assert!(a.kernel(1e12) < v.kernel(1e12));
        assert!(a.memcpy(1 << 30) < v.memcpy(1 << 30));
    }

    #[test]
    fn gpu_generation_properties() {
        assert_eq!(GpuGeneration::V100_32G.gpus_per_node(), 8);
        assert_eq!(GpuGeneration::A100_80G.gpus_per_node(), 4);
        assert!(GpuGeneration::A100_80G.memory_bytes() > GpuGeneration::V100_32G.memory_bytes());
    }
}
