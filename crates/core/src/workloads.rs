//! The experimental workload catalog (Table 2 of the paper), with the
//! calibration data needed to regenerate the evaluation tables.
//!
//! Each entry carries the paper's workload identity (parameter count, GPU
//! count, parallelism, framework, GPU generation) plus derived modelling
//! inputs: checkpoint bytes per parameter (mixed-precision Adam training
//! state ≈ 14 B/param), per-rank communicator counts (framework-
//! dependent: Megatron-DeepSpeed builds many specialized process groups,
//! HuggingFace DDP builds one), and a scaled-down functional
//! [`TrainConfig`] whose *logical* state size matches the paper-scale
//! model via phantom scaling.

use dltrain::{ModelConfig, OptimizerKind, TrainConfig};
use simcore::cost::GpuGeneration;
use simcore::layout::ParallelLayout;

/// Training framework used by a workload (affects communicator counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framework {
    /// Megatron-LM.
    Megatron,
    /// Megatron + DeepSpeed.
    MegatronDS,
    /// HuggingFace Trainer (plain DDP).
    HuggingFace,
    /// Plain PyTorch DDP.
    PyTorch,
    /// PyTorch FSDP with hybrid sharding.
    PyTorchFsdp,
}

impl Framework {
    /// Communicators each rank participates in, beyond the world group.
    ///
    /// Calibrated against Table 7: plain DDP frameworks bootstrap ~1
    /// group; Megatron-DeepSpeed builds data-, tensor-, pipeline-,
    /// embedding- and grad-norm groups (~8 per rank); 3D configurations
    /// roughly double that.
    pub(crate) fn comm_groups(self, layout: ParallelLayout) -> usize {
        let base = match self {
            Framework::HuggingFace | Framework::PyTorch => 1,
            Framework::Megatron => 4,
            Framework::MegatronDS => 8,
            Framework::PyTorchFsdp => 3,
        };
        let three_d_extra = if layout.pp > 1 || layout.tp > 1 { 7 } else { 0 };
        base + three_d_extra
    }
}

/// One evaluation workload (a Table 2 row).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Model name as in the paper.
    pub name: &'static str,
    /// Parameter count in billions.
    pub params_b: f64,
    /// Parallelism layout (world size = GPU count).
    pub layout: ParallelLayout,
    /// Framework.
    pub framework: Framework,
    /// GPU generation of the testbed.
    pub gpu: GpuGeneration,
    /// FSDP hybrid sharding (T5-3B row).
    pub fsdp: bool,
    /// Checkpoint bytes per parameter (params + optimizer state).
    pub bytes_per_param: f64,
    /// Minibatch time measured in the paper (seconds) — used by the
    /// analytical tables; the functional simulator produces its own.
    pub paper_minibatch: f64,
}

impl Workload {
    /// Total checkpointable state of the whole model, in bytes.
    pub(crate) fn total_state_bytes(&self) -> u64 {
        (self.params_b * 1e9 * self.bytes_per_param) as u64
    }

    /// Per-rank checkpoint size: the model state divided over pipeline
    /// stages and tensor partitions (data-parallel replicas each hold a
    /// full copy of their cell's shard).
    pub fn state_bytes_per_rank(&self) -> u64 {
        self.total_state_bytes() / (self.layout.pp as u64 * self.layout.tp as u64)
    }

    /// World size (GPU count).
    pub fn gpus(&self) -> usize {
        self.layout.world_size()
    }

    /// Communicators per rank (world + framework groups) — the recovery
    /// rendezvous multiplier of Table 7.
    pub fn comms_per_rank(&self) -> usize {
        1 + self.framework.comm_groups(self.layout)
    }

    /// A functional training configuration whose logical per-rank state
    /// size equals [`Workload::state_bytes_per_rank`] via phantom scaling,
    /// while actual payloads stay tiny.
    pub fn train_config(&self, seed: u64) -> TrainConfig {
        let model = ModelConfig {
            input_dim: 8,
            hidden: 16,
            blocks: self.layout.pp.max(1) * 2,
            classes: 4,
            phantom_scale: 1.0, // fixed up below
        };
        let mut cfg = TrainConfig {
            layout: self.layout,
            model,
            batch: 4,
            optimizer: OptimizerKind::adam(1e-3),
            seed,
            ranks_per_node: self.gpu.gpus_per_node(),
            fsdp: self.fsdp,
        };
        // Actual persistent bytes per rank for the tiny dims: params (one
        // stage, one partition) + Adam moments (2 extra slots).
        let d = cfg.model.input_dim;
        let tp = if self.fsdp { 1 } else { self.layout.tp };
        let h_local = cfg.model.hidden / tp;
        let bps = cfg.model.blocks / self.layout.pp;
        // A + bias_A + B shards plus the replicated LayerNorm γ/β.
        let block_elems = d * h_local + h_local + h_local * d + 2 * d;
        let head_elems = d * cfg.model.classes;
        let param_elems = bps * block_elems + head_elems;
        let slots = 1 + cfg.optimizer.state_slots(); // param + optim state
        let actual_bytes = (param_elems * 4 * slots) as f64;
        cfg.model.phantom_scale = self.state_bytes_per_rank() as f64 / actual_bytes;
        cfg
    }
}

/// The full Table 2 catalog.
pub fn catalog() -> Vec<Workload> {
    vec![
        Workload {
            name: "GPT2-S",
            params_b: 0.124,
            layout: ParallelLayout::data_parallel(4),
            framework: Framework::MegatronDS,
            gpu: GpuGeneration::A100_80G,
            fsdp: false,
            bytes_per_param: 14.0,
            paper_minibatch: 0.629,
        },
        Workload {
            name: "GPT2-S-3D",
            params_b: 0.124,
            layout: ParallelLayout::three_d(2, 2, 2),
            framework: Framework::MegatronDS,
            gpu: GpuGeneration::V100_32G,
            fsdp: false,
            bytes_per_param: 14.0,
            paper_minibatch: 0.209,
        },
        Workload {
            name: "GPT2-XL",
            params_b: 1.5,
            layout: ParallelLayout::three_d(2, 2, 2),
            framework: Framework::MegatronDS,
            gpu: GpuGeneration::V100_32G,
            fsdp: false,
            bytes_per_param: 14.0,
            paper_minibatch: 2.632,
        },
        Workload {
            name: "GPT2-8B",
            params_b: 8.3,
            layout: ParallelLayout::three_d(2, 4, 2),
            framework: Framework::MegatronDS,
            gpu: GpuGeneration::V100_32G,
            fsdp: false,
            bytes_per_param: 14.0,
            paper_minibatch: 2.953,
        },
        Workload {
            name: "GPT2-18B",
            params_b: 18.0,
            layout: ParallelLayout::three_d(2, 4, 4),
            framework: Framework::MegatronDS,
            gpu: GpuGeneration::V100_32G,
            fsdp: false,
            bytes_per_param: 14.0,
            paper_minibatch: 3.474,
        },
        Workload {
            name: "BERT-L-PT",
            params_b: 0.334,
            layout: ParallelLayout::data_parallel(8),
            framework: Framework::Megatron,
            gpu: GpuGeneration::V100_32G,
            fsdp: false,
            bytes_per_param: 14.0,
            paper_minibatch: 0.418,
        },
        Workload {
            name: "BERT-B-FT",
            params_b: 0.110,
            layout: ParallelLayout::data_parallel(8),
            framework: Framework::HuggingFace,
            gpu: GpuGeneration::V100_32G,
            fsdp: false,
            bytes_per_param: 14.0,
            paper_minibatch: 0.416,
        },
        Workload {
            name: "T5-3B",
            params_b: 3.0,
            layout: ParallelLayout::three_d(2, 1, 4),
            framework: Framework::PyTorchFsdp,
            gpu: GpuGeneration::A100_80G,
            fsdp: true,
            bytes_per_param: 14.0,
            paper_minibatch: 0.498,
        },
        Workload {
            name: "ViT",
            params_b: 0.632,
            layout: ParallelLayout::data_parallel(8),
            framework: Framework::PyTorch,
            gpu: GpuGeneration::V100_32G,
            fsdp: false,
            bytes_per_param: 14.0,
            paper_minibatch: 0.292,
        },
        Workload {
            name: "PyramidNet",
            params_b: 0.24,
            layout: ParallelLayout::data_parallel(4),
            framework: Framework::PyTorch,
            gpu: GpuGeneration::A100_80G,
            fsdp: false,
            bytes_per_param: 14.0,
            paper_minibatch: 0.315,
        },
    ]
}

/// Looks up a workload by name.
pub fn by_name(name: &str) -> Option<Workload> {
    catalog().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table2_shape() {
        let c = catalog();
        assert_eq!(c.len(), 10);
        let gpt18 = by_name("GPT2-18B").unwrap();
        assert_eq!(gpt18.gpus(), 32);
        assert_eq!(gpt18.layout.label(), "2D-4P-4T");
        let bert = by_name("BERT-L-PT").unwrap();
        assert_eq!(bert.gpus(), 8);
        assert_eq!(bert.layout.label(), "8D-1P-1T");
        assert!(by_name("T5-3B").unwrap().fsdp);
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn state_sizes_are_paper_scale() {
        // BERT-L-PT: 0.334 B × 14 B ≈ 4.7 GB per rank (pure DP).
        let bert = by_name("BERT-L-PT").unwrap();
        let gb = bert.state_bytes_per_rank() as f64 / 1e9;
        assert!((4.0..5.5).contains(&gb), "{gb} GB");
        // GPT2-18B: 18 B × 14 / (4·4) ≈ 15.75 GB per rank.
        let gpt = by_name("GPT2-18B").unwrap();
        let gb = gpt.state_bytes_per_rank() as f64 / 1e9;
        assert!((14.0..17.0).contains(&gb), "{gb} GB");
    }

    #[test]
    fn comm_group_counts_follow_framework() {
        assert_eq!(by_name("BERT-B-FT").unwrap().comms_per_rank(), 2);
        let gpt_s = by_name("GPT2-S").unwrap().comms_per_rank();
        assert!((8..=10).contains(&gpt_s), "{gpt_s}");
        let gpt_3d = by_name("GPT2-S-3D").unwrap().comms_per_rank();
        assert!(gpt_3d > gpt_s, "3D builds more groups");
    }

    #[test]
    fn train_config_phantom_scale_hits_target_bytes() {
        for w in catalog() {
            let cfg = w.train_config(1);
            let d = cfg.model.input_dim;
            let tp = if w.fsdp { 1 } else { w.layout.tp };
            let h_local = cfg.model.hidden / tp;
            let bps = cfg.model.blocks / w.layout.pp;
            let param_elems =
                bps * (d * h_local + h_local + h_local * d + 2 * d) + d * cfg.model.classes;
            let slots = 1 + cfg.optimizer.state_slots();
            let logical = (param_elems * 4 * slots) as f64 * cfg.model.phantom_scale;
            let target = w.state_bytes_per_rank() as f64;
            assert!(
                (logical - target).abs() / target < 0.01,
                "{}: {logical} vs {target}",
                w.name
            );
        }
    }

    #[test]
    fn fsdp_workload_uses_tp_dim_as_shard_group() {
        let t5 = by_name("T5-3B").unwrap();
        let cfg = t5.train_config(1);
        assert!(cfg.fsdp);
        assert_eq!(cfg.layout.tp, 4);
        assert_eq!(cfg.layout.dp, 2);
    }
}
