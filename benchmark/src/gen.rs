//! Seeded inputs: model shapes, fault schedules, synthetic states.
//! The same `--seed` gives the same inputs; the programs under test
//! receive only what is generated here.

use crate::stepper::WARMUP_STEPS;
use dltrain::{ModelConfig, OptimizerKind, TrainConfig, TrainState};
use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::layout::ParallelLayout;
use simcore::rng::DetRng;
use simcore::RankId;
use simgpu::BufferTag;

/// Data-parallel world of every training workload: the smallest with a
/// replica to recover from.
pub const WORLD: usize = 2;

#[derive(Clone, Copy)]
pub struct Shape {
    pub input_dim: usize,
    pub hidden: usize,
    pub blocks: usize,
    pub batch: usize,
}

/// `steady_dp2`: 2.1 M parameters, 24 MiB of Adam state per rank.
pub const STEADY: Shape = Shape {
    input_dim: 256,
    hidden: 1024,
    blocks: 4,
    batch: 8,
};
/// `faults_transparent`: 8.4 M parameters, 96 MiB of state per rank.
/// The large shape because incidents at the 2.1 M shape spread ±15 %;
/// batch 4 so that the twin and the faulty job fit the time a run may take.
pub const LARGE: Shape = Shape {
    input_dim: 512,
    hidden: 2048,
    blocks: 4,
    batch: 4,
};
/// `faults_userlevel`, `faults_periodic`: the same 96 MiB of state with
/// batch 1, so a step is cheap beside the state a checkpoint moves.
pub const STATE_HEAVY: Shape = Shape {
    input_dim: 512,
    hidden: 2048,
    blocks: 4,
    batch: 1,
};
/// `--smoke`: compile-and-run sizes.
pub const SMOKE: Shape = Shape {
    input_dim: 32,
    hidden: 64,
    blocks: 2,
    batch: 4,
};

impl Shape {
    pub fn model(&self) -> ModelConfig {
        ModelConfig {
            input_dim: self.input_dim,
            hidden: self.hidden,
            blocks: self.blocks,
            classes: 16,
            // Virtual time describes the bytes really moved.
            phantom_scale: 1.0,
        }
    }

    pub fn train_config(&self, seed: u64) -> TrainConfig {
        TrainConfig {
            layout: ParallelLayout::data_parallel(WORLD),
            model: self.model(),
            batch: self.batch,
            optimizer: OptimizerKind::adam(1e-3),
            seed,
            ranks_per_node: 8,
            fsdp: false,
        }
    }

    /// Parameters plus Adam's two moments, in bytes, on one rank.
    pub fn state_bytes(&self) -> u64 {
        self.model().param_count() as u64 * 4 * 3
    }

    pub fn label(&self) -> String {
        format!(
            "{}/{}/{} batch {}",
            self.input_dim, self.hidden, self.blocks, self.batch
        )
    }
}

/// §4's recoverable failure classes, in the order of the metric
/// suffixes `.a` … `.e`.
pub const CLASSES: [(char, FailureKind, Phase); 5] = [
    ('a', FailureKind::TransientNetwork, Phase::AllReduce),
    ('b', FailureKind::DriverCorruption, Phase::Backward),
    ('c', FailureKind::StickyCuda, Phase::Backward),
    ('d', FailureKind::StickyCuda, Phase::OptimizerStep),
    ('e', FailureKind::GpuHardware, Phase::Backward),
];

/// One scheduled incident of the transparent workload.
#[derive(Clone, Copy)]
pub struct Incident {
    pub class: char,
    pub spec: FailureSpec,
}

/// Timed iterations a transparent run of `incidents` incidents needs:
/// incidents sit two iterations apart (the step after a fault can still
/// carry recovery — in roll-forward the healthy rank pays there), and
/// one healthy iteration follows the last.
pub fn transparent_steps(incidents: usize) -> u64 {
    2 * incidents as u64 + 1
}

/// `rounds` rounds of one incident per class (or the first `take` of
/// them): class order, iteration parity and victims drawn from `seed`.
pub fn transparent_schedule(seed: u64, rounds: u64, take: usize) -> Vec<Incident> {
    let mut rng = DetRng::new(seed).derive(0xFA17);
    let jitter = rng.below(2);
    let mut out = Vec::new();
    for round in 0..rounds {
        let mut order = CLASSES;
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for (slot, (class, kind, phase)) in order.into_iter().take(take).enumerate() {
            let iteration = WARMUP_STEPS + 2 * (round * take as u64 + slot as u64) + jitter;
            let victim = RankId(rng.below(WORLD as u64) as u32);
            out.push(Incident {
                class,
                spec: FailureSpec::new(iteration, phase, victim, kind),
            });
        }
    }
    out
}

/// One incident per entry of `kinds` for a job-runner workload of
/// `iters` iterations, at iterations congruent to `offset` modulo `every`
/// and past the first checkpoint interval, so the work re-executed after
/// a restart does not depend on the seed. Those iterations are cut into
/// as many consecutive groups as there are incidents and the seed picks
/// one from each, with its victim.
pub fn runner_schedule(
    seed: u64,
    stream: u64,
    iters: u64,
    every: u64,
    offset: u64,
    kinds: &[(FailureKind, Phase)],
) -> Vec<FailureSpec> {
    let mut rng = DetRng::new(seed).derive(stream);
    let slots: Vec<u64> = (every.max(1)..iters - 1)
        .filter(|it| it % every == offset % every)
        .collect();
    slots
        .chunks(slots.len() / kinds.len())
        .zip(kinds)
        .map(|(group, (kind, phase))| {
            let iteration = group[rng.below(group.len() as u64) as usize];
            let victim = RankId(rng.below(WORLD as u64) as u32);
            FailureSpec::new(iteration, *phase, victim, *kind)
        })
        .collect()
}

/// A synthetic `TrainState` of about `bytes` of payload — three quarters
/// parameters, one quarter optimizer moments — with contents from
/// `seed`. Every value is a finite float in [1, 2), so round trips are
/// bit-exact.
pub fn synthetic_state(bytes: usize, seed: u64) -> TrainState {
    let elems = bytes / 4;
    let params = elems / 4 * 3;
    let fill = |n: usize, stream: u64| -> Vec<f32> {
        let mut s = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                f32::from_bits(0x3F80_0000 | ((s >> 40) as u32 & 0x007F_FFFF))
            })
            .collect()
    };
    TrainState {
        iteration: 0,
        opt_t: 0,
        buffers: vec![
            ("model.params".into(), BufferTag::Param, fill(params, 1)),
            (
                "optim.moments".into(),
                BufferTag::OptimState,
                fill(elems - params, 2),
            ),
        ],
        logical_bytes: bytes as u64,
    }
}

/// One optimizer step of the synthetic state: advances the iteration
/// and rewrites the leading `frac` of the optimizer moments, so that
/// share of a delta checkpoint's shards changes and the rest is reused.
pub fn touch_state(state: &mut TrainState, frac: f64) {
    state.iteration += 1;
    state.opt_t += 1;
    if let Some((_, _, data)) = state
        .buffers
        .iter_mut()
        .find(|(_, tag, _)| *tag == BufferTag::OptimState)
    {
        let n = (data.len() as f64 * frac) as usize;
        for v in &mut data[..n] {
            *v += 0.5;
        }
    }
}
