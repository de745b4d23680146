//! Pinned wire bytes of the checkpoint writer and the recovery stream:
//! the length and CRC-64 of every store object of one sharded checkpoint
//! and of every frame of one `send_state` stream, for a seeded
//! `TrainState`. Shards are at least 13 KiB so that `crc64` takes its
//! multi-lane path on every one of them. A faster kernel or a leaner
//! encoder must leave every number below unchanged; a change to one of
//! them is a wire-format change.

use cluster::SharedStore;
use collectives::CommWorld;
use dltrain::TrainState;
use jitckpt::checkpoint::{self, CkptKind, ShardConfig};
use jitckpt::stream::{send_state, TAG_STATE_STREAM};
use simcore::codec::crc64;
use simcore::cost::CostModel;
use simcore::rng::DetRng;
use simcore::time::ClockBoard;
use simcore::{JobId, RankId};
use simgpu::BufferTag;
use std::sync::Arc;
use std::time::Duration;

fn seeded_state() -> TrainState {
    let mut rng = DetRng::new(0x00C0_FFEE);
    let mut buf = |n: usize| -> Vec<f32> {
        (0..n)
            .map(|_| f32::from_bits((rng.next_u64() >> 32) as u32))
            .collect()
    };
    TrainState {
        iteration: 41,
        opt_t: 40,
        buffers: vec![
            ("model.w".into(), BufferTag::Param, buf(20_000)),
            ("model.b".into(), BufferTag::Param, buf(333)),
            ("adam.m".into(), BufferTag::OptimState, buf(9_001)),
        ],
        logical_bytes: 117_336,
    }
}

/// `(path, len, crc64)` of every object one full checkpoint writes at
/// 13 337-byte shards: nine shards (the last one partial) and the sidecar.
const CHECKPOINT_OBJECTS: &[(&str, usize, u64)] = &[
    (
        "ckpt/job3/jit/it0000000041/s0p0/dp1/meta",
        267,
        0x4039acf4f720dc50,
    ),
    (
        "ckpt/job3/jit/it0000000041/s0p0/dp1/shard00000",
        13337,
        0xe14970042f5f544f,
    ),
    (
        "ckpt/job3/jit/it0000000041/s0p0/dp1/shard00001",
        13337,
        0x3b023cf82fcebb42,
    ),
    (
        "ckpt/job3/jit/it0000000041/s0p0/dp1/shard00002",
        13337,
        0xe05bb808b9d68ee2,
    ),
    (
        "ckpt/job3/jit/it0000000041/s0p0/dp1/shard00003",
        13337,
        0xd0051c07bd13eadc,
    ),
    (
        "ckpt/job3/jit/it0000000041/s0p0/dp1/shard00004",
        13337,
        0xd22b37bfd159ab5e,
    ),
    (
        "ckpt/job3/jit/it0000000041/s0p0/dp1/shard00005",
        13337,
        0x2f755bc4080a2f61,
    ),
    (
        "ckpt/job3/jit/it0000000041/s0p0/dp1/shard00006",
        13337,
        0xc6c88fe1290a56a2,
    ),
    (
        "ckpt/job3/jit/it0000000041/s0p0/dp1/shard00007",
        13337,
        0x72286f6080b7955a,
    ),
    (
        "ckpt/job3/jit/it0000000041/s0p0/dp1/shard00008",
        10739,
        0x96004217ca9e0885,
    ),
];

#[test]
fn sharded_checkpoint_objects_are_pinned() {
    let store = SharedStore::new();
    let state = seeded_state();
    let cfg = ShardConfig {
        shard_bytes: 13_337,
        workers: 1,
        delta: false,
        ..ShardConfig::default()
    };
    checkpoint::write_checkpoint_with(
        &store,
        JobId(3),
        CkptKind::Jit,
        RankId(1),
        0,
        0,
        1,
        &state,
        &cfg,
    )
    .unwrap();
    let mut objects = store.list("ckpt/");
    objects.sort();
    let got: Vec<(String, usize, u64)> = objects
        .into_iter()
        .map(|path| {
            let obj = store.get(&path).unwrap();
            (path, obj.len(), crc64(&obj))
        })
        .collect();
    let want: Vec<(String, usize, u64)> = CHECKPOINT_OBJECTS
        .iter()
        .map(|&(p, l, c)| (p.to_string(), l, c))
        .collect();
    assert_eq!(got, want);
}

/// `(len, crc64)` of every frame `send_state` emits at 65 543-byte
/// shards: the framed preamble, then two shard frames.
const STREAM_FRAMES: &[(usize, u64)] = &[
    (44, 0xf91b76e22f9cfaee),
    (65_567, 0x262dce930296f3aa),
    (51_916, 0x5c8a18f380bd5f71),
];

#[test]
fn send_state_frames_are_pinned() {
    let clock = Arc::new(ClockBoard::new(2));
    let world = CommWorld::new(clock, CostModel::v100(), 8);
    let cost = CostModel::v100();
    let state = seeded_state();
    let header = send_state(&world, &cost, RankId(0), 0, RankId(1), true, &state, 65_543).unwrap();
    let mut got = Vec::new();
    for seq in 0..=header.n_shards {
        let frame = world
            .recv_bytes(
                RankId(0),
                RankId(1),
                1,
                TAG_STATE_STREAM,
                seq,
                Duration::ZERO,
            )
            .unwrap();
        got.push((frame.len(), crc64(&frame)));
    }
    assert_eq!(got, STREAM_FRAMES);
}
