//! Pinned bytes of the JIT checkpoints a live job writes: the path,
//! length and CRC-64 of every store object the user-level hang action
//! puts while a `tiny_dp(2)` job recovers from two faults. The state
//! comes off a trained device, not a hand-built `TrainState`, so this
//! pins the device → store encoding end to end. Shards of 1001 bytes
//! split keys, length prefixes and `f32`s across objects.

use cluster::{Cluster, FailureInjector, Scheduler, SharedStore};
use jitckpt::checkpoint::ShardConfig;
use jitckpt::user_level::run_user_level_job;
use jitckpt::JitUserConfig;
use simcore::codec::crc64;
use simcore::cost::{CostModel, GpuGeneration};
use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::RankId;
use std::sync::Arc;
use std::time::Duration;

/// `(path, len, crc64)` of every object in the job's store: rank 0's
/// checkpoint at iteration 3 (rank 1 failed there) and rank 1's at 7.
const JIT_OBJECTS: &[(&str, usize, u64)] = &[
    (
        "ckpt/job0/jit/it0000000003/s0p0/dp0/meta",
        204,
        0x99d2adb51e91de4f,
    ),
    (
        "ckpt/job0/jit/it0000000003/s0p0/dp0/shard00000",
        1001,
        0xf90c7cacdcd60672,
    ),
    (
        "ckpt/job0/jit/it0000000003/s0p0/dp0/shard00001",
        1001,
        0xf54d913742d9dac1,
    ),
    (
        "ckpt/job0/jit/it0000000003/s0p0/dp0/shard00002",
        1001,
        0xdfd8e85940275a0e,
    ),
    (
        "ckpt/job0/jit/it0000000003/s0p0/dp0/shard00003",
        1001,
        0x5c09e370e52f904e,
    ),
    (
        "ckpt/job0/jit/it0000000003/s0p0/dp0/shard00004",
        1001,
        0xc0c6f0c16c1092e6,
    ),
    (
        "ckpt/job0/jit/it0000000003/s0p0/dp0/shard00005",
        994,
        0xf46f293b76b5c71c,
    ),
    (
        "ckpt/job0/jit/it0000000007/s0p0/dp1/meta",
        204,
        0xe44f3484041be300,
    ),
    (
        "ckpt/job0/jit/it0000000007/s0p0/dp1/shard00000",
        1001,
        0xdc9fe572277911f5,
    ),
    (
        "ckpt/job0/jit/it0000000007/s0p0/dp1/shard00001",
        1001,
        0xce467dfa20ea5852,
    ),
    (
        "ckpt/job0/jit/it0000000007/s0p0/dp1/shard00002",
        1001,
        0xb79f3ce22e259d2f,
    ),
    (
        "ckpt/job0/jit/it0000000007/s0p0/dp1/shard00003",
        1001,
        0x5565fad59df92153,
    ),
    (
        "ckpt/job0/jit/it0000000007/s0p0/dp1/shard00004",
        1001,
        0x0bedb3bb75f7f740,
    ),
    (
        "ckpt/job0/jit/it0000000007/s0p0/dp1/shard00005",
        994,
        0xf274a1af879911c1,
    ),
];

#[test]
fn jit_writes_from_a_live_device_are_pinned() {
    let store = Arc::new(SharedStore::new());
    let jit = JitUserConfig {
        watchdog_timeout: Duration::from_secs(30),
        shards: ShardConfig {
            shard_bytes: 1001,
            ..ShardConfig::default()
        },
        ..JitUserConfig::default()
    };
    let out = run_user_level_job(
        dltrain::TrainConfig::tiny_dp(2),
        CostModel::v100(),
        FailureInjector::with_specs(vec![
            FailureSpec::new(3, Phase::Backward, RankId(1), FailureKind::StickyCuda),
            FailureSpec::new(7, Phase::Forward, RankId(0), FailureKind::GpuHardware),
        ]),
        Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2))),
        store.clone(),
        jit,
        8,
    )
    .unwrap();
    assert_eq!(out.restarts, 2);
    let mut objects = store.list("");
    objects.sort();
    let got: Vec<(String, usize, u64)> = objects
        .into_iter()
        .map(|path| {
            let obj = store.get(&path).unwrap();
            (path, obj.len(), crc64(&obj))
        })
        .collect();
    let want: Vec<(String, usize, u64)> = JIT_OBJECTS
        .iter()
        .map(|&(p, l, c)| (p.to_string(), l, c))
        .collect();
    assert_eq!(got, want);
}
