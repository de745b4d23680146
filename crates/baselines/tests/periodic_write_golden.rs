//! Pinned bytes of the periodic checkpoints a live job writes: the
//! path, length and CRC-64 of every store object the step hook puts
//! while a `tiny_dp(2)` job checkpoints every 3 iterations and restarts
//! once. The cell's dp-0 replica writes for both. Delta mode is off, so
//! each generation writes every shard; the 1001-byte shards split keys,
//! length prefixes and `f32`s across objects.

use baselines::{run_periodic_job, PeriodicConfig, PolicyKind};
use cluster::{Cluster, FailureInjector, Scheduler, SharedStore};
use jitckpt::checkpoint::ShardConfig;
use simcore::codec::crc64;
use simcore::cost::{CostModel, GpuGeneration};
use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::RankId;
use std::sync::Arc;

/// `(path, len, crc64)` of every object in the job's store.
const PERIODIC_OBJECTS: &[(&str, usize, u64)] = &[
    (
        "ckpt/job0/periodic/it0000000003/s0p0/dp0/meta",
        204,
        0x99d2adb51e91de4f,
    ),
    (
        "ckpt/job0/periodic/it0000000003/s0p0/dp0/shard00000",
        1001,
        0xf90c7cacdcd60672,
    ),
    (
        "ckpt/job0/periodic/it0000000003/s0p0/dp0/shard00001",
        1001,
        0xf54d913742d9dac1,
    ),
    (
        "ckpt/job0/periodic/it0000000003/s0p0/dp0/shard00002",
        1001,
        0xdfd8e85940275a0e,
    ),
    (
        "ckpt/job0/periodic/it0000000003/s0p0/dp0/shard00003",
        1001,
        0x5c09e370e52f904e,
    ),
    (
        "ckpt/job0/periodic/it0000000003/s0p0/dp0/shard00004",
        1001,
        0xc0c6f0c16c1092e6,
    ),
    (
        "ckpt/job0/periodic/it0000000003/s0p0/dp0/shard00005",
        994,
        0xf46f293b76b5c71c,
    ),
    (
        "ckpt/job0/periodic/it0000000006/s0p0/dp0/meta",
        204,
        0x7ac9a6dc7dd37d9b,
    ),
    (
        "ckpt/job0/periodic/it0000000006/s0p0/dp0/shard00000",
        1001,
        0xce4388cede246df3,
    ),
    (
        "ckpt/job0/periodic/it0000000006/s0p0/dp0/shard00001",
        1001,
        0x58662aa51dbd9a88,
    ),
    (
        "ckpt/job0/periodic/it0000000006/s0p0/dp0/shard00002",
        1001,
        0xbb8b67d3a42316f9,
    ),
    (
        "ckpt/job0/periodic/it0000000006/s0p0/dp0/shard00003",
        1001,
        0xe294081c0baeecdb,
    ),
    (
        "ckpt/job0/periodic/it0000000006/s0p0/dp0/shard00004",
        1001,
        0x813894d0d72f95c2,
    ),
    (
        "ckpt/job0/periodic/it0000000006/s0p0/dp0/shard00005",
        994,
        0x1b4e7a2f03971553,
    ),
];

#[test]
fn periodic_writes_from_a_live_device_are_pinned() {
    let store = Arc::new(SharedStore::new());
    let pcfg = PeriodicConfig {
        shards: ShardConfig {
            shard_bytes: 1001,
            delta: false,
            ..ShardConfig::default()
        },
        ..PeriodicConfig::every(PolicyKind::PcMem, 3)
    };
    let out = run_periodic_job(
        dltrain::TrainConfig::tiny_dp(2),
        CostModel::v100(),
        FailureInjector::with_specs(vec![FailureSpec::new(
            5,
            Phase::Backward,
            RankId(1),
            FailureKind::StickyCuda,
        )]),
        Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2))),
        store.clone(),
        pcfg,
        7,
    )
    .unwrap();
    assert_eq!(out.restarts, 1);
    let mut objects = store.list("");
    objects.sort();
    let got: Vec<(String, usize, u64)> = objects
        .into_iter()
        .map(|path| {
            let obj = store.get(&path).unwrap();
            (path, obj.len(), crc64(&obj))
        })
        .collect();
    let want: Vec<(String, usize, u64)> = PERIODIC_OBJECTS
        .iter()
        .map(|&(p, l, c)| (p.to_string(), l, c))
        .collect();
    assert_eq!(got, want);
}
