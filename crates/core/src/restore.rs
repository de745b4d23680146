//! The parallel restore plane — the read-side counterpart of the
//! sharded write pool and the write-behind pipeline.
//!
//! The paper's §5 wasted-work model is dominated by *recovery* latency,
//! yet the serial reader ([`checkpoint::read_checkpoint`]) issues one
//! blocking `store.get` per shard and CRC-verifies inline: a 16-shard
//! restore over a millisecond-latency object store pays 16 round-trips
//! back to back. This module restores the same checkpoints through a
//! bounded **fetch pool** feeding an in-order **fan-in verifier**:
//!
//! * **Concurrent fetch** — dedicated fetcher threads claim shard
//!   indices from an atomic cursor and issue `get`s in parallel. The
//!   pool is auto-sized like the write side
//!   ([`checkpoint::default_shard_workers`]) and additionally capped by
//!   the backend's [`StorageBackend::read_parallelism`] hint, so a
//!   transfer-slot-limited [`SimObjectStore`] is never oversubscribed
//!   (extra fetchers would just park on the slot condvar). A hint of 1
//!   — the in-memory [`SharedStore`](cluster::SharedStore), where a
//!   pool measures slower than serial — fetches inline on the calling
//!   thread, no thread spawned.
//! * **Overlapped verify/decode** — the calling thread consumes shard
//!   slots strictly in index order, CRC-verifying and appending shard
//!   `k` while fetchers pull `k+1..`. Assembly order — and therefore the
//!   reassembled byte stream — is bit-identical to the serial reader's.
//! * **Delta-chain prefetch** — `base_iteration` references are
//!   collapsed transitively at write time, so one sidecar read resolves
//!   *every* shard's physical holder up front; base and delta shards are
//!   fetched in a single wave instead of chain-depth round-trips.
//! * **Multi-source striping** — against a
//!   [`PlacedStore`](../../coordinator/struct.PlacedStore.html) each
//!   shard's `get` routes to its ring-placed node (with the epoch-history
//!   fallback inside the backend), so a restore stripes across the fleet
//!   and keeps working while `add_node`/`remove_node`/`repair()`
//!   rebalance underneath.
//!
//! [`load_for_rank_parallel`] is where *which* checkpoint to read is
//! decided and read in one pass: [`checkpoint::resolve`] validates
//! candidates newest-first through this plane and the verified read of
//! the caller's cell is the restore.
//!
//! Failure semantics are the serial reader's, by construction: the
//! per-shard validation and the aggregated blame-every-bad-shard-by-index
//! error are produced by the same helpers both paths share
//! ([`checkpoint::verify_shard`] / [`checkpoint::finish_restore`]).
//!
//! [`SimObjectStore`]: ../../coordinator/struct.SimObjectStore.html

use bytes::{BufMut, BytesMut};
use cluster::StorageBackend;
use dltrain::TrainState;
use simcore::layout::ParallelLayout;
use simcore::sync::{Condvar, Mutex};
use simcore::{JobId, RankId, SimError, SimResult};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::checkpoint::{self, CheckpointMeta, CkptKind};

/// Tuning knobs for the parallel restore plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreConfig {
    /// Fetch-pool width ceiling. The effective pool is further capped by
    /// the backend's [`StorageBackend::read_parallelism`] hint and by
    /// the shard count (extra fetchers would exit without work).
    pub fetchers: usize,
}

impl Default for RestoreConfig {
    fn default() -> Self {
        RestoreConfig {
            fetchers: checkpoint::default_shard_workers(),
        }
    }
}

/// What one restore actually did — the coordinator aggregates these into
/// per-job restore-amplification reporting.
///
/// `shards`, `fetchers` and `prefetch_depth` describe the checkpoint that
/// was returned. `shard_reads`, `bytes_fetched`, `fallback_hits` and
/// `generations_probed` are *traffic*: through
/// [`load_for_rank_parallel`] they cover every read resolution issued on
/// the restore's behalf — other cells' validation and generations that
/// turned out torn — not only the read whose state was kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Shards the sidecar listed.
    pub shards: usize,
    /// Width the shard fetch ran at (`1`: inline on the calling thread).
    pub fetchers: usize,
    /// Shard `get`s issued (sidecar reads excluded).
    pub shard_reads: u64,
    /// Payload bytes fetched and verified.
    pub bytes_fetched: u64,
    /// Distinct physical holder iterations fetched in the single wave:
    /// `1` for a full checkpoint, `1 + bases` down a delta chain.
    pub prefetch_depth: usize,
    /// Backend reads served off an older placement ring during this
    /// restore ([`StorageBackend::fallback_reads`] delta) — nonzero
    /// means the restore raced a rebalance and won.
    pub fallback_hits: u64,
    /// Checkpoint generations (iterations) read from: `1` for a direct
    /// read and for a healthy resolved restore; each newer generation
    /// resolution found torn, lost or rotted adds one.
    pub generations_probed: usize,
}

impl RestoreStats {
    /// Adds `other`'s traffic counters to this restore's totals.
    pub(crate) fn add_traffic(&mut self, other: &RestoreStats) {
        self.shard_reads += other.shard_reads;
        self.bytes_fetched += other.bytes_fetched;
        self.fallback_hits += other.fallback_hits;
    }
}

/// Index-addressed hand-off between the fetch pool and the in-order
/// verifier. Fetchers deposit each shard's `get` result (the `Bytes`
/// payload is `Arc`-backed — depositing is a refcount move, not a copy);
/// the verifier takes slots in index order, parking on the condvar when
/// it gets ahead of the fetch wave.
struct FanIn {
    slots: Mutex<Vec<Option<SimResult<bytes::Bytes>>>>,
    arrived: Condvar,
}

/// Effective fetch width for `n` shards against a backend whose
/// [`StorageBackend::read_parallelism`] is `hint`.
fn pool_width(hint: usize, n: usize, cfg: &RestoreConfig) -> usize {
    cfg.fetchers.min(hint).min(n).max(1)
}

/// Reads and fully validates one checkpoint through the parallel plane.
///
/// Equivalent to [`checkpoint::read_checkpoint`] — bit-identical state,
/// metadata, and error text — but shard objects are fetched by a bounded
/// concurrent pool while the calling thread verifies and assembles in
/// index order, and a delta chain's base shards are prefetched in the
/// same wave as the tip's own shards. When the effective width is 1 (a
/// backend whose reads gain nothing from concurrency, or a single shard)
/// the calling thread fetches inline and no thread is spawned.
#[allow(clippy::too_many_arguments)]
pub fn read_checkpoint_parallel<S: StorageBackend + ?Sized>(
    store: &S,
    job: JobId,
    kind: CkptKind,
    iteration: u64,
    stage: usize,
    part: usize,
    dp: usize,
    cfg: &RestoreConfig,
) -> SimResult<(TrainState, CheckpointMeta, RestoreStats)> {
    let (res, stats) = read_counted(store, job, kind, iteration, stage, part, dp, cfg);
    res.map(|(state, meta)| (state, meta, stats))
}

/// [`read_checkpoint_parallel`] reporting its traffic whether or not the
/// checkpoint validates: resolution charges a restore for the shards of
/// a generation it read and had to reject.
#[allow(clippy::too_many_arguments)]
pub(crate) fn read_counted<S: StorageBackend + ?Sized>(
    store: &S,
    job: JobId,
    kind: CkptKind,
    iteration: u64,
    stage: usize,
    part: usize,
    dp: usize,
    cfg: &RestoreConfig,
) -> (SimResult<(TrainState, CheckpointMeta)>, RestoreStats) {
    let mut stats = RestoreStats {
        generations_probed: 1,
        ..RestoreStats::default()
    };
    let prefix = checkpoint::checkpoint_prefix(job, kind, iteration, stage, part, dp);
    let meta = match checkpoint::read_meta(store, job, kind, iteration, stage, part, dp)
        .and_then(|meta| checkpoint::precheck_meta(&meta, &prefix).map(|()| meta))
    {
        Ok(meta) => meta,
        Err(e) => return (Err(e), stats),
    };
    let n = meta.shards.len();

    // Delta-chain prefetch: references are collapsed at write time, so
    // one pass over the sidecar resolves every shard's physical holder —
    // base and tip shards become one fetch wave. An out-of-order sidecar
    // entry gets no path; it is blamed without being fetched, exactly as
    // in the serial reader.
    let mut wave: BTreeSet<u64> = BTreeSet::new();
    let sources: Vec<Option<(u64, String)>> = meta
        .shards
        .iter()
        .enumerate()
        .map(|(i, sm)| {
            (sm.index as usize == i).then(|| {
                let holder = sm.base_iteration.unwrap_or(meta.iteration);
                wave.insert(holder);
                let path = checkpoint::shard_path(job, kind, holder, stage, part, dp, sm.index);
                (holder, path)
            })
        })
        .collect();

    let fetchers = pool_width(store.read_parallelism(), n, cfg);
    let fallback_before = store.fallback_reads();
    stats.shards = n;
    stats.fetchers = fetchers;
    stats.prefetch_depth = wave.len();

    let mut bad: Vec<String> = Vec::new();
    let mut stream = BytesMut::with_capacity(meta.payload_len as usize);
    // In-order fan-in: verify + append shard `i`, fetched by `get(i)`.
    // Index order makes the reassembled stream bit-identical to the
    // serial reader's however the fetches were scheduled.
    let mut fan_in = |get: &mut dyn FnMut(usize, &str) -> SimResult<bytes::Bytes>| {
        for (i, sm) in meta.shards.iter().enumerate() {
            let Some((holder, path)) = &sources[i] else {
                bad.push(format!("shard {i}: sidecar index out of order"));
                continue;
            };
            stats.shard_reads += 1;
            match checkpoint::verify_shard(i, sm, *holder, get(i, path)) {
                Ok(obj) => {
                    stats.bytes_fetched += obj.len() as u64;
                    stream.put_slice(&obj);
                }
                Err(blame) => bad.push(blame),
            }
        }
    };

    if fetchers == 1 {
        fan_in(&mut |_, path| store.get(path));
    } else {
        let fan = FanIn {
            slots: Mutex::new((0..n).map(|_| None).collect()),
            arrived: Condvar::new(),
        };
        let cursor = AtomicUsize::new(0);
        // One fetcher's claim-fetch-deposit loop. The store `get` runs
        // with no lock held; the slot lock is taken only to deposit, and
        // the wake-up is issued while the guard is still held
        // (lost-wakeup rule).
        let fetch_loop = || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let Some((_, path)) = &sources[i] else {
                continue;
            };
            let res = store.get(path);
            let mut slots = fan.slots.lock();
            slots[i] = Some(res);
            fan.arrived.notify_all();
        };
        std::thread::scope(|scope| {
            let mut spawned = 0usize;
            for t in 0..fetchers {
                let ok = std::thread::Builder::new()
                    .name(format!("restore-fetch-{t}"))
                    .spawn_scoped(scope, fetch_loop)
                    .is_ok();
                if ok {
                    spawned += 1;
                }
            }
            if spawned == 0 {
                // Thread spawn refused (resource exhaustion): drain the
                // cursor inline — fully serial, still correct — rather
                // than deadlock waiting on slots nobody will fill.
                fetch_loop();
            }
            // Verify shard `i` while the pool is still fetching `i+1..`.
            fan_in(&mut |i, _| {
                let mut slots = fan.slots.lock();
                loop {
                    if let Some(res) = slots[i].take() {
                        break res;
                    }
                    fan.arrived.wait(&mut slots);
                }
            });
        });
    }

    stats.fallback_hits = store.fallback_reads().saturating_sub(fallback_before);
    (
        checkpoint::finish_restore(&prefix, meta, stream, bad),
        stats,
    )
}

/// Resolves and loads the checkpoint for `rank` in one pass:
/// [`checkpoint::resolve`] validates candidates newest-first through
/// this plane and the verified read of the rank's own cell *is* the
/// restore — a healthy single-cell restore costs one sidecar plus the
/// generation's shards. The store leg of the recovery fallback chain
/// ([`crate::stream::restore_with_fallback`]) routes through this.
pub fn load_for_rank_parallel<S: StorageBackend + ?Sized>(
    store: &S,
    job: JobId,
    layout: &ParallelLayout,
    rank: RankId,
    cfg: &RestoreConfig,
) -> SimResult<(TrainState, CheckpointMeta, RestoreStats)> {
    let coord = layout.coord(rank);
    let resolved = checkpoint::resolve(store, job, layout, Some((coord.stage, coord.part)), cfg)?;
    let (state, meta) = resolved.kept.ok_or_else(|| {
        SimError::Protocol(format!("{rank}'s cell is not part of the job's layout"))
    })?;
    Ok((state, meta, resolved.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{
        read_checkpoint, write_checkpoint_with, ShardConfig, DEFAULT_MAX_DELTA_CHAIN,
    };
    use cluster::SharedStore;
    use simgpu::BufferTag;

    fn big_state(it: u64, v: f32) -> TrainState {
        TrainState {
            iteration: it,
            opt_t: it as u32,
            buffers: vec![
                ("w".into(), BufferTag::Param, vec![v; 64]),
                ("m".into(), BufferTag::OptimState, vec![v * 2.0; 64]),
            ],
            logical_bytes: 512,
        }
    }

    const SMALL: ShardConfig = ShardConfig {
        shard_bytes: 64,
        workers: 3,
        delta: true,
        max_delta_chain: DEFAULT_MAX_DELTA_CHAIN,
    };

    #[test]
    fn parallel_round_trip_matches_serial() -> SimResult<()> {
        let store = SharedStore::new();
        let s = big_state(9, 0.5);
        write_checkpoint_with(
            &store,
            JobId(0),
            CkptKind::Jit,
            RankId(0),
            0,
            0,
            0,
            &s,
            &SMALL,
        )?;
        let (serial, sm) = read_checkpoint(&store, JobId(0), CkptKind::Jit, 9, 0, 0, 0)?;
        let (par, pm, stats) = read_checkpoint_parallel(
            &store,
            JobId(0),
            CkptKind::Jit,
            9,
            0,
            0,
            0,
            &RestoreConfig::default(),
        )?;
        assert_eq!(serial, par);
        assert_eq!(sm, pm);
        assert_eq!(stats.shards, sm.shards.len());
        assert_eq!(stats.shard_reads, sm.shards.len() as u64);
        assert_eq!(stats.bytes_fetched, sm.payload_len);
        assert_eq!(stats.prefetch_depth, 1, "full checkpoint: one holder");
        assert_eq!(stats.fallback_hits, 0);
        Ok(())
    }

    #[test]
    fn delta_chain_fetches_in_one_wave() -> SimResult<()> {
        let store = SharedStore::new();
        let mut s = big_state(9, 0.5);
        write_checkpoint_with(
            &store,
            JobId(0),
            CkptKind::Jit,
            RankId(0),
            0,
            0,
            0,
            &s,
            &SMALL,
        )?;
        s.iteration = 10;
        s.buffers[1].2[0] = 123.0;
        write_checkpoint_with(
            &store,
            JobId(0),
            CkptKind::Jit,
            RankId(0),
            0,
            0,
            0,
            &s,
            &SMALL,
        )?;
        let (par, pm, stats) = read_checkpoint_parallel(
            &store,
            JobId(0),
            CkptKind::Jit,
            10,
            0,
            0,
            0,
            &RestoreConfig::default(),
        )?;
        assert_eq!(par, s);
        assert!(pm.shards.iter().any(|m| m.base_iteration == Some(9)));
        assert_eq!(stats.prefetch_depth, 2, "tip + one base iteration");
        Ok(())
    }

    #[test]
    fn pool_width_respects_backend_hint_and_shard_count() {
        let cfg = RestoreConfig { fetchers: 12 };
        // Capped by shard count.
        assert_eq!(pool_width(16, 2, &cfg), 2);
        // Capped by the config.
        assert_eq!(pool_width(16, 64, &cfg), 12);
        // Capped by the backend's hint; the in-process map's is serial.
        assert_eq!(pool_width(3, 64, &cfg), 3);
        assert_eq!(SharedStore::new().read_parallelism(), 1);
        // Degenerate inputs still yield a worker.
        assert_eq!(pool_width(0, 0, &RestoreConfig { fetchers: 0 }), 1);
    }

    #[test]
    fn blame_messages_identical_to_serial_on_corruption() -> SimResult<()> {
        let store = SharedStore::new();
        let s = big_state(9, 0.5);
        write_checkpoint_with(
            &store,
            JobId(0),
            CkptKind::Jit,
            RankId(0),
            0,
            0,
            0,
            &s,
            &SMALL,
        )?;
        store.corrupt(checkpoint::shard_path(
            JobId(0),
            CkptKind::Jit,
            9,
            0,
            0,
            0,
            2,
        ))?;
        store.delete(checkpoint::shard_path(
            JobId(0),
            CkptKind::Jit,
            9,
            0,
            0,
            0,
            5,
        ));
        let serial = read_checkpoint(&store, JobId(0), CkptKind::Jit, 9, 0, 0, 0).unwrap_err();
        let parallel = read_checkpoint_parallel(
            &store,
            JobId(0),
            CkptKind::Jit,
            9,
            0,
            0,
            0,
            &RestoreConfig::default(),
        )
        .unwrap_err();
        assert_eq!(format!("{serial}"), format!("{parallel}"));
        let msg = format!("{parallel}");
        assert!(msg.contains("shard 2: checksum mismatch"), "{msg}");
        assert!(msg.contains("shard 5: missing object"), "{msg}");
        Ok(())
    }
}
