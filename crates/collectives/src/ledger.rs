//! In-network gradient replication: the passive chunk tap
//! (Checkmate-style, PAPERS.md).
//!
//! Every reduce-class collective already moves each rank's gradient
//! chunks through its ring peers, so by the time a generation completes,
//! rank *p* has held — at some hop — the fully-reduced bytes of its own
//! shard *p* **and** the near-complete partial of its ring successor's
//! shard *p+1*. A [`GradLedger`] attached to a member of a
//! [`Communicator`](crate::Communicator) pins exactly that coverage when
//! the data plane finalizes a generation: the shared result `Arc` plus
//! the two shard ranges this member is responsible for. Nothing extra is
//! sent and nothing is copied on the common path — the tap is an `Arc`
//! refcount bump at the existing fold points, and slices are only
//! materialized on the (rare) reconstruction path.
//!
//! On failure of member *r*, every shard of the generation's result is
//! still available from survivors: shard *s* from its owner *s*, or from
//! predecessor *s−1* (successor retention). The one unrecoverable shape
//! is *r* and its ring successor dying together — then shard *r+1* has
//! lost both holders and [`reconstruct_result`] reports the gap. No job
//! attaches a ledger; the tap and [`reconstruct_result`] stay for the
//! incident benchmark's ledger probe.
//!
//! Memory is bounded two ways, mirroring a real implementation that
//! stores only its two shard slices: the accounting charges
//! own-shard + successor-shard bytes per generation against
//! [`LedgerConfig::cap_bytes`] (FIFO eviction beyond it), and
//! [`GradLedger::begin_epoch`], which its owner calls at every minibatch
//! boundary, evicts generations older than
//! [`LedgerConfig::epoch_window`] iterations. (In-process the `Arc`
//! shares one result vector across all member ledgers, so the simulated
//! footprint is even smaller than the accounted one.)

use crate::comm::CollKind;
use simcore::sync::Mutex;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// Retention knobs for one rank's gradient ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerConfig {
    /// Cap on accounted retained-slice bytes (own + successor shard per
    /// generation). Oldest generations are evicted FIFO beyond it.
    pub cap_bytes: usize,
    /// Number of iteration epochs kept: `begin_epoch(e)` evicts every
    /// entry recorded at epoch `< e + 1 - epoch_window`. Clamped to at
    /// least 1 (the current epoch is always retainable).
    pub epoch_window: u64,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        LedgerConfig {
            // Two ~4 MiB bucket generations per epoch at two epochs of
            // window fit comfortably; 64 MiB leaves headroom for large
            // fused buckets.
            cap_bytes: 64 << 20,
            epoch_window: 2,
        }
    }
}

impl LedgerConfig {
    /// Unbounded-history configuration: every generation since attach is
    /// retained (deterministic full-replay recovery, small jobs/tests).
    pub fn unbounded() -> Self {
        LedgerConfig {
            cap_bytes: usize::MAX,
            epoch_window: u64::MAX,
        }
    }
}

/// Metadata of one retained generation (`data` stays private so reads go
/// through the range-checked `GradLedger::retained_slice`). Public
/// because [`GradLedger::manifest`] returns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerEntryMeta {
    /// Iteration epoch the generation was recorded in.
    pub epoch: u64,
    /// Collective generation number on the tapped communicator.
    pub gen: u64,
    /// Collective kind.
    pub kind: CollKind,
    /// Group size at record time.
    pub members: usize,
    /// This ledger's member position at record time.
    pub pos: usize,
    /// Full result length in elements.
    pub len: usize,
}

struct Entry {
    meta: LedgerEntryMeta,
    data: Arc<Vec<f32>>,
    /// Accounted bytes: own + successor shard slices.
    retained_bytes: usize,
}

struct Inner {
    epoch: u64,
    /// Insertion (generation) order — eviction pops from the front.
    entries: VecDeque<Entry>,
    pinned: usize,
}

/// One rank's passive gradient ledger. Attach with
/// [`Communicator::attach_ledger`](crate::Communicator::attach_ledger);
/// the data plane records every completed generation, this side only
/// evicts and serves reconstruction reads. The inner lock is a leaf:
/// no other lock is ever taken while it is held.
pub struct GradLedger {
    cfg: LedgerConfig,
    inner: Mutex<Inner>,
}

impl GradLedger {
    /// Creates a detached ledger with the given retention bounds.
    pub fn new(cfg: LedgerConfig) -> Arc<Self> {
        Arc::new(GradLedger {
            cfg: LedgerConfig {
                cap_bytes: cfg.cap_bytes,
                epoch_window: cfg.epoch_window.max(1),
            },
            inner: Mutex::new(Inner {
                epoch: 0,
                entries: VecDeque::new(),
                pinned: 0,
            }),
        })
    }

    /// Advances the iteration epoch (its owner's minibatch boundary) and
    /// evicts generations that fell out of the epoch window.
    pub fn begin_epoch(&self, epoch: u64) {
        let mut inner = self.inner.lock();
        inner.epoch = epoch;
        let keep_from = (epoch + 1).saturating_sub(self.cfg.epoch_window);
        while let Some(front) = inner.entries.front() {
            if front.meta.epoch >= keep_from {
                break;
            }
            let gone = front.retained_bytes;
            inner.entries.pop_front();
            inner.pinned -= gone;
        }
    }

    /// Records a completed generation (called by the tapped
    /// communicator's data plane). Idempotent per generation — replays
    /// and multi-member delivery record once. The `Arc` bump is the
    /// whole common-path cost; accounting charges only the two shard
    /// slices a physical implementation would store.
    pub fn record(
        &self,
        gen: u64,
        kind: CollKind,
        pos: usize,
        members: usize,
        data: Arc<Vec<f32>>,
    ) {
        let len = data.len();
        let retained_bytes = retained_ranges(len, members, pos)
            .iter()
            .map(|r| (r.end - r.start) * 4)
            .sum();
        let mut inner = self.inner.lock();
        if inner.entries.iter().any(|e| e.meta.gen == gen) {
            return;
        }
        let meta = LedgerEntryMeta {
            epoch: inner.epoch,
            gen,
            kind,
            members,
            pos,
            len,
        };
        inner.entries.push_back(Entry {
            meta,
            data,
            retained_bytes,
        });
        inner.pinned += retained_bytes;
        // Strict cap: evict oldest-first until under it, even if that
        // means the entry just recorded.
        while inner.pinned > self.cfg.cap_bytes {
            let Some(front) = inner.entries.pop_front() else {
                break;
            };
            inner.pinned -= front.retained_bytes;
        }
    }

    /// Accounted retained bytes currently pinned (always ≤
    /// [`LedgerConfig::cap_bytes`]).
    pub fn pinned_bytes(&self) -> usize {
        self.inner.lock().pinned
    }

    /// Snapshot of retained generations, oldest first.
    pub fn manifest(&self) -> Vec<LedgerEntryMeta> {
        self.inner.lock().entries.iter().map(|e| e.meta).collect()
    }

    /// Metadata of generation `gen`, if retained.
    pub(crate) fn entry_meta(&self, gen: u64) -> Option<LedgerEntryMeta> {
        self.inner
            .lock()
            .entries
            .iter()
            .find(|e| e.meta.gen == gen)
            .map(|e| e.meta)
    }

    /// Copies `range` of generation `gen`'s result — but only if the
    /// range lies inside a shard slice this member actually retained
    /// (own or ring-successor shard). Reads outside that coverage return
    /// `None`: the simulation never lets reconstruction peek at bytes a
    /// real rank would not hold.
    pub(crate) fn retained_slice(&self, gen: u64, range: Range<usize>) -> Option<Vec<f32>> {
        let inner = self.inner.lock();
        let entry = inner.entries.iter().find(|e| e.meta.gen == gen)?;
        let covered = retained_ranges(entry.meta.len, entry.meta.members, entry.meta.pos)
            .iter()
            .any(|r| r.start <= range.start && range.end <= r.end);
        if !covered || range.end > entry.data.len() {
            return None;
        }
        Some(entry.data[range.clone()].to_vec())
    }
}

/// The ring shard convention: `len` elements over `n` members, `base =
/// len / n` each with the remainder distributed to the first `len % n`
/// members (the chunked ring's reduce-scatter ownership map).
pub(crate) fn shard_range(len: usize, n: usize, s: usize) -> Range<usize> {
    debug_assert!(s < n);
    let base = len / n;
    let rem = len % n;
    let start = s * base + s.min(rem);
    let end = start + base + usize::from(s < rem);
    start..end
}

/// The shard ranges member `pos` retains: its own shard plus its ring
/// successor's (one range when they coincide, i.e. `n == 1`).
pub fn retained_ranges(len: usize, n: usize, pos: usize) -> Vec<Range<usize>> {
    if n == 0 || len == 0 {
        return Vec::new();
    }
    let succ = (pos + 1) % n;
    let own = shard_range(len, n, pos);
    if succ == pos {
        return vec![own];
    }
    vec![own, shard_range(len, n, succ)]
}

/// Reassembles the full result of generation `gen` from surviving
/// ledgers (`ledgers[p]` is member `p`'s ledger, `None` = dead). Shard
/// *s* comes from its owner or, when the owner died, from predecessor
/// *s−1*'s successor retention. Returns `None` on any coverage gap —
/// the "failed rank and its ring successor both died" shape. Named only
/// by the benchmark; it goes at ROADMAP item 3 step 1.
pub fn reconstruct_result(gen: u64, ledgers: &[Option<Arc<GradLedger>>]) -> Option<Vec<f32>> {
    let n = ledgers.len();
    let meta = ledgers.iter().flatten().find_map(|l| l.entry_meta(gen))?;
    debug_assert_eq!(meta.members, n, "ledger set must match group size");
    let mut out = vec![0.0f32; meta.len];
    for s in 0..n {
        let range = shard_range(meta.len, n, s);
        if range.is_empty() {
            continue;
        }
        let owner = ledgers[s]
            .as_ref()
            .and_then(|l| l.retained_slice(gen, range.clone()));
        let found = match owner {
            Some(v) => Some(v),
            None => ledgers[(s + n - 1) % n]
                .as_ref()
                .and_then(|l| l.retained_slice(gen, range.clone())),
        };
        out[range].copy_from_slice(&found?);
    }
    Some(out)
}

/// Reconstructs what the (dead) member `failed` received from generation
/// `gen`: the full result for all-reduce / all-gather / broadcast, its
/// own shard for reduce-scatter. `None` on coverage gaps, exactly as
/// [`reconstruct_result`].
pub fn reconstruct_member_output(
    gen: u64,
    failed: usize,
    ledgers: &[Option<Arc<GradLedger>>],
) -> Option<Vec<f32>> {
    let meta = ledgers.iter().flatten().find_map(|l| l.entry_meta(gen))?;
    let full = reconstruct_result(gen, ledgers)?;
    match meta.kind {
        CollKind::ReduceScatter => {
            let n = ledgers.len();
            Some(full[shard_range(meta.len, n, failed)].to_vec())
        }
        _ => Some(full),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_the_payload() {
        for len in [0usize, 1, 7, 8, 64, 65] {
            for n in 1usize..9 {
                let mut covered = 0;
                for s in 0..n {
                    let r = shard_range(len, n, s);
                    assert_eq!(r.start, covered, "shards must be contiguous");
                    covered = r.end;
                }
                assert_eq!(covered, len, "shards must cover the payload");
            }
        }
    }

    fn ledger_set(n: usize, len: usize, gen: u64) -> Vec<Option<Arc<GradLedger>>> {
        let data = Arc::new((0..len).map(|i| (i as f32).cos()).collect::<Vec<_>>());
        (0..n)
            .map(|p| {
                let l = GradLedger::new(LedgerConfig::default());
                l.record(gen, CollKind::AllReduce, p, n, data.clone());
                Some(l)
            })
            .collect()
    }

    #[test]
    fn single_failure_reconstructs_bitwise() {
        let n = 5;
        let len = 37;
        let data: Vec<f32> = (0..len).map(|i| (i as f32).cos()).collect();
        for failed in 0..n {
            let mut ledgers = ledger_set(n, len, 3);
            ledgers[failed] = None;
            let got = reconstruct_result(3, &ledgers).expect("one failure is always covered");
            let want: Vec<u32> = data.iter().map(|f| f.to_bits()).collect();
            let got: Vec<u32> = got.iter().map(|f| f.to_bits()).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn failed_successor_pair_is_a_coverage_gap() {
        let n = 4;
        let mut ledgers = ledger_set(n, 32, 0);
        ledgers[1] = None;
        ledgers[2] = None; // ring successor of 1: shard 2 lost both holders
        assert!(reconstruct_result(0, &ledgers).is_none());
        // Non-adjacent pair stays recoverable.
        let mut ledgers = ledger_set(n, 32, 0);
        ledgers[1] = None;
        ledgers[3] = None;
        assert!(reconstruct_result(0, &ledgers).is_some());
    }

    #[test]
    fn slice_refuses_unretained_ranges() {
        let n = 4;
        let len = 40;
        let l = GradLedger::new(LedgerConfig::default());
        l.record(7, CollKind::AllReduce, 1, n, Arc::new(vec![1.0; len]));
        // Own shard (10..20) and successor shard (20..30) are served.
        assert!(l.retained_slice(7, shard_range(len, n, 1)).is_some());
        assert!(l.retained_slice(7, shard_range(len, n, 2)).is_some());
        // Shard 0 and shard 3 were never held by member 1.
        assert!(l.retained_slice(7, shard_range(len, n, 0)).is_none());
        assert!(l.retained_slice(7, shard_range(len, n, 3)).is_none());
        // A range straddling the two retained shards is still two
        // physical slices in a real store; reject it too.
        assert!(l.retained_slice(7, 5..25).is_none());
    }

    #[test]
    fn cap_evicts_fifo_and_epoch_window_evicts_old_iterations() {
        let n = 2;
        let len = 64; // retained per gen: 2 shards × 32 × 4 B = 256 B
        let l = GradLedger::new(LedgerConfig {
            cap_bytes: 600,
            epoch_window: 2,
        });
        for gen in 0..5u64 {
            l.record(gen, CollKind::AllReduce, 0, n, Arc::new(vec![0.0; len]));
            assert!(l.pinned_bytes() <= 600);
        }
        // 600 / 256 → two generations survive, the newest ones.
        let gens: Vec<u64> = l.manifest().iter().map(|m| m.gen).collect();
        assert_eq!(gens, vec![3, 4]);
        l.begin_epoch(1);
        l.record(5, CollKind::AllReduce, 0, n, Arc::new(vec![0.0; len]));
        l.begin_epoch(2);
        // Window 2 keeps epochs {1, 2}: the epoch-0 gens are gone.
        let epochs: Vec<u64> = l.manifest().iter().map(|m| m.epoch).collect();
        assert_eq!(epochs, vec![1]);
        l.begin_epoch(3);
        assert_eq!(l.manifest().len(), 0);
        assert_eq!(l.pinned_bytes(), 0);
    }

    #[test]
    fn record_is_idempotent_per_generation() {
        let l = GradLedger::new(LedgerConfig::default());
        let data = Arc::new(vec![1.0f32; 16]);
        l.record(0, CollKind::AllReduce, 0, 2, data.clone());
        let pinned = l.pinned_bytes();
        l.record(0, CollKind::AllReduce, 0, 2, data);
        assert_eq!(l.pinned_bytes(), pinned);
        assert_eq!(l.manifest().len(), 1);
    }
}
