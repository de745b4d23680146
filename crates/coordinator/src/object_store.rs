//! A simulated remote object store.
//!
//! [`SharedStore`](cluster::SharedStore) answers in nanoseconds; real
//! checkpoint backends (blob stores, NFS heads) answer in milliseconds,
//! meter bandwidth per connection, cap concurrent streams, and
//! occasionally lie — an acknowledged put that never becomes readable,
//! or a read that crawls. [`SimObjectStore`] wraps the in-memory store
//! with exactly those behaviors so the write-behind pipeline, the
//! coordinator's placement layer, and the recovery fallback chain can
//! be exercised (and benchmarked) against a backend that actually costs
//! something:
//!
//! * fixed per-op **latency** plus per-byte **throughput** delay,
//!   multiplied by a runtime-adjustable throttle (degraded-backend
//!   churn in benches);
//! * a bounded pool of **transfer slots** — more concurrent transfers
//!   than slots queue on a condvar, like connection limits do;
//! * **fault injection**: deterministic (seeded) probabilistic put
//!   loss, one-shot targeted loss by path prefix, slow-read multipliers,
//!   and pass-through to the inner store's torn-write hooks.
//!
//! All sleeps happen *outside* any lock: a stalled transfer occupies a
//! slot, never a mutex.

use bytes::Bytes;
use cluster::{SharedStore, StorageBackend};
use simcore::rng::DetRng;
use simcore::sync::{Condvar, Mutex};
use simcore::SimResult;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Behavior profile for a [`SimObjectStore`].
#[derive(Debug, Clone)]
pub struct ObjectStoreProfile {
    /// Fixed request latency per put.
    pub put_latency: Duration,
    /// Fixed request latency per get.
    pub get_latency: Duration,
    /// Per-stream transfer bandwidth, bytes/second. `0` = unmetered.
    pub bytes_per_sec: u64,
    /// Concurrent transfer slots (connection limit).
    pub parallel_streams: usize,
    /// Out of 1000 puts, how many are acknowledged but silently lost.
    pub put_loss_per_mille: u32,
    /// Deterministic seed for the loss coin.
    pub seed: u64,
}

impl Default for ObjectStoreProfile {
    fn default() -> Self {
        ObjectStoreProfile {
            put_latency: Duration::from_micros(500),
            get_latency: Duration::from_micros(300),
            bytes_per_sec: 2_000_000_000, // ~2 GB/s per stream
            parallel_streams: 8,
            put_loss_per_mille: 0,
            seed: 0x0b1ec7,
        }
    }
}

impl ObjectStoreProfile {
    /// A profile with zero injected delay — behavioral tests that only
    /// care about fault semantics, not timing.
    pub fn instant() -> Self {
        ObjectStoreProfile {
            put_latency: Duration::ZERO,
            get_latency: Duration::ZERO,
            bytes_per_sec: 0,
            ..Default::default()
        }
    }
}

/// Transfer-slot semaphore (connection limit).
struct Slots {
    free: Mutex<usize>,
    freed: Condvar,
}

impl Slots {
    fn acquire(&self) {
        let mut free = self.free.lock();
        while *free == 0 {
            self.freed.wait(&mut free);
        }
        *free -= 1;
    }

    fn release(&self) {
        let mut free = self.free.lock();
        *free += 1;
        self.freed.notify_one();
    }
}

/// In-memory object store with injected latency, metered bandwidth,
/// bounded transfer streams, and lossy-put / slow-read faults.
pub struct SimObjectStore {
    inner: SharedStore,
    profile: ObjectStoreProfile,
    slots: Slots,
    /// Time multiplier applied to every delay; `set_throttle(50.0)`
    /// turns this backend into the degraded node of a churn scenario.
    /// Stored as micros-per-unit ×1e6 in an atomic for lock-free reads.
    throttle_milli: AtomicU64,
    /// Extra multiplier applied to reads only.
    slow_read_milli: AtomicU64,
    /// Loss coin.
    rng: Mutex<DetRng>,
    /// One-shot targeted loss: next put whose path starts with this
    /// prefix is acknowledged and dropped.
    lose_next: Mutex<Option<String>>,
    /// Puts acknowledged but never stored.
    lost_puts: AtomicU64,
}

impl SimObjectStore {
    /// Creates an empty store with the given behavior profile.
    pub fn new(profile: ObjectStoreProfile) -> SimObjectStore {
        SimObjectStore {
            slots: Slots {
                free: Mutex::new(profile.parallel_streams.max(1)),
                freed: Condvar::new(),
            },
            rng: Mutex::new(DetRng::new(profile.seed)),
            inner: SharedStore::new(),
            throttle_milli: AtomicU64::new(1000),
            slow_read_milli: AtomicU64::new(1000),
            lose_next: Mutex::new(None),
            lost_puts: AtomicU64::new(0),
            profile,
        }
    }

    /// Multiplies every injected delay by `factor` (1.0 = nominal).
    /// Takes effect for transfers that start after the call.
    pub fn set_throttle(&self, factor: f64) {
        let m = (factor.max(0.0) * 1000.0) as u64;
        self.throttle_milli.store(m.max(1), Ordering::Relaxed);
    }

    /// Multiplies read delays by `factor` on top of the throttle.
    pub fn set_slow_reads(&self, factor: f64) {
        let m = (factor.max(0.0) * 1000.0) as u64;
        self.slow_read_milli.store(m.max(1), Ordering::Relaxed);
    }

    /// Arms a one-shot silent loss: the next put under `prefix` is
    /// acknowledged but the object never becomes readable.
    pub fn lose_next_put_matching(&self, prefix: impl Into<String>) {
        *self.lose_next.lock() = Some(prefix.into());
    }

    /// Arms a one-shot torn write (stored object truncated to
    /// `fraction`) on the next put under `prefix` — forwarded to the
    /// inner store, which models it.
    pub fn tear_next_put_matching(&self, prefix: impl Into<String>, fraction: f64) {
        self.inner.fail_next_write_matching(prefix, fraction);
    }

    /// Flips stored object bytes (bit rot) — forwarded to the inner store.
    pub fn corrupt(&self, path: &str) -> SimResult<()> {
        self.inner.corrupt(path)
    }

    /// Puts acknowledged but silently dropped so far.
    pub fn lost_puts(&self) -> u64 {
        self.lost_puts.load(Ordering::Relaxed)
    }

    /// Models request latency + transfer time for `bytes`, under the
    /// current throttle. Called with a transfer slot held and no lock.
    fn delay(&self, base: Duration, bytes: usize, read: bool) {
        let mut nanos = base.as_nanos() as u64;
        if self.profile.bytes_per_sec > 0 {
            nanos += (bytes as u128 * 1_000_000_000 / self.profile.bytes_per_sec as u128) as u64;
        }
        let mut m = self.throttle_milli.load(Ordering::Relaxed);
        if read {
            m = m.saturating_mul(self.slow_read_milli.load(Ordering::Relaxed)) / 1000;
        }
        let scaled = nanos.saturating_mul(m) / 1000;
        if scaled > 0 {
            // jitlint::allow(virtual_time): the simulated object store
            // models an *external* service the sim clock does not govern;
            // real thread sleeps are what make uploader-pool overlap and
            // backpressure measurable in wall time (`benchmark/`'s
            // `coordinator_objstore` workload).
            std::thread::sleep(Duration::from_nanos(scaled));
        }
    }

    /// Decides whether this put is silently lost (one-shot arm first,
    /// then the seeded coin).
    fn put_is_lost(&self, path: &str) -> bool {
        {
            let mut armed = self.lose_next.lock();
            let matches = armed
                .as_ref()
                .map(|p| path.starts_with(p.as_str()))
                .unwrap_or(false);
            if matches {
                *armed = None;
                return true;
            }
        }
        if self.profile.put_loss_per_mille == 0 {
            return false;
        }
        self.rng.lock().below(1000) < self.profile.put_loss_per_mille as u64
    }
}

impl StorageBackend for SimObjectStore {
    fn put(&self, path: &str, data: Bytes) -> SimResult<()> {
        self.slots.acquire();
        self.delay(self.profile.put_latency, data.len(), false);
        let res = if self.put_is_lost(path) {
            self.lost_puts.fetch_add(1, Ordering::Relaxed);
            Ok(()) // acknowledged, never stored
        } else {
            self.inner.put(path, data)
        };
        self.slots.release();
        res
    }

    fn get(&self, path: &str) -> SimResult<Bytes> {
        self.slots.acquire();
        let len = self.inner.size_of(path).unwrap_or(0);
        self.delay(self.profile.get_latency, len, true);
        let res = self.inner.get(path);
        self.slots.release();
        res
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn delete(&self, path: &str) {
        self.inner.delete(path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }

    fn delete_prefix(&self, prefix: &str) -> usize {
        self.inner.delete_prefix(prefix)
    }

    fn read_count(&self) -> u64 {
        self.inner.read_count()
    }

    fn list_count(&self) -> u64 {
        self.inner.list_count()
    }

    fn read_parallelism(&self) -> usize {
        // More concurrent `get`s than transfer slots just queue on the
        // slot condvar; the slot count is the useful fetch width.
        self.profile.parallel_streams.max(1)
    }

    fn object_count(&self) -> usize {
        self.inner.len()
    }

    fn kind(&self) -> &'static str {
        "objstore"
    }
}
