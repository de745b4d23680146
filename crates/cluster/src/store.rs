//! The shared checkpoint store.
//!
//! Stands in for the "shared file system or object store" of §3.2/§4.3:
//! rank-addressed paths, atomic-rename-style completion via metadata
//! sidecars (written by the JIT layer), listing by prefix for checkpoint
//! assembly, and fault hooks — a write can be truncated (simulating a rank
//! dying mid-checkpoint) or a stored object corrupted (bit rot), both of
//! which the metadata/CRC protocol must detect.
//!
//! Concurrency: objects live in `STRIPES`-way lock-striped maps keyed by
//! a path hash, so per-shard checkpoint puts arriving concurrently from
//! every rank of a job land on different stripes instead of serializing
//! through one global lock. Cross-stripe operations (`list`, `len`,
//! `delete_prefix`) take the stripes one at a time; they are listing-time
//! conveniences, not hot-path operations, and per-path atomicity is all
//! the checkpoint protocol requires (completion is signalled by the
//! metadata sidecar, never by store-wide state).

use bytes::Bytes;
use simcore::sync::{Mutex, RwLock};
use simcore::{SimError, SimResult};
use std::collections::BTreeMap;

/// The pluggable persistence plane behind the checkpoint pipeline.
///
/// Everything above the store — the sharded writer, delta reuse,
/// assembly, recovery fallback chains, the multi-job coordinator — is
/// written against this trait, so the same protocol runs unchanged over
/// the in-process striped map ([`SharedStore`]), a simulated object
/// store with latency/failure injection, or a placement layer that
/// routes paths across many nodes. Object-`dyn`-safe on purpose: the
/// coordinator holds heterogeneous backends as `Arc<dyn StorageBackend>`.
///
/// Contract (what the checkpoint protocol relies on):
///
/// * `put` replaces whole objects atomically per path — readers never
///   observe a mix of two writes to the same path (torn writes are
///   modeled as explicit injected faults, not races);
/// * `get` returns exactly the bytes of some prior completed `put`;
/// * `list` sees every object whose `put` returned before `list`
///   started, sorted by path;
/// * completion/visibility is signalled only through objects (the
///   metadata sidecar), never through store-wide state.
pub trait StorageBackend: Send + Sync {
    /// Writes an object, replacing any previous version.
    fn put(&self, path: &str, data: Bytes) -> SimResult<()>;

    /// Reads an object.
    fn get(&self, path: &str) -> SimResult<Bytes>;

    /// True if the object exists (not counted as a read).
    fn exists(&self, path: &str) -> bool;

    /// Deletes an object (idempotent).
    fn delete(&self, path: &str);

    /// Lists object paths with a prefix, sorted.
    fn list(&self, prefix: &str) -> Vec<String>;

    /// Removes all objects under a prefix, returning how many.
    fn delete_prefix(&self, prefix: &str) -> usize;

    /// Number of object reads (`get`) served so far.
    fn read_count(&self) -> u64;

    /// Number of prefix listings (`list`) served so far. Listings walk
    /// the whole keyspace on most backends, so callers that can avoid
    /// them (the delta writer's meta cache) count the savings here.
    fn list_count(&self) -> u64 {
        0
    }

    /// How many `get`s this backend can usefully serve concurrently —
    /// the parallel-restore fetch pool sizes itself to this hint.
    /// Transfer-slot-limited backends report their slot count; placement
    /// layers report the fleet-wide sum. Default: serial.
    fn read_parallelism(&self) -> usize {
        1
    }

    /// Reads that were *not* served by the object's current-ring home —
    /// e.g. a placement layer finding bytes on a previous epoch's node
    /// after a rebalance. Always `0` for flat backends.
    fn fallback_reads(&self) -> u64 {
        0
    }

    /// Total object count.
    fn object_count(&self) -> usize;

    /// Short human label for reports (`"mem"`, `"objstore"`, …).
    fn kind(&self) -> &'static str;
}

impl StorageBackend for SharedStore {
    fn put(&self, path: &str, data: Bytes) -> SimResult<()> {
        SharedStore::put(self, path, data)
    }

    fn get(&self, path: &str) -> SimResult<Bytes> {
        SharedStore::get(self, path)
    }

    fn exists(&self, path: &str) -> bool {
        SharedStore::exists(self, path)
    }

    fn delete(&self, path: &str) {
        SharedStore::delete(self, path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        SharedStore::list(self, prefix)
    }

    fn delete_prefix(&self, prefix: &str) -> usize {
        SharedStore::delete_prefix(self, prefix)
    }

    fn read_count(&self) -> u64 {
        SharedStore::read_count(self)
    }

    fn list_count(&self) -> u64 {
        SharedStore::list_count(self)
    }

    // `read_parallelism` stays at the trait's serial default: a `get` is
    // a map lookup and a refcount bump, and a fetch pool measures
    // 0.53–0.72× serial on it (PR 10's restore matrix, EXPERIMENTS.md).

    fn object_count(&self) -> usize {
        self.len()
    }

    fn kind(&self) -> &'static str {
        "mem"
    }
}

/// Shared ownership of a backend is still a backend: coordinators hand
/// `Arc`s of one store to many jobs and pipeline workers.
impl<T: StorageBackend + ?Sized> StorageBackend for std::sync::Arc<T> {
    fn put(&self, path: &str, data: Bytes) -> SimResult<()> {
        (**self).put(path, data)
    }

    fn get(&self, path: &str) -> SimResult<Bytes> {
        (**self).get(path)
    }

    fn exists(&self, path: &str) -> bool {
        (**self).exists(path)
    }

    fn delete(&self, path: &str) {
        (**self).delete(path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        (**self).list(prefix)
    }

    fn delete_prefix(&self, prefix: &str) -> usize {
        (**self).delete_prefix(prefix)
    }

    fn read_count(&self) -> u64 {
        (**self).read_count()
    }

    fn list_count(&self) -> u64 {
        (**self).list_count()
    }

    fn read_parallelism(&self) -> usize {
        (**self).read_parallelism()
    }

    fn fallback_reads(&self) -> u64 {
        (**self).fallback_reads()
    }

    fn object_count(&self) -> usize {
        (**self).object_count()
    }

    fn kind(&self) -> &'static str {
        (**self).kind()
    }
}

/// Number of lock stripes. A small power of two: enough to de-serialize
/// the per-shard puts of a whole job's ranks, small enough to keep
/// cross-stripe scans cheap.
const STRIPES: usize = 16;

/// An armed one-shot write fault.
#[derive(Debug, Clone)]
struct WriteFault {
    /// Fraction of the payload that survives.
    fraction: f64,
    /// Only paths starting with this prefix trip the fault; `None`
    /// matches any path (the legacy "next put" behavior).
    prefix: Option<String>,
}

/// In-memory shared object store with fault injection.
#[derive(Debug, Default)]
pub struct SharedStore {
    stripes: [RwLock<BTreeMap<String, Bytes>>; STRIPES],
    /// When set, the next `put` matching the fault's path prefix stores
    /// only a fraction of its payload (simulates a writer crashing
    /// mid-write), then clears.
    truncate_next: Mutex<Option<WriteFault>>,
    /// Number of `get` calls served (object reads). Tests and benches use
    /// this to observe store traffic — e.g. that streamed replica
    /// recovery reads each checkpoint once instead of once per rank.
    reads: std::sync::atomic::AtomicU64,
    /// Number of `list` calls served (full keyspace walks). The delta
    /// writer's meta cache exists to shrink this; the bench reports it.
    lists: std::sync::atomic::AtomicU64,
}

impl SharedStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        SharedStore::default()
    }

    /// FNV-1a stripe selector: deterministic, cheap, well-spread for the
    /// slash-delimited checkpoint paths.
    fn stripe_of(path: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in path.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        (h % STRIPES as u64) as usize
    }

    fn stripe(&self, path: &str) -> &RwLock<BTreeMap<String, Bytes>> {
        &self.stripes[Self::stripe_of(path)]
    }

    /// Applies (and disarms) the truncation fault if it matches `path`.
    fn apply_fault(&self, path: &str, data: Bytes) -> Bytes {
        let mut slot = self.truncate_next.lock();
        let matches = slot
            .as_ref()
            .map(|f| f.prefix.as_deref().is_none_or(|p| path.starts_with(p)))
            .unwrap_or(false);
        if !matches {
            return data;
        }
        let fault = match slot.take() {
            Some(f) => f,
            None => return data,
        };
        let keep = ((data.len() as f64) * fault.fraction) as usize;
        data.slice(..keep.min(data.len()))
    }

    /// Writes an object (replacing any previous version).
    pub fn put(&self, path: impl AsRef<str>, data: Bytes) -> SimResult<()> {
        let path = path.as_ref();
        let data = self.apply_fault(path, data);
        let mut objects = self.stripe(path).write();
        // Hot path: replace in place without re-allocating the key when
        // the object already exists (checkpoints overwrite their own
        // paths every generation).
        match objects.get_mut(path) {
            Some(slot) => *slot = data,
            None => {
                objects.insert(path.to_string(), data);
            }
        }
        Ok(())
    }

    /// Reads an object.
    pub fn get(&self, path: impl AsRef<str>) -> SimResult<Bytes> {
        let path = path.as_ref();
        self.reads
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.stripe(path)
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| SimError::Storage(format!("no object at {path}")))
    }

    /// Number of object reads served so far.
    pub fn read_count(&self) -> u64 {
        self.reads.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// True if the object exists.
    pub fn exists(&self, path: impl AsRef<str>) -> bool {
        let path = path.as_ref();
        self.stripe(path).read().contains_key(path)
    }

    /// Deletes an object (idempotent).
    pub fn delete(&self, path: impl AsRef<str>) {
        let path = path.as_ref();
        self.stripe(path).write().remove(path);
    }

    /// Number of `list` calls served so far.
    pub fn list_count(&self) -> u64 {
        self.lists.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Lists object paths with a prefix, sorted.
    pub fn list(&self, prefix: impl AsRef<str>) -> Vec<String> {
        let prefix = prefix.as_ref();
        self.lists
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut out: Vec<String> = Vec::new();
        for stripe in &self.stripes {
            out.extend(
                stripe
                    .read()
                    .keys()
                    .filter(|k| k.starts_with(prefix))
                    .cloned(),
            );
        }
        out.sort_unstable();
        out
    }

    /// Total object count.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.read().len()).sum()
    }

    /// True when the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.stripes.iter().all(|s| s.read().is_empty())
    }

    /// Size in bytes of an object.
    pub fn size_of(&self, path: impl AsRef<str>) -> SimResult<usize> {
        Ok(self.get(path)?.len())
    }

    /// Arms a one-shot fault: the next `put` (of any path) keeps only
    /// `fraction` of its payload (a writer crash mid-checkpoint).
    pub fn fail_next_write(&self, fraction: f64) {
        *self.truncate_next.lock() = Some(WriteFault {
            fraction: fraction.clamp(0.0, 1.0),
            prefix: None,
        });
    }

    /// Arms a one-shot *targeted* fault: the next `put` whose path starts
    /// with `prefix` keeps only `fraction` of its payload; puts of other
    /// paths pass through untouched and leave the fault armed. Under
    /// multi-shard checkpoint writes this is what lets a test
    /// deterministically tear one specific shard (or the metadata
    /// sidecar) while its siblings land whole.
    pub fn fail_next_write_matching(&self, prefix: impl Into<String>, fraction: f64) {
        *self.truncate_next.lock() = Some(WriteFault {
            fraction: fraction.clamp(0.0, 1.0),
            prefix: Some(prefix.into()),
        });
    }

    /// Corrupts one byte of a stored object (bit rot / partial overwrite).
    pub fn corrupt(&self, path: impl AsRef<str>) -> SimResult<()> {
        let path = path.as_ref();
        let mut objects = self.stripe(path).write();
        let data = objects
            .get(path)
            .ok_or_else(|| SimError::Storage(format!("no object at {path}")))?;
        if data.is_empty() {
            return Ok(());
        }
        let mut v = data.to_vec();
        let mid = v.len() / 2;
        v[mid] ^= 0xFF;
        match objects.get_mut(path) {
            Some(slot) => *slot = Bytes::from(v),
            None => {
                objects.insert(path.to_string(), Bytes::from(v));
            }
        }
        Ok(())
    }

    /// Removes all objects under a prefix (garbage collection of stale
    /// checkpoints).
    pub fn delete_prefix(&self, prefix: impl AsRef<str>) -> usize {
        let prefix = prefix.as_ref();
        let mut n = 0;
        for stripe in &self.stripes {
            let mut objects = stripe.write();
            let victims: Vec<String> = objects
                .keys()
                .filter(|k| k.starts_with(prefix))
                .cloned()
                .collect();
            n += victims.len();
            for v in victims {
                objects.remove(&v);
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() -> SimResult<()> {
        let s = SharedStore::new();
        s.put("ckpt/rank0/data", Bytes::from_static(b"hello"))?;
        assert_eq!(s.get("ckpt/rank0/data")?, Bytes::from_static(b"hello"));
        assert!(s.exists("ckpt/rank0/data"));
        assert!(!s.exists("ckpt/rank1/data"));
        Ok(())
    }

    #[test]
    fn owned_and_borrowed_keys_both_work() -> SimResult<()> {
        let s = SharedStore::new();
        s.put(String::from("a/b"), Bytes::from_static(b"x"))?;
        assert_eq!(s.get("a/b")?, Bytes::from_static(b"x"));
        assert_eq!(s.get(String::from("a/b"))?, Bytes::from_static(b"x"));
        Ok(())
    }

    #[test]
    fn missing_object_errors() {
        let s = SharedStore::new();
        assert!(matches!(s.get("nope"), Err(SimError::Storage(_))));
    }

    #[test]
    fn list_by_prefix_sorted() -> SimResult<()> {
        let s = SharedStore::new();
        s.put("ckpt/it5/rank1", Bytes::new())?;
        s.put("ckpt/it5/rank0", Bytes::new())?;
        s.put("ckpt/it6/rank0", Bytes::new())?;
        let got = s.list("ckpt/it5/");
        assert_eq!(
            got,
            vec!["ckpt/it5/rank0".to_string(), "ckpt/it5/rank1".to_string()]
        );
        Ok(())
    }

    #[test]
    fn list_spans_all_stripes() -> SimResult<()> {
        // Many keys with a shared prefix hash to many different stripes;
        // list must still see every one of them, in sorted order.
        let s = SharedStore::new();
        let mut expect = Vec::new();
        for i in 0..200 {
            let path = format!("ckpt/it7/shard{i:05}");
            s.put(&path, Bytes::new())?;
            expect.push(path);
        }
        expect.sort_unstable();
        assert_eq!(s.list("ckpt/it7/"), expect);
        assert_eq!(s.len(), 200);
        assert_eq!(s.delete_prefix("ckpt/it7/"), 200);
        assert!(s.is_empty());
        Ok(())
    }

    #[test]
    fn truncated_write_loses_tail() -> SimResult<()> {
        let s = SharedStore::new();
        s.fail_next_write(0.5);
        s.put("x", Bytes::from(vec![1u8; 100]))?;
        assert_eq!(s.size_of("x")?, 50);
        // One-shot: subsequent writes are whole.
        s.put("y", Bytes::from(vec![1u8; 100]))?;
        assert_eq!(s.size_of("y")?, 100);
        Ok(())
    }

    #[test]
    fn targeted_fault_skips_non_matching_paths() -> SimResult<()> {
        let s = SharedStore::new();
        s.fail_next_write_matching("ckpt/a/shard00002", 0.25);
        // Non-matching puts pass through whole and leave the fault armed.
        s.put("ckpt/a/shard00001", Bytes::from(vec![1u8; 100]))?;
        assert_eq!(s.size_of("ckpt/a/shard00001")?, 100);
        s.put("ckpt/a/shard00002", Bytes::from(vec![1u8; 100]))?;
        assert_eq!(s.size_of("ckpt/a/shard00002")?, 25);
        // Disarmed after firing.
        s.put("ckpt/a/shard00002", Bytes::from(vec![1u8; 100]))?;
        assert_eq!(s.size_of("ckpt/a/shard00002")?, 100);
        Ok(())
    }

    #[test]
    fn corrupt_flips_a_byte() -> SimResult<()> {
        let s = SharedStore::new();
        s.put("x", Bytes::from(vec![0u8; 10]))?;
        s.corrupt("x")?;
        let got = s.get("x")?;
        assert!(got.iter().any(|b| *b != 0));
        Ok(())
    }

    #[test]
    fn delete_prefix_collects_garbage() -> SimResult<()> {
        let s = SharedStore::new();
        s.put("ckpt/it5/a", Bytes::new())?;
        s.put("ckpt/it5/b", Bytes::new())?;
        s.put("ckpt/it6/a", Bytes::new())?;
        assert_eq!(s.delete_prefix("ckpt/it5/"), 2);
        assert_eq!(s.len(), 1);
        Ok(())
    }

    #[test]
    fn concurrent_puts_across_stripes() {
        // Smoke test: concurrent per-shard writers on distinct paths all
        // land (the striping must not lose or cross-wire writes).
        let s = std::sync::Arc::new(SharedStore::new());
        std::thread::scope(|scope| {
            for w in 0..8 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        let path = format!("ckpt/w{w}/shard{i:05}");
                        s.put(&path, Bytes::from(vec![w as u8; 16])).ok();
                    }
                });
            }
        });
        assert_eq!(s.len(), 8 * 50);
        for w in 0..8u8 {
            let got = s.get(&format!("ckpt/w{w}/shard00049")).ok();
            assert_eq!(got, Some(Bytes::from(vec![w; 16])));
        }
    }
}
