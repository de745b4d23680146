//! The simulated GPU device.
//!
//! [`Gpu`] executes [`DeviceCall`]s eagerly against real memory while
//! maintaining per-stream virtual timelines for ordering semantics and
//! returning the virtual duration of each call so the caller (the device
//! proxy or a direct executor) can advance the rank's clock.
//!
//! Recovery-relevant behaviours:
//!
//! * `Free` is **deferred**: the buffer moves to a graveyard and is only
//!   reclaimed at the next minibatch commit, so a reset-to-minibatch-start
//!   can resurrect it (§4.1's "undoing the creation or destruction" of
//!   objects after minibatch start).
//! * Health is checked on every call; a sticky error poisons all
//!   subsequent calls until [`Gpu::reset_context`].
//! * [`Gpu::free_non_persistent`] implements the state reset that keeps
//!   only parameters and optimizer state (§4.2.1).

use crate::api::{CallResult, DeviceCall};
use crate::buffer::{AllocSite, BufferId, BufferTag, DeviceBuffer};
use crate::health::GpuHealth;
use crate::stream::{Event, EventId, Stream, StreamId};
use simcore::cost::CostModel;
use simcore::failure::FailureKind;
use simcore::{GpuId, SimError, SimResult, SimTime};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide physical handle space: physical ids are unique across all
/// simulated devices, so a stale handle can never alias an object on a
/// replacement GPU after migration.
static NEXT_PHYSICAL_HANDLE: AtomicU64 = AtomicU64::new(1);

fn fresh_handle_base(count: u64) -> u64 {
    NEXT_PHYSICAL_HANDLE.fetch_add(count, Ordering::Relaxed)
}

/// A simulated GPU device.
#[derive(Debug)]
pub struct Gpu {
    /// Device identity in the cluster inventory.
    pub id: GpuId,
    /// Memory capacity in (logical) bytes.
    capacity: u64,
    used_logical: u64,
    next_handle: u64,
    buffers: HashMap<BufferId, DeviceBuffer>,
    graveyard: HashMap<BufferId, DeviceBuffer>,
    streams: HashMap<StreamId, Stream>,
    events: HashMap<EventId, Event>,
    site_seq: HashMap<String, u32>,
    health: GpuHealth,
    cost: CostModel,
    /// Device-local submission cursor (virtual time of last submitted op).
    now: SimTime,
}

impl Gpu {
    /// Creates a healthy device with the generation's memory capacity.
    pub fn new(id: GpuId, cost: CostModel) -> Self {
        let capacity = cost.gpu.memory_bytes();
        Gpu {
            id,
            capacity,
            used_logical: 0,
            next_handle: fresh_handle_base(1 << 20),
            buffers: HashMap::new(),
            graveyard: HashMap::new(),
            streams: HashMap::new(),
            events: HashMap::new(),
            site_seq: HashMap::new(),
            health: GpuHealth::Healthy,
            cost,
            now: SimTime::ZERO,
        }
    }

    /// Current health.
    pub fn health(&self) -> GpuHealth {
        self.health
    }

    /// Injects a fault (from the failure injector).
    pub fn inject(&mut self, kind: FailureKind) {
        self.health = self.health.inject(kind);
    }

    /// Resets the device context (the effect of restarting the device
    /// proxy server): clears sticky/driver-suspect state, drops all
    /// volatile objects (streams, events) and — matching a real context
    /// teardown — all buffers. Returns an error if the hardware is dead.
    pub fn reset_context(&mut self) -> SimResult<()> {
        if !self.health.reset_recovers() {
            return Err(SimError::GpuHardware(self.id));
        }
        self.health = GpuHealth::Healthy;
        self.buffers.clear();
        self.graveyard.clear();
        self.streams.clear();
        self.events.clear();
        self.site_seq.clear();
        self.used_logical = 0;
        Ok(())
    }

    /// Cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Logical bytes currently allocated (excluding graveyard).
    pub fn used_bytes(&self) -> u64 {
        self.used_logical
    }

    /// Number of live buffers.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// Immutable view of a live buffer.
    pub fn buffer(&self, id: BufferId) -> SimResult<&DeviceBuffer> {
        self.buffers
            .get(&id)
            .ok_or_else(|| SimError::InvalidHandle(format!("{id} (gpu {})", self.id)))
    }

    /// All live buffer ids, sorted for determinism.
    pub fn buffer_ids(&self) -> Vec<BufferId> {
        let mut ids: Vec<BufferId> = self.buffers.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Executes one device API call. Returns the result and the virtual
    /// duration the caller should charge to the rank's clock.
    pub fn exec(&mut self, call: &DeviceCall) -> SimResult<(CallResult, SimTime)> {
        self.health.check_api(self.id)?;
        match call {
            DeviceCall::Malloc {
                site,
                elems,
                logical_bytes,
                tag,
            } => {
                let id = self.malloc(site.clone(), *elems, *logical_bytes, *tag)?;
                Ok((CallResult::Buffer(id), SimTime::from_micros(10.0)))
            }
            DeviceCall::Free { buf } => {
                self.free(*buf)?;
                Ok((CallResult::None, SimTime::from_micros(5.0)))
            }
            DeviceCall::Upload { buf, data } => {
                let logical = {
                    let b = self.buffer_mut(*buf)?;
                    if b.data.len() != data.len() {
                        return Err(SimError::Protocol(format!(
                            "upload size mismatch: buffer {} has {} elems, payload {}",
                            buf,
                            b.data.len(),
                            data.len()
                        )));
                    }
                    b.data.copy_from_slice(data);
                    b.logical_bytes
                };
                Ok((CallResult::None, self.cost.memcpy(logical)))
            }
            DeviceCall::Download { buf } => {
                let b = self.buffer(*buf)?;
                let data = b.data.clone();
                let t = self.cost.memcpy(b.logical_bytes);
                Ok((CallResult::Data(data), t))
            }
            DeviceCall::CopyD2D { src, dst } => {
                let logical = self.buffer(*src)?.logical_bytes;
                // Source and destination live in one map: borrow them side
                // by side and copy once. A copy onto itself is already done.
                if src != dst {
                    let [Some(s), Some(d)] = self.buffers.get_disjoint_mut([src, dst]) else {
                        return Err(SimError::InvalidHandle(dst.to_string()));
                    };
                    if d.data.len() != s.data.len() {
                        return Err(SimError::Protocol("d2d size mismatch".into()));
                    }
                    d.data.copy_from_slice(&s.data);
                }
                Ok((
                    CallResult::None,
                    SimTime::from_secs(logical as f64 / self.cost.nvlink_bw),
                ))
            }
            DeviceCall::Launch { stream, kernel } => {
                // Compute the phantom-scaling factor: the max ratio of
                // logical to actual size over the kernel's buffers.
                let mut scale = 1.0f64;
                for b in kernel.clone().operands_mut() {
                    let buf = self.buffer(*b)?;
                    if !buf.data.is_empty() {
                        let s = buf.logical_bytes as f64 / (4.0 * buf.data.len() as f64);
                        scale = scale.max(s);
                    }
                }
                let cost = self.cost.kernel(kernel.flops(scale));
                // Validate, then mutate: the stream is the last handle the
                // launch names, and the kernel checks its shapes before its
                // first store, so an error here leaves memory untouched.
                let s = self
                    .streams
                    .get_mut(stream)
                    .ok_or_else(|| SimError::InvalidHandle(stream.to_string()))?;
                kernel.execute(&mut self.buffers)?;
                s.enqueue(self.now, cost);
                self.now += cost;
                Ok((CallResult::None, cost))
            }
            DeviceCall::StreamCreate => {
                let id = StreamId(self.next_handle);
                self.next_handle += 1;
                self.streams.insert(id, Stream::new(id));
                Ok((CallResult::Stream(id), self.cost.handle_create))
            }
            DeviceCall::StreamDestroy { stream } => {
                self.streams
                    .remove(stream)
                    .ok_or_else(|| SimError::InvalidHandle(stream.to_string()))?;
                Ok((CallResult::None, SimTime::from_micros(20.0)))
            }
            DeviceCall::EventCreate => {
                let id = EventId(self.next_handle);
                self.next_handle += 1;
                self.events.insert(id, Event::new(id));
                Ok((CallResult::Event(id), self.cost.handle_create))
            }
            DeviceCall::EventDestroy { event } => {
                self.events
                    .remove(event)
                    .ok_or_else(|| SimError::InvalidHandle(event.to_string()))?;
                Ok((CallResult::None, SimTime::from_micros(20.0)))
            }
            DeviceCall::EventRecord { stream, event } => {
                let t = self.stream_mut(*stream)?.ready_at;
                let e = self
                    .events
                    .get_mut(event)
                    .ok_or_else(|| SimError::InvalidHandle(event.to_string()))?;
                e.recorded_at = Some(t);
                Ok((CallResult::None, SimTime::from_micros(4.0)))
            }
            DeviceCall::StreamWaitEvent { stream, event } => {
                let et = self
                    .events
                    .get(event)
                    .ok_or_else(|| SimError::InvalidHandle(event.to_string()))?
                    .recorded_at
                    .unwrap_or(SimTime::ZERO);
                self.stream_mut(*stream)?.wait_event(et);
                Ok((CallResult::None, SimTime::from_micros(4.0)))
            }
            DeviceCall::EventQuery { event } => {
                let e = self
                    .events
                    .get(event)
                    .ok_or_else(|| SimError::InvalidHandle(event.to_string()))?;
                Ok((CallResult::Bool(e.is_complete()), SimTime::from_micros(2.0)))
            }
            DeviceCall::StreamSync { stream } => {
                let ready = self.stream_mut(*stream)?.ready_at;
                let wait = ready.saturating_sub(self.now);
                self.now = self.now.max(ready);
                Ok((CallResult::None, wait))
            }
            DeviceCall::DeviceSync => {
                let ready = self
                    .streams
                    .values()
                    .map(|s| s.ready_at)
                    .fold(SimTime::ZERO, SimTime::max);
                let wait = ready.saturating_sub(self.now);
                self.now = self.now.max(ready);
                Ok((CallResult::None, wait))
            }
        }
    }

    fn buffer_mut(&mut self, id: BufferId) -> SimResult<&mut DeviceBuffer> {
        self.buffers
            .get_mut(&id)
            .ok_or_else(|| SimError::InvalidHandle(id.to_string()))
    }

    fn stream_mut(&mut self, id: StreamId) -> SimResult<&mut Stream> {
        self.streams
            .get_mut(&id)
            .ok_or_else(|| SimError::InvalidHandle(id.to_string()))
    }

    fn malloc(
        &mut self,
        mut site: AllocSite,
        elems: u64,
        logical_bytes: u64,
        tag: BufferTag,
    ) -> SimResult<BufferId> {
        if self.used_logical + logical_bytes > self.capacity {
            return Err(SimError::OutOfMemory {
                requested: logical_bytes,
                available: self.capacity - self.used_logical,
            });
        }
        let seq = self.site_seq.entry(site.path.clone()).or_insert(0);
        site.seq = *seq;
        *seq += 1;
        site.elems = elems;
        let id = BufferId(self.next_handle);
        self.next_handle += 1;
        self.buffers.insert(
            id,
            DeviceBuffer {
                id,
                data: vec![0f32; elems as usize],
                logical_bytes,
                tag,
                site,
            },
        );
        self.used_logical += logical_bytes;
        Ok(id)
    }

    fn free(&mut self, id: BufferId) -> SimResult<()> {
        let buf = self
            .buffers
            .remove(&id)
            .ok_or_else(|| SimError::InvalidHandle(id.to_string()))?;
        self.used_logical -= buf.logical_bytes;
        self.graveyard.insert(id, buf);
        Ok(())
    }

    /// Commits deferred frees — called at the start of each minibatch, the
    /// point past which a reset can no longer need the freed buffers.
    pub fn commit_frees(&mut self) {
        self.graveyard.clear();
    }

    /// Resurrects all deferred-freed buffers (reset-to-minibatch-start).
    pub fn resurrect_freed(&mut self) {
        for (id, buf) in self.graveyard.drain() {
            self.used_logical += buf.logical_bytes;
            self.buffers.insert(id, buf);
        }
    }

    /// Frees every buffer that is not model parameters or optimizer state
    /// (§4.2.1's cheapest reset path), returning how many were dropped.
    pub fn free_non_persistent(&mut self) -> usize {
        let victims: Vec<BufferId> = self
            .buffers
            .values()
            .filter(|b| !b.tag.is_persistent())
            .map(|b| b.id)
            .collect();
        let n = victims.len();
        for id in victims {
            if let Some(b) = self.buffers.remove(&id) {
                self.used_logical -= b.logical_bytes;
            }
        }
        n
    }

    /// Writes payload into an existing buffer (replica state restore).
    pub fn load_buffer(&mut self, id: BufferId, data: &[f32]) -> SimResult<()> {
        let b = self.buffer_mut(id)?;
        if b.data.len() != data.len() {
            return Err(SimError::Protocol(format!(
                "load size mismatch for {id}: {} vs {}",
                b.data.len(),
                data.len()
            )));
        }
        b.data.copy_from_slice(data);
        Ok(())
    }

    /// Snapshot of every persistent (param/optimizer) buffer, keyed by the
    /// cross-rank-stable storage key. Total logical bytes is also returned
    /// for cost accounting.
    pub fn snapshot_persistent(&self) -> (Vec<(String, BufferTag, Vec<f32>)>, u64) {
        let mut out: Vec<(String, BufferTag, Vec<f32>)> = Vec::new();
        let mut bytes = 0u64;
        let mut ids = self.buffer_ids();
        ids.sort();
        for id in ids {
            let b = &self.buffers[&id];
            if b.tag.is_persistent() {
                out.push((b.site.storage_key(), b.tag, b.data.clone()));
                bytes += b.logical_bytes;
            }
        }
        (out, bytes)
    }

    /// Restores persistent buffers from a snapshot by storage key.
    /// Buffers present on the device but missing from the snapshot are
    /// left untouched; snapshot entries with no matching buffer error.
    pub fn restore_persistent(
        &mut self,
        snapshot: &[(String, BufferTag, Vec<f32>)],
    ) -> SimResult<()> {
        let by_key: HashMap<String, BufferId> = self
            .buffers
            .values()
            .map(|b| (b.site.storage_key(), b.id))
            .collect();
        for (key, _tag, data) in snapshot {
            let id = by_key.get(key).copied().ok_or_else(|| {
                SimError::Protocol(format!("no buffer with storage key {key} on {}", self.id))
            })?;
            self.load_buffer(id, data)?;
        }
        Ok(())
    }

    /// Checksums of all live buffers, keyed by id — the §4.1 verification
    /// primitive.
    pub fn checksum_all(&self) -> BTreeMap<BufferId, u64> {
        self.buffers
            .iter()
            .map(|(id, b)| (*id, b.checksum()))
            .collect()
    }

    /// Checksums of persistent buffers only, keyed by storage key.
    pub fn checksum_persistent(&self) -> BTreeMap<String, u64> {
        self.buffers
            .values()
            .filter(|b| b.tag.is_persistent())
            .map(|b| (b.site.storage_key(), b.checksum()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> Gpu {
        Gpu::new(GpuId(0), CostModel::v100())
    }

    fn malloc(g: &mut Gpu, path: &str, elems: u64, tag: BufferTag) -> BufferId {
        g.exec(&DeviceCall::Malloc {
            site: AllocSite::new(path, elems),
            elems,
            logical_bytes: elems * 4,
            tag,
        })
        .unwrap()
        .0
        .buffer()
        .unwrap()
    }

    #[test]
    fn malloc_upload_download_round_trip() {
        let mut g = gpu();
        let b = malloc(&mut g, "w", 4, BufferTag::Param);
        g.exec(&DeviceCall::Upload {
            buf: b,
            data: vec![1.0, 2.0, 3.0, 4.0],
        })
        .unwrap();
        let (res, _) = g.exec(&DeviceCall::Download { buf: b }).unwrap();
        assert_eq!(res.data().unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut g = gpu();
        let res = g.exec(&DeviceCall::Malloc {
            site: AllocSite::new("huge", 1),
            elems: 1,
            logical_bytes: 33 * (1 << 30), // exceeds V100's 32 GB
            tag: BufferTag::Workspace,
        });
        assert!(matches!(res, Err(SimError::OutOfMemory { .. })));
    }

    #[test]
    fn sticky_error_poisons_every_call() {
        let mut g = gpu();
        let b = malloc(&mut g, "w", 2, BufferTag::Param);
        g.inject(FailureKind::StickyCuda);
        assert!(g.exec(&DeviceCall::Download { buf: b }).is_err());
        assert!(g.exec(&DeviceCall::DeviceSync).is_err());
        // Reset recovers the device but wipes its state, like a context
        // teardown.
        g.reset_context().unwrap();
        assert_eq!(g.buffer_count(), 0);
        assert!(g.exec(&DeviceCall::DeviceSync).is_ok());
    }

    #[test]
    fn hardware_failure_is_unresettable() {
        let mut g = gpu();
        g.inject(FailureKind::GpuHardware);
        assert!(g.reset_context().is_err());
    }

    #[test]
    fn deferred_free_and_resurrection() {
        let mut g = gpu();
        let b = malloc(&mut g, "act", 4, BufferTag::Activation);
        g.exec(&DeviceCall::Upload {
            buf: b,
            data: vec![9.0; 4],
        })
        .unwrap();
        g.exec(&DeviceCall::Free { buf: b }).unwrap();
        assert!(g.buffer(b).is_err());
        // Reset-to-minibatch-start resurrects it with contents intact.
        g.resurrect_freed();
        assert_eq!(g.buffer(b).unwrap().data, vec![9.0; 4]);
        // After a commit, the free is final.
        g.exec(&DeviceCall::Free { buf: b }).unwrap();
        g.commit_frees();
        g.resurrect_freed();
        assert!(g.buffer(b).is_err());
    }

    #[test]
    fn free_non_persistent_keeps_params_and_optimizer_state() {
        let mut g = gpu();
        let p = malloc(&mut g, "param", 4, BufferTag::Param);
        let o = malloc(&mut g, "adam.m", 4, BufferTag::OptimState);
        let a = malloc(&mut g, "act", 4, BufferTag::Activation);
        let gr = malloc(&mut g, "grad", 4, BufferTag::Gradient);
        let dropped = g.free_non_persistent();
        assert_eq!(dropped, 2);
        assert!(g.buffer(p).is_ok());
        assert!(g.buffer(o).is_ok());
        assert!(g.buffer(a).is_err());
        assert!(g.buffer(gr).is_err());
    }

    #[test]
    fn snapshot_restore_persistent_round_trip() {
        let mut g = gpu();
        let p = malloc(&mut g, "param", 3, BufferTag::Param);
        g.exec(&DeviceCall::Upload {
            buf: p,
            data: vec![1.0, 2.0, 3.0],
        })
        .unwrap();
        let (snap, bytes) = g.snapshot_persistent();
        assert_eq!(bytes, 12);
        assert_eq!(snap.len(), 1);
        // Clobber, then restore.
        g.load_buffer(p, &[0.0, 0.0, 0.0]).unwrap();
        g.restore_persistent(&snap).unwrap();
        assert_eq!(g.buffer(p).unwrap().data, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn snapshot_keys_match_across_replica_devices() {
        // Two replicas allocating through the same code path must produce
        // identical storage keys — the §4.3 cross-rank naming property.
        let build = || {
            let mut g = gpu();
            malloc(&mut g, "model.l0.w", 4, BufferTag::Param);
            malloc(&mut g, "model.l0.w", 4, BufferTag::Param); // seq 1
            malloc(&mut g, "adam.m", 4, BufferTag::OptimState);
            g
        };
        let g1 = build();
        let g2 = build();
        let k1: Vec<String> = g1
            .snapshot_persistent()
            .0
            .into_iter()
            .map(|x| x.0)
            .collect();
        let k2: Vec<String> = g2
            .snapshot_persistent()
            .0
            .into_iter()
            .map(|x| x.0)
            .collect();
        assert_eq!(k1, k2);
        assert_eq!(k1.len(), 3);
        assert_ne!(k1[0], k1[1], "same path must get distinct seq numbers");
    }

    #[test]
    fn launch_executes_and_charges_time() {
        let mut g = gpu();
        let s = g
            .exec(&DeviceCall::StreamCreate)
            .unwrap()
            .0
            .stream()
            .unwrap();
        let b = malloc(&mut g, "x", 4, BufferTag::Workspace);
        g.exec(&DeviceCall::Upload {
            buf: b,
            data: vec![1.0; 4],
        })
        .unwrap();
        let (_, t) = g
            .exec(&DeviceCall::Launch {
                stream: s,
                kernel: KernelKindFixture::scale(b, 2.0),
            })
            .unwrap();
        assert!(t > SimTime::ZERO);
        assert_eq!(g.buffer(b).unwrap().data, vec![2.0; 4]);
    }

    #[test]
    fn a_refused_launch_leaves_memory_untouched() {
        use crate::kernel::KernelKind;
        let mut g = gpu();
        let s = g
            .exec(&DeviceCall::StreamCreate)
            .unwrap()
            .0
            .stream()
            .unwrap();
        let a = malloc(&mut g, "a", 6, BufferTag::Activation);
        let b = malloc(&mut g, "b", 6, BufferTag::Param);
        let out = malloc(&mut g, "out", 4, BufferTag::Activation);
        for buf in [a, b, out] {
            g.load_buffer(buf, &vec![1.5; g.buffer(buf).unwrap().data.len()])
                .unwrap();
        }
        let before = g.checksum_all();
        let matmul = |a, b, out, k| KernelKind::MatMul {
            a,
            b,
            out,
            m: 2,
            k,
            n: 2,
            trans_a: false,
            trans_b: false,
        };
        // A shape the buffers do not have, a handle that does not exist
        // (as an input and as the output), a stream that does not exist.
        let missing = BufferId(u64::MAX);
        for (stream, kernel) in [
            (s, matmul(a, b, out, 4)),
            (s, matmul(a, missing, out, 3)),
            (s, matmul(a, b, missing, 3)),
            (StreamId(u64::MAX), matmul(a, b, out, 3)),
        ] {
            let res = g.exec(&DeviceCall::Launch { stream, kernel });
            assert!(
                matches!(
                    res,
                    Err(SimError::Protocol(_)) | Err(SimError::InvalidHandle(_))
                ),
                "{res:?}"
            );
            assert_eq!(g.checksum_all(), before);
        }
        g.exec(&DeviceCall::Launch {
            stream: s,
            kernel: matmul(a, b, out, 3),
        })
        .unwrap();
        assert_eq!(g.buffer(out).unwrap().data, vec![6.75; 4]);
    }

    #[test]
    fn copy_d2d_copies_once_and_checks_first() {
        let mut g = gpu();
        let src = malloc(&mut g, "src", 3, BufferTag::Param);
        let dst = malloc(&mut g, "dst", 3, BufferTag::Param);
        let short = malloc(&mut g, "short", 2, BufferTag::Param);
        g.load_buffer(src, &[1.0, 2.0, 3.0]).unwrap();
        g.exec(&DeviceCall::CopyD2D { src, dst }).unwrap();
        assert_eq!(g.buffer(dst).unwrap().data, vec![1.0, 2.0, 3.0]);
        // Onto itself: nothing to do, and not an error.
        g.exec(&DeviceCall::CopyD2D { src, dst: src }).unwrap();
        assert_eq!(g.buffer(src).unwrap().data, vec![1.0, 2.0, 3.0]);
        let before = g.checksum_all();
        let mismatch = g.exec(&DeviceCall::CopyD2D { src, dst: short });
        assert_eq!(
            mismatch.unwrap_err(),
            SimError::Protocol("d2d size mismatch".into())
        );
        let missing = BufferId(u64::MAX);
        assert!(g.exec(&DeviceCall::CopyD2D { src: missing, dst }).is_err());
        assert!(g.exec(&DeviceCall::CopyD2D { src, dst: missing }).is_err());
        assert_eq!(g.checksum_all(), before);
    }

    #[test]
    fn event_record_and_query() {
        let mut g = gpu();
        let s = g
            .exec(&DeviceCall::StreamCreate)
            .unwrap()
            .0
            .stream()
            .unwrap();
        let e = g.exec(&DeviceCall::EventCreate).unwrap().0.event().unwrap();
        let (res, _) = g.exec(&DeviceCall::EventQuery { event: e }).unwrap();
        assert_eq!(res, CallResult::Bool(false));
        g.exec(&DeviceCall::EventRecord {
            stream: s,
            event: e,
        })
        .unwrap();
        let (res, _) = g.exec(&DeviceCall::EventQuery { event: e }).unwrap();
        assert_eq!(res, CallResult::Bool(true));
    }

    #[test]
    fn phantom_scaling_inflates_kernel_time() {
        let mut g = gpu();
        let s = g
            .exec(&DeviceCall::StreamCreate)
            .unwrap()
            .0
            .stream()
            .unwrap();
        let small = malloc(&mut g, "small", 64, BufferTag::Workspace);
        // Phantom buffer: 64 actual elems, 1 GB logical.
        let phantom = g
            .exec(&DeviceCall::Malloc {
                site: AllocSite::new("phantom", 64),
                elems: 64,
                logical_bytes: 1 << 30,
                tag: BufferTag::Workspace,
            })
            .unwrap()
            .0
            .buffer()
            .unwrap();
        let (_, t_small) = g
            .exec(&DeviceCall::Launch {
                stream: s,
                kernel: KernelKindFixture::scale(small, 1.0),
            })
            .unwrap();
        let (_, t_phantom) = g
            .exec(&DeviceCall::Launch {
                stream: s,
                kernel: KernelKindFixture::scale(phantom, 1.0),
            })
            .unwrap();
        assert!(t_phantom > t_small);
    }

    /// Tiny helper to build kernels in tests.
    struct KernelKindFixture;
    impl KernelKindFixture {
        fn scale(x: BufferId, alpha: f32) -> crate::kernel::KernelKind {
            crate::kernel::KernelKind::Scale { alpha, x }
        }
    }
}
