//! The restartable device proxy server.
//!
//! In the real system (Figure 2) the proxy server is a separate OS process
//! holding the CUDA context, NCCL communicators, and all driver state;
//! the worker process talks to it over shared memory. Its one superpower
//! is being *disposable*: killing and restarting it clears corrupted
//! GPU/driver software state without perturbing the worker (§4.2.1 cases
//! 2–3), and keeps the worker CPU image CRIU-friendly (§4.3).
//!
//! In the simulation the "process" is a restartable state machine around
//! the device: `ProxyServer::restart` tears down the context (dropping
//! every buffer, stream, and event — exactly what a context teardown does).
//! The server is the proxy's own: a worker reaches its device through
//! [`ProxyClient::gpu`](crate::ProxyClient::gpu).

use bytes::Bytes;
use simcore::codec::{concat_shards, split_shards, Decode, Encoder};
use simcore::{SimError, SimResult, SimTime};
use simgpu::{CallResult, DeviceCall, Gpu};

/// Shard payload size for batched device-call frames. Small enough that
/// a frame fits the shared-memory channel's message slab; large enough
/// that a typical flush (hundreds of launches) is one or two frames.
/// Oversized calls (large `Upload` payloads) simply straddle frames —
/// the shard codec splits at exact byte boundaries.
pub const BATCH_SHARD_BYTES: usize = 64 * 1024;

/// Encodes a batch of device calls into a single contiguous message of
/// length-prefixed, CRC-framed shards (the checkpoint shard format from
/// [`simcore::codec`], reused as the client→server wire format).
pub fn encode_batch(calls: &[DeviceCall], shard_payload: usize) -> Bytes {
    let mut enc = Encoder::new(shard_payload);
    enc.write(&(calls.len() as u64));
    for call in calls {
        enc.write(call);
    }
    concat_shards(&enc.finish())
}

/// Decodes a batched device-call frame produced by [`encode_batch`],
/// verifying per-shard CRCs. The count must cover the whole payload: a
/// call past it would otherwise be dropped without a word.
pub fn decode_batch(frame: &Bytes) -> SimResult<Vec<DeviceCall>> {
    let mut payload = split_shards(frame)?;
    let n = u64::decode(&mut payload)? as usize;
    let mut calls = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        calls.push(DeviceCall::decode(&mut payload)?);
    }
    if !payload.is_empty() {
        return Err(SimError::Codec(format!(
            "{} trailing bytes after decode",
            payload.len()
        )));
    }
    Ok(calls)
}

/// The device proxy server: owns the GPU context for one rank.
#[derive(Debug)]
pub(crate) struct ProxyServer {
    gpu: Gpu,
}

impl ProxyServer {
    /// Starts a server over a freshly attached device.
    pub(crate) fn new(gpu: Gpu) -> Self {
        ProxyServer { gpu }
    }

    /// Executes one device call, returning the result and its virtual
    /// duration.
    pub(crate) fn exec(&mut self, call: &DeviceCall) -> SimResult<(CallResult, SimTime)> {
        self.gpu.exec(call)
    }

    /// Executes a batched frame of deferred calls in one round trip,
    /// returning how many calls ran and their summed virtual duration.
    ///
    /// Only result-less calls (`Upload`, `CopyD2D`, `Launch`, `Free`) may
    /// be deferred into a batch — anything producing a handle or data
    /// must go through [`ProxyServer::exec`] synchronously, so a batched
    /// call yielding a result is a protocol error. Execution stops at
    /// the first failing call; the client discards the rest of the batch
    /// and lets recovery's log replay regenerate their effects.
    pub(crate) fn exec_batch(&mut self, frame: &Bytes) -> SimResult<(usize, SimTime)> {
        let calls = decode_batch(frame)?;
        let mut total = SimTime::ZERO;
        for call in &calls {
            let (result, t) = self.gpu.exec(call)?;
            if !matches!(result, CallResult::None) {
                return Err(SimError::Protocol(format!(
                    "non-deferrable call in batch: {call:?}"
                )));
            }
            total += t;
        }
        Ok((calls.len(), total))
    }

    /// Restarts the server process: clears all driver/GPU state (including
    /// sticky errors and driver corruption) and invalidates every physical
    /// handle. Fails if the GPU hardware itself is dead. Returns the
    /// restart cost.
    pub(crate) fn restart(&mut self) -> SimResult<SimTime> {
        self.gpu.reset_context()?;
        Ok(self.gpu.cost_model().proxy_restart)
    }

    /// Replaces the attached device (hard-error migration to a new GPU):
    /// the worker keeps its proxy client; the server comes back over a
    /// replacement device on the new node.
    pub(crate) fn attach_new_gpu(&mut self, gpu: Gpu) {
        self.gpu = gpu;
    }

    /// The device, read-only.
    pub(crate) fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// The device, mutable (recovery resets, fault injection).
    pub(crate) fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::cost::CostModel;
    use simcore::failure::FailureKind;
    use simcore::GpuId;
    use simgpu::{AllocSite, BufferTag, GpuHealth};

    fn server() -> ProxyServer {
        ProxyServer::new(Gpu::new(GpuId(0), CostModel::v100()))
    }

    #[test]
    fn restart_clears_sticky_state() -> SimResult<()> {
        let mut s = server();
        s.exec(&DeviceCall::Malloc {
            site: AllocSite::new("w", 4),
            elems: 4,
            logical_bytes: 16,
            tag: BufferTag::Param,
        })?;
        s.gpu_mut().inject(FailureKind::StickyCuda);
        assert!(s.exec(&DeviceCall::DeviceSync).is_err());
        let t = s.restart()?;
        assert!(t.as_secs() > 0.0);
        assert_eq!(s.gpu().health(), GpuHealth::Healthy);
        assert_eq!(s.gpu().buffer_count(), 0, "context teardown drops buffers");
        assert!(s.exec(&DeviceCall::DeviceSync).is_ok());
        Ok(())
    }

    #[test]
    fn restart_cannot_fix_dead_hardware() {
        let mut s = server();
        s.gpu_mut().inject(FailureKind::GpuHardware);
        assert!(s.restart().is_err());
        // Migration to a new device does.
        s.attach_new_gpu(Gpu::new(GpuId(9), CostModel::v100()));
        assert!(s.exec(&DeviceCall::DeviceSync).is_ok());
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use simcore::cost::CostModel;
    use simcore::GpuId;
    use simgpu::{AllocSite, BufferId, BufferTag, KernelKind};

    fn server() -> ProxyServer {
        ProxyServer::new(Gpu::new(GpuId(0), CostModel::v100()))
    }

    fn alloc(s: &mut ProxyServer, elems: u64) -> SimResult<BufferId> {
        match s
            .exec(&DeviceCall::Malloc {
                site: AllocSite::new("b", elems),
                elems,
                logical_bytes: elems * 4,
                tag: BufferTag::Activation,
            })?
            .0
        {
            CallResult::Buffer(b) => Ok(b),
            other => Err(SimError::Protocol(format!(
                "expected buffer, got {other:?}"
            ))),
        }
    }

    #[test]
    fn batch_frame_round_trips() -> SimResult<()> {
        let calls = vec![
            DeviceCall::Upload {
                buf: BufferId(7),
                data: vec![1.0; 300],
            },
            DeviceCall::Free { buf: BufferId(7) },
        ];
        // Tiny shard payload: the upload straddles several frames.
        let frame = encode_batch(&calls, 64);
        assert_eq!(decode_batch(&frame)?, calls);
        Ok(())
    }

    #[test]
    fn empty_batch_round_trips() -> SimResult<()> {
        let frame = encode_batch(&[], BATCH_SHARD_BYTES);
        assert!(decode_batch(&frame)?.is_empty());
        Ok(())
    }

    #[test]
    fn exec_batch_matches_per_call_execution() -> SimResult<()> {
        let mut a = server();
        let mut b = server();
        // Physical ids come from a process-global counter, so each
        // server builds the same logical program over its own handles.
        let stream_of = |s: &mut ProxyServer| match s.exec(&DeviceCall::StreamCreate) {
            Ok((CallResult::Stream(st), _)) => Ok(st),
            other => Err(SimError::Protocol(format!(
                "expected stream, got {other:?}"
            ))),
        };
        let (ba, sa) = (alloc(&mut a, 8)?, stream_of(&mut a)?);
        let (bb, sb) = (alloc(&mut b, 8)?, stream_of(&mut b)?);
        let program = |buf: BufferId, stream| {
            vec![
                DeviceCall::Upload {
                    buf,
                    data: vec![2.0; 8],
                },
                DeviceCall::Launch {
                    stream,
                    kernel: KernelKind::Scale { x: buf, alpha: 3.0 },
                },
            ]
        };
        let mut per_call = SimTime::ZERO;
        for c in &program(ba, sa) {
            per_call += a.exec(c)?.1;
        }
        let (n, batched) = b.exec_batch(&encode_batch(&program(bb, sb), BATCH_SHARD_BYTES))?;
        assert_eq!(n, 2);
        assert_eq!(batched, per_call, "batching must not change virtual time");
        let download = |s: &mut ProxyServer, buf| match s.exec(&DeviceCall::Download { buf }) {
            Ok((CallResult::Data(d), _)) => Ok(d),
            other => Err(SimError::Protocol(format!("expected data, got {other:?}"))),
        };
        assert_eq!(
            download(&mut a, ba)?,
            download(&mut b, bb)?,
            "batched and per-call execution reach identical device state"
        );
        Ok(())
    }

    #[test]
    fn exec_batch_rejects_result_producing_calls() {
        let mut s = server();
        let calls = vec![DeviceCall::Malloc {
            site: AllocSite::new("b", 4),
            elems: 4,
            logical_bytes: 16,
            tag: BufferTag::Param,
        }];
        assert!(s
            .exec_batch(&encode_batch(&calls, BATCH_SHARD_BYTES))
            .is_err());
    }

    #[test]
    fn batch_whose_count_understates_its_calls_is_rejected() {
        // CRC-valid shards whose count says one call but which carry two.
        let mut enc = Encoder::new(BATCH_SHARD_BYTES);
        enc.write(&1u64);
        enc.write(&DeviceCall::Free { buf: BufferId(1) });
        enc.write(&DeviceCall::Free { buf: BufferId(2) });
        let frame = concat_shards(&enc.finish());
        assert_eq!(
            decode_batch(&frame),
            Err(SimError::Codec("9 trailing bytes after decode".into()))
        );
    }

    #[test]
    fn corrupt_batch_frame_is_rejected() {
        let calls = vec![DeviceCall::DeviceSync];
        let mut raw = encode_batch(&calls, BATCH_SHARD_BYTES).to_vec();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xff;
        let frame = Bytes::copy_from_slice(&raw);
        assert!(decode_batch(&frame).is_err(), "CRC must catch corruption");
    }
}
