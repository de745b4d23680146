//! The device API surface — the simulated equivalent of the CUDA runtime
//! API that the device proxy intercepts, logs, and replays.
//!
//! Every call is serializable with the workspace codec because the
//! transparent JIT design (§4.1) *logs all device APIs along with their
//! input values* into the replay log; checkpointing that log (and the CRIU
//! image containing it) requires a stable wire format.

use crate::buffer::{AllocSite, BufferId, BufferTag};
use crate::kernel::KernelKind;
use crate::stream::{EventId, StreamId};
use simcore::codec::{Decode, Encode};
use simcore::{SimError, SimResult};

/// One device API call (CUDA-runtime equivalent).
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceCall {
    /// `cudaMalloc`: allocate `elems` floats with a logical byte size for
    /// the cost model and an allocation-site identity.
    Malloc {
        /// Allocation-site identity (stable across replicas).
        site: AllocSite,
        /// Actual payload element count.
        elems: u64,
        /// Logical size in bytes for timing (phantom scaling).
        logical_bytes: u64,
        /// Buffer class.
        tag: BufferTag,
    },
    /// `cudaFree`. The device defers reclamation to the next minibatch
    /// commit so that a reset-to-minibatch-start can resurrect the buffer.
    Free {
        /// Buffer to free.
        buf: BufferId,
    },
    /// Host→device copy carrying the payload (logged with its input data,
    /// which is how replay re-supplies minibatch inputs).
    Upload {
        /// Destination buffer.
        buf: BufferId,
        /// Payload.
        data: Vec<f32>,
    },
    /// Device→host copy; returns the payload.
    Download {
        /// Source buffer.
        buf: BufferId,
    },
    /// Device→device copy.
    CopyD2D {
        /// Source.
        src: BufferId,
        /// Destination.
        dst: BufferId,
    },
    /// Kernel launch on a stream.
    Launch {
        /// Target stream.
        stream: StreamId,
        /// Kernel and arguments.
        kernel: KernelKind,
    },
    /// `cudaStreamCreate`.
    StreamCreate,
    /// `cudaStreamDestroy`.
    StreamDestroy {
        /// Stream to destroy.
        stream: StreamId,
    },
    /// `cudaEventCreate`.
    EventCreate,
    /// `cudaEventDestroy`.
    EventDestroy {
        /// Event to destroy.
        event: EventId,
    },
    /// `cudaEventRecord`.
    EventRecord {
        /// Stream whose timeline stamps the event.
        stream: StreamId,
        /// Event to record.
        event: EventId,
    },
    /// `cudaStreamWaitEvent` — the call the user-level interception layer
    /// watches to build its hang-detection watch-list (§3.1).
    StreamWaitEvent {
        /// Waiting stream.
        stream: StreamId,
        /// Event waited on.
        event: EventId,
    },
    /// `cudaEventQuery`.
    EventQuery {
        /// Event queried.
        event: EventId,
    },
    /// `cudaStreamSynchronize`.
    StreamSync {
        /// Stream to drain.
        stream: StreamId,
    },
    /// `cudaDeviceSynchronize`.
    DeviceSync,
}

impl DeviceCall {
    /// True for calls that create a device object whose handle is returned
    /// to the application — these are the calls recovery must *re-execute*
    /// to recreate GPU objects, remapping virtual handles (§4.2.1).
    pub fn creates_object(&self) -> bool {
        matches!(
            self,
            DeviceCall::Malloc { .. } | DeviceCall::StreamCreate | DeviceCall::EventCreate
        )
    }

    /// Short name for diagnostics and recovery reports.
    pub fn name(&self) -> &'static str {
        match self {
            DeviceCall::Malloc { .. } => "Malloc",
            DeviceCall::Free { .. } => "Free",
            DeviceCall::Upload { .. } => "Upload",
            DeviceCall::Download { .. } => "Download",
            DeviceCall::CopyD2D { .. } => "CopyD2D",
            DeviceCall::Launch { .. } => "Launch",
            DeviceCall::StreamCreate => "StreamCreate",
            DeviceCall::StreamDestroy { .. } => "StreamDestroy",
            DeviceCall::EventCreate => "EventCreate",
            DeviceCall::EventDestroy { .. } => "EventDestroy",
            DeviceCall::EventRecord { .. } => "EventRecord",
            DeviceCall::StreamWaitEvent { .. } => "StreamWaitEvent",
            DeviceCall::EventQuery { .. } => "EventQuery",
            DeviceCall::StreamSync { .. } => "StreamSync",
            DeviceCall::DeviceSync => "DeviceSync",
        }
    }
}

/// Result of a device API call.
#[derive(Debug, Clone, PartialEq)]
pub enum CallResult {
    /// No payload.
    None,
    /// A newly allocated buffer handle.
    Buffer(BufferId),
    /// A newly created stream handle.
    Stream(StreamId),
    /// A newly created event handle.
    Event(EventId),
    /// Downloaded data.
    Data(Vec<f32>),
    /// Boolean (event query).
    Bool(bool),
}

impl CallResult {
    /// Extracts a buffer handle or errors.
    pub fn buffer(self) -> SimResult<BufferId> {
        match self {
            CallResult::Buffer(b) => Ok(b),
            other => Err(SimError::Protocol(format!(
                "expected buffer, got {other:?}"
            ))),
        }
    }

    /// Extracts a stream handle or errors.
    pub fn stream(self) -> SimResult<StreamId> {
        match self {
            CallResult::Stream(s) => Ok(s),
            other => Err(SimError::Protocol(format!(
                "expected stream, got {other:?}"
            ))),
        }
    }

    /// Extracts an event handle or errors.
    pub fn event(self) -> SimResult<EventId> {
        match self {
            CallResult::Event(e) => Ok(e),
            other => Err(SimError::Protocol(format!("expected event, got {other:?}"))),
        }
    }

    /// Extracts downloaded data or errors.
    pub fn data(self) -> SimResult<Vec<f32>> {
        match self {
            CallResult::Data(d) => Ok(d),
            other => Err(SimError::Protocol(format!("expected data, got {other:?}"))),
        }
    }
}

impl Encode for DeviceCall {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        match self {
            DeviceCall::Malloc {
                site,
                elems,
                logical_bytes,
                tag,
            } => {
                0u8.encode(buf);
                site.encode(buf);
                elems.encode(buf);
                logical_bytes.encode(buf);
                tag.encode(buf);
            }
            DeviceCall::Free { buf: b } => {
                1u8.encode(buf);
                b.encode(buf);
            }
            DeviceCall::Upload { buf: b, data } => {
                2u8.encode(buf);
                b.encode(buf);
                data.encode(buf);
            }
            DeviceCall::Download { buf: b } => {
                3u8.encode(buf);
                b.encode(buf);
            }
            DeviceCall::CopyD2D { src, dst } => {
                4u8.encode(buf);
                src.encode(buf);
                dst.encode(buf);
            }
            DeviceCall::Launch { stream, kernel } => {
                5u8.encode(buf);
                stream.encode(buf);
                kernel.encode(buf);
            }
            DeviceCall::StreamCreate => 6u8.encode(buf),
            DeviceCall::StreamDestroy { stream } => {
                7u8.encode(buf);
                stream.encode(buf);
            }
            DeviceCall::EventCreate => 8u8.encode(buf),
            DeviceCall::EventDestroy { event } => {
                9u8.encode(buf);
                event.encode(buf);
            }
            DeviceCall::EventRecord { stream, event } => {
                10u8.encode(buf);
                stream.encode(buf);
                event.encode(buf);
            }
            DeviceCall::StreamWaitEvent { stream, event } => {
                11u8.encode(buf);
                stream.encode(buf);
                event.encode(buf);
            }
            DeviceCall::EventQuery { event } => {
                12u8.encode(buf);
                event.encode(buf);
            }
            DeviceCall::StreamSync { stream } => {
                13u8.encode(buf);
                stream.encode(buf);
            }
            DeviceCall::DeviceSync => 14u8.encode(buf),
        }
    }
}

impl Decode for DeviceCall {
    fn decode(buf: &mut bytes::Bytes) -> SimResult<Self> {
        let tag = u8::decode(buf)?;
        Ok(match tag {
            0 => DeviceCall::Malloc {
                site: AllocSite::decode(buf)?,
                elems: u64::decode(buf)?,
                logical_bytes: u64::decode(buf)?,
                tag: BufferTag::decode(buf)?,
            },
            1 => DeviceCall::Free {
                buf: BufferId::decode(buf)?,
            },
            2 => DeviceCall::Upload {
                buf: BufferId::decode(buf)?,
                data: Vec::<f32>::decode(buf)?,
            },
            3 => DeviceCall::Download {
                buf: BufferId::decode(buf)?,
            },
            4 => DeviceCall::CopyD2D {
                src: BufferId::decode(buf)?,
                dst: BufferId::decode(buf)?,
            },
            5 => DeviceCall::Launch {
                stream: StreamId::decode(buf)?,
                kernel: KernelKind::decode(buf)?,
            },
            6 => DeviceCall::StreamCreate,
            7 => DeviceCall::StreamDestroy {
                stream: StreamId::decode(buf)?,
            },
            8 => DeviceCall::EventCreate,
            9 => DeviceCall::EventDestroy {
                event: EventId::decode(buf)?,
            },
            10 => DeviceCall::EventRecord {
                stream: StreamId::decode(buf)?,
                event: EventId::decode(buf)?,
            },
            11 => DeviceCall::StreamWaitEvent {
                stream: StreamId::decode(buf)?,
                event: EventId::decode(buf)?,
            },
            12 => DeviceCall::EventQuery {
                event: EventId::decode(buf)?,
            },
            13 => DeviceCall::StreamSync {
                stream: StreamId::decode(buf)?,
            },
            14 => DeviceCall::DeviceSync,
            other => return Err(SimError::Codec(format!("bad DeviceCall tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::codec::{decode_framed, encode_framed};

    #[test]
    fn call_codec_round_trip() {
        let calls = vec![
            DeviceCall::Malloc {
                site: AllocSite::new("w0", 16),
                elems: 16,
                logical_bytes: 64,
                tag: BufferTag::Param,
            },
            DeviceCall::Upload {
                buf: BufferId(3),
                data: vec![1.0, -2.0],
            },
            DeviceCall::Launch {
                stream: StreamId(0),
                kernel: KernelKind::Zero { buf: BufferId(3) },
            },
            DeviceCall::StreamWaitEvent {
                stream: StreamId(0),
                event: EventId(1),
            },
            DeviceCall::DeviceSync,
        ];
        for c in calls {
            let framed = encode_framed(&c);
            let back: DeviceCall = decode_framed(&framed).unwrap();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn object_creation_classification() {
        assert!(DeviceCall::StreamCreate.creates_object());
        assert!(DeviceCall::EventCreate.creates_object());
        assert!(!DeviceCall::DeviceSync.creates_object());
    }

    #[test]
    fn result_extractors() {
        assert_eq!(
            CallResult::Buffer(BufferId(5)).buffer().unwrap(),
            BufferId(5)
        );
        assert!(CallResult::None.buffer().is_err());
        assert_eq!(CallResult::Data(vec![1.0]).data().unwrap(), vec![1.0]);
        assert!(CallResult::Bool(true).data().is_err());
    }
}
