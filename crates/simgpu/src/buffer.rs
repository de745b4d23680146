//! Device memory: buffers, tags, and allocation-site identity.
//!
//! Two properties of real GPU memory matter for JIT checkpointing and are
//! modelled here:
//!
//! 1. **Buffer classes.** Recovery treats model parameters and optimizer
//!    state differently from activations/gradients/workspace: the former
//!    are retained (or restored from a replica), the latter are discarded
//!    and regenerated by replay (§4.2.1). The trainer assigns a
//!    [`BufferTag`] at allocation time.
//! 2. **Cross-rank buffer identity.** §4.3 needs a buffer name that is
//!    *identical across data-parallel replicas* so a failed rank can read
//!    the checkpoint files a healthy replica wrote. The paper hashes the
//!    allocation call stack plus a sequence number plus the size; we model
//!    the call stack as an [`AllocSite`] label provided by the allocating
//!    layer (the same code path on every rank produces the same label).

use serde::{Deserialize, Serialize};
use simcore::codec::{Decode, Encode};
use simcore::{SimError, SimResult};
use std::fmt;

/// Handle to a device buffer. In proxy mode the application only ever sees
/// *virtual* buffer ids that the proxy maps to physical ones, which is what
/// lets recovery re-create physical buffers without changing application
/// state (§4.2.1's virtual-handle technique).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BufferId(pub u64);

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buf{}", self.0)
    }
}

impl Encode for BufferId {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.0.encode(buf);
    }
}

impl Decode for BufferId {
    fn decode(buf: &mut bytes::Bytes) -> SimResult<Self> {
        Ok(BufferId(u64::decode(buf)?))
    }
}

/// Class of a device buffer, assigned at allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BufferTag {
    /// Model parameters — persistent training state.
    Param,
    /// Optimizer state (momentum, Adam moments) — persistent.
    OptimState,
    /// Layer activations — regenerated by replay.
    Activation,
    /// Gradients — regenerated by replay.
    Gradient,
    /// Minibatch input data — re-uploaded by replay.
    Input,
    /// Scratch/workspace memory.
    Workspace,
}

impl BufferTag {
    /// True for state that must survive recovery (checkpointed / retained).
    pub fn is_persistent(self) -> bool {
        matches!(self, BufferTag::Param | BufferTag::OptimState)
    }

    /// Encoded discriminant for the codec.
    fn to_u8(self) -> u8 {
        match self {
            BufferTag::Param => 0,
            BufferTag::OptimState => 1,
            BufferTag::Activation => 2,
            BufferTag::Gradient => 3,
            BufferTag::Input => 4,
            BufferTag::Workspace => 5,
        }
    }

    pub(crate) fn from_u8(v: u8) -> SimResult<Self> {
        Ok(match v {
            0 => BufferTag::Param,
            1 => BufferTag::OptimState,
            2 => BufferTag::Activation,
            3 => BufferTag::Gradient,
            4 => BufferTag::Input,
            5 => BufferTag::Workspace,
            other => return Err(SimError::Codec(format!("bad BufferTag {other}"))),
        })
    }
}

impl Encode for BufferTag {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.to_u8().encode(buf);
    }
}

impl Decode for BufferTag {
    fn decode(buf: &mut bytes::Bytes) -> SimResult<Self> {
        BufferTag::from_u8(u8::decode(buf)?)
    }
}

/// Allocation-site identity: a stable label for "the same allocation on
/// every rank".
///
/// The paper derives this from a hash of the allocating call stack, a
/// per-site sequence count, and the buffer size (§4.3). We carry the label
/// explicitly (`path` = the allocating module path, e.g.
/// `"model.layer3.linear.weight"`), and the device allocator appends the
/// per-site sequence number. `AllocSite::storage_key` produces the
/// cross-rank-stable checkpoint object name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AllocSite {
    /// Stable allocation-path label (stands in for the call-stack hash).
    pub path: String,
    /// Sequence number among allocations with the same path.
    pub seq: u32,
    /// Element count of the allocation (part of the identity, as in the
    /// paper where the buffer size disambiguates).
    pub elems: u64,
}

impl AllocSite {
    /// Creates a site with sequence number 0 (the allocator fills in the
    /// real sequence).
    pub fn new(path: impl Into<String>, elems: u64) -> Self {
        AllocSite {
            path: path.into(),
            seq: 0,
            elems,
        }
    }

    /// The cross-rank-stable storage key for this buffer's checkpoint
    /// object: identical on every data-parallel replica because it depends
    /// only on the allocation path, sequence, and size.
    pub(crate) fn storage_key(&self) -> String {
        // A stable FNV-1a hash keeps keys short, mirroring the paper's
        // "hash of call stack" while remaining debuggable via the path.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in self.path.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        format!(
            "{}-{:x}-s{}-n{}",
            self.path,
            h & 0xffff_ffff,
            self.seq,
            self.elems
        )
    }
}

impl Encode for AllocSite {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.path.encode(buf);
        self.seq.encode(buf);
        self.elems.encode(buf);
    }
}

impl Decode for AllocSite {
    fn decode(buf: &mut bytes::Bytes) -> SimResult<Self> {
        Ok(AllocSite {
            path: String::decode(buf)?,
            seq: u32::decode(buf)?,
            elems: u64::decode(buf)?,
        })
    }
}

/// A device buffer: real `f32` payload plus a *logical* size for the cost
/// model.
///
/// `logical_bytes` implements phantom scaling (see DESIGN.md §2): timing
/// reflects paper-scale state sizes (e.g. 15 GB/rank for GPT2-18B) while
/// the actual payload stays laptop-sized. For ordinary buffers
/// `logical_bytes == 4 * data.len()`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceBuffer {
    /// Buffer handle.
    pub id: BufferId,
    /// Real payload the kernels compute on.
    pub data: Vec<f32>,
    /// Size used for all bandwidth/time accounting.
    pub logical_bytes: u64,
    /// Buffer class.
    pub tag: BufferTag,
    /// Allocation-site identity (cross-rank-stable naming).
    pub site: AllocSite,
}

impl DeviceBuffer {
    /// Checksum over the exact bit patterns of the payload.
    pub fn checksum(&self) -> u64 {
        simcore::codec::f32_checksum(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persistent_classification() {
        assert!(BufferTag::Param.is_persistent());
        assert!(BufferTag::OptimState.is_persistent());
        assert!(!BufferTag::Activation.is_persistent());
        assert!(!BufferTag::Gradient.is_persistent());
        assert!(!BufferTag::Input.is_persistent());
        assert!(!BufferTag::Workspace.is_persistent());
    }

    #[test]
    fn storage_key_is_stable_and_distinguishes_sites() {
        let a = AllocSite {
            path: "model.l0.weight".into(),
            seq: 0,
            elems: 1024,
        };
        let a2 = a.clone();
        assert_eq!(a.storage_key(), a2.storage_key());
        let b = AllocSite {
            path: "model.l0.weight".into(),
            seq: 1,
            elems: 1024,
        };
        assert_ne!(a.storage_key(), b.storage_key());
        let c = AllocSite {
            path: "model.l1.weight".into(),
            seq: 0,
            elems: 1024,
        };
        assert_ne!(a.storage_key(), c.storage_key());
    }

    #[test]
    fn tag_codec_round_trip() {
        use simcore::codec::{decode_framed, encode_framed};
        for tag in [
            BufferTag::Param,
            BufferTag::OptimState,
            BufferTag::Activation,
            BufferTag::Gradient,
            BufferTag::Input,
            BufferTag::Workspace,
        ] {
            let framed = encode_framed(&tag);
            let back: BufferTag = decode_framed(&framed).unwrap();
            assert_eq!(back, tag);
        }
    }

    #[test]
    fn buffer_checksum_tracks_content() {
        let mut b = DeviceBuffer {
            id: BufferId(1),
            data: vec![1.0, 2.0],
            logical_bytes: 8,
            tag: BufferTag::Param,
            site: AllocSite::new("x", 2),
        };
        let c1 = b.checksum();
        b.data[0] = 1.5;
        assert_ne!(c1, b.checksum());
    }
}
