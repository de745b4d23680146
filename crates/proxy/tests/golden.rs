//! Pinned wire bytes of the proxied device-call path: the length and
//! CRC-64 of one `encode_batch` frame and of the replay-log image after
//! `push_device` of the same calls. The batch carries an `Upload` of about
//! 150 KiB of seeded bit patterns (NaN payloads and subnormals included),
//! so it straddles three 64 KiB shards. A faster codec must leave every
//! number below unchanged; a change to one of them is a wire-format
//! change.

use bytes::BytesMut;
use proxy::{decode_batch, encode_batch, OpLog, BATCH_SHARD_BYTES};
use simcore::codec::{crc64, Encode};
use simcore::rng::DetRng;
use simgpu::{AllocSite, BufferId, BufferTag, DeviceCall, KernelKind, StreamId};

fn seeded_calls() -> Vec<DeviceCall> {
    let mut rng = DetRng::new(0x0BA7_C4ED);
    let data: Vec<f32> = (0..38_000)
        .map(|_| f32::from_bits((rng.next_u64() >> 32) as u32))
        .collect();
    vec![
        DeviceCall::Malloc {
            site: AllocSite::new("model.w", 38_000),
            elems: 38_000,
            logical_bytes: 152_000,
            tag: BufferTag::Param,
        },
        DeviceCall::Upload {
            buf: BufferId(17),
            data,
        },
        DeviceCall::Launch {
            stream: StreamId(3),
            kernel: KernelKind::Axpy {
                alpha: -0.75,
                x: BufferId(17),
                y: BufferId(18),
            },
        },
        DeviceCall::Free { buf: BufferId(17) },
    ]
}

fn encoded<T: Encode>(value: &T) -> BytesMut {
    let mut buf = BytesMut::new();
    value.encode(&mut buf);
    buf
}

/// `(len, crc64)` of the batch frame: three `JITS` shards, the last
/// partial.
const BATCH_FRAME: (usize, u64) = (152_181, 0xa0e2b35ef8ad42fc);

#[test]
fn batch_frame_is_pinned() {
    let calls = seeded_calls();
    let frame = encode_batch(&calls, BATCH_SHARD_BYTES);
    assert_eq!((frame.len(), crc64(&frame)), BATCH_FRAME);
    // Three shards: two full 64 KiB payloads and a partial one.
    assert!(frame.len() > 2 * (BATCH_SHARD_BYTES + 24));
    assert!(frame.len() < 3 * (BATCH_SHARD_BYTES + 24));
    // Decoding yields the same calls, bit for bit (NaN payloads are not
    // `==` to themselves, so compare encodings).
    let back = decode_batch(&frame).unwrap();
    assert_eq!(back.len(), calls.len());
    for (a, b) in back.iter().zip(&calls) {
        assert_eq!(encoded(a), encoded(b));
    }
}

/// `(len, crc64)` of the replay-log image (`u64` count, then the arena)
/// after `push_device` of the batch's calls, the `Malloc` with a result id.
const OPLOG_IMAGE: (usize, u64) = (152_125, 0x9993cb2d17f79b88);

#[test]
fn oplog_arena_is_pinned() {
    let mut log = OpLog::new();
    for call in seeded_calls() {
        let vid = matches!(call, DeviceCall::Malloc { .. }).then_some(1 << 32);
        log.push_device(&call, vid);
    }
    let image = encoded(&log);
    assert_eq!(image.len(), log.arena_len() + 8);
    assert_eq!((image.len(), crc64(&image)), OPLOG_IMAGE);
}
