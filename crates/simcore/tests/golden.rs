//! Pinned lengths and CRC-64 values of seeded inputs.
//!
//! Checkpoint shards, sidecars, stream frames and transparent class (e)
//! buffer files are all judged by `crc64` and laid out by the framed
//! codec. A faster kernel or a leaner encoder must leave every number
//! below unchanged; a change to one of them is a wire-format change.

use simcore::codec::{crc64, crc64_bitwise, encode_framed};
use simcore::rng::DetRng;

fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = DetRng::new(seed);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

fn seeded_f32s(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = DetRng::new(seed);
    (0..n)
        .map(|_| f32::from_bits((rng.next_u64() >> 32) as u32))
        .collect()
}

/// `(len, crc64)` of prefixes of one seeded stream: empty, below one
/// 8-byte fold, around the 16-byte fold, around three 4 KiB lanes, a
/// 64 KiB proxy frame, and one odd length past a MiB.
const CRC64_OF_PREFIX: &[(usize, u64)] = &[
    (0, 0x0000000000000000),
    (1, 0xf4f3e018f031d689),
    (7, 0xe29cb1c63421c7a0),
    (16, 0x7b384874fd8da580),
    (17, 0x8c4270d6597dc2a1),
    (12_287, 0x1f2f90a33e7b8817),
    (12_288, 0x64aac0a3f8c9599b),
    (12_289, 0x16508d7fcf81b518),
    (24_591, 0xe2e5abd071194b87),
    (65_536, 0x42a77a9cc93e81d6),
    (1_048_583, 0x952bdb78a911dead),
];

#[test]
fn crc64_of_seeded_prefixes_is_pinned() {
    let data = seeded_bytes(0x5EED_C0DE, 1_048_583);
    for &(len, want) in CRC64_OF_PREFIX {
        assert_eq!(crc64(&data[..len]), want, "len {len}");
    }
    // The pins are the bitwise oracle's values too.
    for &(len, want) in CRC64_OF_PREFIX.iter().filter(|(len, _)| *len <= 65_536) {
        assert_eq!(crc64_bitwise(&data[..len]), want, "oracle, len {len}");
    }
}

/// One framed `Vec<f32>` message, the wire form of a transparent class (e)
/// buffer file: `JITC | len | u64 count | f32 LE … | crc64`.
#[test]
fn framed_f32_message_is_pinned() {
    let data = seeded_f32s(0xE5, 5_003);
    let framed = encode_framed(&data);
    assert_eq!(framed.len(), 4 + 8 + 8 + 5_003 * 4 + 8);
    assert_eq!(&framed[..4], b"JITC");
    assert_eq!(crc64(&framed), 0x8a8cab1e3550cc8b);
    let trailer = u64::from_le_bytes(framed[framed.len() - 8..].try_into().unwrap());
    assert_eq!(trailer, 0x0912b15c35655218);
}
