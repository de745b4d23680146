//! Pinned lengths and CRC-64 values of seeded inputs.
//!
//! Checkpoint shards, sidecars, stream frames and transparent class (e)
//! buffer files are all judged by `crc64` and laid out by the framed
//! codec. A faster kernel or a leaner encoder must leave every number
//! below unchanged; a change to one of them is a wire-format change.

use simcore::codec::{crc64, crc64_bitwise, encode_framed, f32_checksum};
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
/// 8-byte fold, around the 16-byte fold, around 512 bytes (the shortest
/// input a 256-byte block fold takes) and one fold step past it, around
/// three 4 KiB lanes, a 64 KiB proxy frame, and one odd length past a MiB.
const CRC64_OF_PREFIX: &[(usize, u64)] = &[
    (0, 0x0000000000000000),
    (1, 0xf4f3e018f031d689),
    (7, 0xe29cb1c63421c7a0),
    (16, 0x7b384874fd8da580),
    (17, 0x8c4270d6597dc2a1),
    (511, 0x1d71cdfa29a96b47),
    (512, 0x879f4b84a80cb915),
    (513, 0x7dc7975a3727e978),
    (769, 0x547ff900a155ce4b),
    (783, 0x410a0f0e99008dcd),
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

/// Seeded `f32`s with every awkward bit pattern in the mix: −0.0, quiet
/// and signalling NaNs with payloads of either sign, and subnormals,
/// between arbitrary bit patterns.
fn seeded_special_f32s(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = DetRng::new(seed);
    (0..n)
        .map(|_| {
            let r = rng.next_u64();
            let (pick, bits, sign) = (r % 8, (r >> 32) as u32, (r >> 8) as u32 & 0x8000_0000);
            f32::from_bits(match pick {
                0 => 0x8000_0000,
                1 => sign | 0x7fc0_0000 | (bits & 0x003f_ffff),
                2 => sign | 0x7f80_0001 | (bits & 0x003f_ffff),
                3 => sign | (bits & 0x007f_ffff),
                _ => bits,
            })
        })
        .collect()
}

/// `(elements, f32_checksum)` of prefixes of one seeded buffer: empty,
/// single values, around the crc64 lane threshold (384 elements =
/// 1536 bytes), around 64 KiB, and a MiB of elements.
const F32_CHECKSUM_OF_PREFIX: &[(usize, u64)] = &[
    (0, 0x0000000000000000),
    (1, 0x24033db8d153d1e2),
    (3, 0x6d75c7a24fbbd097),
    (383, 0xce655dc341ca2970),
    (384, 0x79e31aa21b3685b7),
    (16_383, 0xff28b081a2e041c0),
    (16_384, 0xe853219cbf59ee6d),
    (16_385, 0xb1285aeea49af2e6),
    (1 << 20, 0x6a61cb7b3588d4d2),
];

#[test]
fn f32_checksum_of_special_values_is_pinned() {
    let data = seeded_special_f32s(0x0F32_C0DE, 1 << 20);
    let bits = |v: f32| v.to_bits();
    assert!(data.iter().any(|v| bits(*v) == 0x8000_0000), "−0.0");
    assert!(
        data.iter()
            .any(|v| v.is_nan() && bits(*v) & 0x0040_0000 == 0),
        "sNaN"
    );
    assert!(data.iter().any(|v| v.is_subnormal()), "subnormal");
    let got: Vec<(usize, u64)> = [0, 1, 3, 383, 384, 16_383, 16_384, 16_385, 1 << 20]
        .into_iter()
        .map(|n| (n, f32_checksum(&data[..n])))
        .collect();
    assert_eq!(got, F32_CHECKSUM_OF_PREFIX);
    // The checksum is the crc64 of the little-endian bit patterns.
    for &(n, want) in &got[..6] {
        let raw: Vec<u8> = data[..n].iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(crc64_bitwise(&raw), want, "oracle, {n} elements");
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
