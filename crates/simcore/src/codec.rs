//! A small length-prefixed binary codec for checkpoint files and CRIU
//! images.
//!
//! The approved dependency set has `serde` but no serialization *format*
//! crate, so checkpoint payloads use this hand-rolled codec instead: a
//! flat, little-endian, length-prefixed encoding with explicit field order
//! and a trailing CRC for corruption detection. This is also closer to how
//! production checkpoint writers work — they stream tensors, they do not
//! reflect over object graphs.
//!
//! The [`Encode`]/[`Decode`] traits are implemented for the primitive
//! types, `String`, `Vec<T>`, `Option<T>`, and tuples; higher layers
//! compose them for their state structs. A `Vec<T>` carries its items
//! through [`Encode::encode_seq`] / [`Decode::decode_seq`], so every
//! `Vec<f32>` — tensor payloads, uploads, buffer files — takes the one
//! block conversion `f32` overrides them with, whoever encodes it.

use crate::error::{SimError, SimResult};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Serializes a value into a byte buffer.
pub trait Encode {
    /// Appends the encoded representation of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// The number of bytes [`Encode::encode`] appends, or a lower bound
    /// on it, so that [`encode_framed`] and [`Encoder::write`] can size
    /// their buffer once; the default, 0, lets a value grow the buffer as
    /// it goes.
    fn size_hint(&self) -> usize {
        0
    }

    /// Appends `items` one after another: the body of a `Vec<Self>` after
    /// its length prefix. The default encodes item by item; a type whose
    /// sequences convert faster as a block (`f32`) overrides it, and every
    /// `Vec` of that type then takes the block path.
    fn encode_seq(items: &[Self], buf: &mut BytesMut)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(buf);
        }
    }
}

/// Deserializes a value from a byte buffer.
pub trait Decode: Sized {
    /// Reads a value from the front of `buf`, consuming its bytes.
    fn decode(buf: &mut Bytes) -> SimResult<Self>;

    /// Reads `len` items from the front of `buf`: the body of a
    /// `Vec<Self>` after its length prefix, the inverse of
    /// [`Encode::encode_seq`]. The default decodes item by item.
    fn decode_seq(len: usize, buf: &mut Bytes) -> SimResult<Vec<Self>> {
        let mut out = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            out.push(Self::decode(buf)?);
        }
        Ok(out)
    }
}

fn need(buf: &Bytes, n: usize) -> SimResult<()> {
    if buf.remaining() < n {
        return Err(SimError::Codec(format!(
            "truncated input: need {n} bytes, have {}",
            buf.remaining()
        )));
    }
    Ok(())
}

/// Checks that `buf` holds a `len`-byte payload and its 8-byte CRC
/// trailer. `len` comes off the wire, so the sum must not overflow.
fn need_payload_and_crc(buf: &Bytes, len: usize) -> SimResult<()> {
    match len.checked_add(8) {
        Some(n) => need(buf, n),
        None => Err(SimError::Codec(format!("implausible payload length {len}"))),
    }
}

macro_rules! codec_num {
    ($t:ty, $put:ident, $get:ident, $size:expr) => {
        impl Encode for $t {
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }

            fn size_hint(&self) -> usize {
                $size
            }
        }
        impl Decode for $t {
            fn decode(buf: &mut Bytes) -> SimResult<Self> {
                need(buf, $size)?;
                Ok(buf.$get())
            }
        }
    };
}

codec_num!(u8, put_u8, get_u8, 1);
codec_num!(u16, put_u16_le, get_u16_le, 2);
codec_num!(u32, put_u32_le, get_u32_le, 4);
codec_num!(u64, put_u64_le, get_u64_le, 8);
codec_num!(i64, put_i64_le, get_i64_le, 8);
codec_num!(f64, put_f64_le, get_f64_le, 8);

/// Elements per block of the `f32` block conversion: 4 KiB of wire bytes,
/// a stack scratch that stays in L1.
const F32_BLOCK: usize = 1024;

/// Writes the little-endian bytes of `values` into `out`, which holds
/// exactly four bytes per value. A plain loop over fixed-size pieces, which
/// the compiler turns into a vectorized byte shuffle.
fn f32s_to_le(values: &[f32], out: &mut [u8]) {
    for (dst, v) in out.chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

impl Encode for f32 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_f32_le(*self);
    }

    fn size_hint(&self) -> usize {
        4
    }

    /// The same bytes as one `put_f32_le` per item, without the per-item
    /// bounds check and 4-byte append: values are converted through a
    /// stack block and appended 4 KiB at a time into space reserved once.
    fn encode_seq(items: &[f32], buf: &mut BytesMut) {
        buf.reserve(items.len() * 4);
        let mut scratch = [0u8; F32_BLOCK * 4];
        for chunk in items.chunks(F32_BLOCK) {
            let raw = &mut scratch[..chunk.len() * 4];
            f32s_to_le(chunk, raw);
            buf.put_slice(raw);
        }
    }
}

impl Decode for f32 {
    fn decode(buf: &mut Bytes) -> SimResult<Self> {
        need(buf, 4)?;
        Ok(buf.get_f32_le())
    }

    /// The length is checked against the input before anything is
    /// allocated, the output is sized once, and values are converted in
    /// 4 KiB blocks: extending from an exact-length block iterator writes
    /// straight into the reserved space, with no per-item capacity check.
    fn decode_seq(len: usize, buf: &mut Bytes) -> SimResult<Vec<f32>> {
        need(buf, len.saturating_mul(4))?;
        let raw = buf.split_to(len * 4);
        let mut out = Vec::with_capacity(len);
        for block in raw.chunks(F32_BLOCK * 4) {
            out.extend(
                block
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
            );
        }
        Ok(out)
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
}

impl Decode for bool {
    fn decode(buf: &mut Bytes) -> SimResult<Self> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SimError::Codec(format!("invalid bool byte {other}"))),
        }
    }
}

impl Encode for usize {
    fn encode(&self, buf: &mut BytesMut) {
        (*self as u64).encode(buf);
    }
}

impl Decode for usize {
    fn decode(buf: &mut Bytes) -> SimResult<Self> {
        Ok(u64::decode(buf)? as usize)
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u64).encode(buf);
        buf.put_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(buf: &mut Bytes) -> SimResult<Self> {
        let len = u64::decode(buf)? as usize;
        need(buf, len)?;
        let raw = buf.split_to(len);
        String::from_utf8(raw.to_vec())
            .map_err(|e| SimError::Codec(format!("invalid utf-8 string: {e}")))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u64).encode(buf);
        T::encode_seq(self, buf);
    }

    fn size_hint(&self) -> usize {
        8 + self.iter().map(T::size_hint).sum::<usize>()
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &mut Bytes) -> SimResult<Self> {
        let len = u64::decode(buf)? as usize;
        // Guard against absurd lengths from corrupt input.
        if len > buf.remaining().saturating_mul(8).saturating_add(1024) {
            return Err(SimError::Codec(format!(
                "implausible vector length {len} for {} remaining bytes",
                buf.remaining()
            )));
        }
        T::decode_seq(len, buf)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut Bytes) -> SimResult<Self> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            other => Err(SimError::Codec(format!("invalid option tag {other}"))),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(buf: &mut Bytes) -> SimResult<Self> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl Encode for [u64; 4] {
    fn encode(&self, buf: &mut BytesMut) {
        for v in self {
            v.encode(buf);
        }
    }
}

impl Decode for [u64; 4] {
    fn decode(buf: &mut Bytes) -> SimResult<Self> {
        Ok([
            u64::decode(buf)?,
            u64::decode(buf)?,
            u64::decode(buf)?,
            u64::decode(buf)?,
        ])
    }
}

/// CRC-64 ECMA generator polynomial (MSB-first form).
const CRC64_POLY: u64 = 0x42F0_E1EB_A9EA_3693;

/// Slice-by-16 lookup tables, built at compile time. `TABLES[0]` is the
/// classic one-byte-at-a-time table; `TABLES[n]` advances a byte's
/// contribution `n` additional zero bytes, which lets the hot loop fold
/// sixteen input bytes per step instead of running the 8-cycles-per-bit
/// shift register of the bitwise form.
const fn crc64_tables() -> [[u64; 256]; 16] {
    let mut t = [[0u64; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u64) << 56;
        let mut k = 0;
        while k < 8 {
            crc = if crc & (1 << 63) != 0 {
                (crc << 1) ^ CRC64_POLY
            } else {
                crc << 1
            };
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut n = 1;
    while n < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[n - 1][i];
            t[n][i] = (prev << 8) ^ t[0][(prev >> 56) as usize];
            i += 1;
        }
        n += 1;
    }
    t
}

static CRC64_TABLES: [[u64; 256]; 16] = crc64_tables();

/// `a · b mod P` in GF(2)[x], both operands and the result in the
/// register's MSB-first form (bit `i` is the coefficient of `x^i`).
const fn gf2_mulmod(mut a: u64, mut b: u64) -> u64 {
    let mut r = 0;
    while b != 0 {
        r ^= a & 0u64.wrapping_sub(b & 1);
        a = (a << 1) ^ (CRC64_POLY & 0u64.wrapping_sub(a >> 63));
        b >>= 1;
    }
    r
}

/// `X8_POW2[k] = x^(8·2^k) mod P`: running a register over `2^k` zero
/// bytes multiplies it by this. Built once here so that combining lanes
/// costs a handful of multiplications per call, not repeated squaring.
const X8_POW2: [u64; 64] = {
    let mut t = [0u64; 64];
    t[0] = 1 << 8;
    let mut k = 1;
    while k < 64 {
        t[k] = gf2_mulmod(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// `x^(8·n) mod P`: the factor that runs a register over `n` zero bytes.
fn x_pow_8n(mut n: usize) -> u64 {
    let mut r = 1;
    let mut k = 0;
    while n != 0 {
        if n & 1 != 0 {
            r = gf2_mulmod(X8_POW2[k], r);
        }
        n >>= 1;
        k += 1;
    }
    r
}

/// Independent chains the three-lane table kernel interleaves.
const LANES: usize = 3;

/// Shortest lane of the three-lane table kernel, in bytes. Below three of
/// them one chain is faster: the combine costs a few GF(2)
/// multiplications, each as much as a few hundred bytes of input (about
/// 90 ns on a Sapphire Rapids core, where the measured crossover is
/// between 1 and 1.5 KiB). Where the folding kernel runs, it takes every
/// input of [`FOLD_MIN`] bytes or more, so this bound only splits the
/// table kernel's inputs.
const MIN_LANE: usize = 512;

/// Shortest input the carry-less folding kernel takes: two of its
/// 256-byte blocks, so that every run folds at least once, which is where
/// `tests/golden.rs` pins its edges. The kernel would win on one block
/// too (about 32 against 160 ns for a 256-byte chain on a Sapphire Rapids
/// core), but inputs that short are headers and sidecars, not the state
/// bytes every recovery leg moves.
const FOLD_MIN: usize = 512;

/// Folds the big-endian word `x` through `t[base..base + 8]`: byte `j`
/// from the bottom is advanced `base + j` further zero bytes.
#[inline(always)]
fn fold8(t: &[[u64; 256]; 16], base: usize, x: u64) -> u64 {
    t[base + 7][(x >> 56) as usize]
        ^ t[base + 6][(x >> 48) as u8 as usize]
        ^ t[base + 5][(x >> 40) as u8 as usize]
        ^ t[base + 4][(x >> 32) as u8 as usize]
        ^ t[base + 3][(x >> 24) as u8 as usize]
        ^ t[base + 2][(x >> 16) as u8 as usize]
        ^ t[base + 1][(x >> 8) as u8 as usize]
        ^ t[base][x as u8 as usize]
}

/// Runs the register `crc` over one 16-byte block. The register meets
/// only the first eight bytes; the last eight index their tables straight
/// from memory, which spends loads instead of the shifts and masks that
/// bound the kernel on arithmetic.
#[inline(always)]
fn step16(t: &[[u64; 256]; 16], crc: u64, b: &[u8; 16]) -> u64 {
    let hi = crc ^ u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
    fold8(t, 8, hi)
        ^ t[7][b[8] as usize]
        ^ t[6][b[9] as usize]
        ^ t[5][b[10] as usize]
        ^ t[4][b[11] as usize]
        ^ t[3][b[12] as usize]
        ^ t[2][b[13] as usize]
        ^ t[1][b[14] as usize]
        ^ t[0][b[15] as usize]
}

/// Runs the register `crc` over `data` as one slice-by-16 chain, then the
/// 8-byte fold and single bytes for the remainder.
fn chain(mut crc: u64, data: &[u8]) -> u64 {
    let t = &CRC64_TABLES;
    let (blocks, rest) = data.as_chunks::<16>();
    for block in blocks {
        crc = step16(t, crc, block);
    }
    let (words, rest) = rest.as_chunks::<8>();
    for word in words {
        crc = fold8(t, 0, crc ^ u64::from_be_bytes(*word));
    }
    for &b in rest {
        crc = (crc << 8) ^ t[0][((crc >> 56) as u8 ^ b) as usize];
    }
    crc
}

/// CRC-64 (ECMA polynomial) over a byte slice; used as the integrity check
/// trailer on checkpoint payloads and for GPU-buffer checksums during
/// replay-log verification (§4.1).
///
/// On an x86-64 CPU with AVX-512 and VPCLMULQDQ, every input of
/// [`FOLD_MIN`] bytes or more runs the carry-less folding kernel (see
/// `clmul`), which folds 256-byte blocks at memory speed. Every other CPU
/// and every shorter input runs the three-lane table kernel,
/// [`crc64_lanes`]. Both are bit-identical to [`crc64_bitwise`] (the
/// reference implementation) for every input. Every checkpoint write,
/// store read and stream frame makes a full pass of this function over
/// the state, so it sits squarely on the §5 critical path.
pub fn crc64(data: &[u8]) -> u64 {
    !crc64_update(!0, data)
}

/// Runs the register `crc` over `data` — the body of [`crc64`], which
/// starts from `!0` and inverts the result; a caller that feeds its input
/// in pieces carries the register from one piece to the next.
fn crc64_update(crc: u64, data: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = clmul::update(crc, data) {
        return crc;
    }
    crc64_lanes(crc, data)
}

/// The table kernel: slice-by-16 over three interleaved lanes. The
/// input's three leading thirds (whole 16-byte blocks) run as independent
/// chains in one loop, so one chain's table loads overlap another's XOR
/// tree, and the three registers are then combined by multiplying with
/// `x^(8·lane)` mod P (zlib's `crc32_combine`). The tail of fewer than 48
/// bytes, and any input shorter than three [`MIN_LANE`]s, runs one chain.
fn crc64_lanes(crc: u64, data: &[u8]) -> u64 {
    let lane = data.len() / (LANES * 16) * 16;
    if lane < MIN_LANE {
        return chain(crc, data);
    }
    let t = &CRC64_TABLES;
    let (blocks, _) = data.as_chunks::<16>();
    let (a, rest) = blocks.split_at(lane / 16);
    let (b, c) = rest.split_at(lane / 16);
    let (mut ra, mut rb, mut rc) = (crc, 0, 0);
    for ((x, y), z) in a.iter().zip(b).zip(c) {
        ra = step16(t, ra, x);
        rb = step16(t, rb, y);
        rc = step16(t, rc, z);
    }
    let shift = x_pow_8n(lane);
    let crc = gf2_mulmod(gf2_mulmod(ra, shift) ^ rb, shift) ^ rc;
    chain(crc, &data[LANES * lane..])
}

/// The folding kernel: CRC-64 by carry-less multiplication, after Intel's
/// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ".
///
/// The input is read as 128-bit lanes, each byte-reversed so that its
/// first byte holds the highest coefficients, as the MSB-first register
/// reads it. A lane `H·x^64 + L` moved `D` bits further on is congruent,
/// mod P, to `H·(x^(D+64) mod P) + L·(x^D mod P)`: two 64 × 64-bit
/// carry-less products whose sum fits in the 128-bit lane. Four 512-bit
/// accumulators hold one 256-byte block (16 lanes) and fold into the next
/// block with `D` = 2048; at the end the 16 lanes fold into one with
/// `D` = 128, and that lane's CRC from a zero register (one table chain
/// over 16 bytes) is the register after the folded blocks, so no Barrett
/// reduction is needed. The tail of fewer than 256 bytes runs on the
/// table chain.
///
/// The one item of the crates that allows `unsafe` code, for the loads
/// and the one call into the feature-gated fold. A CRC's value is fixed
/// by its polynomial, not by an order of operations, and the codec's
/// tests hold this kernel to [`crc64_bitwise`] and to pinned values bit
/// for bit.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use super::{chain, gf2_mulmod, FOLD_MIN, X8_POW2};
    use std::arch::x86_64::*;

    /// Bytes per fold step: four 64-byte accumulators.
    const BLOCK: usize = 256;

    /// `[x^(D+64) mod P, x^D mod P]`, the factors of a lane's high and low
    /// halves, for `D` = 8·`2^k` bits (`X8_POW2[3]` is `x^64 mod P`).
    const fn factors(k: usize) -> [u64; 2] {
        [gf2_mulmod(X8_POW2[k], X8_POW2[3]), X8_POW2[k]]
    }

    /// Moves a lane one 256-byte block (2048 bits) on.
    const BY_BLOCK: [u64; 2] = factors(8);

    /// Moves a lane one lane (128 bits) on.
    const BY_LANE: [u64; 2] = factors(4);

    /// Runs the register `crc` over `data` with the folding kernel, or
    /// returns `None` where it does not apply: an input shorter than
    /// [`FOLD_MIN`], or a CPU without the features the kernel needs.
    pub(super) fn update(crc: u64, data: &[u8]) -> Option<u64> {
        if data.len() < FOLD_MIN
            || !(is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("vpclmulqdq")
                && is_x86_feature_detected!("pclmulqdq"))
        {
            return None;
        }
        let (blocks, tail) = data.as_chunks::<BLOCK>();
        let (first, rest) = blocks.split_first()?;
        // SAFETY: every feature `fold` is compiled for was detected above.
        let crc = unsafe { fold(crc, first, rest) };
        Some(chain(crc, tail))
    }

    /// The 128-bit lane `[lo, hi]` as a vector of four such lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat(hi: u64, lo: u64) -> __m512i {
        _mm512_broadcast_i32x4(_mm_set_epi64x(hi as i64, lo as i64))
    }

    /// Loads the `i`th 64 bytes of `block`, each 16-byte lane reversed.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    fn load(block: &[u8; BLOCK], i: usize, reverse: __m512i) -> __m512i {
        let bytes = &block.as_chunks::<64>().0[i];
        // SAFETY: `bytes` is 64 readable bytes; the load is unaligned.
        let raw = unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) };
        _mm512_shuffle_epi8(raw, reverse)
    }

    /// `acc` moved on by `by`, plus `next`.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn fold_into(acc: __m512i, by: __m512i, next: __m512i) -> __m512i {
        let hi = _mm512_clmulepi64_epi128::<0x11>(acc, by);
        let lo = _mm512_clmulepi64_epi128::<0x00>(acc, by);
        _mm512_ternarylogic_epi64::<0x96>(hi, lo, next)
    }

    /// `r` moved one lane on, plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_lane(r: __m128i, next: __m128i) -> __m128i {
        let by = _mm_set_epi64x(BY_LANE[0] as i64, BY_LANE[1] as i64);
        let hi = _mm_clmulepi64_si128::<0x11>(r, by);
        let lo = _mm_clmulepi64_si128::<0x00>(r, by);
        _mm_xor_si128(_mm_xor_si128(hi, lo), next)
    }

    /// Runs the register `crc` over `first`, then each of `rest`.
    #[target_feature(enable = "avx512f,avx512bw,vpclmulqdq,pclmulqdq")]
    fn fold(crc: u64, first: &[u8; BLOCK], rest: &[[u8; BLOCK]]) -> u64 {
        let reverse = splat(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
        let by = splat(BY_BLOCK[0], BY_BLOCK[1]);
        // The register meets the high half of the first lane.
        let seed = _mm512_set_epi64(0, 0, 0, 0, 0, 0, crc as i64, 0);
        let mut acc = [0, 1, 2, 3].map(|i| load(first, i, reverse));
        acc[0] = _mm512_xor_si512(acc[0], seed);
        for block in rest {
            for (i, a) in acc.iter_mut().enumerate() {
                *a = fold_into(*a, by, load(block, i, reverse));
            }
        }
        let lanes = acc.map(|a| {
            [
                _mm512_extracti32x4_epi32::<0>(a),
                _mm512_extracti32x4_epi32::<1>(a),
                _mm512_extracti32x4_epi32::<2>(a),
                _mm512_extracti32x4_epi32::<3>(a),
            ]
        });
        let r = lanes
            .iter()
            .flatten()
            .fold(_mm_setzero_si128(), |r, &next| fold_lane(r, next));
        let hi = _mm_extract_epi64::<1>(r) as u64;
        let lo = _mm_cvtsi128_si64(r) as u64;
        chain(0, &((hi as u128) << 64 | lo as u128).to_be_bytes())
    }
}

/// Reference bit-at-a-time CRC-64: the seed implementation, kept as the
/// ground truth both kernels of [`crc64`] are tested against.
pub fn crc64_bitwise(data: &[u8]) -> u64 {
    let mut crc: u64 = !0;
    for &b in data {
        crc ^= (b as u64) << 56;
        for _ in 0..8 {
            crc = if crc & (1 << 63) != 0 {
                (crc << 1) ^ CRC64_POLY
            } else {
                crc << 1
            };
        }
    }
    !crc
}

/// Elements per block of [`f32_checksum`]: 64 KiB of bytes, a whole
/// number of the folding kernel's 256-byte steps, and long enough that
/// either kernel's reduction (the fold's lane folds, the three-lane
/// combine) is a few percent of a block.
const CHECKSUM_BLOCK: usize = 16 * 1024;

/// Checksum for a float buffer: stable across runs because it hashes the
/// exact bit patterns (used to compare GPU buffers before/after replay,
/// §4.1). It equals `crc64` of the buffer's little-endian bytes; those are
/// converted a block at a time into a stack scratch and the CRC register
/// is carried across blocks, so nothing is allocated.
pub fn f32_checksum(data: &[f32]) -> u64 {
    let mut scratch = [0u8; CHECKSUM_BLOCK * 4];
    let mut crc = !0;
    for chunk in data.chunks(CHECKSUM_BLOCK) {
        let raw = &mut scratch[..chunk.len() * 4];
        f32s_to_le(chunk, raw);
        crc = crc64_update(crc, raw);
    }
    !crc
}

/// Magic prefix of one framed shard produced by [`Encoder`].
const SHARD_MAGIC: &[u8; 4] = b"JITS";

/// Framed-shard overhead: `magic(4) | index(4) | payload_len(8)` header
/// plus the `crc64(8)` trailer.
pub const SHARD_FRAME_OVERHEAD: usize = 4 + 4 + 8 + 8;

/// Streaming sharded encoder: values stream in through [`Encoder::write`]
/// and come out as a sequence of independently checksummed,
/// length-prefixed shards of (at most) a configurable payload size,
/// instead of one flat buffer.
///
/// Each shard is framed as
/// `magic "JITS" (4) | shard_index (4, LE) | payload_len (8, LE) |
/// payload | crc64(payload) (8, LE)`. The concatenation of all shard
/// payloads, in index order, is byte-identical to what a plain
/// [`Encode`] pass over the same values would have produced — sharding
/// changes the container, never the content. Downstream layers can
/// therefore checksum, persist, and validate shards independently (the
/// checkpoint pipeline fans them out across worker threads and store
/// stripes) while decoders see a single logical byte stream.
#[derive(Debug)]
pub struct Encoder {
    shard_payload: usize,
    staged: BytesMut,
    shards: Vec<Bytes>,
}

impl Encoder {
    /// Creates an encoder producing shards of at most `shard_payload`
    /// payload bytes (clamped to at least 1).
    pub fn new(shard_payload: usize) -> Encoder {
        Encoder {
            shard_payload: shard_payload.max(1),
            staged: BytesMut::new(),
            shards: Vec::new(),
        }
    }

    /// Appends a value to the logical stream, sealing shards as they fill.
    pub fn write<T: Encode>(&mut self, value: &T) {
        self.staged.reserve(value.size_hint());
        value.encode(&mut self.staged);
        if self.staged.len() >= self.shard_payload {
            let mut whole = std::mem::take(&mut self.staged).freeze();
            while whole.len() >= self.shard_payload {
                self.seal(whole.split_to(self.shard_payload));
            }
            self.staged.extend_from_slice(&whole);
        }
    }

    fn seal(&mut self, payload: Bytes) {
        let framed = frame_shard(self.shards.len() as u32, &payload);
        self.shards.push(framed);
    }

    /// Seals the trailing partial shard (if any) and returns all shards in
    /// index order. An empty stream yields one empty shard so that every
    /// encode produces at least one verifiable object.
    pub fn finish(mut self) -> Vec<Bytes> {
        if !self.staged.is_empty() || self.shards.is_empty() {
            let payload = std::mem::take(&mut self.staged).freeze();
            self.seal(payload);
        }
        self.shards
    }
}

/// Frames one shard: `JITS | index | payload_len | payload | crc64`.
pub fn frame_shard(index: u32, payload: &[u8]) -> Bytes {
    frame_shard_with(index, payload.len(), |out| out.put_slice(payload))
}

/// [`frame_shard`] for a payload that `write` appends straight into the
/// frame: exactly `len` bytes, which are then checksummed in place, so
/// the payload never exists outside its frame.
pub fn frame_shard_with(index: u32, len: usize, write: impl FnOnce(&mut BytesMut)) -> Bytes {
    const HEADER: usize = 4 + 4 + 8;
    let mut out = BytesMut::with_capacity(len + SHARD_FRAME_OVERHEAD);
    out.put_slice(SHARD_MAGIC);
    out.put_u32_le(index);
    out.put_u64_le(len as u64);
    write(&mut out);
    // The header already declares `len`: a writer that appended anything
    // else would store a frame that lies about its payload.
    assert_eq!(out.len() - HEADER, len, "frame_shard_with: payload length");
    let crc = crc64(&out[HEADER..]);
    out.put_u64_le(crc);
    out.freeze()
}

/// Decodes one framed shard from the front of `buf`, consuming its bytes
/// and verifying magic and CRC. Returns `(index, payload)`.
pub fn decode_shard(buf: &mut Bytes) -> SimResult<(u32, Bytes)> {
    need(buf, 4)?;
    let magic = buf.split_to(4);
    if &magic[..] != SHARD_MAGIC {
        return Err(SimError::Codec("bad shard magic".into()));
    }
    let index = u32::decode(buf)?;
    let len = u64::decode(buf)? as usize;
    need_payload_and_crc(buf, len)?;
    let payload = buf.split_to(len);
    let stored_crc = u64::decode(buf)?;
    if crc64(&payload) != stored_crc {
        return Err(SimError::Codec(format!(
            "shard {index}: checksum mismatch (corrupt payload)"
        )));
    }
    Ok((index, payload))
}

/// Concatenates framed shards into one self-describing blob (the inverse
/// of [`split_shards`]); used where a single `Bytes` must travel through
/// an interface that predates sharding (e.g. the CRIU image).
pub fn concat_shards(shards: &[Bytes]) -> Bytes {
    let total: usize = shards.iter().map(|s| s.len()).sum();
    let mut out = BytesMut::with_capacity(total);
    for s in shards {
        out.put_slice(s);
    }
    out.freeze()
}

/// Splits a [`concat_shards`] blob back into the logical payload stream,
/// verifying every shard's magic, CRC, and index contiguity.
pub fn split_shards(raw: &Bytes) -> SimResult<Bytes> {
    let mut buf = raw.clone();
    let mut payloads = BytesMut::new();
    let mut expect: u32 = 0;
    while buf.has_remaining() {
        let (index, payload) = decode_shard(&mut buf)?;
        if index != expect {
            return Err(SimError::Codec(format!(
                "shard index {index} out of order (expected {expect})"
            )));
        }
        payloads.put_slice(&payload);
        expect = expect.saturating_add(1);
    }
    if expect == 0 {
        return Err(SimError::Codec("empty sharded stream".into()));
    }
    Ok(payloads.freeze())
}

/// Magic prefix of one message produced by [`encode_framed`].
const FRAME_MAGIC: &[u8; 4] = b"JITC";

/// Encodes a value into a framed, checksummed message:
/// `magic(4) | payload_len(8) | payload | crc64(8)`.
///
/// The payload is encoded in place behind a placeholder length, which is
/// patched once the payload is written: one buffer, sized once from
/// [`Encode::size_hint`], and no copy of the payload.
pub fn encode_framed<T: Encode>(value: &T) -> Bytes {
    const HEADER: usize = 4 + 8;
    let mut out = BytesMut::with_capacity(HEADER + value.size_hint() + 8);
    out.put_slice(FRAME_MAGIC);
    out.put_u64_le(0);
    value.encode(&mut out);
    let len = (out.len() - HEADER) as u64;
    out[4..HEADER].copy_from_slice(&len.to_le_bytes());
    let crc = crc64(&out[HEADER..]);
    out.put_u64_le(crc);
    out.freeze()
}

/// Decodes a framed message produced by [`encode_framed`], verifying the
/// magic and CRC. Corruption is reported as [`SimError::Codec`].
pub fn decode_framed<T: Decode>(raw: &Bytes) -> SimResult<T> {
    let mut buf = raw.clone();
    need(&buf, 4)?;
    let magic = buf.split_to(4);
    if &magic[..] != FRAME_MAGIC {
        return Err(SimError::Codec("bad magic".into()));
    }
    let len = u64::decode(&mut buf)? as usize;
    need_payload_and_crc(&buf, len)?;
    let payload = buf.split_to(len);
    let stored_crc = u64::decode(&mut buf)?;
    if crc64(&payload) != stored_crc {
        return Err(SimError::Codec(
            "checksum mismatch (corrupt payload)".into(),
        ));
    }
    let mut p = payload;
    let value = T::decode(&mut p)?;
    if p.has_remaining() {
        return Err(SimError::Codec(format!(
            "{} trailing bytes after decode",
            p.remaining()
        )));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let framed = encode_framed(&v);
        let back: T = decode_framed(&framed).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u16::MAX);
        round_trip(123456789u32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(3.5f32);
        round_trip(f64::MIN_POSITIVE);
        round_trip(true);
        round_trip(String::from("hello checkpoint"));
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1.0f32, -2.5, 3.25]);
        round_trip(Option::<u64>::None);
        round_trip(Some(7u32));
        round_trip((String::from("k"), vec![1u64, 2, 3]));
        round_trip([1u64, 2, 3, 4]);
    }

    #[test]
    fn corruption_is_detected() {
        let framed = encode_framed(&vec![1.0f32; 64]);
        let mut bad = framed.to_vec();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        let res: SimResult<Vec<f32>> = decode_framed(&Bytes::from(bad));
        assert!(matches!(res, Err(SimError::Codec(_))));
    }

    #[test]
    fn truncation_is_detected() {
        let framed = encode_framed(&String::from("state"));
        let cut = framed.slice(..framed.len() - 3);
        let res: SimResult<String> = decode_framed(&cut);
        assert!(res.is_err());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let framed = encode_framed(&1u64);
        let mut bad = framed.to_vec();
        bad[0] = b'X';
        let res: SimResult<u64> = decode_framed(&Bytes::from(bad));
        assert!(res.is_err());
    }

    #[test]
    fn length_fields_near_u64_max_are_codec_errors() {
        for len in [u64::MAX, u64::MAX - 3, u64::MAX - 7] {
            let mut shard = BytesMut::new();
            shard.put_slice(SHARD_MAGIC);
            shard.put_u32_le(0);
            shard.put_u64_le(len);
            shard.put_slice(&[0; 16]);
            let res = decode_shard(&mut shard.freeze());
            assert!(
                matches!(res, Err(SimError::Codec(_))),
                "shard, len {len:#x}"
            );

            let mut framed = BytesMut::new();
            framed.put_slice(b"JITC");
            framed.put_u64_le(len);
            framed.put_slice(&[0; 16]);
            let res = decode_framed::<u64>(&framed.freeze());
            assert!(
                matches!(res, Err(SimError::Codec(_))),
                "frame, len {len:#x}"
            );
        }
    }

    /// The per-item `f32` codec, kept as the oracle of the block one: one
    /// `put_f32_le` / `get_f32_le` per value, through the trait's default
    /// sequence loops.
    #[derive(Debug, Clone, Copy)]
    struct PerItem(f32);

    impl Encode for PerItem {
        fn encode(&self, buf: &mut BytesMut) {
            buf.put_f32_le(self.0);
        }
    }

    impl Decode for PerItem {
        fn decode(buf: &mut Bytes) -> SimResult<Self> {
            need(buf, 4)?;
            Ok(PerItem(buf.get_f32_le()))
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    fn encoded<T: Encode>(value: &T) -> Bytes {
        let mut buf = BytesMut::new();
        value.encode(&mut buf);
        buf.freeze()
    }

    #[test]
    fn f32_vec_codec_matches_the_per_item_oracle_around_block_edges() {
        for n in [0usize, 1, 3, 1023, 1024, 1025, 2500] {
            let data: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 3.0).collect();
            let oracle: Vec<PerItem> = data.iter().copied().map(PerItem).collect();
            let wire = encoded(&data);
            assert_eq!(wire, encoded(&oracle), "n {n}");
            assert_eq!(wire.len(), data.size_hint());
            let back = Vec::<f32>::decode(&mut wire.clone()).unwrap();
            assert_eq!(back, data);
            let back: Vec<PerItem> = Vec::decode(&mut wire.clone()).unwrap();
            assert_eq!(back.iter().map(|p| p.0).collect::<Vec<_>>(), data);
        }
    }

    proptest::proptest! {
        /// `Vec<f32>` is encoded byte for byte as the per-item oracle
        /// encodes it, decodes every bit pattern back (NaN payloads
        /// included, which `==` on floats cannot see), consumes exactly
        /// its own bytes, and a cut anywhere inside it is a codec error in
        /// both.
        #[test]
        fn f32_vec_codec_is_the_per_item_oracle_bit_for_bit(
            raw in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..3000),
            nan_payload in proptest::prelude::any::<u32>(),
            cut in proptest::prelude::any::<proptest::sample::Index>(),
        ) {
            let mut data: Vec<f32> = raw.iter().map(|b| f32::from_bits(*b)).collect();
            // Always at least one NaN, of either sign, quiet or signalling.
            data.push(f32::from_bits(0x7f80_0001 | (nan_payload & 0x807f_ffff)));
            let oracle: Vec<PerItem> = data.iter().copied().map(PerItem).collect();
            let mut wire = BytesMut::new();
            data.encode(&mut wire);
            let body = wire.len();
            wire.extend_from_slice(b"tail");
            let wire = wire.freeze();
            proptest::prop_assert_eq!(&wire[..body], &encoded(&oracle)[..]);
            proptest::prop_assert_eq!(body, data.size_hint());

            let (mut a, mut b) = (wire.clone(), wire.clone());
            let block = Vec::<f32>::decode(&mut a).unwrap();
            let per_item: Vec<f32> = Vec::<PerItem>::decode(&mut b).unwrap().iter().map(|p| p.0).collect();
            proptest::prop_assert_eq!(bits(&block), bits(&data));
            proptest::prop_assert_eq!(bits(&per_item), bits(&data));
            proptest::prop_assert_eq!(&a[..], &b"tail"[..]);
            proptest::prop_assert_eq!(&b[..], &b"tail"[..]);

            let at = cut.index(body);
            let (mut a, mut b) = (wire.slice(..at), wire.slice(..at));
            proptest::prop_assert!(matches!(Vec::<f32>::decode(&mut a), Err(SimError::Codec(_))));
            proptest::prop_assert!(matches!(Vec::<PerItem>::decode(&mut b), Err(SimError::Codec(_))));
        }
    }

    #[test]
    fn f32_checksum_is_crc64_of_the_le_bytes_across_blocks() {
        let data: Vec<f32> = (0..CHECKSUM_BLOCK * 2 + 3)
            .map(|i| f32::from_bits((i as u32).wrapping_mul(0x9E37_79B9)))
            .collect();
        for n in [
            0,
            1,
            383,
            384,
            CHECKSUM_BLOCK,
            CHECKSUM_BLOCK + 1,
            data.len(),
        ] {
            let raw: Vec<u8> = data[..n].iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(f32_checksum(&data[..n]), crc64_bitwise(&raw), "n {n}");
        }
    }

    #[test]
    fn f32_checksum_distinguishes_nearby_buffers() {
        let a = vec![1.0f32, 2.0, 3.0];
        let mut b = a.clone();
        assert_eq!(f32_checksum(&a), f32_checksum(&b));
        b[1] = f32::from_bits(2.0f32.to_bits() + 1);
        assert_ne!(f32_checksum(&a), f32_checksum(&b));
    }

    #[test]
    fn crc64_known_properties() {
        assert_eq!(crc64(b""), crc64(b""));
        assert_ne!(crc64(b"a"), crc64(b"b"));
        assert_ne!(crc64(b"ab"), crc64(b"ba"));
    }

    /// `crc64_bitwise` of every prefix of `data`, in one pass.
    fn bitwise_of_every_prefix(data: &[u8]) -> Vec<u64> {
        let mut out = vec![crc64_bitwise(&[])];
        let mut crc: u64 = !0;
        for &b in data {
            crc ^= (b as u64) << 56;
            for _ in 0..8 {
                crc = (crc << 1) ^ (CRC64_POLY & 0u64.wrapping_sub(crc >> 63));
            }
            out.push(!crc);
        }
        out
    }

    #[test]
    fn crc64_table_matches_bitwise_reference() {
        // Every length to 4 KiB covers the 8- and 16-byte folds, the
        // one-chain / three-lane threshold, every residue of the 48-byte
        // lane split, the folding kernel's minimum and every tail of its
        // 256-byte blocks; lengths around 64 KiB cover a long combine and
        // a long fold, and odd offsets an unaligned start. Where `crc64`
        // takes the folding kernel, the table kernel runs each length too.
        let mut x: u64 = 0x1234_5678_9abc_def0;
        let data: Vec<u8> = (0..65_700)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        for offset in [0usize, 1, 7] {
            let d = &data[offset..];
            let want = bitwise_of_every_prefix(&d[..65_600]);
            for len in (0..=4096).chain(65_500..=65_600) {
                for (kernel, got) in [
                    ("crc64", crc64(&d[..len])),
                    ("table", !crc64_lanes(!0, &d[..len])),
                ] {
                    assert_eq!(got, want[len], "{kernel}: offset {offset} len {len}");
                }
            }
        }
    }

    #[test]
    fn encoder_payload_stream_matches_flat_encode() {
        let v1 = vec![1.5f32; 1000];
        let v2 = String::from("checkpoint entry");
        let mut flat = BytesMut::new();
        v1.encode(&mut flat);
        v2.encode(&mut flat);
        for shard_size in [1usize, 7, 64, 1 << 20] {
            let mut enc = Encoder::new(shard_size);
            enc.write(&v1);
            enc.write(&v2);
            let shards = enc.finish();
            let blob = concat_shards(&shards);
            let stream = split_shards(&blob).unwrap();
            assert_eq!(&stream[..], &flat[..], "shard_size {shard_size}");
            // Every non-final shard is exactly shard_size bytes.
            for s in &shards[..shards.len() - 1] {
                assert_eq!(s.len(), shard_size + SHARD_FRAME_OVERHEAD);
            }
        }
    }

    #[test]
    fn empty_stream_yields_one_empty_shard() {
        let shards = Encoder::new(64).finish();
        assert_eq!(shards.len(), 1);
        let stream = split_shards(&concat_shards(&shards)).unwrap();
        assert!(stream.is_empty());
    }

    #[test]
    fn shard_corruption_is_detected_with_index() {
        let mut enc = Encoder::new(16);
        enc.write(&vec![0u64; 32]);
        let shards = enc.finish();
        assert!(shards.len() > 2);
        let mut blob = concat_shards(&shards).to_vec();
        // Flip a payload byte inside the second shard.
        let off = shards[0].len() + SHARD_FRAME_OVERHEAD - 8;
        blob[off] ^= 0xFF;
        let err = split_shards(&Bytes::from(blob)).unwrap_err();
        assert!(format!("{err}").contains("shard 1"), "{err}");
    }

    #[test]
    fn shard_reordering_is_detected() {
        let mut enc = Encoder::new(8);
        enc.write(&vec![7u64; 8]);
        let mut shards = enc.finish();
        assert!(shards.len() >= 2);
        shards.swap(0, 1);
        assert!(split_shards(&concat_shards(&shards)).is_err());
    }
}
