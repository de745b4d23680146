//! The checkpoint state codec: one encoder and one decoder for a rank's
//! persistent state, wherever the state lives.
//!
//! The wire layout of every checkpoint and recovery stream,
//! little-endian:
//!
//! ```text
//! iteration u64 | opt_t u32 | logical_bytes u64 | n u64 |
//!   n × ( key: len u64, utf-8 | tag u8 | data: len u64, len × f32 )
//! ```
//!
//! * **Encoder.** [`StateView`] borrows the state — a host
//!   `TrainState`'s buffers or a device's, through [`Gpu::state_view`] —
//!   and its [`Encode`] impl writes the layout above;
//!   [`StateView::write_shards`] writes the same bytes cut into shards,
//!   each straight into its own buffer or CRC frame. Both go through one
//!   resumable cursor, so a device and its host snapshot encode to the
//!   same bytes by construction.
//! * **Decoder.** [`decode_state`] walks the stream as a list of
//!   chunks — the verified shards of a checkpoint or the payloads of a
//!   stream's frames, in order — without concatenating them. It reads
//!   the whole layout first (every key, tag and length, checked against
//!   the bytes present, and no byte left over), hands it to a
//!   [`StateSink`], which may refuse it, and only then hands over each
//!   buffer's payload. A sink is a
//!   host `TrainState`, a device ([`Gpu::load_state`]), or `()`, which
//!   keeps nothing and only proves that the stream decodes.

use crate::buffer::{BufferId, BufferTag};
use crate::device::Gpu;
use bytes::{BufMut, Bytes, BytesMut};
use simcore::codec::Encode;
use simcore::{SimError, SimResult};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;

/// A rank's persistent state, borrowed: what one checkpoint carries.
#[derive(Debug, PartialEq)]
pub struct StateView<'a> {
    /// Next iteration to execute.
    pub iteration: u64,
    /// Optimizer timestep.
    pub opt_t: u32,
    /// Logical checkpoint size in bytes (cost accounting).
    pub logical_bytes: u64,
    /// Persistent buffers in encoding order: storage key, tag, payload.
    pub buffers: Vec<(Cow<'a, str>, BufferTag, &'a [f32])>,
}

impl From<&StateView<'_>> for Vec<(String, BufferTag, Vec<f32>)> {
    /// A host copy of every buffer, as [`Gpu::restore_persistent`] takes
    /// it back.
    fn from(view: &StateView<'_>) -> Self {
        view.buffers
            .iter()
            .map(|(key, tag, data)| (key.to_string(), *tag, data.to_vec()))
            .collect()
    }
}

impl StateView<'_> {
    /// Shards `shards` of the encoding cut at `shard_bytes` payload bytes,
    /// in one cursor pass. For shard `i` of `len` bytes, `seal(i, len,
    /// write)` returns what it builds around them, where `write` appends
    /// exactly those bytes to the buffer it is given: the shard's own
    /// allocation, or a CRC frame ([`simcore::codec::frame_shard_with`]),
    /// so a sender holds one frame at a time (and a device's lock only
    /// while it encodes one). There are `size_hint().div_ceil(shard_bytes)`
    /// shards, and at least one; past the last, a shard is empty.
    pub fn write_shards<T>(
        &self,
        shard_bytes: usize,
        shards: Range<usize>,
        mut seal: impl FnMut(usize, usize, &mut dyn FnMut(&mut BytesMut)) -> T,
    ) -> Vec<T> {
        let total = self.size_hint();
        let shard = shard_bytes.max(1);
        let mut cursor = Cursor::new(self);
        // Bytes the cursor has moved past.
        let mut at = 0;
        shards
            .map(|i| {
                let lo = i.saturating_mul(shard).min(total);
                let len = shard.min(total - lo);
                cursor.advance(None, lo - at);
                at = lo;
                seal(i, len, &mut |out| {
                    // Once: a second call would append the next shard's bytes.
                    if at == lo {
                        cursor.advance(Some(out), len);
                        at += len;
                    }
                })
            })
            .collect()
    }
}

impl Encode for StateView<'_> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.reserve(self.size_hint());
        Cursor::new(self).advance(Some(buf), usize::MAX);
    }

    /// Exact: the length of the whole encoding.
    fn size_hint(&self) -> usize {
        let mut n = 8 + 4 + 8 + 8; // iteration, opt_t, logical_bytes, count
        for (key, _tag, data) in &self.buffers {
            n += 8 + key.len() + 1 + 8 + 4 * data.len();
        }
        n
    }
}

/// A resumable walk over a view's encoding: [`Cursor::advance`] writes
/// or skips the next bytes, wherever the previous call stopped — in the
/// middle of a key, a length prefix or an `f32` included.
struct Cursor<'v, 'a> {
    view: &'v StateView<'a>,
    /// The header, then one buffer's key, tag and length prefix.
    meta: BytesMut,
    /// How much of `meta` is written.
    meta_at: usize,
    /// Index of the next buffer whose prefix is still to write.
    next: usize,
    /// Values of the current buffer still to write.
    data: &'v [f32],
    /// The bytes of an `f32` a previous call split, and how many of
    /// them are written (4: none pending).
    split: [u8; 4],
    split_at: usize,
}

impl<'v, 'a> Cursor<'v, 'a> {
    fn new(view: &'v StateView<'a>) -> Self {
        let mut meta = BytesMut::with_capacity(64);
        view.iteration.encode(&mut meta);
        view.opt_t.encode(&mut meta);
        view.logical_bytes.encode(&mut meta);
        (view.buffers.len() as u64).encode(&mut meta);
        Cursor {
            view,
            meta,
            meta_at: 0,
            next: 0,
            data: &[],
            split: [0; 4],
            split_at: 4,
        }
    }

    /// Moves past the next `n` bytes of the encoding, or what is left of
    /// it if that is less, appending them to `out` if there is one.
    fn advance(&mut self, mut out: Option<&mut BytesMut>, mut n: usize) {
        while n > 0 {
            if self.split_at < 4 {
                let k = (4 - self.split_at).min(n);
                if let Some(out) = out.as_deref_mut() {
                    out.put_slice(&self.split[self.split_at..self.split_at + k]);
                }
                self.split_at += k;
                n -= k;
            } else if self.meta_at < self.meta.len() {
                let k = (self.meta.len() - self.meta_at).min(n);
                if let Some(out) = out.as_deref_mut() {
                    out.put_slice(&self.meta[self.meta_at..self.meta_at + k]);
                }
                self.meta_at += k;
                n -= k;
            } else if !self.data.is_empty() {
                let (now, rest) = self.data.split_at((n / 4).min(self.data.len()));
                if let Some(out) = out.as_deref_mut() {
                    f32::encode_seq(now, out);
                }
                n -= 4 * now.len();
                self.data = rest;
                if n > 0 && n < 4 {
                    if let Some((first, rest)) = self.data.split_first() {
                        self.split = first.to_le_bytes();
                        self.split_at = 0;
                        self.data = rest;
                    }
                }
            } else if let Some((key, tag, data)) = self.view.buffers.get(self.next) {
                self.next += 1;
                self.meta.clear();
                self.meta_at = 0;
                (key.len() as u64).encode(&mut self.meta);
                self.meta.put_slice(key.as_bytes());
                tag.encode(&mut self.meta);
                (data.len() as u64).encode(&mut self.meta);
                self.data = *data;
            } else {
                return;
            }
        }
    }
}

/// Where [`decode_state`] puts a decoded state.
pub trait StateSink {
    /// What a decode into this sink yields.
    type Out;

    /// The header and every buffer's storage key, tag and element count,
    /// in stream order, before any payload: a sink refuses a layout here,
    /// before anything is written.
    fn layout(
        &mut self,
        iteration: u64,
        opt_t: u32,
        logical_bytes: u64,
        buffers: &[(String, BufferTag, usize)],
    ) -> SimResult<()>;

    /// The next payload bytes of buffer `i` of the layout, from its value
    /// `at` on, as little-endian `f32`s: `le.len()` is a multiple of 4.
    fn data(&mut self, i: usize, at: usize, le: &[u8]);

    /// What the sink holds once every payload is in.
    fn finish(self) -> Self::Out;
}

/// The unit sink keeps nothing: decoding into it only proves that a
/// stream decodes.
impl StateSink for () {
    type Out = ();

    fn layout(
        &mut self,
        _: u64,
        _: u32,
        _: u64,
        _: &[(String, BufferTag, usize)],
    ) -> SimResult<()> {
        Ok(())
    }

    fn data(&mut self, _: usize, _: usize, _: &[u8]) {}

    fn finish(self) {}
}

/// A read position in a list of chunks that hold one logical stream.
struct Chunks<'c> {
    chunks: &'c [Bytes],
    /// Current chunk, and the offset in it.
    at: usize,
    off: usize,
    /// Bytes consumed, and bytes left across every chunk.
    pos: usize,
    left: usize,
}

impl<'c> Chunks<'c> {
    fn new(chunks: &'c [Bytes]) -> Self {
        Chunks {
            chunks,
            at: 0,
            off: 0,
            pos: 0,
            left: chunks.iter().map(Bytes::len).sum(),
        }
    }

    /// The per-field codec's truncation error, word for word, so that a
    /// split stream fails as the contiguous one does.
    fn need(&self, n: usize) -> SimResult<()> {
        if self.left < n {
            return Err(SimError::Codec(format!(
                "truncated input: need {n} bytes, have {}",
                self.left
            )));
        }
        Ok(())
    }

    /// Hands the next `n` bytes (present: checked by the caller) to `f`
    /// in the pieces the chunks hold them in.
    fn pieces(&mut self, mut n: usize, mut f: impl FnMut(&'c [u8])) {
        self.pos += n;
        self.left -= n;
        while n > 0 {
            let chunk = &self.chunks[self.at][self.off..];
            let k = chunk.len().min(n);
            if k > 0 {
                f(&chunk[..k]);
            }
            n -= k;
            if k == chunk.len() {
                self.at += 1;
                self.off = 0;
            } else {
                self.off += k;
            }
        }
    }

    fn bytes<const N: usize>(&mut self) -> SimResult<[u8; N]> {
        self.need(N)?;
        let mut out = [0u8; N];
        let mut at = 0;
        self.pieces(N, |p| {
            out[at..at + p.len()].copy_from_slice(p);
            at += p.len();
        });
        Ok(out)
    }

    fn u64(&mut self) -> SimResult<u64> {
        self.bytes().map(u64::from_le_bytes)
    }
}

/// Decodes the state `chunks` hold — the pieces of one stream, in order,
/// and nothing else — into `sink`; returns what the sink yields and the
/// state's iteration.
///
/// Reads and checks the whole layout first, in the order and with the
/// error texts of the per-field codec (`u64`, `String`, `BufferTag`,
/// `Vec<f32>` decoding): a truncated field, an invalid key, an unknown
/// tag, a length the remaining bytes cannot hold, or bytes left over
/// after the last buffer all fail before the sink sees anything. The
/// sink then sees the layout and may refuse it; only then does each
/// buffer's payload follow, piece by piece, an `f32` split across two
/// chunks joined on the way. No chunk is copied into another, and
/// nothing is allocated from a length the bytes present do not back.
pub fn decode_state<K: StateSink>(chunks: &[Bytes], mut sink: K) -> SimResult<(K::Out, u64)> {
    let mut cur = Chunks::new(chunks);
    let iteration = cur.u64()?;
    let opt_t = cur.bytes().map(u32::from_le_bytes)?;
    let logical_bytes = cur.u64()?;
    let n = cur.u64()? as usize;
    let mut layout = Vec::with_capacity(n.min(1 << 16));
    let mut starts = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let len = cur.u64()? as usize;
        cur.need(len)?;
        let mut raw = Vec::with_capacity(len);
        cur.pieces(len, |p| raw.extend_from_slice(p));
        let key = String::from_utf8(raw)
            .map_err(|e| SimError::Codec(format!("invalid utf-8 string: {e}")))?;
        let tag = BufferTag::from_u8(cur.bytes::<1>()?[0])?;
        let len = cur.u64()? as usize;
        // Guard against absurd lengths from corrupt input, as `Vec<T>`
        // decoding does.
        if len > cur.left.saturating_mul(8).saturating_add(1024) {
            return Err(SimError::Codec(format!(
                "implausible vector length {len} for {} remaining bytes",
                cur.left
            )));
        }
        cur.need(len.saturating_mul(4))?;
        starts.push(cur.pos);
        cur.pieces(len * 4, |_| {});
        layout.push((key, tag, len));
    }
    if cur.left > 0 {
        return Err(SimError::Codec(format!(
            "{} trailing bytes after decode",
            cur.left
        )));
    }
    sink.layout(iteration, opt_t, logical_bytes, &layout)?;

    let mut cur = Chunks::new(chunks);
    for (i, (&start, (_, _, len))) in starts.iter().zip(&layout).enumerate() {
        cur.pieces(start - cur.pos, |_| {});
        // Values handed over so far, and an `f32` split across two
        // chunks with how many of its bytes have arrived.
        let mut at = 0;
        let mut carry = [0u8; 4];
        let mut have = 0;
        cur.pieces(len * 4, |mut p| {
            if have > 0 {
                let k = (4 - have).min(p.len());
                carry[have..have + k].copy_from_slice(&p[..k]);
                have += k;
                p = &p[k..];
                if have < 4 {
                    return;
                }
                sink.data(i, at, &carry);
                at += 1;
                have = 0;
            }
            let whole = p.len() / 4 * 4;
            if whole > 0 {
                sink.data(i, at, &p[..whole]);
                at += whole / 4;
            }
            have = p.len() - whole;
            carry[..have].copy_from_slice(&p[whole..]);
        });
    }
    Ok((sink.finish(), iteration))
}

impl Gpu {
    /// This device's persistent state as a checkpoint at `iteration` and
    /// optimizer timestep `opt_t` carries it: every param and optimizer
    /// buffer in id order, borrowed. A device whose memory can no longer
    /// be read has no state to give.
    pub fn state_view(&self, iteration: u64, opt_t: u32) -> SimResult<StateView<'_>> {
        if !self.health().memory_readable() {
            return Err(SimError::CudaSticky(self.id));
        }
        let mut logical_bytes = 0;
        let buffers = self
            .persistent()
            .map(|b| {
                logical_bytes += b.logical_bytes;
                (Cow::Owned(b.site.storage_key()), b.tag, &b.data[..])
            })
            .collect();
        Ok(StateView {
            iteration,
            opt_t,
            logical_bytes,
            buffers,
        })
    }

    /// Decodes a state from `chunks` (see [`decode_state`]) straight into
    /// this device's persistent buffers, matched by storage key, and
    /// returns its iteration and optimizer timestep. Everything is
    /// checked before a buffer is written — the stream decodes, every key
    /// is present, each tag and length equal, no buffer is left out — so
    /// a refused state writes nothing.
    pub fn load_state(&mut self, chunks: &[Bytes]) -> SimResult<(u64, u32)> {
        let sink = DeviceSink {
            gpu: self,
            ids: Vec::new(),
            opt_t: 0,
        };
        let (opt_t, iteration) = decode_state(chunks, sink)?;
        Ok((iteration, opt_t))
    }

    /// Matches a state's layout against this device's persistent buffers
    /// — every key present once, tags and lengths equal, no buffer left
    /// out — and returns the buffer each entry loads into, in order.
    pub(crate) fn match_layout<'k>(
        &self,
        entries: impl Iterator<Item = (&'k str, BufferTag, usize)>,
    ) -> SimResult<Vec<BufferId>> {
        let mut by_key: HashMap<String, (BufferId, BufferTag, usize)> = self
            .persistent()
            .map(|b| (b.site.storage_key(), (b.id, b.tag, b.data.len())))
            .collect();
        let mut ids = Vec::with_capacity(by_key.len());
        for (key, tag, len) in entries {
            let (id, have_tag, have_len) = by_key.remove(key).ok_or_else(|| {
                SimError::Protocol(format!("no buffer with storage key {key} on {}", self.id))
            })?;
            if have_tag != tag {
                return Err(SimError::Protocol(format!(
                    "tag mismatch for {key} on {}: {have_tag:?} vs {tag:?}",
                    self.id
                )));
            }
            if have_len != len {
                return Err(SimError::Protocol(format!(
                    "load size mismatch for {key} on {}: {have_len} vs {len}",
                    self.id
                )));
            }
            ids.push(id);
        }
        if let Some(key) = by_key.keys().min() {
            return Err(SimError::Protocol(format!(
                "state leaves out buffer {key} on {}",
                self.id
            )));
        }
        Ok(ids)
    }
}

/// Decodes into a device: the layout is matched first, then each
/// buffer's payload is written in place as it arrives.
struct DeviceSink<'g> {
    gpu: &'g mut Gpu,
    /// The buffer each layout entry loads into.
    ids: Vec<BufferId>,
    opt_t: u32,
}

impl StateSink for DeviceSink<'_> {
    type Out = u32;

    fn layout(
        &mut self,
        _iteration: u64,
        opt_t: u32,
        _logical_bytes: u64,
        buffers: &[(String, BufferTag, usize)],
    ) -> SimResult<()> {
        self.ids = self
            .gpu
            .match_layout(buffers.iter().map(|(k, t, n)| (k.as_str(), *t, *n)))?;
        self.opt_t = opt_t;
        Ok(())
    }

    fn data(&mut self, i: usize, at: usize, le: &[u8]) {
        // The layout was matched: the buffer exists and has room.
        let Ok(buf) = self.gpu.buffer_mut(self.ids[i]) else {
            return;
        };
        for (dst, c) in buf.data[at..].iter_mut().zip(le.chunks_exact(4)) {
            *dst = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
    }

    fn finish(self) -> u32 {
        self.opt_t
    }
}
