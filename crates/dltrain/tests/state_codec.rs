//! Properties of the state codec (`simgpu::state`): a device's state and
//! its host snapshot encode to the bytes of the per-field codec, and a
//! stream cut into chunks anywhere decodes — into a `TrainState`, into a
//! device, or into nothing — to the same bits, or fails with the same
//! error text, as the contiguous stream. The cuts always include the
//! middle of a key, of a length prefix and of an `f32`. Buffers carry
//! NaN payloads, −0.0 and subnormals.

use bytes::{Bytes, BytesMut};
use dltrain::TrainState;
use proptest::prelude::*;
use simcore::codec::{decode_shard, frame_shard_with, Decode, Encode};
use simcore::cost::CostModel;
use simcore::{GpuId, SimResult};
use simgpu::{decode_state, AllocSite, BufferTag, DeviceCall, Gpu, StateView};

/// Bit patterns a conversion could lose: NaN payloads of both signs,
/// −0.0, the smallest and a negative largest subnormal, infinity.
const SPECIAL: [u32; 6] = [
    0x7fc0_0001,
    0xffa0_1234,
    0x8000_0000,
    0x0000_0001,
    0x807f_ffff,
    0x7f80_0000,
];

/// Keys with a multi-byte character, so a cut can fall inside one.
fn path(i: usize) -> String {
    format!("model.λ{i}.weight")
}

fn tag(i: usize) -> BufferTag {
    if i.is_multiple_of(2) {
        BufferTag::Param
    } else {
        BufferTag::OptimState
    }
}

/// A device holding `bufs` as its persistent buffers, in order.
fn device(bufs: &[Vec<f32>]) -> Gpu {
    let mut g = Gpu::new(GpuId(0), CostModel::v100());
    for (i, data) in bufs.iter().enumerate() {
        let n = data.len() as u64;
        let b = g
            .exec(&DeviceCall::Malloc {
                site: AllocSite::new(path(i), n),
                elems: n,
                logical_bytes: n.max(1) * 4,
                tag: tag(i),
            })
            .unwrap()
            .0
            .buffer()
            .unwrap();
        g.exec(&DeviceCall::Upload {
            buf: b,
            data: data.clone(),
        })
        .unwrap();
    }
    g
}

/// The buffers the strategy draws, with the special values mixed in.
fn with_specials(bufs: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
    bufs.into_iter()
        .enumerate()
        .map(|(i, mut data)| {
            for (k, bits) in SPECIAL.iter().enumerate() {
                let at = (i + 3 * k) % (data.len() + 1);
                data.insert(at, f32::from_bits(*bits));
            }
            data
        })
        .collect()
}

/// The per-field codec the state codec replaced: every field through its
/// own `Encode`.
fn oracle_encode(s: &TrainState) -> Vec<u8> {
    let mut out = BytesMut::new();
    s.iteration.encode(&mut out);
    s.opt_t.encode(&mut out);
    s.logical_bytes.encode(&mut out);
    (s.buffers.len() as u64).encode(&mut out);
    for (key, tag, data) in &s.buffers {
        key.encode(&mut out);
        tag.encode(&mut out);
        data.encode(&mut out);
    }
    out.to_vec()
}

/// The per-field decoder, for its error texts; like `decode_framed`, it
/// refuses bytes after the value.
fn oracle_decode(raw: &[u8]) -> SimResult<TrainState> {
    let mut buf = Bytes::copy_from_slice(raw);
    let iteration = u64::decode(&mut buf)?;
    let opt_t = u32::decode(&mut buf)?;
    let logical_bytes = u64::decode(&mut buf)?;
    let n = u64::decode(&mut buf)? as usize;
    let mut buffers = Vec::new();
    for _ in 0..n {
        let key = String::decode(&mut buf)?;
        let tag = BufferTag::decode(&mut buf)?;
        buffers.push((key, tag, Vec::<f32>::decode(&mut buf)?));
    }
    if !buf.is_empty() {
        return Err(simcore::SimError::Codec(format!(
            "{} trailing bytes after decode",
            buf.len()
        )));
    }
    Ok(TrainState {
        iteration,
        opt_t,
        buffers,
        logical_bytes,
    })
}

fn bits(s: &TrainState) -> Vec<(String, BufferTag, Vec<u32>)> {
    s.buffers
        .iter()
        .map(|(k, t, d)| (k.clone(), *t, d.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// `raw` cut at `cuts` (any order, out-of-range and repeated cuts
/// ignored).
fn chunks(raw: &[u8], cuts: &[usize]) -> Vec<Bytes> {
    let mut cuts: Vec<usize> = cuts
        .iter()
        .copied()
        .filter(|&c| c > 0 && c < raw.len())
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut out = Vec::new();
    let mut lo = 0;
    for c in cuts.into_iter().chain([raw.len()]) {
        out.push(Bytes::copy_from_slice(&raw[lo..c]));
        lo = c;
    }
    out
}

/// Offsets inside the first buffer's key, inside its data length
/// prefix, and inside its first `f32` (the header is 28 bytes).
fn awkward_cuts(first_key_len: usize) -> [usize; 3] {
    let key = 28 + 8;
    let data_len = key + first_key_len + 1;
    [key + 1, data_len + 3, data_len + 8 + 2]
}

/// What each of the three sinks makes of `parts`: the host copy's bits,
/// the device's persistent bits after the load, and the validation, each
/// as `Ok` or its error text.
type Decoded = (
    Result<Vec<(String, BufferTag, Vec<u32>)>, String>,
    Result<Vec<(String, BufferTag, Vec<u32>)>, String>,
    Result<u64, String>,
);

fn decode_all(parts: &[Bytes], target: &[Vec<f32>]) -> Decoded {
    let host = decode_state(parts, TrainState::default())
        .map(|(s, ..)| bits(&s))
        .map_err(|e| e.to_string());
    let mut g = device(target);
    let before = g.checksum_all();
    let dev = match g.load_state(parts) {
        Ok(_) => {
            let view = g.state_view(0, 0).unwrap();
            Ok(bits(&TrainState::from(&view)))
        }
        Err(e) => {
            // A refused state writes nothing.
            assert_eq!(g.checksum_all(), before, "{e}");
            Err(e.to_string())
        }
    };
    let none = decode_state(parts, ())
        .map(|((), it)| it)
        .map_err(|e| e.to_string());
    (host, dev, none)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn device_encoding_is_its_snapshots_encoding(
        bufs in proptest::collection::vec(proptest::collection::vec(any::<f32>(), 0..40), 1..6),
        iteration in any::<u64>(),
        opt_t in any::<u32>(),
        shard in 1usize..97,
    ) {
        let bufs = with_specials(bufs);
        let g = device(&bufs);
        let view = g.state_view(iteration, opt_t).unwrap();
        let snapshot = TrainState::from(&view);
        let mut from_device = BytesMut::new();
        view.encode(&mut from_device);
        let mut from_host = BytesMut::new();
        snapshot.encode(&mut from_host);
        prop_assert_eq!(&from_device[..], &from_host[..]);
        prop_assert_eq!(from_device.to_vec(), oracle_encode(&snapshot));
        prop_assert_eq!(view.size_hint(), from_device.len());
        prop_assert_eq!(snapshot.encoded_len(), from_device.len());
        // Framed one shard at a time, the payloads are the same bytes,
        // and a frame past the last is empty.
        let n = from_device.len().div_ceil(shard);
        let mut payloads = Vec::new();
        for i in 0..=n {
            let mut frame = view
                .write_shards(shard, i..i + 1, |i, len, write| {
                    frame_shard_with(i as u32, len, write)
                })
                .remove(0);
            let (index, payload) = decode_shard(&mut frame).unwrap();
            prop_assert_eq!(index as usize, i);
            prop_assert!(frame.is_empty());
            prop_assert_eq!(payload.len(), shard.min(from_device.len() - (i * shard).min(from_device.len())));
            payloads.extend_from_slice(&payload);
        }
        prop_assert_eq!(&payloads[..], &from_device[..]);
        // Written in one pass, each shard into its own buffer, they are
        // the same bytes too.
        let shards = view.write_shards(shard, 0..n, |_, len, write| {
            let mut out = BytesMut::with_capacity(len);
            write(&mut out);
            out
        });
        let lens: Vec<usize> = (0..n)
            .map(|i| shard.min(from_device.len() - i * shard))
            .collect();
        prop_assert_eq!(shards.iter().map(|s| s.len()).collect::<Vec<_>>(), lens);
        let joined: Vec<u8> = shards.iter().flat_map(|s| s.to_vec()).collect();
        prop_assert_eq!(joined, from_device.to_vec());
    }

    #[test]
    fn a_stream_cut_anywhere_decodes_as_the_whole(
        bufs in proptest::collection::vec(proptest::collection::vec(any::<f32>(), 1..40), 1..6),
        cuts in proptest::collection::vec(any::<u16>(), 0..12),
        corrupt in 0u8..7,
        at in any::<u16>(),
    ) {
        let bufs = with_specials(bufs);
        let g = device(&bufs);
        let view = g.state_view(7, 3).unwrap();
        let mut raw = Vec::new();
        {
            let mut out = BytesMut::new();
            view.encode(&mut out);
            raw.extend_from_slice(&out);
        }
        let mut target = bufs.clone();
        let key_len = path(0).len();
        let data_len_at = 28 + 8 + key_len + 1;
        match corrupt {
            // Truncated anywhere.
            1 => raw.truncate(at as usize % raw.len()),
            // An unknown tag.
            2 => raw[data_len_at - 1] = 9,
            // A first buffer far longer than the stream.
            3 => raw[data_len_at + 6] = 0x40,
            // A key that is not UTF-8.
            4 => raw[28 + 8] = 0xff,
            // A device whose first buffer is one value short.
            5 => {
                target[0].pop();
            }
            // Stray bytes after the state.
            6 => raw.extend(std::iter::repeat_n(0, at as usize % 5 + 1)),
            _ => {}
        }
        let mut cut_at: Vec<usize> = cuts.iter().map(|&c| c as usize % raw.len().max(1)).collect();
        cut_at.extend(awkward_cuts(key_len));
        let whole = decode_all(&chunks(&raw, &[]), &target);
        let split = decode_all(&chunks(&raw, &cut_at), &target);
        prop_assert_eq!(&split, &whole);
        // Byte-at-a-time: every boundary at once.
        let every: Vec<usize> = (1..raw.len()).collect();
        prop_assert_eq!(&decode_all(&chunks(&raw, &every), &target), &whole);
        // The contiguous decoder is the per-field decoder, texts included.
        let oracle = oracle_decode(&raw).map(|s| bits(&s)).map_err(|e| e.to_string());
        prop_assert_eq!(&whole.0, &oracle);
        if corrupt == 0 {
            let want: Vec<_> = bits(&TrainState::from(&view));
            prop_assert_eq!(whole.0, Ok(want.clone()));
            prop_assert_eq!(whole.1, Ok(want));
            prop_assert_eq!(whole.2, Ok(7));
        }
    }
}

#[test]
fn a_device_refuses_a_state_that_does_not_cover_it_exactly() {
    let bufs = vec![vec![1.0f32; 5], vec![2.0; 3]];
    let g = device(&bufs);
    let raw = {
        let mut out = BytesMut::new();
        g.state_view(1, 1).unwrap().encode(&mut out);
        out.freeze()
    };
    for (what, target) in [
        (
            "a buffer the state leaves out",
            vec![vec![0.0; 5], vec![0.0; 3], vec![0.0; 2]],
        ),
        ("a buffer the device lacks", vec![vec![0.0; 5]]),
        ("a longer buffer", vec![vec![0.0; 6], vec![0.0; 3]]),
    ] {
        let mut g = device(&target);
        let before = g.checksum_all();
        let err = g.load_state(std::slice::from_ref(&raw));
        assert!(err.is_err(), "{what}");
        assert_eq!(g.checksum_all(), before, "{what}");
    }
    // The same layout under another tag.
    let mut g = Gpu::new(GpuId(0), CostModel::v100());
    for (i, data) in bufs.iter().enumerate() {
        let n = data.len() as u64;
        g.exec(&DeviceCall::Malloc {
            site: AllocSite::new(path(i), n),
            elems: n,
            logical_bytes: n * 4,
            tag: tag(i + 1),
        })
        .unwrap();
    }
    let before = g.checksum_all();
    assert!(g.load_state(std::slice::from_ref(&raw)).is_err());
    assert_eq!(g.checksum_all(), before);
    // And a state followed by a stray byte.
    let mut stray = raw.to_vec();
    stray.push(0);
    let mut g = device(&[vec![0.0; 5], vec![0.0; 3]]);
    let before = g.checksum_all();
    let err = g.load_state(&[Bytes::from(stray)]).unwrap_err();
    assert!(err.to_string().contains("1 trailing bytes"), "{err}");
    assert_eq!(g.checksum_all(), before);
}

#[test]
fn a_host_copy_views_as_its_device() {
    let bufs = vec![vec![1.5f32, -0.0], vec![f32::from_bits(1)]];
    let g = device(&bufs);
    let view = g.state_view(4, 2).unwrap();
    let host = TrainState::from(&view);
    assert_eq!(StateView::from(&host), view);
}
