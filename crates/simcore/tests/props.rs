//! Property-based tests for the simulation core: codec round-trips under
//! arbitrary inputs, corruption detection, analysis-grade math helpers,
//! clock monotonicity, and layout bijectivity.

use proptest::prelude::*;
use simcore::codec::{decode_framed, encode_framed, f32_checksum};
use simcore::layout::ParallelLayout;
use simcore::rng::DetRng;
use simcore::time::{ClockBoard, SimTime};
use simcore::RankId;

proptest! {
    #[test]
    fn codec_round_trips_arbitrary_f32_vectors(data in proptest::collection::vec(any::<f32>(), 0..512)) {
        let framed = encode_framed(&data);
        let back: Vec<f32> = decode_framed(&framed).unwrap();
        // Compare bit patterns (NaN-safe).
        prop_assert_eq!(data.len(), back.len());
        for (a, b) in data.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn codec_round_trips_nested_structures(
        pairs in proptest::collection::vec((".*", proptest::collection::vec(any::<u64>(), 0..16)), 0..8)
    ) {
        let framed = encode_framed(&pairs);
        let back: Vec<(String, Vec<u64>)> = decode_framed(&framed).unwrap();
        prop_assert_eq!(back, pairs);
    }

    #[test]
    fn any_single_byte_flip_is_detected(
        data in proptest::collection::vec(any::<u64>(), 1..64),
        idx in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let framed = encode_framed(&data);
        let mut bad = framed.to_vec();
        let i = idx.index(bad.len());
        bad[i] ^= 1 << bit;
        // Either the magic, length, payload, or CRC broke — never a clean
        // decode of different data.
        let res: Result<Vec<u64>, _> = decode_framed(&bytes::Bytes::from(bad));
        match res {
            Err(_) => {}
            Ok(v) => prop_assert_eq!(v, data, "silent corruption"),
        }
    }

    #[test]
    fn checksum_detects_any_single_element_change(
        data in proptest::collection::vec(-1e6f32..1e6, 1..256),
        idx in any::<proptest::sample::Index>(),
    ) {
        let mut other = data.clone();
        let i = idx.index(other.len());
        other[i] = f32::from_bits(other[i].to_bits() ^ 1);
        prop_assert_ne!(f32_checksum(&data), f32_checksum(&other));
    }

    #[test]
    fn crc64_table_driven_equals_bitwise_reference(
        data in proptest::collection::vec(any::<u8>(), 0..65_600),
        offset in 0usize..64,
        cut in any::<proptest::sample::Index>(),
    ) {
        // `crc64`, whichever kernel the CPU takes, must be bit-identical to
        // the bit-at-a-time form on arbitrary inputs and lengths: short
        // inputs, the 8- and 16-byte folds, every residue of the lane split
        // and of the 256-byte fold and their tails (up to a 64 KiB frame),
        // and sub-slices starting at odd offsets.
        let whole = &data[..];
        prop_assert_eq!(
            simcore::codec::crc64(whole),
            simcore::codec::crc64_bitwise(whole)
        );
        let from = offset.min(whole.len());
        let sub = &whole[from..from + cut.index(whole.len() - from + 1)];
        prop_assert_eq!(
            simcore::codec::crc64(sub),
            simcore::codec::crc64_bitwise(sub)
        );
    }

    #[test]
    fn sharded_encoder_stream_equals_flat_encode(
        data in proptest::collection::vec(any::<u64>(), 0..256),
        tail in ".*",
        shard_size in 1usize..512,
    ) {
        use simcore::codec::Encode;
        let mut flat = bytes::BytesMut::new();
        data.encode(&mut flat);
        tail.encode(&mut flat);
        let mut enc = simcore::codec::Encoder::new(shard_size);
        enc.write(&data);
        enc.write(&tail);
        let shards = enc.finish();
        let stream = simcore::codec::split_shards(&simcore::codec::concat_shards(&shards)).unwrap();
        prop_assert_eq!(&stream[..], &flat[..]);
        // Shard framing is exact: every non-final payload is shard_size.
        for s in &shards[..shards.len() - 1] {
            prop_assert_eq!(s.len(), shard_size + simcore::codec::SHARD_FRAME_OVERHEAD);
        }
    }

    #[test]
    fn det_rng_state_resume_is_exact(seed in any::<u64>(), skip in 0usize..64, take in 1usize..64) {
        let mut r = DetRng::new(seed);
        for _ in 0..skip { r.next_u64(); }
        let snap = r.state();
        let ahead: Vec<u64> = (0..take).map(|_| r.next_u64()).collect();
        let mut resumed = DetRng::from_state(snap);
        let replay: Vec<u64> = (0..take).map(|_| resumed.next_u64()).collect();
        prop_assert_eq!(ahead, replay);
    }

    #[test]
    fn clock_advance_is_monotone(steps in proptest::collection::vec(0.0f64..100.0, 1..64)) {
        let b = ClockBoard::new(1);
        let mut last = 0.0;
        for s in steps {
            let t = b.advance(0, SimTime::from_secs(s));
            prop_assert!(t.as_secs() >= last);
            last = t.as_secs();
        }
    }

    #[test]
    fn barrier_sync_never_rewinds_any_clock(
        starts in proptest::collection::vec(0.0f64..1000.0, 2..8),
        cost in 0.0f64..10.0,
    ) {
        let n = starts.len();
        let b = ClockBoard::new(n);
        for (i, s) in starts.iter().enumerate() {
            b.raise_to(i, SimTime::from_secs(*s));
        }
        let idxs: Vec<usize> = (0..n).collect();
        let t = b.barrier_sync(&idxs, SimTime::from_secs(cost));
        let max = starts.iter().fold(0.0f64, |a, b| a.max(*b));
        prop_assert!((t.as_secs() - (max + cost)).abs() < 1e-9);
        for (i, s) in starts.iter().enumerate() {
            prop_assert!(b.now(i).as_secs() >= *s);
        }
    }

    #[test]
    fn layout_coord_rank_bijection(dp in 1usize..5, pp in 1usize..5, tp in 1usize..5) {
        let l = ParallelLayout::three_d(dp, pp, tp);
        for r in 0..l.world_size() {
            let rank = RankId(r as u32);
            let c = l.coord(rank);
            prop_assert_eq!(l.rank_at(c), rank);
        }
        // dp groups partition the world per (stage, part) cell.
        let mut seen = std::collections::HashSet::new();
        for (stage, part) in l.cells() {
            let g = l.dp_group_of(l.rank_at(simcore::layout::GridCoord { dp: 0, stage, part }));
            prop_assert_eq!(g.len(), dp);
            for r in g {
                prop_assert!(seen.insert(r), "cells must not overlap");
            }
        }
        prop_assert_eq!(seen.len(), l.world_size());
    }

    #[test]
    fn optimal_frequency_beats_any_other(
        o in 0.1f64..60.0,
        f_day in 1e-4f64..0.1,
        n in 1usize..10_000,
        scale in 0.05f64..20.0,
    ) {
        // c* from eq. 3 minimizes eq. 1 over the positive axis.
        use simcore::failure::FailureRate;
        let f = FailureRate::per_gpu_per_day(f_day).per_gpu_per_sec;
        let c_star = (n as f64 * f / (2.0 * o)).sqrt();
        let w = |c: f64| c * o + n as f64 * f / (2.0 * c);
        prop_assert!(w(c_star) <= w(c_star * scale) + 1e-12);
    }
}
