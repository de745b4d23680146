//! Pinned virtual clocks of the recovery stream: the sender's and the
//! receiver's clock after one `send_state` → `recv_state` transfer, each
//! to the last bit of its `f64` seconds. The stream's frame loops charge
//! the sender per frame before it enters the wire and the receiver per
//! frame after it arrives; any change to what or when they charge moves
//! a number below.

use collectives::CommWorld;
use dltrain::TrainState;
use jitckpt::stream::{recv_state, send_state};
use simcore::cost::CostModel;
use simcore::time::ClockBoard;
use simcore::RankId;
use simgpu::BufferTag;
use std::sync::Arc;
use std::time::Duration;

fn world(n: usize) -> (Arc<CommWorld>, Arc<ClockBoard>) {
    let clock = Arc::new(ClockBoard::new(n));
    (CommWorld::new(clock.clone(), CostModel::v100(), 8), clock)
}

fn bits(clock: &ClockBoard, ranks: std::ops::Range<usize>) -> Vec<u64> {
    ranks.map(|i| clock.now(i).as_secs().to_bits()).collect()
}

/// Sender (clock 0) and receiver (clock 1) after streaming a two-buffer
/// state across nodes at 50 000-byte frames: three frames, the last one
/// partial.
const STATE_CLOCKS: [u64; 2] = [
    0x3ef3_6b1f_6655_5220, // 1.8518875e-5 s
    0x3f1b_8d75_3272_388a, // 1.0510471166666667e-4 s
];

#[test]
fn state_stream_clocks_are_pinned() {
    let (w, clock) = world(2);
    let cost = CostModel::v100();
    let state = TrainState {
        iteration: 9,
        opt_t: 8,
        buffers: vec![
            (
                "model.w".into(),
                BufferTag::Param,
                (0..30_000).map(|i| (i as f32).cos()).collect(),
            ),
            ("adam.m".into(), BufferTag::OptimState, vec![0.5; 7_001]),
        ],
        logical_bytes: 64 << 20,
    };
    let header = send_state(&w, &cost, RankId(0), 0, RankId(1), false, &state, 50_000).unwrap();
    assert_eq!(header.n_shards, 3);
    let got = recv_state(&w, &cost, RankId(0), RankId(1), 1, Duration::from_secs(5)).unwrap();
    assert_eq!(got, state);
    assert_eq!(bits(&clock, 0..2), STATE_CLOCKS);
}
