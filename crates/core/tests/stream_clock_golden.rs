//! Pinned virtual clocks of the two recovery streams: the sender's and
//! the receiver's clock after one `send_state` → `recv_state` transfer
//! and after one DP = 4 `send_ledger_slices` → `recv_ledger_history`
//! transfer, each to the last bit of its `f64` seconds. The frame loops
//! both streams run charge the sender per frame before it enters the
//! wire and the receiver per frame after it arrives; any change to what
//! or when they charge moves a number below.

use collectives::{CollKind, CommWorld, GradLedger, LedgerConfig};
use dltrain::TrainState;
use jitckpt::stream::{recv_ledger_history, recv_state, send_ledger_slices, send_state};
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

/// Survivors 1, 2 and 3 (clocks 1–3) and the replacement rank 0
/// (clock 0) after one ledger transfer of two epochs of two all-reduce
/// generations each, at lengths no member count divides.
const LEDGER_CLOCKS: [u64; 4] = [
    0x3f31_0087_ae0a_0d0a, // 2.5943100448717947e-4 s
    0x3ed5_fda0_ddb9_36cc, // 5.243e-6 s
    0x3ed5_fc8d_fcfa_b45e, // 5.242e-6 s
    0x3ed5_fda0_ddb9_36cc, // 5.243e-6 s
];

#[test]
fn ledger_stream_clocks_are_pinned() {
    let ledgers: Vec<Arc<GradLedger>> = (0..4)
        .map(|_| GradLedger::new(LedgerConfig::unbounded()))
        .collect();
    let mut gen = 0;
    for epoch in 0..2u64 {
        for len in [10_007usize, 333] {
            let data: Arc<Vec<f32>> = Arc::new(
                (0..len)
                    .map(|i| (i as f32 * 0.25 + epoch as f32).sin())
                    .collect(),
            );
            for (pos, ledger) in ledgers.iter().enumerate() {
                ledger.begin_epoch(epoch);
                ledger.record(gen, CollKind::AllReduce, pos, 4, data.clone());
            }
            gen += 1;
        }
    }
    let (w, clock) = world(4);
    let cost = CostModel::v100();
    for (s, ledger) in ledgers.iter().enumerate().skip(1) {
        let sent = send_ledger_slices(
            &w,
            &cost,
            RankId(s as u32),
            s,
            RankId(0),
            true,
            ledger,
            0..2,
        )
        .unwrap();
        assert!(sent > 0);
    }
    let srcs = [RankId(1), RankId(2), RankId(3)];
    let history =
        recv_ledger_history(&w, &cost, &srcs, RankId(0), 0, Duration::from_secs(5), 0..2).unwrap();
    assert_eq!(history.len(), 2);
    assert!(history.iter().all(|epoch| epoch.len() == 2));
    assert_eq!(bits(&clock, 0..4), LEDGER_CLOCKS);
}
