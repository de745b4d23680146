//! Property-based tests for the interception layer: virtual-handle
//! translation totality, replay/reset idempotence, and replay-log wire
//! round-trips under arbitrary op sequences.

use proptest::prelude::*;
use proxy::{DirectExecutor, Executor, ProxyClient};
use simcore::cost::CostModel;
use simcore::time::ClockBoard;
use simcore::{GpuId, RankId};
use simgpu::{AllocSite, BufferId, BufferTag, DeviceCall, Gpu, KernelKind};
use std::sync::Arc;

fn client() -> ProxyClient {
    let clock = Arc::new(ClockBoard::new(1));
    let world = collectives::CommWorld::new(clock, CostModel::v100(), 8);
    ProxyClient::new(RankId(0), 0, Gpu::new(GpuId(0), CostModel::v100()), world)
}

fn direct() -> DirectExecutor {
    let clock = Arc::new(ClockBoard::new(1));
    let world = collectives::CommWorld::new(clock, CostModel::v100(), 8);
    DirectExecutor::new(RankId(0), 0, Gpu::new(GpuId(0), CostModel::v100()), world)
}

fn alloc<E: Executor>(e: &mut E, path: &str, data: Vec<f32>, tag: BufferTag) -> BufferId {
    let n = data.len() as u64;
    let b = e
        .call(DeviceCall::Malloc {
            site: AllocSite::new(path, n),
            elems: n,
            logical_bytes: n * 4,
            tag,
        })
        .unwrap()
        .buffer()
        .unwrap();
    e.call(DeviceCall::Upload { buf: b, data }).unwrap();
    b
}

fn download<E: Executor>(e: &mut E, b: BufferId) -> Vec<f32> {
    e.call(DeviceCall::Download { buf: b })
        .unwrap()
        .data()
        .unwrap()
}

/// A randomized minibatch program: params, then a sequence of elementwise
/// ops over fresh activation buffers.
#[derive(Debug, Clone)]
enum Op {
    Scale(f32),
    Axpy(f32),
    Relu,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-4.0f32..4.0).prop_map(Op::Scale),
        (-4.0f32..4.0).prop_map(Op::Axpy),
        Just(Op::Relu),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn intercepted_execution_matches_direct_execution(
        init in proptest::collection::vec(-10.0f32..10.0, 4),
        ops in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        // The same program through the proxy and the direct executor must
        // produce bit-identical results: interception is semantically
        // invisible (the paper's no-code-change claim, as a property).
        fn run<E: Executor>(mut e: E, init: &[f32], ops: &[Op]) -> Vec<f32> {
            let s = e.call(DeviceCall::StreamCreate).unwrap().stream().unwrap();
            let w = alloc(&mut e, "w", init.to_vec(), BufferTag::Param);
            e.begin_minibatch(0).unwrap();
            let mut cur = alloc(&mut e, "act0", init.to_vec(), BufferTag::Activation);
            for (i, op) in ops.iter().enumerate() {
                match op {
                    Op::Scale(a) => {
                        e.call(DeviceCall::Launch { stream: s, kernel: KernelKind::Scale { alpha: *a, x: cur } }).unwrap();
                    }
                    Op::Axpy(a) => {
                        e.call(DeviceCall::Launch { stream: s, kernel: KernelKind::Axpy { alpha: *a, x: w, y: cur } }).unwrap();
                    }
                    Op::Relu => {
                        let next = alloc(&mut e, &format!("act{}", i + 1), vec![0.0; init.len()], BufferTag::Activation);
                        e.call(DeviceCall::Launch { stream: s, kernel: KernelKind::Relu { x: cur, out: next } }).unwrap();
                        cur = next;
                    }
                }
            }
            download(&mut e, cur)
        }
        let via_proxy = run(client(), &init, &ops);
        let direct_out = run(direct(), &init, &ops);
        prop_assert_eq!(via_proxy.len(), direct_out.len());
        for (a, b) in via_proxy.iter().zip(&direct_out) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn reset_and_replay_reproduces_arbitrary_programs(
        init in proptest::collection::vec(-10.0f32..10.0, 4),
        ops in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        let mut c = client();
        let s = c.call(DeviceCall::StreamCreate).unwrap().stream().unwrap();
        let w = alloc(&mut c, "w", init.clone(), BufferTag::Param);
        c.begin_minibatch(0).unwrap();
        let cur = alloc(&mut c, "act", init.clone(), BufferTag::Activation);
        for op in &ops {
            match op {
                Op::Scale(a) => {
                    c.call(DeviceCall::Launch { stream: s, kernel: KernelKind::Scale { alpha: *a, x: cur } }).unwrap();
                }
                Op::Axpy(a) => {
                    c.call(DeviceCall::Launch { stream: s, kernel: KernelKind::Axpy { alpha: *a, x: w, y: cur } }).unwrap();
                }
                Op::Relu => {
                    c.call(DeviceCall::Launch { stream: s, kernel: KernelKind::Relu { x: cur, out: cur } }).unwrap();
                }
            }
        }
        // §4.1 verification must pass for every generated program that
        // keeps params read-only during the minibatch window.
        prop_assert!(c.verify_replay_log().unwrap());
        // And verification is repeatable (reset+replay is idempotent).
        prop_assert!(c.verify_replay_log().unwrap());
    }

    #[test]
    fn worker_cpu_state_round_trips(
        ops in proptest::collection::vec(op_strategy(), 0..8),
        iteration in 0u64..100,
    ) {
        let mut c = client();
        let s = c.call(DeviceCall::StreamCreate).unwrap().stream().unwrap();
        let b = alloc(&mut c, "w", vec![1.0; 4], BufferTag::Param);
        c.begin_minibatch(iteration).unwrap();
        for op in &ops {
            if let Op::Scale(a) = op {
                c.call(DeviceCall::Launch { stream: s, kernel: KernelKind::Scale { alpha: *a, x: b } }).unwrap();
            }
        }
        let log_len = c.replay_log_len();
        let image = c.worker_cpu_state().unwrap();
        // Clobber, restore, compare.
        c.begin_minibatch(iteration + 1).unwrap();
        prop_assert_eq!(c.replay_log_len(), 0);
        c.restore_worker_cpu_state(&image).unwrap();
        prop_assert_eq!(c.replay_log_len(), log_len);
        prop_assert_eq!(c.iteration(), iteration);
    }
}

/// Richer program alphabet for the replay property: overwrites, copies,
/// frees, event edges and downloads — every device-call family a
/// minibatch can log.
#[derive(Debug, Clone)]
enum RichOp {
    Upload(usize, i8),
    Scale(usize, f32),
    Axpy(usize, usize, f32),
    ReluInto(usize),
    Copy(usize, usize),
    Free(usize),
    EventCreate,
    Record(usize),
    Wait(usize),
    Download(usize),
}

fn rich_op_strategy() -> impl Strategy<Value = RichOp> {
    prop_oneof![
        (0usize..8, -9i8..9).prop_map(|(i, v)| RichOp::Upload(i, v)),
        (0usize..8, -3.0f32..3.0).prop_map(|(i, a)| RichOp::Scale(i, a)),
        (0usize..8, 0usize..8, -3.0f32..3.0).prop_map(|(i, j, a)| RichOp::Axpy(i, j, a)),
        (0usize..8).prop_map(RichOp::ReluInto),
        (0usize..8, 0usize..8).prop_map(|(i, j)| RichOp::Copy(i, j)),
        (0usize..8).prop_map(RichOp::Free),
        Just(RichOp::EventCreate),
        (0usize..4).prop_map(RichOp::Record),
        (0usize..4).prop_map(RichOp::Wait),
        (0usize..8).prop_map(RichOp::Download),
    ]
}

/// Tracked buffers: `(id, activation)`. The reset+replay model requires
/// params to stay read-only inside the minibatch window (the existing
/// §4.1 property asserts exactly that), and `reset_in_place` only
/// preserves persistent buffers — so generated programs *write to and
/// free* only in-minibatch activations, while reads may hit anything.
fn apply_rich(
    c: &mut ProxyClient,
    s: simgpu::StreamId,
    n: usize,
    bufs: &mut Vec<(BufferId, bool)>,
    events: &mut Vec<simgpu::EventId>,
    next_act: &mut usize,
    op: &RichOp,
) {
    let pick = |bufs: &Vec<(BufferId, bool)>, i: usize| bufs[i % bufs.len()].0;
    // Pick a write target: the i-th live activation buffer (at least one
    // always exists — `Free` never removes the last).
    let pick_act = |bufs: &Vec<(BufferId, bool)>, i: usize| {
        let acts: Vec<BufferId> = bufs.iter().filter(|(_, a)| *a).map(|(b, _)| *b).collect();
        acts[i % acts.len()]
    };
    match op {
        RichOp::Upload(i, v) => {
            let b = pick_act(bufs, *i);
            c.call(DeviceCall::Upload {
                buf: b,
                data: vec![*v as f32; n],
            })
            .unwrap();
        }
        RichOp::Scale(i, a) => {
            let b = pick_act(bufs, *i);
            c.call(DeviceCall::Launch {
                stream: s,
                kernel: KernelKind::Scale { alpha: *a, x: b },
            })
            .unwrap();
        }
        RichOp::Axpy(i, j, a) => {
            let (x, y) = (pick(bufs, *i), pick_act(bufs, *j));
            c.call(DeviceCall::Launch {
                stream: s,
                kernel: KernelKind::Axpy { alpha: *a, x, y },
            })
            .unwrap();
        }
        RichOp::ReluInto(i) => {
            let x = pick(bufs, *i);
            let out = c
                .call(DeviceCall::Malloc {
                    site: AllocSite::new(format!("act{next_act}"), n as u64),
                    elems: n as u64,
                    logical_bytes: n as u64 * 4,
                    tag: BufferTag::Activation,
                })
                .unwrap()
                .buffer()
                .unwrap();
            *next_act += 1;
            c.call(DeviceCall::Launch {
                stream: s,
                kernel: KernelKind::Relu { x, out },
            })
            .unwrap();
            bufs.push((out, true));
        }
        RichOp::Copy(i, j) => {
            let (src, dst) = (pick(bufs, *i), pick_act(bufs, *j));
            if src != dst {
                c.call(DeviceCall::CopyD2D { src, dst }).unwrap();
            }
        }
        RichOp::Free(i) => {
            let act_positions: Vec<usize> = bufs
                .iter()
                .enumerate()
                .filter(|(_, (_, act))| *act)
                .map(|(p, _)| p)
                .collect();
            // Keep at least one activation alive as a write target.
            if act_positions.len() >= 2 {
                let (b, _) = bufs.remove(act_positions[*i % act_positions.len()]);
                c.call(DeviceCall::Free { buf: b }).unwrap();
            }
        }
        RichOp::EventCreate => {
            let e = c.call(DeviceCall::EventCreate).unwrap().event().unwrap();
            events.push(e);
        }
        RichOp::Record(i) => {
            if !events.is_empty() {
                let e = events[i % events.len()];
                c.call(DeviceCall::EventRecord {
                    stream: s,
                    event: e,
                })
                .unwrap();
            }
        }
        RichOp::Wait(i) => {
            if !events.is_empty() {
                let e = events[i % events.len()];
                c.call(DeviceCall::StreamWaitEvent {
                    stream: s,
                    event: e,
                })
                .unwrap();
            }
        }
        RichOp::Download(i) => {
            let b = pick(bufs, *i);
            download(c, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Replay is the log as logged: after a reset to minibatch start it
    /// reproduces the original execution bit for bit, re-executes every
    /// logged op, and can do so again.
    #[test]
    fn replay_after_reset_reproduces_the_original_execution(
        init in proptest::collection::vec(-8.0f32..8.0, 4),
        ops in proptest::collection::vec(rich_op_strategy(), 1..40),
    ) {
        let mut c = client();
        let s = c.call(DeviceCall::StreamCreate).unwrap().stream().unwrap();
        let n = init.len();
        let w = alloc(&mut c, "w", init.clone(), BufferTag::Param);
        let g = alloc(&mut c, "g", vec![0.25; n], BufferTag::Param);
        c.begin_minibatch(0).unwrap();
        let a0 = alloc(&mut c, "act_seed", vec![0.5; n], BufferTag::Activation);
        let mut bufs: Vec<(BufferId, bool)> = vec![(w, false), (g, false), (a0, true)];
        let mut events = Vec::new();
        let mut next_act = 0usize;
        for op in &ops {
            apply_rich(&mut c, s, n, &mut bufs, &mut events, &mut next_act, op);
        }
        let state_of = |c: &mut ProxyClient, bufs: &[(BufferId, bool)]| -> Vec<Vec<u32>> {
            bufs.iter()
                .map(|(b, _)| download(c, *b).iter().map(|f| f.to_bits()).collect())
                .collect()
        };
        let original = state_of(&mut c, &bufs);
        for _ in 0..2 {
            // `state_of`'s own downloads are logged too, hence the fresh length.
            let logged = c.replay_log_len();
            c.reset_in_place().unwrap();
            prop_assert_eq!(c.replay().unwrap(), logged);
            prop_assert_eq!(&original, &state_of(&mut c, &bufs));
        }
    }

    /// Batched submission is semantically invisible: the same program at
    /// flush-batch capacity 1 (a framed round trip per call) and the
    /// default capacity produces bit-identical state AND identical
    /// virtual time (cost charging distributes over the batch).
    #[test]
    fn batched_and_unbatched_execution_are_equivalent(
        init in proptest::collection::vec(-10.0f32..10.0, 4),
        ops in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        fn run(mut c: ProxyClient, init: &[f32], ops: &[Op]) -> (Vec<u32>, simcore::SimTime) {
            let s = c.call(DeviceCall::StreamCreate).unwrap().stream().unwrap();
            let w = alloc(&mut c, "w", init.to_vec(), BufferTag::Param);
            c.begin_minibatch(0).unwrap();
            let cur = alloc(&mut c, "act", init.to_vec(), BufferTag::Activation);
            for op in ops {
                match op {
                    Op::Scale(a) => {
                        c.call(DeviceCall::Launch { stream: s, kernel: KernelKind::Scale { alpha: *a, x: cur } }).unwrap();
                    }
                    Op::Axpy(a) => {
                        c.call(DeviceCall::Launch { stream: s, kernel: KernelKind::Axpy { alpha: *a, x: w, y: cur } }).unwrap();
                    }
                    Op::Relu => {
                        c.call(DeviceCall::Launch { stream: s, kernel: KernelKind::Relu { x: cur, out: cur } }).unwrap();
                    }
                }
            }
            let bits = download(&mut c, cur).iter().map(|f| f.to_bits()).collect();
            (bits, c.now())
        }
        let mut unbatched = client();
        unbatched.set_batch_capacity(1).unwrap();
        let (bits_1, t_1) = run(unbatched, &init, &ops);
        let (bits_n, t_n) = run(client(), &init, &ops);
        prop_assert_eq!(bits_1, bits_n);
        // Virtual-time charging distributes over the batch up to float
        // summation order (addition is not associative), so compare with
        // a relative ULP-scale tolerance rather than bitwise.
        let (a, b) = (t_1.as_secs(), t_n.as_secs());
        prop_assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "t_1={a} t_n={b}");
    }

    /// The batched wire format survives arbitrary call sequences and
    /// shard payload sizes — including payloads far smaller than a
    /// single call's encoding (oversized ops straddle shard frames) and
    /// empty batches.
    #[test]
    fn batch_framing_round_trips(
        payload in 16usize..200,
        calls in proptest::collection::vec(
            prop_oneof![
                (1u64..99, proptest::collection::vec(-1.0f32..1.0, 0..600))
                    .prop_map(|(b, data)| DeviceCall::Upload { buf: BufferId(b), data }),
                (1u64..99).prop_map(|b| DeviceCall::Free { buf: BufferId(b) }),
                Just(DeviceCall::DeviceSync),
                (1u64..99, -4.0f32..4.0).prop_map(|(b, a)| DeviceCall::Launch {
                    stream: simgpu::StreamId(7),
                    kernel: KernelKind::Scale { alpha: a, x: BufferId(b) },
                }),
            ],
            0..20,
        ),
    ) {
        let frame = proxy::encode_batch(&calls, payload);
        prop_assert_eq!(proxy::decode_batch(&frame).unwrap(), calls);
    }
}

/// The network program both executors must run identically on a 2-rank
/// world: each of the five collective kinds once, then a send/recv pair.
/// `fault_before` arms a one-shot transient network fault on this rank's
/// communicator just before the collective with that index. Returns the
/// bits of every buffer the program wrote.
fn network_program<E: Executor>(
    e: &mut E,
    comm: Arc<collectives::Communicator>,
    fault_before: Option<usize>,
) -> Vec<Vec<u32>> {
    use collectives::ReduceOp;
    let me = e.rank().0;
    let peer = RankId(1 - me);
    let token = e.register_comm(comm);
    let seed = |k: u32| -> Vec<f32> {
        (0..4)
            .map(|i| (me * 7 + k * 3 + i) as f32 * 0.37 - 1.1)
            .collect()
    };
    let reduced = alloc(e, "reduced", seed(0), BufferTag::Gradient);
    let shard = alloc(e, "shard", seed(1)[..2].to_vec(), BufferTag::Activation);
    let gathered = alloc(e, "gathered", vec![0.0; 4], BufferTag::Activation);
    let full = alloc(e, "full", seed(2), BufferTag::Gradient);
    let scattered = alloc(e, "scattered", vec![0.0; 2], BufferTag::Activation);
    let bcast = alloc(e, "bcast", seed(3), BufferTag::Param);
    let mail = alloc(e, "mail", seed(4), BufferTag::Activation);
    e.begin_minibatch(0).unwrap();
    for step in 0..5 {
        if fault_before == Some(step) {
            e.inject_transient(token).unwrap();
        }
        match step {
            0 => e.all_reduce(token, reduced, ReduceOp::Avg),
            1 => e.all_gather_into(token, shard, gathered),
            2 => e.reduce_scatter_into(token, full, scattered, ReduceOp::Sum),
            3 => e.broadcast(token, RankId(1), bcast),
            _ => e.barrier(token),
        }
        .unwrap();
    }
    if me == 0 {
        e.send(peer, 5, 0, mail, true).unwrap();
    } else {
        e.recv_into(peer, 5, 0, mail).unwrap();
    }
    [reduced, gathered, scattered, bcast, mail]
        .into_iter()
        .map(|b| download(e, b).iter().map(|f| f.to_bits()).collect())
        .collect()
}

/// Minimal transient-fault recovery for two ranks: abort the broken
/// communicator (releasing the peer parked in it), switch both ranks to
/// the spare one, retry.
struct SwapComm {
    spare: Arc<collectives::Communicator>,
}

impl proxy::RecoveryHandler for SwapComm {
    fn handle(
        &self,
        client: &mut ProxyClient,
        op: &proxy::PendingOp,
        _err: &simcore::SimError,
    ) -> simcore::SimResult<proxy::RecoveryOutcome> {
        let proxy::PendingOp::Collective { comm, .. } = op else {
            return Err(simcore::SimError::Protocol(format!("unexpected {op:?}")));
        };
        client.comm(*comm)?.abort();
        client.replace_comm(*comm, self.spare.clone());
        Ok(proxy::RecoveryOutcome::Retry)
    }
}

/// Runs `network_program` on both ranks of a fresh 2-rank world, each
/// rank on its own thread; `fault_before` is armed on rank 0 only.
fn run_pair(proxied: bool, fault_before: Option<usize>) -> Vec<Vec<Vec<u32>>> {
    let world = collectives::CommWorld::new(Arc::new(ClockBoard::new(2)), CostModel::v100(), 8);
    let new_comm = || world.create_comm(vec![RankId(0), RankId(1)], vec![0, 1]);
    let (comm, spare) = (new_comm(), new_comm());
    let handles: Vec<_> = (0..2u32)
        .map(|r| {
            let (world, comm, spare) = (world.clone(), comm.clone(), spare.clone());
            std::thread::spawn(move || {
                let gpu = Gpu::new(GpuId(r), CostModel::v100());
                let fault = fault_before.filter(|_| r == 0);
                if proxied {
                    let mut c = ProxyClient::new(RankId(r), r as usize, gpu, world);
                    c.set_handler(Arc::new(SwapComm { spare }));
                    network_program(&mut c, comm, fault)
                } else {
                    let mut d = DirectExecutor::new(RankId(r), r as usize, gpu, world);
                    network_program(&mut d, comm, fault)
                }
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Proxied ≡ direct, bit for bit, for every collective kind and a p2p
/// pair — fault-free, and with one transparent retry at each collective
/// in turn (the application-visible result must not depend on whether,
/// or where, the interception layer recovered).
#[test]
fn proxied_network_ops_match_direct_bit_for_bit_even_across_a_retry() {
    let direct = run_pair(false, None);
    assert_ne!(direct[0], direct[1], "ranks hold different data");
    assert_eq!(run_pair(true, None), direct, "fault-free");
    for step in 0..5 {
        assert_eq!(run_pair(true, Some(step)), direct, "retry at op {step}");
    }
}
