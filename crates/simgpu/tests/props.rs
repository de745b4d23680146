//! Property-based tests for the simulated device: allocator safety,
//! snapshot/restore round-trips, kernel algebra, and reset invariants.

use proptest::prelude::*;
use simcore::cost::CostModel;
use simcore::GpuId;
use simgpu::{AllocSite, BufferTag, DeviceCall, Gpu, KernelKind};

fn gpu() -> Gpu {
    Gpu::new(GpuId(0), CostModel::v100())
}

fn malloc(g: &mut Gpu, path: &str, data: Vec<f32>, tag: BufferTag) -> simgpu::BufferId {
    let n = data.len() as u64;
    let b = g
        .exec(&DeviceCall::Malloc {
            site: AllocSite::new(path, n),
            elems: n,
            logical_bytes: n.max(1) * 4,
            tag,
        })
        .unwrap()
        .0
        .buffer()
        .unwrap();
    g.exec(&DeviceCall::Upload { buf: b, data }).unwrap();
    b
}

proptest! {
    #[test]
    fn allocator_never_reuses_live_handles(sizes in proptest::collection::vec(1usize..64, 1..40)) {
        let mut g = gpu();
        let mut handles = std::collections::HashSet::new();
        for (i, s) in sizes.iter().enumerate() {
            let b = malloc(&mut g, &format!("b{i}"), vec![0.0; *s], BufferTag::Workspace);
            prop_assert!(handles.insert(b), "handle reuse");
        }
        prop_assert_eq!(g.buffer_count(), sizes.len());
    }

    #[test]
    fn used_bytes_is_conserved_across_alloc_free(sizes in proptest::collection::vec(1usize..64, 1..24)) {
        let mut g = gpu();
        let mut bufs = Vec::new();
        let mut expect = 0u64;
        for (i, s) in sizes.iter().enumerate() {
            bufs.push(malloc(&mut g, &format!("b{i}"), vec![0.0; *s], BufferTag::Workspace));
            expect += *s as u64 * 4;
            prop_assert_eq!(g.used_bytes(), expect);
        }
        for (b, s) in bufs.iter().zip(&sizes) {
            g.exec(&DeviceCall::Free { buf: *b }).unwrap();
            expect -= *s as u64 * 4;
            prop_assert_eq!(g.used_bytes(), expect);
        }
        prop_assert_eq!(g.used_bytes(), 0);
    }

    #[test]
    fn snapshot_restore_is_identity(
        params in proptest::collection::vec(proptest::collection::vec(-1e3f32..1e3, 1..32), 1..8)
    ) {
        let mut g = gpu();
        let bufs: Vec<_> = params
            .iter()
            .enumerate()
            .map(|(i, p)| malloc(&mut g, &format!("p{i}"), p.clone(), BufferTag::Param))
            .collect();
        let snap: Vec<(String, BufferTag, Vec<f32>)> = (&g.state_view(0, 0).unwrap()).into();
        let before = g.checksum_all();
        // Clobber everything, restore, compare checksums.
        for (b, p) in bufs.iter().zip(&params) {
            g.load_buffer(*b, &vec![0.0; p.len()]).unwrap();
        }
        g.restore_persistent(&snap).unwrap();
        prop_assert_eq!(g.checksum_all(), before);
    }

    #[test]
    fn free_non_persistent_preserves_exactly_the_persistent_set(
        tags in proptest::collection::vec(0u8..6, 1..32)
    ) {
        let mut g = gpu();
        let all_tags = [
            BufferTag::Param,
            BufferTag::OptimState,
            BufferTag::Activation,
            BufferTag::Gradient,
            BufferTag::Input,
            BufferTag::Workspace,
        ];
        let mut persistent = 0;
        for (i, t) in tags.iter().enumerate() {
            let tag = all_tags[*t as usize];
            malloc(&mut g, &format!("b{i}"), vec![1.0; 4], tag);
            if tag.is_persistent() {
                persistent += 1;
            }
        }
        g.free_non_persistent();
        prop_assert_eq!(g.buffer_count(), persistent);
    }

    #[test]
    fn axpy_then_inverse_axpy_is_identity(
        x in proptest::collection::vec(-100.0f32..100.0, 1..32),
        alpha in -8.0f32..8.0,
    ) {
        // y += a·x then y -= a·x returns y exactly (no reordering in the
        // kernel, so f32 arithmetic cancels bit-for-bit).
        let mut g = gpu();
        let y0: Vec<f32> = x.iter().map(|v| v * 0.5 + 1.0).collect();
        let bx = malloc(&mut g, "x", x.clone(), BufferTag::Workspace);
        let by = malloc(&mut g, "y", y0.clone(), BufferTag::Workspace);
        let s = g.exec(&DeviceCall::StreamCreate).unwrap().0.stream().unwrap();
        let before = g.buffer(by).unwrap().checksum();
        g.exec(&DeviceCall::Launch { stream: s, kernel: KernelKind::Axpy { alpha, x: bx, y: by } }).unwrap();
        g.exec(&DeviceCall::Launch { stream: s, kernel: KernelKind::Axpy { alpha: -alpha, x: bx, y: by } }).unwrap();
        // (a + b) - b == a exactly only when no rounding occurred; instead
        // assert the achievable property: result is within one ulp-ish of
        // the original for each element.
        let after = g.buffer(by).unwrap().data.clone();
        for (a, b) in y0.iter().zip(&after) {
            prop_assert!((a - b).abs() <= a.abs().max(1.0) * 1e-5, "{a} vs {b}");
        }
        let _ = before;
    }

    #[test]
    fn matmul_identity_is_identity(n in 1usize..8, data in proptest::collection::vec(-10.0f32..10.0, 64)) {
        let mut g = gpu();
        let a: Vec<f32> = data.iter().take(n * n).copied().collect();
        let mut eye = vec![0.0f32; n * n];
        for i in 0..n { eye[i * n + i] = 1.0; }
        let ba = malloc(&mut g, "a", a.clone(), BufferTag::Workspace);
        let be = malloc(&mut g, "e", eye, BufferTag::Workspace);
        let bo = malloc(&mut g, "o", vec![0.0; n * n], BufferTag::Workspace);
        let s = g.exec(&DeviceCall::StreamCreate).unwrap().0.stream().unwrap();
        g.exec(&DeviceCall::Launch {
            stream: s,
            kernel: KernelKind::MatMul {
                a: ba, b: be, out: bo,
                m: n as u32, k: n as u32, n: n as u32,
                trans_a: false, trans_b: false,
            },
        }).unwrap();
        prop_assert_eq!(g.buffer(bo).unwrap().data.clone(), a);
    }

    #[test]
    fn deferred_free_resurrection_restores_content(
        data in proptest::collection::vec(any::<f32>(), 1..32)
    ) {
        let mut g = gpu();
        let b = malloc(&mut g, "v", data.clone(), BufferTag::Activation);
        let sum_before = g.buffer(b).unwrap().checksum();
        g.exec(&DeviceCall::Free { buf: b }).unwrap();
        g.resurrect_freed();
        prop_assert_eq!(g.buffer(b).unwrap().checksum(), sum_before);
    }
}
