//! Property-based tests for the linear-algebra substrate: the
//! algebraic laws every downstream layer silently relies on.

use gel_tensor::kernels::{gather_sum_into, gather_wsum_into, matmul_ikj_into};
use gel_tensor::{Activation, Matrix, Scratch, BUFFER_ALLOCS};
use proptest::prelude::*;

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Deterministic pseudo-random matrix from a proptest-drawn seed:
/// cheap enough to build threshold-crossing shapes inside a property.
fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let h = (i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((j as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(seed.wrapping_mul(0x94d0_49bb_1331_11eb));
        ((h >> 17) % 4096) as f64 / 512.0 - 4.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_of_product((a, b) in (small_matrix(3, 4), small_matrix(4, 2))) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn matmul_associative((a, b, c) in (small_matrix(2, 3), small_matrix(3, 4), small_matrix(4, 2))) {
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-7));
    }

    #[test]
    fn fused_transpose_kernels_agree((a, b) in (small_matrix(4, 3), small_matrix(4, 2))) {
        prop_assert!(a.t_matmul(&b).approx_eq(&a.transpose().matmul(&b), 1e-9));
        let c = Matrix::from_vec(5, 3, vec![1.0; 15]);
        prop_assert!(a.matmul_t(&c).approx_eq(&a.matmul(&c.transpose()), 1e-9));
    }

    #[test]
    fn matmul_distributes_over_add((a, b, c) in (small_matrix(3, 3), small_matrix(3, 3), small_matrix(3, 3))) {
        let lhs = a.matmul(&(&b + &c));
        let rhs = &a.matmul(&b) + &a.matmul(&c);
        prop_assert!(lhs.approx_eq(&rhs, 1e-8));
    }

    #[test]
    fn hadamard_commutative((a, b) in (small_matrix(3, 4), small_matrix(3, 4))) {
        prop_assert!(a.hadamard(&b).approx_eq(&b.hadamard(&a), 0.0));
    }

    #[test]
    fn column_sums_linear((a, b) in (small_matrix(4, 3), small_matrix(4, 3))) {
        let sum = &a + &b;
        let lhs = sum.column_sums();
        let ra = a.column_sums();
        let rb = b.column_sums();
        for i in 0..3 {
            prop_assert!((lhs[i] - (ra[i] + rb[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn frobenius_triangle_inequality((a, b) in (small_matrix(3, 3), small_matrix(3, 3))) {
        let sum = &a + &b;
        prop_assert!(sum.frobenius_norm() <= a.frobenius_norm() + b.frobenius_norm() + 1e-9);
    }

    /// Products are *bit-identical* at every thread count — the
    /// invariant the experiment tables rely on. These are 64·64·32 =
    /// 2¹⁷ flops, below the 2²¹ parallel threshold, so this property
    /// pins the serial path under every thread setting; the unit test
    /// `large_matmuls_bit_identical_across_thread_counts` in
    /// `matrix.rs` covers the row-parallel path.
    #[test]
    fn matmul_bit_identical_across_thread_counts((a, b) in (small_matrix(64, 64), small_matrix(64, 32))) {
        rayon::set_num_threads(1);
        let serial = a.matmul(&b);
        let serial_t = a.matmul_t(&serial.transpose());
        for threads in [2usize, 4, 8] {
            rayon::set_num_threads(threads);
            prop_assert_eq!(&a.matmul(&b), &serial);
            prop_assert_eq!(&a.matmul_t(&serial.transpose()), &serial_t);
        }
        rayon::set_num_threads(0);
    }

    /// Every `_into` kernel is bit-identical to its allocating
    /// counterpart even when `out` starts dirty (wrong shape, garbage
    /// contents) — the contract the scratch-buffer hot path relies on.
    #[test]
    fn into_kernels_match_allocating_on_dirty_out(
        (a, b, bias) in (small_matrix(5, 4), small_matrix(4, 3),
                         proptest::collection::vec(-2.0f64..2.0, 3))
    ) {
        let mut dirty = Matrix::from_vec(2, 7, vec![f64::NAN; 14]);
        a.matmul_into(&b, &mut dirty);
        prop_assert_eq!(&dirty, &a.matmul(&b));

        let ab = a.matmul(&b);
        let mut dirty = Matrix::from_vec(1, 9, vec![-7.5; 9]);
        a.t_matmul_into(&ab, &mut dirty);
        prop_assert_eq!(&dirty, &a.t_matmul(&ab));

        let mut dirty = Matrix::from_vec(6, 2, vec![f64::INFINITY; 12]);
        a.matmul_t_into(&b.transpose(), &mut dirty);
        prop_assert_eq!(&dirty, &a.matmul_t(&b.transpose()));

        for act in [Activation::Identity, Activation::ReLU, Activation::Tanh, Activation::Sigmoid] {
            let mut dirty = Matrix::from_vec(3, 3, vec![f64::NAN; 9]);
            a.matmul_bias_act_into(&b, &bias, act, &mut dirty);
            let mut pre_reference = a.matmul(&b);
            pre_reference.add_row_broadcast(&bias);
            let reference = act.apply_matrix(&pre_reference);
            prop_assert_eq!(&dirty, &reference);

            // Training-path fusion: pre-activation kept, output matches.
            let mut pre = a.matmul(&b);
            let mut fused = Matrix::from_vec(1, 1, vec![f64::NAN]);
            pre.add_bias_activate_into(&bias, act, &mut fused);
            prop_assert_eq!(&fused, &reference);
            prop_assert_eq!(&pre, &pre_reference);
        }
    }

    /// The blocked SIMD matmul agrees with the PR 6 ikj oracle to
    /// ≤1e-12 relative error on arbitrary shapes — including ragged
    /// tails (`m % 4 ≠ 0`, `n % 8 ≠ 0`, `n % 4 ≠ 0`) — at 1 and 4
    /// configured threads. (These shapes sit below the parallel
    /// threshold, where both settings must take the identical serial
    /// path; the threshold-crossing case is covered separately below.)
    #[test]
    fn blocked_matmul_matches_ikj_oracle(
        (m, k, n, a, bseed) in (1usize..24, 1usize..48, 1usize..24,
                                small_matrix(23, 47), 0u64..u64::MAX)
    ) {
        let a = Matrix::from_fn(m, k, |i, j| a[(i, j)]);
        let b = seeded(k, n, bseed);
        let mut oracle = Matrix::default();
        matmul_ikj_into(&a, &b, &mut oracle);
        let tol = 1e-12 * oracle.max_abs().max(1.0);
        rayon::set_num_threads(1);
        let serial = a.matmul(&b);
        prop_assert!(serial.approx_eq(&oracle, tol),
            "blocked diverges from oracle at {m}x{k}x{n} (1 thread)");
        rayon::set_num_threads(4);
        let par = a.matmul(&b);
        rayon::set_num_threads(0);
        prop_assert!(par.approx_eq(&oracle, tol),
            "blocked diverges from oracle at {m}x{k}x{n} (4 threads)");
        prop_assert_eq!(&par, &serial);
    }

    /// Same oracle agreement on a shape that crosses
    /// `PAR_FLOPS_THRESHOLD` (128³ = 2²¹ madds), so the 4-thread run
    /// exercises the row-block parallel dispatch — and stays
    /// bit-identical to the serial result.
    #[test]
    fn blocked_matmul_matches_oracle_above_parallel_threshold(seed in 0u64..u64::MAX) {
        let a = seeded(128, 128, seed);
        let b = seeded(128, 128, seed ^ 0xdead_beef);
        let mut oracle = Matrix::default();
        matmul_ikj_into(&a, &b, &mut oracle);
        let tol = 1e-12 * oracle.max_abs().max(1.0);
        rayon::set_num_threads(1);
        let serial = a.matmul(&b);
        rayon::set_num_threads(4);
        let par = a.matmul(&b);
        rayon::set_num_threads(0);
        prop_assert!(serial.approx_eq(&oracle, tol));
        prop_assert_eq!(&par, &serial);
    }

    /// The fused CSR gather folds neighbours in list order per column,
    /// so it is *bit-identical* to the per-neighbour axpy loop — for
    /// every width class (8-wide, 4-wide, scalar tail) and with
    /// duplicate indices.
    #[test]
    fn fused_gather_matches_per_neighbour_loop_bitwise(
        (src, idx, w) in (small_matrix(16, 11),
                          proptest::collection::vec(0u32..16, 0..12),
                          1usize..=11)
    ) {
        let mut fused = vec![f64::NAN; w];
        gather_sum_into(&mut fused, src.data(), 0, 11, &idx);
        let mut naive = vec![0.0; w];
        for &u in &idx {
            for (o, &x) in naive.iter_mut().zip(&src.data()[u as usize * 11..][..w]) {
                *o += x;
            }
        }
        prop_assert_eq!(&fused, &naive, "gather diverges at width {}", w);

        let wt = |u: u32| 1.0 / f64::from(u + 1);
        let mut wfused = vec![f64::NAN; w];
        gather_wsum_into(&mut wfused, src.data(), 0, 11, &idx, wt);
        let mut wnaive = vec![0.0; w];
        for &u in &idx {
            for (o, &x) in wnaive.iter_mut().zip(&src.data()[u as usize * 11..][..w]) {
                *o += x * wt(u);
            }
        }
        prop_assert_eq!(&wfused, &wnaive, "weighted gather diverges at width {}", w);
    }

    /// A `Scratch` pool hands back buffers without new heap
    /// allocations once warm, and `take`n buffers always come back
    /// correctly shaped regardless of what was `put` in.
    #[test]
    fn scratch_reuse_is_allocation_free((r, c) in (1usize..6, 1usize..6)) {
        let mut scratch = Scratch::new();
        // Warm: one buffer of the largest shape this test will request.
        scratch.put(Matrix::zeros(8, 8));
        let base = BUFFER_ALLOCS.get();
        for _ in 0..16 {
            let m = scratch.take(r, c);
            prop_assert_eq!(m.shape(), (r, c));
            scratch.put(m);
            let z = scratch.take_zeroed(c, r);
            prop_assert_eq!(z.shape(), (c, r));
            prop_assert!(z.data().iter().all(|&x| x == 0.0));
            scratch.put(z);
        }
        prop_assert_eq!(BUFFER_ALLOCS.get() - base, 0,
            "scratch reuse allocated in steady state");
    }
}
