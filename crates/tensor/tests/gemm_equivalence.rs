//! Bitwise equivalence of every GEMM path against the naive reference.
//!
//! The kernel's determinism contract (DESIGN.md §10) is that the blocked
//! serial kernel and the pool-parallel kernel at *any* thread and chunk
//! count produce output bitwise identical to the canonical naive fold —
//! not epsilon-close. These properties drive random shapes (including
//! 0-row/0-col, 1×1, tall-skinny, and non-multiple-of-block-size edges)
//! through pools of 1, 2, and 8 threads and compare bit patterns.

use proptest::prelude::*;
use qrec_tensor::kernel;
use qrec_tensor::pool::Pool;
use qrec_tensor::Tensor;

/// Compare two result buffers bit-for-bit, reporting the first diverging
/// element on failure.
fn assert_bitwise(want: &[f32], got: &[f32]) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.len(), got.len());
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        prop_assert_eq!(
            w.to_bits(),
            g.to_bits(),
            "element {} differs: {} vs {}",
            i,
            w,
            g
        );
    }
    Ok(())
}

/// The model's narrow widths — 48 (`d_model`: one full panel and a
/// 16-lane edge), 96 (`d_ff`: full panels only) and 130 (the bench
/// vocabulary: a 2-column edge) — at row counts that leave every
/// possible remainder in the last register tile, 4 rows tall on a full
/// panel and 8 on a narrow edge, and at depths on both sides of one KC
/// slab: the blocked kernel's const-generic edge tiles and the
/// small-product tile all fold exactly as the reference does.
#[test]
fn narrow_widths_and_short_last_tiles_stay_bitwise() {
    let fill = |len: usize, salt: usize| -> Vec<f32> {
        (0..len)
            .map(|i| (((i + salt) * 2654435761) % 2000) as f32 * 1e-3 - 1.0)
            .collect()
    };
    let pool = Pool::new(2);
    for m in [48usize, 96, 130] {
        for k in [48usize, 96, 300] {
            let b = fill(k * m, m + k);
            for n in (1..=9).chain(160..=168) {
                let a = fill(n * k, n);
                let want = kernel::naive(&a, &b, n, k, m);
                let ctx = format!("{n}x{k}x{m}");
                assert_eq!(
                    bits(&want),
                    bits(&kernel::blocked(&a, &b, n, k, m)),
                    "blocked {ctx}"
                );
                assert_eq!(
                    bits(&want),
                    bits(&kernel::small(&a, &b, n, k, m)),
                    "small {ctx}"
                );
                let chunked = kernel::gemm_chunked(&pool, 3, &a, &b, n, k, m);
                assert_eq!(bits(&want), bits(&chunked), "chunked {ctx}");
            }
        }
    }
}

/// `A·Bᵀ` and `Aᵀ·B` against their references on every shape class the
/// small path has: each row-tile height and then a second tile
/// (`n ∈ 1..=13`), depths from one step to a full `d_model`, output widths
/// under one tile (the reference fallback), exactly one, ragged edges and
/// the vocabulary's two-column edge; the 48- and 130-wide ones with 13
/// rows cross into the blocked kernel through the transpose scratch.
/// Inputs carry what a fold can get wrong without changing a sum's
/// magnitude: both zeros, subnormals (products that underflow to a signed
/// zero) and exact cancellations (`x·y − x·y` in adjacent steps).
#[test]
fn nt_and_tn_run_the_reference_fold_on_every_small_shape() {
    let fill = |len: usize, salt: usize| -> Vec<f32> {
        (0..len)
            .map(|i| match (i * 7 + salt) % 11 {
                0 => 0.0,
                1 => -0.0,
                2 => 1e-40,  // subnormal
                3 => -3e-39, // subnormal
                4 => 1e-30,  // squares underflow
                // Pairs (5, 6) and (7, 8) cancel exactly against an
                // operand that repeats: ±1.5 and ±0.375.
                5 => 1.5,
                6 => -1.5,
                7 => 0.375,
                8 => -0.375,
                _ => (((i + salt) * 2654435761) % 2000) as f32 * 1e-3 - 1.0,
            })
            .collect()
    };
    for n in 1..=13usize {
        for k in [1usize, 12, 20, 47, 48] {
            for m in [1usize, 12, 15, 16, 17, 48, 130] {
                let ctx = format!("{n}x{k}x{m}");
                let a = fill(n * k, n + k);
                let bt = fill(m * k, m + 3); // m×k
                assert_eq!(
                    bits(&kernel::naive_nt(&a, &bt, n, k, m)),
                    bits(&kernel::gemm_nt(&a, &bt, n, k, m)),
                    "nt {ctx}"
                );
                let at = fill(k * n, n + 5); // k×n
                let b = fill(k * m, m + k);
                assert_eq!(
                    bits(&kernel::naive_tn(&at, &b, n, k, m)),
                    bits(&kernel::gemm_tn(&at, &b, n, k, m)),
                    "tn {ctx}"
                );
            }
        }
    }
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

fn matrix(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-3.0f32..3.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes (1..=80 per dim) through 1-, 2-, and 8-thread pools
    /// at several chunk counts: all bitwise equal to the reference.
    #[test]
    fn parallel_gemm_is_bitwise_deterministic(
        n in 1usize..=80,
        k in 1usize..=80,
        m in 1usize..=80,
        seed_a in 0u32..1000,
    ) {
        let a: Vec<f32> = (0..n * k)
            .map(|i| (((i + seed_a as usize) * 2654435761) % 2000) as f32 * 1e-3 - 1.0)
            .collect();
        let b: Vec<f32> = (0..k * m)
            .map(|i| (((i * 7 + seed_a as usize) * 40503) % 2000) as f32 * 1e-3 - 1.0)
            .collect();
        let want = kernel::naive(&a, &b, n, k, m);
        assert_bitwise(&want, &kernel::blocked(&a, &b, n, k, m))?;
        for threads in [1usize, 2, 8] {
            let pool = Pool::new(threads);
            for chunks in [1usize, 2, 3, threads] {
                let got = kernel::gemm_chunked(&pool, chunks, &a, &b, n, k, m);
                assert_bitwise(&want, &got)?;
            }
        }
    }

    /// Random *data* on fixed awkward shapes — edge tiles in both the
    /// row and column direction, plus exact block multiples.
    #[test]
    fn awkward_shapes_stay_bitwise(data in matrix(33 * 64)) {
        // (n, k, m) chosen to hit: single row, single column, 1×1,
        // tall-skinny, wide-flat, exact NR/MR multiples, off-by-one.
        for &(n, k, m) in &[
            (1usize, 1usize, 1usize),
            (1, 64, 33),
            (33, 64, 1),
            (33, 1, 64),
            (4, 32, 32),
            (5, 33, 31),
            (32, 33, 64),
            (33, 64, 32),
        ] {
            let a = &data[..n * k];
            let b = &data[data.len() - k * m..];
            let want = kernel::naive(a, b, n, k, m);
            assert_bitwise(&want, &kernel::blocked(a, b, n, k, m))?;
            for threads in [1usize, 2, 8] {
                let pool = Pool::new(threads);
                let got = kernel::gemm_chunked(&pool, threads, a, b, n, k, m);
                assert_bitwise(&want, &got)?;
            }
        }
    }

    /// Zero-extent shapes: 0 rows, 0 columns, and k == 0 (a zero matrix,
    /// not an empty one) survive every path.
    #[test]
    fn zero_extent_shapes(dim in 0usize..6, threads in 1usize..=8) {
        let pool = Pool::new(threads);
        // n == 0
        let b = vec![0.5f32; dim * 3];
        prop_assert!(kernel::gemm_chunked(&pool, threads, &[], &b, 0, dim, 3).is_empty());
        // m == 0
        let a = vec![0.5f32; 3 * dim];
        prop_assert!(kernel::gemm_chunked(&pool, threads, &a, &[], 3, dim, 0).is_empty());
        // k == 0 → 3×dim zero matrix
        let out = kernel::gemm_chunked(&pool, threads, &[], &[], 3, 0, dim);
        prop_assert_eq!(out, vec![0.0f32; 3 * dim]);
    }

    /// The nt/tn tensor entry points agree bitwise with their references
    /// on shapes large enough to take the transpose-and-block path.
    #[test]
    fn nt_tn_paths_agree_with_references(
        n in 60usize..=90,
        k in 60usize..=90,
        m in 60usize..=90,
    ) {
        let a: Vec<f32> = (0..n * k).map(|i| ((i * 97) % 200) as f32 * 1e-2 - 1.0).collect();
        let bt: Vec<f32> = (0..m * k).map(|i| ((i * 31) % 200) as f32 * 1e-2 - 1.0).collect();
        assert_bitwise(
            &kernel::naive_nt(&a, &bt, n, k, m),
            &kernel::gemm_nt(&a, &bt, n, k, m),
        )?;
        let at: Vec<f32> = (0..k * n).map(|i| ((i * 53) % 200) as f32 * 1e-2 - 1.0).collect();
        let b: Vec<f32> = (0..k * m).map(|i| ((i * 11) % 200) as f32 * 1e-2 - 1.0).collect();
        assert_bitwise(
            &kernel::naive_tn(&at, &b, n, k, m),
            &kernel::gemm_tn(&at, &b, n, k, m),
        )?;
    }

    /// `Tensor::matmul` (whatever path it selects) matches the reference
    /// bitwise, so autograd and decoding see one arithmetic everywhere.
    #[test]
    fn tensor_matmul_matches_reference(
        rows in 1usize..=40,
        inner in 1usize..=40,
        cols in 1usize..=40,
        data in matrix(40 * 40),
    ) {
        let a = Tensor::from_vec(rows, inner, data[..rows * inner].to_vec());
        let b = Tensor::from_vec(inner, cols, data[data.len() - inner * cols..].to_vec());
        let want = kernel::naive(a.data(), b.data(), rows, inner, cols);
        let got = a.matmul(&b);
        assert_bitwise(&want, got.data())?;
    }
}
