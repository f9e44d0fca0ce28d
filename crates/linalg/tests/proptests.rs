//! Property-based tests for the linear-algebra substrate.
//!
//! Strategy: generate a random matrix `B` with bounded entries, form the
//! guaranteed-SPD matrix `A = B Bᵀ + c·I`, and check algebraic invariants of
//! the Cholesky machinery on it.

use proptest::prelude::*;
use udf_linalg::{dot, Cholesky, Matrix};

fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f64..2.0, n * n).prop_map(move |data| {
        let b = Matrix::from_vec(n, n, data).unwrap();
        let bt = b.transpose();
        let mut a = b.matmul(&bt).unwrap();
        a.add_diagonal(0.5).unwrap();
        a
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cholesky_reconstructs(a in (1usize..7).prop_flat_map(spd_matrix)) {
        let c = Cholesky::factor(&a).unwrap();
        let r = c.reconstruct();
        let n = a.rows();
        for i in 0..n {
            for j in 0..n {
                prop_assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn solve_inverts(
        a in (2usize..7).prop_flat_map(spd_matrix),
        seed in 0u64..1000,
    ) {
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| ((seed as f64) * 0.37 + i as f64).sin()).collect();
        let c = Cholesky::factor(&a).unwrap();
        let x = c.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (bi, vi) in b.iter().zip(&back) {
            prop_assert!((bi - vi).abs() < 1e-7);
        }
    }

    #[test]
    fn log_det_positive_diagonal_dominant(a in (1usize..6).prop_flat_map(spd_matrix)) {
        let c = Cholesky::factor(&a).unwrap();
        prop_assert!(c.log_det().is_finite());
    }

    #[test]
    fn append_equals_refactor(
        a in (3usize..7).prop_flat_map(spd_matrix),
    ) {
        // Split A into its leading principal (n-1)x(n-1) block plus last row/col.
        let n = a.rows();
        let lead = Matrix::from_symmetric_fn(n - 1, |i, j| a[(i, j)]);
        let k: Vec<f64> = (0..n - 1).map(|i| a[(i, n - 1)]).collect();
        let mut inc = Cholesky::factor(&lead).unwrap();
        inc.append(&k, a[(n - 1, n - 1)]).unwrap();
        let full = Cholesky::factor(&a).unwrap();
        for i in 0..n {
            for j in 0..=i {
                prop_assert!((inc.lower()[(i, j)] - full.lower()[(i, j)]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn push_row_equals_factor_bitwise(
        a in (1usize..9).prop_flat_map(spd_matrix),
        cols in 1usize..70,
    ) {
        // Grow the factor from empty one row at a time, solving each new
        // row of a multi-RHS panel as it arrives: both must equal the
        // fresh factorization and the fresh whole-panel solve to the bit.
        let n = a.rows();
        let full = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..n * cols).map(|i| (i as f64 * 0.731).sin() * 3.0).collect();
        let mut want = b.clone();
        full.solve_lower_in_place(&mut want, cols).unwrap();

        let mut inc = Cholesky::factor(&Matrix::zeros(0, 0)).unwrap();
        let mut panel = Vec::new();
        for i in 0..n {
            inc.push_row(&a.row(i)[..=i]).unwrap();
            panel.extend_from_slice(&b[i * cols..(i + 1) * cols]);
            inc.solve_lower_tail_in_place(&mut panel, cols, i).unwrap();
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(inc.lower().as_slice()), bits(full.lower().as_slice()));
        prop_assert_eq!(bits(&panel), bits(&want));
    }

    #[test]
    fn matmul_transpose_identity(
        data in prop::collection::vec(-3.0f64..3.0, 12)
    ) {
        // (A B)ᵀ = Bᵀ Aᵀ
        let a = Matrix::from_vec(3, 4, data.clone()).unwrap();
        let b = Matrix::from_vec(4, 3, data).unwrap();
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!((lhs[(i, j)] - rhs[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn dot_cauchy_schwarz(
        x in prop::collection::vec(-5.0f64..5.0, 1..20),
    ) {
        let y: Vec<f64> = x.iter().map(|v| v * 0.5 + 1.0).collect();
        let lhs = dot(&x, &y).abs();
        let rhs = dot(&x, &x).sqrt() * dot(&y, &y).sqrt();
        prop_assert!(lhs <= rhs + 1e-9);
    }
}
