//! Singular value decomposition via the one-sided Jacobi method.
//!
//! The paper's SVD detector \[7\] projects a small lag matrix of recent data
//! onto its dominant singular subspace and scores points by reconstruction
//! residual. The matrices involved are tiny (at most 50 × 7, Table 3), so
//! the simple, robust one-sided Jacobi iteration is the right tool — no
//! bidiagonalization machinery needed.

use crate::matrix::Matrix;

/// Thin SVD result: `a ≈ u * diag(sigma) * v^T` with `u` being
/// `rows × k`, `sigma` length `k`, `v` being `cols × k`, where
/// `k = min(rows, cols)`. Singular values are sorted descending.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (`rows × k`).
    pub u: Matrix,
    /// Singular values, descending.
    pub sigma: Vec<f64>,
    /// Right singular vectors (`cols × k`).
    pub v: Matrix,
}

impl Svd {
    /// Reconstructs the matrix keeping only the top `rank` components.
    pub fn reconstruct(&self, rank: usize) -> Matrix {
        let k = rank.min(self.sigma.len());
        let rows = self.u.rows();
        let cols = self.v.rows();
        let mut out = Matrix::zeros(rows, cols);
        for comp in 0..k {
            let s = self.sigma[comp];
            for r in 0..rows {
                let us = self.u.get(r, comp) * s;
                if us == 0.0 {
                    continue;
                }
                for c in 0..cols {
                    let cur = out.get(r, c);
                    out.set(r, c, cur + us * self.v.get(c, comp));
                }
            }
        }
        out
    }
}

/// Computes the thin SVD of `a` with one-sided Jacobi rotations.
///
/// Works on any shape; internally operates on the transpose when
/// `rows < cols` so the iteration always orthogonalizes the long dimension.
pub fn svd(a: &Matrix) -> Svd {
    if a.rows() < a.cols() {
        // svd(Aᵀ) = (V, Σ, U); swap back.
        let t = svd(&a.transpose());
        return Svd {
            u: t.v,
            sigma: t.sigma,
            v: t.u,
        };
    }
    let m = a.rows();
    let n = a.cols();
    // Work on columns of `w` (copy of a), rotating pairs until orthogonal.
    let mut w = a.clone();
    let mut v = Matrix::zeros(n, n);
    for i in 0..n {
        v.set(i, i, 1.0);
    }

    let eps = 1e-12;
    for _sweep in 0..60 {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries for columns p, q.
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for r in 0..m {
                    let wp = w.get(r, p);
                    let wq = w.get(r, q);
                    app += wp * wp;
                    aqq += wq * wq;
                    apq += wp * wq;
                }
                off = off.max(apq.abs() / (app * aqq).sqrt().max(1e-300));
                if apq.abs() <= eps * (app * aqq).sqrt() {
                    continue;
                }
                // Jacobi rotation zeroing the (p,q) Gram entry.
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for r in 0..m {
                    let wp = w.get(r, p);
                    let wq = w.get(r, q);
                    w.set(r, p, c * wp - s * wq);
                    w.set(r, q, s * wp + c * wq);
                }
                for r in 0..n {
                    let vp = v.get(r, p);
                    let vq = v.get(r, q);
                    v.set(r, p, c * vp - s * vq);
                    v.set(r, q, s * vp + c * vq);
                }
            }
        }
        if off < 1e-11 {
            break;
        }
    }

    // Column norms are the singular values; normalize to get U.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = (0..n)
        .map(|c| (0..m).map(|r| w.get(r, c).powi(2)).sum::<f64>().sqrt())
        .collect();
    order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).expect("NaN singular value"));

    let mut u = Matrix::zeros(m, n);
    let mut vv = Matrix::zeros(n, n);
    let mut sigma = Vec::with_capacity(n);
    for (dst, &src) in order.iter().enumerate() {
        let s = norms[src];
        sigma.push(s);
        for r in 0..m {
            let val = if s > 1e-300 { w.get(r, src) / s } else { 0.0 };
            u.set(r, dst, val);
        }
        for r in 0..n {
            vv.set(r, dst, v.get(r, src));
        }
    }
    Svd { u, sigma, v: vv }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for r in 0..a.rows() {
            for c in 0..a.cols() {
                assert!(
                    (a.get(r, c) - b.get(r, c)).abs() < tol,
                    "mismatch at ({r},{c}): {} vs {}",
                    a.get(r, c),
                    b.get(r, c)
                );
            }
        }
    }

    #[test]
    fn diagonal_matrix_singular_values() {
        let a = Matrix::from_rows(3, 3, vec![3., 0., 0., 0., 5., 0., 0., 0., 1.]);
        let d = svd(&a);
        assert!((d.sigma[0] - 5.0).abs() < 1e-9);
        assert!((d.sigma[1] - 3.0).abs() < 1e-9);
        assert!((d.sigma[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_reconstruction_matches_input() {
        let a = Matrix::from_rows(4, 3, vec![1., 2., 3., 4., 5., 6., 7., 8., 10., 2., 0., -1.]);
        let d = svd(&a);
        assert_close(&d.reconstruct(3), &a, 1e-8);
    }

    #[test]
    fn wide_matrix_supported() {
        let a = Matrix::from_rows(2, 4, vec![1., 0., 2., 0., 0., 3., 0., 4.]);
        let d = svd(&a);
        assert_eq!(d.u.rows(), 2);
        assert_eq!(d.v.rows(), 4);
        assert_close(&d.reconstruct(2), &a, 1e-8);
    }

    #[test]
    fn rank_one_matrix_has_one_nonzero_sigma() {
        // Outer product => rank 1.
        let u = [1.0, 2.0, 3.0];
        let v = [4.0, 5.0];
        let mut a = Matrix::zeros(3, 2);
        for r in 0..3 {
            for c in 0..2 {
                a.set(r, c, u[r] * v[c]);
            }
        }
        let d = svd(&a);
        assert!(d.sigma[0] > 1.0);
        assert!(d.sigma[1].abs() < 1e-9);
        assert_close(&d.reconstruct(1), &a, 1e-8);
    }

    #[test]
    fn singular_vectors_are_orthonormal() {
        let a = Matrix::from_rows(5, 3, (0..15).map(|i| ((i * 37) % 11) as f64).collect());
        let d = svd(&a);
        for i in 0..3 {
            for j in 0..3 {
                let dot_v: f64 = (0..3).map(|r| d.v.get(r, i) * d.v.get(r, j)).sum();
                let dot_u: f64 = (0..5).map(|r| d.u.get(r, i) * d.u.get(r, j)).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot_v - expect).abs() < 1e-8, "v not orthonormal");
                if d.sigma[i] > 1e-9 && d.sigma[j] > 1e-9 {
                    assert!((dot_u - expect).abs() < 1e-8, "u not orthonormal");
                }
            }
        }
    }

    #[test]
    fn rank1_truncation_is_best_approximation_direction() {
        // A strongly rank-1 matrix plus tiny noise: top component captures it.
        let mut a = Matrix::zeros(6, 3);
        for r in 0..6 {
            for c in 0..3 {
                a.set(
                    r,
                    c,
                    (r + 1) as f64 * (c + 1) as f64 + 0.01 * ((r * 3 + c) % 2) as f64,
                );
            }
        }
        let d = svd(&a);
        let approx = d.reconstruct(1);
        let mut err = 0.0;
        for r in 0..6 {
            for c in 0..3 {
                err += (a.get(r, c) - approx.get(r, c)).powi(2);
            }
        }
        assert!(err.sqrt() / a.frobenius_norm() < 0.01);
    }
}
