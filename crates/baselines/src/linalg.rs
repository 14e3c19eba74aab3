//! Minimal dense linear algebra for the ALS-WR factoriser.
//!
//! ALS solves one small symmetric positive-definite system per user/item
//! per sweep (dimension = number of latent factors, typically 8–64), so a
//! compact row-major matrix with an in-place Cholesky solver is all the
//! factoriser needs — no external linear-algebra dependency.

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `i`.
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Adds `alpha · x xᵀ` (symmetric rank-1 update); `self` must be square
    /// with dimension `x.len()`.
    pub(crate) fn syr(&mut self, alpha: f64, x: &[f64]) {
        assert_eq!(self.rows, self.cols);
        assert_eq!(x.len(), self.rows);
        for i in 0..self.rows {
            let xi = alpha * x[i];
            let row = self.row_mut(i);
            for (j, &xj) in x.iter().enumerate() {
                row[j] += xi * xj;
            }
        }
    }

    /// Adds `alpha` to the diagonal (ridge/regularisation term).
    pub(crate) fn add_diagonal(&mut self, alpha: f64) {
        assert_eq!(self.rows, self.cols);
        for i in 0..self.rows {
            self[(i, i)] += alpha;
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        let c = self.cols;
        &mut self.data[i * c + j]
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves `A x = b` for symmetric positive-definite `A` via Cholesky
/// decomposition (`A = L Lᵀ`, forward then backward substitution).
///
/// Returns `None` when `A` is not positive definite (a non-positive pivot
/// appears), which callers treat as a degenerate update and skip.
pub(crate) fn cholesky_solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(b.len(), n);

    // Decompose into lower-triangular L (stored densely).
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return None;
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }

    // Forward substitution: L y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[(i, k)] * y[k];
        }
        y[i] = sum / l[(i, i)];
    }

    // Backward substitution: Lᵀ x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum -= l[(k, i)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A matrix from equal-length rows.
    fn from_rows(rows: &[&[f64]]) -> Matrix {
        Matrix {
            rows: rows.len(),
            cols: rows[0].len(),
            data: rows.concat(),
        }
    }

    #[test]
    fn index_and_rows() {
        let mut m = Matrix::zeros(2, 3);
        m[(0, 1)] = 5.0;
        m[(1, 2)] = 7.0;
        assert_eq!(m.row(0), &[0.0, 5.0, 0.0]);
        assert_eq!(m.row(1), &[0.0, 0.0, 7.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn syr_accumulates_outer_product() {
        let mut m = Matrix::zeros(2, 2);
        m.syr(2.0, &[1.0, 3.0]);
        assert_eq!(m[(0, 0)], 2.0);
        assert_eq!(m[(0, 1)], 6.0);
        assert_eq!(m[(1, 0)], 6.0);
        assert_eq!(m[(1, 1)], 18.0);
    }

    #[test]
    fn add_diagonal_ridge() {
        let mut m = Matrix::zeros(2, 2);
        m.add_diagonal(0.5);
        assert_eq!(m[(0, 0)], 0.5);
        assert_eq!(m[(1, 1)], 0.5);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn cholesky_solves_known_system() {
        // A = [[4, 2], [2, 3]], b = [10, 8] → x = [1.75, 1.5].
        let a = from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let x = cholesky_solve(&a, &[10.0, 8.0]).unwrap();
        assert!((x[0] - 1.75).abs() < 1e-10);
        assert!((x[1] - 1.5).abs() < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = from_rows(&[&[0.0, 0.0], &[0.0, 1.0]]);
        assert!(cholesky_solve(&a, &[1.0, 1.0]).is_none());
        let neg = from_rows(&[&[-1.0]]);
        assert!(cholesky_solve(&neg, &[1.0]).is_none());
    }

    #[test]
    fn dot_products() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    proptest! {
        /// Build SPD matrices as B Bᵀ + εI, solve, and check the residual.
        #[test]
        fn prop_cholesky_residual_small(
            entries in proptest::collection::vec(-2.0f64..2.0, 9),
            b in proptest::collection::vec(-5.0f64..5.0, 3)
        ) {
            let bmat = from_rows(&[&entries[0..3], &entries[3..6], &entries[6..9]]);
            let mut a = Matrix::zeros(3, 3);
            // A = B Bᵀ + 0.1 I (SPD by construction).
            for i in 0..3 {
                for j in 0..3 {
                    a[(i, j)] = dot(bmat.row(i), bmat.row(j));
                }
            }
            a.add_diagonal(0.1);
            let x = cholesky_solve(&a, &b).expect("SPD must decompose");
            for (i, want) in b.iter().enumerate() {
                let got = dot(a.row(i), &x);
                prop_assert!((got - want).abs() < 1e-6, "residual too large");
            }
        }
    }
}
