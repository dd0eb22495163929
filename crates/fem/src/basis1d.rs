//! 1D Lagrange interpolation bases.
//!
//! A `Basis1d` is the set of Lagrange cardinal polynomials on a given node
//! set: `ℓ_j(x_i) = δ_ij`. Tensor products of these give the `Q_k` bases.
//! Evaluation uses the barycentric formulation, which is numerically stable
//! for the high orders (`Q8`) the paper runs.

use crate::quadrature::{gauss_legendre, gauss_lobatto_nodes};

/// Lagrange basis on a fixed set of distinct nodes in `[0, 1]`.
#[derive(Clone, Debug)]
pub struct Basis1d {
    nodes: Vec<f64>,
    /// Barycentric weights `w_j = 1 / prod_{m != j} (x_j - x_m)`.
    bary: Vec<f64>,
}

impl Basis1d {
    /// Builds the basis on arbitrary distinct nodes.
    pub fn new(nodes: Vec<f64>) -> Self {
        let n = nodes.len();
        assert!(n >= 1, "basis needs at least one node");
        let mut bary = vec![1.0; n];
        for j in 0..n {
            for m in 0..n {
                if m != j {
                    let d = nodes[j] - nodes[m];
                    assert!(d != 0.0, "repeated node in Lagrange basis");
                    bary[j] /= d;
                }
            }
        }
        Self { nodes, bary }
    }

    /// Continuous (H1) basis of order `k`: `k+1` Gauss-Lobatto nodes,
    /// endpoints included so neighbouring zones share face nodes.
    pub fn h1(order: usize) -> Self {
        assert!(order >= 1, "H1 basis needs order >= 1");
        Self::new(gauss_lobatto_nodes(order + 1))
    }

    /// Discontinuous (L2) basis of order `k`: `k+1` Gauss-Legendre nodes,
    /// strictly interior (no continuity constraint).
    pub fn l2(order: usize) -> Self {
        let (nodes, _) = gauss_legendre(order + 1);
        Self::new(nodes)
    }

    /// Number of basis functions.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Polynomial order (`len - 1`).
    pub fn order(&self) -> usize {
        self.nodes.len() - 1
    }

    /// True for the trivial empty basis (never constructed via `new`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Interpolation nodes.
    pub fn nodes(&self) -> &[f64] {
        &self.nodes
    }

    /// Evaluates all basis functions at `x` into `out` (length `len()`).
    pub fn eval_all(&self, x: f64, out: &mut [f64]) {
        let n = self.len();
        debug_assert_eq!(out.len(), n);
        // Exact node hit: Kronecker delta (avoids 0/0 in barycentric form).
        for j in 0..n {
            if x == self.nodes[j] {
                out.iter_mut().for_each(|v| *v = 0.0);
                out[j] = 1.0;
                return;
            }
        }
        // ℓ_j(x) = [w_j / (x - x_j)] / sum_m [w_m / (x - x_m)].
        let mut denom = 0.0;
        for j in 0..n {
            let t = self.bary[j] / (x - self.nodes[j]);
            out[j] = t;
            denom += t;
        }
        out.iter_mut().for_each(|v| *v /= denom);
    }

    /// Evaluates all first derivatives at `x` into `out`.
    ///
    /// Uses the differentiation matrix identity at nodes and the analytic
    /// derivative of the barycentric form off nodes.
    pub fn eval_deriv_all(&self, x: f64, out: &mut [f64]) {
        let n = self.len();
        debug_assert_eq!(out.len(), n);
        // At a node x_i: ℓ'_j(x_i) = (w_j/w_i)/(x_i - x_j) for j != i,
        // and ℓ'_i(x_i) = -sum_{j != i} ℓ'_j(x_i).
        for i in 0..n {
            if x == self.nodes[i] {
                let mut sum = 0.0;
                for j in 0..n {
                    if j != i {
                        let v = (self.bary[j] / self.bary[i]) / (self.nodes[i] - self.nodes[j]);
                        out[j] = v;
                        sum += v;
                    }
                }
                out[i] = -sum;
                return;
            }
        }
        // Off nodes: ℓ_j = t_j / s with t_j = w_j/(x-x_j), s = sum t_m.
        // t'_j = -w_j/(x-x_j)^2, s' = sum t'_m,
        // ℓ'_j = (t'_j s - t_j s') / s^2.
        let mut t = vec![0.0; n];
        let mut tp = vec![0.0; n];
        let mut s = 0.0;
        let mut sp = 0.0;
        for j in 0..n {
            let dx = x - self.nodes[j];
            t[j] = self.bary[j] / dx;
            tp[j] = -self.bary[j] / (dx * dx);
            s += t[j];
            sp += tp[j];
        }
        for j in 0..n {
            out[j] = (tp[j] * s - t[j] * sp) / (s * s);
        }
    }

    /// Single basis function value (convenience for tests).
    pub fn eval(&self, j: usize, x: f64) -> f64 {
        let mut buf = vec![0.0; self.len()];
        self.eval_all(x, &mut buf);
        buf[j]
    }

    /// Single basis function derivative (convenience for tests).
    #[cfg(test)]
    pub fn eval_deriv(&self, j: usize, x: f64) -> f64 {
        let mut buf = vec![0.0; self.len()];
        self.eval_deriv_all(x, &mut buf);
        buf[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kronecker_delta_at_nodes() {
        for basis in [Basis1d::h1(3), Basis1d::l2(3)] {
            let nodes = basis.nodes().to_vec();
            for (i, &xi) in nodes.iter().enumerate() {
                for j in 0..basis.len() {
                    let v = basis.eval(j, xi);
                    let expect = if i == j { 1.0 } else { 0.0 };
                    assert!((v - expect).abs() < 1e-13, "l_{j}({xi}) = {v}");
                }
            }
        }
    }

    #[test]
    fn partition_of_unity() {
        for order in 1..=8 {
            let basis = Basis1d::h1(order);
            for &x in &[0.0, 0.123, 0.5, 0.77, 1.0] {
                let mut buf = vec![0.0; basis.len()];
                basis.eval_all(x, &mut buf);
                let s: f64 = buf.iter().sum();
                assert!((s - 1.0).abs() < 1e-12, "order {order} x {x}: {s}");
            }
        }
    }

    #[test]
    fn derivative_sums_to_zero() {
        // d/dx of the constant-1 interpolant is 0.
        for order in 1..=8 {
            let basis = Basis1d::h1(order);
            for &x in &[0.0, 0.3, 0.5, 0.9, 1.0] {
                let mut buf = vec![0.0; basis.len()];
                basis.eval_deriv_all(x, &mut buf);
                let s: f64 = buf.iter().sum();
                assert!(s.abs() < 1e-10, "order {order} x {x}: {s}");
            }
        }
    }

    #[test]
    fn reproduces_polynomials_exactly() {
        // Order-k basis interpolates x^p exactly for p <= k.
        let order = 4;
        let basis = Basis1d::h1(order);
        for p in 0..=order {
            for &x in &[0.21, 0.5, 0.83] {
                let interp: f64 = (0..basis.len())
                    .map(|j| basis.nodes()[j].powi(p as i32) * basis.eval(j, x))
                    .sum();
                assert!((interp - x.powi(p as i32)).abs() < 1e-12, "p={p} x={x}");
            }
        }
    }

    #[test]
    fn derivative_of_linear_is_constant() {
        let basis = Basis1d::h1(1); // nodes {0, 1}
        for &x in &[0.0, 0.4, 1.0] {
            assert!((basis.eval_deriv(0, x) + 1.0).abs() < 1e-14);
            assert!((basis.eval_deriv(1, x) - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let basis = Basis1d::h1(5);
        let h = 1e-6;
        for j in 0..basis.len() {
            for &x in &[0.17, 0.44, 0.91] {
                let fd = (basis.eval(j, x + h) - basis.eval(j, x - h)) / (2.0 * h);
                let an = basis.eval_deriv(j, x);
                assert!((fd - an).abs() < 1e-6 * an.abs().max(1.0), "j={j} x={x}");
            }
        }
    }

    #[test]
    fn derivative_at_node_matches_finite_difference() {
        let basis = Basis1d::h1(4);
        let h = 1e-6;
        let x = basis.nodes()[2];
        for j in 0..basis.len() {
            let fd = (basis.eval(j, x + h) - basis.eval(j, x - h)) / (2.0 * h);
            let an = basis.eval_deriv(j, x);
            assert!((fd - an).abs() < 1e-5 * an.abs().max(1.0), "j={j}");
        }
    }

    #[test]
    fn l2_nodes_are_interior() {
        for order in 0..=5 {
            let basis = Basis1d::l2(order);
            assert_eq!(basis.len(), order + 1);
            for &x in basis.nodes() {
                assert!(x > 0.0 && x < 1.0);
            }
        }
    }

    #[test]
    fn l2_order_zero_is_constant_one() {
        let basis = Basis1d::l2(0);
        for &x in &[0.0, 0.5, 1.0] {
            assert!((basis.eval(0, x) - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    #[should_panic(expected = "repeated node")]
    fn repeated_nodes_rejected() {
        Basis1d::new(vec![0.0, 0.5, 0.5, 1.0]);
    }
}
