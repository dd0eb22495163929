//! Problem shapes: the operand dimensions every kernel derives its launch
//! configuration and traffic from.

/// Sizes of one `Q_k`-`Q_{k-1}` corner-force problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProblemShape {
    /// Spatial dimension (2 or 3).
    pub dim: usize,
    /// Finite element order `k` of the kinematic basis.
    pub order: usize,
    /// Number of zones in this task's subdomain.
    pub zones: usize,
    /// Quadrature points per zone (`(2k)^dim`).
    pub npts: usize,
    /// Scalar kinematic basis functions per zone (`(k+1)^dim`).
    pub nkin: usize,
    /// Thermodynamic basis functions per zone (`k^dim`).
    pub nthermo: usize,
}

impl ProblemShape {
    /// Builds the shape of a `Q_k`-`Q_{k-1}` method on `zones` zones.
    pub fn new(dim: usize, order: usize, zones: usize) -> Self {
        assert!(dim == 2 || dim == 3, "only 2D and 3D are supported");
        assert!(order >= 1, "Q_k-Q_{{k-1}} needs k >= 1");
        let p = |b: usize| b.pow(dim as u32);
        Self {
            dim,
            order,
            zones,
            npts: p(2 * order),
            nkin: p(order + 1),
            nthermo: p(order),
        }
    }

    /// Vector kinematic DOFs per zone (`dim * nkin`) — the row count of
    /// `A_z` and `F_z`.
    pub fn nvdof(&self) -> usize {
        self.dim * self.nkin
    }

    /// Total quadrature points in the subdomain.
    pub fn total_points(&self) -> usize {
        self.zones * self.npts
    }

    /// Table 3 row: `(num A, num B, num C)` matrices for kernels 3, 4, 7.
    pub fn table3_row(&self, kernel: u32) -> (usize, usize, usize) {
        match kernel {
            3 => (self.zones, self.npts, self.zones * self.npts),
            4 => (self.zones * self.npts, self.npts, self.zones * self.npts),
            7 => (self.zones, 1, self.zones),
            _ => panic!("Table 3 covers kernels 3, 4 and 7"),
        }
    }

    /// Bytes of the `(v, e, x)` state shipped host-to-device per evaluation
    /// (§3.1.2) for this subdomain, assuming non-shared DOF counting
    /// (upper bound: `zones * per-zone DOFs`).
    #[cfg(test)]
    pub fn state_bytes_upper(&self) -> usize {
        let vdofs = self.zones * self.nvdof();
        let edofs = self.zones * self.nthermo;
        (2 * vdofs + edofs) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q2q1_3d_matches_paper() {
        // "ŵ_i(q̂_k) is 81 x 64 for Q2-Q1" and Table 4's 81x8 F_z matrices.
        let s = ProblemShape::new(3, 2, 4096);
        assert_eq!(s.nvdof(), 81);
        assert_eq!(s.npts, 64);
        assert_eq!(s.nthermo, 8);
    }

    #[test]
    fn q4q3_3d_matches_paper() {
        // "375 x 512 for Q4-Q3 finite elements in 3D".
        let s = ProblemShape::new(3, 4, 16 * 16 * 16);
        assert_eq!(s.nvdof(), 375);
        assert_eq!(s.npts, 512);
        assert_eq!(s.nthermo, 64);
    }

    #[test]
    fn table3_rows() {
        let s = ProblemShape::new(3, 2, 100);
        assert_eq!(s.table3_row(3), (100, 64, 6400));
        assert_eq!(s.table3_row(4), (6400, 64, 6400));
        assert_eq!(s.table3_row(7), (100, 1, 100));
    }

    #[test]
    #[should_panic(expected = "Table 3 covers")]
    fn table3_other_kernels_panic() {
        ProblemShape::new(2, 2, 1).table3_row(5);
    }

    #[test]
    fn q3q2_2d() {
        let s = ProblemShape::new(2, 3, 10);
        assert_eq!(s.nkin, 16);
        assert_eq!(s.nthermo, 9);
        assert_eq!(s.npts, 36);
        assert_eq!(s.nvdof(), 32);
    }

    #[test]
    fn state_bytes_scale_with_zones() {
        let a = ProblemShape::new(3, 2, 100);
        let b = ProblemShape::new(3, 2, 200);
        assert_eq!(2 * a.state_bytes_upper(), b.state_bytes_upper());
    }
}
