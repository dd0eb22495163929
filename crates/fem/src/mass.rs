//! Density-weighted mass matrices.
//!
//! - Kinematic `M_V`: Gram matrix of the continuous basis, global, symmetric
//!   and sparse — solved with PCG every step (the paper's kernel 9).
//! - Thermodynamic `M_E`: Gram matrix of the discontinuous basis, block
//!   diagonal — inverted once at startup and applied by SpMV (kernel 11).
//!
//! Both are weighted by `ρ |J|`. Strong mass conservation in the Lagrangian
//! frame freezes `ρ(x(t)) |J(t)| = ρ₀ |J₀|` at each quadrature point, so
//! **both matrices are constant in time** and are assembled exactly once.

use blast_la::{BlockDiag, CsrBuilder, CsrMatrix, DMatrix};
use rayon::prelude::*;

use crate::quadrature::TensorRule;
use crate::space::{H1Space, L2Space};
use crate::tensor_basis::BasisTable;

/// Assembles the global sparse kinematic mass matrix
/// `(M_V)_ij = Σ_z Σ_k α_k (ρ|J|)_{z,k} ŵ_i(q̂_k) ŵ_j(q̂_k)`.
///
/// `rho_detj` holds `ρ₀|J₀|` per `(zone, point)`, zone-major with stride
/// `rule.len()`. The result acts on one velocity component; the full vector
/// mass matrix is block diagonal over components with this block repeated.
pub fn assemble_kinematic_mass<const D: usize>(
    space: &H1Space<D>,
    rule: &TensorRule<D>,
    table: &BasisTable<D>,
    rho_detj: &[f64],
) -> CsrMatrix {
    let nz = space.mesh().num_zones();
    let npts = rule.len();
    assert_eq!(rho_detj.len(), nz * npts, "rho_detj shape mismatch");
    assert_eq!(table.npts(), npts, "basis table/rule mismatch");
    let ldof = space.ndof_per_zone();
    let n = space.num_dofs();

    // Per-zone local blocks are independent — compute them in parallel
    // into a flat zone-major buffer, then scatter serially in zone order
    // so the CSR accumulation order (and thus every bit of the result)
    // is identical at any thread count.
    let mut locals = vec![0.0; nz * ldof * ldof];
    locals.par_chunks_exact_mut(ldof * ldof).enumerate().for_each(|(z, local)| {
        let w = &rho_detj[z * npts..(z + 1) * npts];
        for k in 0..npts {
            let s = rule.weights[k] * w[k];
            if s == 0.0 {
                continue;
            }
            for j in 0..ldof {
                let bj = table.values[(j, k)];
                if bj == 0.0 {
                    continue;
                }
                let sj = s * bj;
                for i in 0..ldof {
                    local[j * ldof + i] += sj * table.values[(i, k)];
                }
            }
        }
    });
    let mut builder = CsrBuilder::new(n, n);
    for z in 0..nz {
        let local = &locals[z * ldof * ldof..(z + 1) * ldof * ldof];
        let dofs = space.zone_dofs(z);
        for j in 0..ldof {
            for i in 0..ldof {
                builder.add(dofs[i], dofs[j], local[j * ldof + i]);
            }
        }
    }
    builder.build()
}

/// Assembles the block-diagonal thermodynamic mass matrix
/// `(M_E)_z = Σ_k α_k (ρ|J|)_{z,k} φ̂(q̂_k) φ̂(q̂_k)^T` (one block per zone).
pub fn assemble_thermodynamic_mass<const D: usize>(
    space: &L2Space<D>,
    rule: &TensorRule<D>,
    table: &BasisTable<D>,
    rho_detj: &[f64],
) -> BlockDiag {
    let nz = space.mesh().num_zones();
    let npts = rule.len();
    assert_eq!(rho_detj.len(), nz * npts, "rho_detj shape mismatch");
    let ldof = space.ndof_per_zone();

    // One independent block per zone: the textbook parallel assembly.
    let mut blocks: Vec<DMatrix> = (0..nz).map(|_| DMatrix::zeros(ldof, ldof)).collect();
    blocks.par_iter_mut().enumerate().for_each(|(z, block)| {
        let w = &rho_detj[z * npts..(z + 1) * npts];
        for k in 0..npts {
            let s = rule.weights[k] * w[k];
            for j in 0..ldof {
                let sj = s * table.values[(j, k)];
                if sj == 0.0 {
                    continue;
                }
                for i in 0..ldof {
                    block[(i, j)] += sj * table.values[(i, k)];
                }
            }
        }
    });
    BlockDiag::from_blocks(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::CartMesh;

    /// Unit density on the initial mesh: rho_detj = |J0| = prod(h).
    fn unit_rho_detj<const D: usize>(mesh: &CartMesh<D>, npts: usize) -> Vec<f64> {
        let detj: f64 = mesh.zone_size().iter().product();
        vec![detj; mesh.num_zones() * npts]
    }

    #[test]
    fn kinematic_mass_row_sums_give_total_mass() {
        // sum_ij M_ij = integral of rho = total mass = density * volume.
        let mesh = CartMesh::<2>::new([3, 2], [0.0, 0.0], [3.0, 1.0]);
        let space = H1Space::new(mesh.clone(), 2);
        let rule = TensorRule::<2>::gauss(4);
        let table = space.basis().tabulate(&rule.points);
        let w = unit_rho_detj(&mesh, rule.len());
        let m = assemble_kinematic_mass(&space, &rule, &table, &w);
        let total: f64 = m.values().iter().sum();
        assert!((total - 3.0).abs() < 1e-12, "total mass {total}");
    }

    #[test]
    fn kinematic_mass_is_symmetric() {
        let mesh = CartMesh::<2>::unit(2);
        let space = H1Space::new(mesh.clone(), 3);
        let rule = TensorRule::<2>::gauss(6);
        let table = space.basis().tabulate(&rule.points);
        let w = unit_rho_detj(&mesh, rule.len());
        let m = assemble_kinematic_mass(&space, &rule, &table, &w);
        assert!(m.asymmetry() < 1e-14);
    }

    #[test]
    fn kinematic_mass_is_spd() {
        // x^T M x = integral of the interpolant squared > 0 for x != 0.
        let mesh = CartMesh::<2>::unit(2);
        let space = H1Space::new(mesh.clone(), 2);
        let rule = TensorRule::<2>::gauss(4);
        let table = space.basis().tabulate(&rule.points);
        let w = unit_rho_detj(&mesh, rule.len());
        let m = assemble_kinematic_mass(&space, &rule, &table, &w);
        let n = space.num_dofs();
        for trial in 0..5 {
            let x: Vec<f64> = (0..n).map(|i| ((i * 7 + trial * 13) as f64).sin()).collect();
            let mx = m.spmv(&x);
            let q: f64 = x.iter().zip(&mx).map(|(a, b)| a * b).sum();
            assert!(q > 0.0, "trial {trial}: x^T M x = {q}");
        }
    }

    #[test]
    fn thermodynamic_mass_blocks_spd_and_count() {
        let mesh = CartMesh::<3>::unit(2);
        let space = L2Space::new(mesh.clone(), 1);
        let rule = TensorRule::<3>::gauss(4);
        let table = space.basis().tabulate(&rule.points);
        let w = unit_rho_detj(&mesh, rule.len());
        let me = assemble_thermodynamic_mass(&space, &rule, &table, &w);
        assert_eq!(me.num_blocks(), 8);
        assert_eq!(me.block_size(), 8);
        assert!(me.asymmetry() < 1e-15);
        // Diagonal of each block positive.
        for z in 0..me.num_blocks() {
            for i in 0..me.block_size() {
                assert!(me.block(z)[(i, i)] > 0.0);
            }
        }
    }

    #[test]
    fn thermodynamic_mass_total() {
        // 1^T M_E 1 = total mass (partition of unity of the L2 basis).
        let mesh = CartMesh::<2>::new([2, 2], [0.0, 0.0], [2.0, 2.0]);
        let space = L2Space::new(mesh.clone(), 2);
        let rule = TensorRule::<2>::gauss(4);
        let table = space.basis().tabulate(&rule.points);
        let w = unit_rho_detj(&mesh, rule.len());
        let me = assemble_thermodynamic_mass(&space, &rule, &table, &w);
        let ones = vec![1.0; me.dim()];
        let mut m1 = vec![0.0; me.dim()];
        me.apply(&ones, &mut m1);
        let total: f64 = m1.iter().sum();
        assert!((total - 4.0).abs() < 1e-12, "total {total}");
    }

    #[test]
    fn nonuniform_density_scales_mass() {
        // Double the density on half the zones: total mass = 1.5 * volume.
        let mesh = CartMesh::<2>::unit(2);
        let space = H1Space::new(mesh.clone(), 1);
        let rule = TensorRule::<2>::gauss(2);
        let table = space.basis().tabulate(&rule.points);
        let npts = rule.len();
        let detj = 0.5 * 0.5; // zone size of the 2x2 unit mesh
        let mut w = vec![detj; 4 * npts];
        for k in 0..2 * npts {
            w[k] *= 2.0; // zones 0 and 1 at double density
        }
        let m = assemble_kinematic_mass(&space, &rule, &table, &w);
        let total: f64 = m.values().iter().sum();
        assert!((total - 1.5).abs() < 1e-13, "total {total}");
    }

    #[test]
    fn me_inverse_applies_cleanly() {
        let mesh = CartMesh::<2>::unit(2);
        let space = L2Space::new(mesh.clone(), 1);
        let rule = TensorRule::<2>::gauss(3);
        let table = space.basis().tabulate(&rule.points);
        let w = unit_rho_detj(&mesh, rule.len());
        let me = assemble_thermodynamic_mass(&space, &rule, &table, &w);
        let inv = me.inverse();
        let x: Vec<f64> = (0..me.dim()).map(|i| (i as f64 * 0.37).cos()).collect();
        let mut mx = vec![0.0; me.dim()];
        me.apply(&x, &mut mx);
        let mut back = vec![0.0; me.dim()];
        inv.apply(&mx, &mut back);
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-11);
        }
    }
}
