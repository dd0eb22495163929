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

use blast_la::{BlockDiag, CsrBuilder, CsrMatrix, WeightedGram};
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
    scatter_kinematic_blocks(space, &kinematic_blocks(space, rule, table, rho_detj))
}

/// `α_k (ρ|J|)_{z,k}` for every `(zone, point)`, zone-major: the weights
/// of the zone blocks (the product the scalar loops formed per entry).
fn point_weights<const D: usize>(rule: &TensorRule<D>, rho_detj: &[f64]) -> Vec<f64> {
    let zone = |r: &[f64]| rule.weights.iter().zip(r).map(|(a, r)| a * r).collect::<Vec<_>>();
    rho_detj.chunks_exact(rule.len()).flat_map(zone).collect()
}

/// The zone blocks of `M_V`, zone-major, each `ldof × ldof` column-major:
/// block `z` entry `(i, j)` is `Σ_k (α_k (ρ|J|)_{z,k} ŵ_j(q̂_k)) ŵ_i(q̂_k)`,
/// one [`WeightedGram`] register tile per zone, zones in parallel. Bitwise
/// [`reference::kinematic_blocks`].
pub fn kinematic_blocks<const D: usize>(
    space: &H1Space<D>,
    rule: &TensorRule<D>,
    table: &BasisTable<D>,
    rho_detj: &[f64],
) -> Vec<f64> {
    let nz = space.mesh().num_zones();
    let npts = rule.len();
    assert_eq!(rho_detj.len(), nz * npts, "rho_detj shape mismatch");
    assert_eq!(table.npts(), npts, "basis table/rule mismatch");
    let ldof = space.ndof_per_zone();
    let gram = WeightedGram::new(&table.values);
    let w = point_weights(rule, rho_detj);
    let mut locals = vec![0.0; nz * ldof * ldof];
    locals.par_chunks_exact_mut(ldof * ldof).enumerate().for_each(|(z, local)| {
        gram.compute(&w[z * npts..(z + 1) * npts], local);
    });
    locals
}

/// `M_V` from its zone blocks ([`kinematic_blocks`]) through
/// [`CsrMatrix::from_zone_blocks`]: the pattern counted once from the zone
/// DOFs, each entry's zone terms summed in ascending zone order, no
/// triplets and no sort. Bitwise
/// [`reference::scatter_kinematic_blocks`](fn@reference::scatter_kinematic_blocks).
pub fn scatter_kinematic_blocks<const D: usize>(space: &H1Space<D>, locals: &[f64]) -> CsrMatrix {
    let n = space.num_dofs();
    CsrMatrix::from_zone_blocks(n, space.ndof_per_zone(), space.all_zone_dofs(), locals)
}

/// Assembles the block-diagonal thermodynamic mass matrix
/// `(M_E)_z = Σ_k α_k (ρ|J|)_{z,k} φ̂(q̂_k) φ̂(q̂_k)^T` into one batch (one
/// block per zone, one [`WeightedGram`] register tile each, zones in
/// parallel). Bitwise [`reference::assemble_thermodynamic_mass`].
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
    let gram = WeightedGram::new(&table.values);
    let w = point_weights(rule, rho_detj);
    let mut batch = vec![0.0; nz * ldof * ldof];
    batch.par_chunks_exact_mut(ldof * ldof).enumerate().for_each(|(z, block)| {
        gram.compute(&w[z * npts..(z + 1) * npts], block);
    });
    BlockDiag::from_batch(ldof, batch)
}

/// The scalar loops the [`WeightedGram`] tile replaced and the triplet
/// scatter [`CsrMatrix::from_zone_blocks`] replaced, kept as the bitwise
/// oracles of the tests and the reference rows of the `host_kernels`
/// experiment; nothing in the solver calls them.
pub mod reference {
    use super::*;

    /// `M_V` from its zone blocks: one triplet per block entry, pushed
    /// serially zone by zone (`j` outer, `i` inner), then
    /// [`CsrBuilder::build`], whose stable sort sums each entry's
    /// duplicates in push order.
    pub fn scatter_kinematic_blocks<const D: usize>(
        space: &H1Space<D>,
        locals: &[f64],
    ) -> CsrMatrix {
        let nz = space.mesh().num_zones();
        let ldof = space.ndof_per_zone();
        assert_eq!(locals.len(), nz * ldof * ldof, "one ldof x ldof block per zone");
        let n = space.num_dofs();
        let mut builder = CsrBuilder::new(n, n);
        for (z, local) in locals.chunks_exact(ldof * ldof).enumerate() {
            let dofs = space.zone_dofs(z);
            for j in 0..ldof {
                for i in 0..ldof {
                    builder.add(dofs[i], dofs[j], local[j * ldof + i]);
                }
            }
        }
        builder.build()
    }

    /// The zone blocks of `M_V` as [`super::kinematic_blocks`] returns them:
    /// a point-outer triple loop with zero-weight and zero-basis skips.
    pub fn kinematic_blocks<const D: usize>(
        space: &H1Space<D>,
        rule: &TensorRule<D>,
        table: &BasisTable<D>,
        rho_detj: &[f64],
    ) -> Vec<f64> {
        let nz = space.mesh().num_zones();
        let npts = rule.len();
        assert_eq!(rho_detj.len(), nz * npts, "rho_detj shape mismatch");
        let ldof = space.ndof_per_zone();
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
        locals
    }

    /// [`super::assemble_thermodynamic_mass`] as a point-outer triple loop
    /// with a zero-product skip.
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
        let mut batch = vec![0.0; nz * ldof * ldof];
        batch.par_chunks_exact_mut(ldof * ldof).enumerate().for_each(|(z, block)| {
            let w = &rho_detj[z * npts..(z + 1) * npts];
            for k in 0..npts {
                let s = rule.weights[k] * w[k];
                for j in 0..ldof {
                    let sj = s * table.values[(j, k)];
                    if sj == 0.0 {
                        continue;
                    }
                    for i in 0..ldof {
                        block[j * ldof + i] += sj * table.values[(i, k)];
                    }
                }
            }
        });
        BlockDiag::from_batch(ldof, batch)
    }
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

    /// A `ρ|J|` field with no structure and a few exact zeros.
    fn rough_rho_detj(len: usize) -> Vec<f64> {
        (0..len).map(|p| if p % 97 == 5 { 0.0 } else { 0.3 + (p as f64 * 0.618).sin().abs() }).collect()
    }

    /// The benchmark's five workload shapes (2D Q2 32², 3D Q3 5³, 3D Q2
    /// 8³) plus 2D Q3 / Q4 and 3D Q1: `(order, zones per axis)`.
    const SHAPES_2D: [(usize, usize); 3] = [(2, 32), (3, 6), (4, 4)];
    const SHAPES_3D: [(usize, usize); 3] = [(3, 5), (2, 8), (1, 4)];

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    fn kinematic_case<const D: usize>(order: usize, zones: usize) {
        let space = H1Space::new(CartMesh::<D>::unit(zones), order);
        let rule = TensorRule::<D>::gauss(crate::quad_points_1d(order));
        let table = space.basis().tabulate(&rule.points);
        let w = rough_rho_detj(space.mesh().num_zones() * rule.len());
        let want = reference::kinematic_blocks(&space, &rule, &table, &w);
        let got = kinematic_blocks(&space, &rule, &table, &w);
        assert_eq!(bits(&got), bits(&want), "Q{order}-{D}D blocks");
        let (mv, mv_ref) = (
            assemble_kinematic_mass(&space, &rule, &table, &w),
            scatter_kinematic_blocks(&space, &want),
        );
        assert_eq!(mv.col_idx(), mv_ref.col_idx(), "Q{order}-{D}D pattern");
        assert_eq!(bits(mv.values()), bits(mv_ref.values()), "Q{order}-{D}D M_V");
    }

    fn thermodynamic_case<const D: usize>(order: usize, zones: usize) {
        let space = L2Space::new(CartMesh::<D>::unit(zones), order - 1);
        let rule = TensorRule::<D>::gauss(crate::quad_points_1d(order));
        let table = space.basis().tabulate(&rule.points);
        let w = rough_rho_detj(space.mesh().num_zones() * rule.len());
        let want = reference::assemble_thermodynamic_mass(&space, &rule, &table, &w);
        let got = assemble_thermodynamic_mass(&space, &rule, &table, &w);
        for z in 0..want.num_blocks() {
            assert_eq!(bits(got.block(z)), bits(want.block(z)), "Q{order}-{D}D M_E block {z}");
        }
    }

    #[test]
    fn kinematic_mass_matches_setup_oracle() {
        SHAPES_2D.iter().for_each(|&(order, zones)| kinematic_case::<2>(order, zones));
        SHAPES_3D.iter().for_each(|&(order, zones)| kinematic_case::<3>(order, zones));
    }

    /// The zone-order scatter is the triplet push with its stable sort, bit
    /// for bit and slot for slot, on a rough `ρ|J|` with exact zeros.
    #[test]
    fn kinematic_scatter_matches_setup_oracle() {
        fn case<const D: usize>(order: usize, zones: usize) {
            let space = H1Space::new(CartMesh::<D>::unit(zones), order);
            let rule = TensorRule::<D>::gauss(crate::quad_points_1d(order));
            let table = space.basis().tabulate(&rule.points);
            let w = rough_rho_detj(space.mesh().num_zones() * rule.len());
            let blocks = kinematic_blocks(&space, &rule, &table, &w);
            let got = scatter_kinematic_blocks(&space, &blocks);
            let want = reference::scatter_kinematic_blocks(&space, &blocks);
            assert_eq!(got.row_ptr(), want.row_ptr(), "Q{order}-{D}D rows");
            assert_eq!(got.col_idx(), want.col_idx(), "Q{order}-{D}D pattern");
            assert_eq!(bits(got.values()), bits(want.values()), "Q{order}-{D}D M_V");
        }
        SHAPES_2D.iter().for_each(|&(order, zones)| case::<2>(order, zones));
        SHAPES_3D.iter().for_each(|&(order, zones)| case::<3>(order, zones));
    }

    /// The lock-step sweep on the real `M_V` at Q1–Q4 in 2D and 3D, `d` =
    /// 2 and 3 components with a distinct mask each, at pool widths 1 / 2 /
    /// 8, against both oracles bit for bit: `stream::reference::spmv` of
    /// the masked input, the fix-up and `stream::reference::dot`; and the
    /// scalar constrained sweep (the `d` = 1 form of the same call).
    #[test]
    fn mass_matrix_constrained_wide_sweep_matches_both_oracles() {
        use blast_la::stream::{reference, spmv_constrained_dot_wide, wide_lanes};
        fn case<const D: usize>(order: usize, zones: usize) {
            let space = H1Space::new(CartMesh::<D>::unit(zones), order);
            let rule = TensorRule::<D>::gauss(crate::quad_points_1d(order));
            let table = space.basis().tabulate(&rule.points);
            let w = rough_rho_detj(space.mesh().num_zones() * rule.len());
            let mv = assemble_kinematic_mass(&space, &rule, &table, &w);
            let n = mv.rows();
            for d in [2usize, 3] {
                let at = |c: usize| c * n..(c + 1) * n;
                let x: Vec<f64> =
                    (0..d * n).map(|i| ((i * 29 + 5) % 97) as f64 * 0.021 - 0.9).collect();
                let mask = |c: usize| (0..n).map(|i| (i + 3 * c).is_multiple_of(5 + 2 * c)).collect();
                let masks: Vec<Vec<bool>> = (0..d).map(mask).collect();
                let masks: Vec<&[bool]> = masks.iter().map(|m| &m[..]).collect();
                let sweep = |d: usize, x: &[f64], masks: &[&[bool]]| {
                    let mut tmp = vec![f64::NAN; wide_lanes(d) * n];
                    let (mut y, mut dots) = (vec![f64::NAN; d * n], vec![f64::NAN; d]);
                    spmv_constrained_dot_wide(&mv, x, masks, &mut tmp, &mut y, &mut dots);
                    (bits(&y), bits(&dots))
                };
                for c in 0..d {
                    let what = format!("Q{order}-{D}D d={d} c={c}");
                    let x_c = &x[at(c)];
                    let staged: Vec<f64> =
                        x_c.iter().zip(masks[c]).map(|(&v, &m)| if m { 0.0 } else { v }).collect();
                    let mut oracle = vec![0.0; n];
                    reference::spmv(&mv, &staged, &mut oracle);
                    for i in (0..n).filter(|&i| masks[c][i]) {
                        oracle[i] = x_c[i];
                    }
                    let oracle = (bits(&oracle), bits(&[reference::dot(x_c, &oracle)]));
                    assert_eq!(sweep(1, x_c, &masks[c..c + 1]), oracle, "{what}: scalar sweep");
                    for threads in [1usize, 2, 8] {
                        let (y, dots) = rayon::Pool::new(threads).install(|| sweep(d, &x, &masks));
                        assert_eq!(y[at(c)], oracle.0, "{what} threads={threads}");
                        assert_eq!(dots[c], oracle.1[0], "{what} threads={threads}");
                    }
                }
            }
        }
        (1..=4).for_each(|order| case::<2>(order, 8 / order + 2));
        (1..=4).for_each(|order| case::<3>(order, 4 / order + 1));
    }

    #[test]
    fn thermodynamic_mass_matches_setup_oracle() {
        SHAPES_2D.iter().for_each(|&(order, zones)| thermodynamic_case::<2>(order, zones));
        SHAPES_3D.iter().for_each(|&(order, zones)| thermodynamic_case::<3>(order, zones));
    }

    /// `M_E⁻¹` on the benchmark's three shapes (2D Q2 32², 3D Q3 5³, 3D Q2
    /// 8³) from a rough `ρ|J|`, so no two blocks are alike, at pool widths
    /// 1 / 2 / 8: the batched kernel against [`LuFactors::inverse`] block
    /// by block, bit for bit.
    #[test]
    fn thermodynamic_inverse_matches_setup_oracle() {
        use blast_la::{DMatrix, LuFactors};
        fn case<const D: usize>(order: usize, zones: usize) {
            let space = L2Space::new(CartMesh::<D>::unit(zones), order - 1);
            let rule = TensorRule::<D>::gauss(crate::quad_points_1d(order));
            let table = space.basis().tabulate(&rule.points);
            let w = rough_rho_detj(space.mesh().num_zones() * rule.len());
            let me = assemble_thermodynamic_mass(&space, &rule, &table, &w);
            let n = me.block_size();
            let want: Vec<Vec<u64>> = (0..me.num_blocks())
                .map(|z| {
                    let block = DMatrix::from_col_major(n, n, me.block(z).to_vec());
                    bits(LuFactors::factor(&block).inverse().as_slice())
                })
                .collect();
            for threads in [1, 2, 8] {
                let inv = rayon::Pool::new(threads).install(|| me.inverse());
                for (z, want) in want.iter().enumerate() {
                    let what = format!("Q{order}-{D}D block {z}, {threads} threads");
                    assert_eq!(&bits(inv.block(z)), want, "{what}");
                }
            }
        }
        case::<2>(2, 32);
        case::<3>(3, 5);
        case::<3>(2, 8);
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
                assert!(me.block(z)[i * me.block_size() + i] > 0.0);
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
