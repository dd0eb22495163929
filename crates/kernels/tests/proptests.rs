//! Property-based tests on the kernel suite's invariants.

use blast_kernels::k1::AdjugateDetKernel;
use blast_kernels::k3::{self, CoefGradKernel, PointMajorGrads};
use blast_kernels::k4::{self, AzKernel};
use blast_kernels::k56::{BatchedDimGemm, Transpose};
use blast_kernels::k7::FzKernel;
use blast_kernels::k8_10::{EnergyRhsKernel, MomentumRhsKernel};
use blast_kernels::ProblemShape;
use blast_la::{BatchedMats, DMatrix, SmallMat};
use proptest::prelude::*;
use proptest::TestRng;

fn well_conditioned_jacobians(count: usize, seed: Vec<f64>) -> BatchedMats {
    BatchedMats::from_fn(3, 3, count, |z, i, j| {
        let s = seed[(z + i * 2 + j) % seed.len()];
        if i == j {
            1.0 + 0.2 * s
        } else {
            0.1 * s
        }
    })
}

/// `len` seeded values in [-1, 1) with exact `0.0` and `-0.0` entries
/// mixed in — the inputs on which skipping a zero table entry, or starting
/// an accumulator anywhere but `+0.0`, would show in the sign bit.
fn signed_zero_mix(rng: &mut TestRng, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| match rng.next_u64() % 7 {
            0 => 0.0,
            1 => -0.0,
            _ => rng.next_f64() * 2.0 - 1.0,
        })
        .collect()
}

fn assert_same_bits(got: &BatchedMats, expect: &BatchedMats, what: &str) {
    assert_eq!(got.as_slice().len(), expect.as_slice().len(), "{what}: length");
    for (p, (a, b)) in got.as_slice().iter().zip(expect.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: entry {p} is {a:e}, reference {b:e}");
    }
}

/// The batched host bodies of kernels 3 and 4 against their point-by-point
/// `reference` oracles, bit for bit, over every (dim, order, zones) the
/// solver can present — including point counts above one accumulation tile
/// with a ragged tail (Q3-3D = 216 = 3 x 64 + 24) and exact multiples of it
/// (Q4-3D = 512) — at 1 and 8 pool threads. Outputs start NaN-filled: the
/// pipeline no longer clears them, so `compute` must store every entry.
#[test]
fn k3_k4_compute_equals_reference_bitwise_over_the_shape_lattice() {
    let mut rng = TestRng::from_seed(0x5eed_00a2);
    for dim in [2usize, 3] {
        for order in 1..=4 {
            for zones in [1usize, 7, 64] {
                let shape = ProblemShape::new(dim, order, zones);
                let (nkin, npts, total) = (shape.nkin, shape.npts, shape.total_points());
                // Shared dofs, as on a real mesh: fewer global than local.
                let ndofs = (zones * nkin).div_ceil(2).max(nkin);
                let zone_dofs: Vec<usize> =
                    (0..zones * nkin).map(|_| (rng.next_u64() % ndofs as u64) as usize).collect();
                let u = signed_zero_mix(&mut rng, dim * ndofs);
                let grads: Vec<DMatrix> = (0..dim)
                    .map(|_| {
                        DMatrix::from_col_major(nkin, npts, signed_zero_mix(&mut rng, nkin * npts))
                    })
                    .collect();
                let table = PointMajorGrads::from_tables(&grads);
                let s = BatchedMats::from_data(
                    dim,
                    dim,
                    total,
                    signed_zero_mix(&mut rng, dim * dim * total),
                );
                let alpha = signed_zero_mix(&mut rng, npts);

                let mut c_ref = BatchedMats::zeros(dim, dim, total);
                k3::reference(&shape, &u, ndofs, &zone_dofs, &grads, &mut c_ref);
                let mut az_ref = BatchedMats::zeros(shape.nvdof(), npts, zones);
                k4::reference(&shape, &s, &grads, &alpha, &mut az_ref);

                for threads in [1usize, 8] {
                    let what = format!("Q{order}-{dim}D, {zones} zones, {threads} threads");
                    let mut c = BatchedMats::from_data(dim, dim, total, vec![f64::NAN; dim * dim * total]);
                    let mut az = BatchedMats::from_data(
                        shape.nvdof(),
                        npts,
                        zones,
                        vec![f64::NAN; shape.nvdof() * npts * zones],
                    );
                    rayon::Pool::new(threads).install(|| {
                        CoefGradKernel::compute(&shape, &u, ndofs, &zone_dofs, &table, &mut c);
                        AzKernel::compute(&shape, &s, &grads, &alpha, &mut az);
                    });
                    assert_same_bits(&c, &c_ref, &format!("kernel 3, {what}"));
                    assert_same_bits(&az, &az_ref, &format!("kernel 4, {what}"));
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn k1_adjugate_identity_and_positive_hmin(
        seed in proptest::collection::vec(-1.0..1.0f64, 8),
    ) {
        let shape = ProblemShape::new(3, 1, 2);
        let n = shape.total_points();
        let jac = well_conditioned_jacobians(n, seed);
        let mut adj = BatchedMats::zeros(3, 3, n);
        let mut det = vec![0.0; n];
        let mut hmin = vec![0.0; n];
        AdjugateDetKernel::compute(&shape, &jac, &mut adj, &mut det, &mut hmin);
        for p in 0..n {
            let j = SmallMat::<3>::from_col_slice(jac.mat(p));
            let a = SmallMat::<3>::from_col_slice(adj.mat(p));
            let prod = j * a;
            for r in 0..3 {
                for c in 0..3 {
                    let expect = if r == c { det[p] } else { 0.0 };
                    prop_assert!((prod[(r, c)] - expect).abs() < 1e-10);
                }
            }
            prop_assert!(hmin[p] > 0.0);
            prop_assert!(det[p] > 0.0, "diag-dominant J must be orientation-preserving");
        }
    }

    #[test]
    fn k56_agrees_with_reference_for_all_batch_factors(
        mats_per_block in 1u32..64,
        seed in proptest::collection::vec(-2.0..2.0f64, 6),
    ) {
        let count = 40;
        let a = BatchedMats::from_fn(2, 2, count, |z, i, j| seed[(z + i + j) % 6] * 0.7);
        let b = BatchedMats::from_fn(2, 2, count, |z, i, j| seed[(z * 2 + i + j) % 6] * 0.3);
        let k = BatchedDimGemm { transpose: Transpose::NN, mats_per_block };
        let mut c = BatchedMats::zeros(2, 2, count);
        k.compute(&a, &b, None, &mut c);
        let mut expect = BatchedMats::zeros(2, 2, count);
        blast_la::batched_gemm_nn(1.0, &a, &b, 0.0, &mut expect);
        for (x, y) in c.as_slice().iter().zip(expect.as_slice()) {
            prop_assert!((x - y).abs() < 1e-13);
        }
    }

    #[test]
    fn momentum_energy_duality_random_forces(
        fz_seed in proptest::collection::vec(-1.0..1.0f64, 16),
        v_seed in proptest::collection::vec(-1.0..1.0f64, 8),
    ) {
        // The discrete conservation identity behind Table 6:
        // v^T scatter(-F 1) + 1^T (F^T v) = 0 for ANY F and v.
        let shape = ProblemShape::new(2, 1, 2);
        let zone_dofs = vec![0usize, 1, 3, 4, 1, 2, 4, 5];
        let ndofs = 6;
        let fz = BatchedMats::from_fn(shape.nvdof(), shape.nthermo, 2, |z, i, j| {
            fz_seed[(z * 7 + i * 3 + j) % 16]
        });
        let v: Vec<f64> = (0..2 * ndofs).map(|i| v_seed[i % 8]).collect();

        let mut rhs_v = vec![0.0; 2 * ndofs];
        MomentumRhsKernel::compute(&shape, &fz, &zone_dofs, ndofs, &mut rhs_v);
        let mut rhs_e = vec![0.0; 2 * shape.nthermo];
        EnergyRhsKernel::compute(&shape, &fz, &v, &zone_dofs, ndofs, &mut rhs_e);

        let vt: f64 = v.iter().zip(&rhs_v).map(|(a, b)| a * b).sum();
        let ones: f64 = rhs_e.iter().sum();
        prop_assert!((vt + ones).abs() < 1e-11 * vt.abs().max(1.0));
    }

    #[test]
    fn k7_linearity_in_az(
        alpha in -3.0..3.0f64,
        seed in proptest::collection::vec(-1.0..1.0f64, 5),
    ) {
        // F_z(alpha A_z) = alpha F_z(A_z).
        let shape = ProblemShape::new(2, 1, 2);
        let az = BatchedMats::from_fn(shape.nvdof(), shape.npts, 2, |z, i, j| {
            seed[(z + i * 2 + j) % 5]
        });
        let az_scaled = BatchedMats::from_fn(shape.nvdof(), shape.npts, 2, |z, i, j| {
            alpha * az.get(z, i, j)
        });
        let b = DMatrix::from_fn(shape.nthermo, shape.npts, |i, j| {
            seed[(i * 3 + j) % 5] * 0.5
        });
        let mut f1 = BatchedMats::zeros(shape.nvdof(), shape.nthermo, 2);
        let mut f2 = BatchedMats::zeros(shape.nvdof(), shape.nthermo, 2);
        FzKernel::compute(&shape, &az, &b, &mut f1);
        FzKernel::compute(&shape, &az_scaled, &b, &mut f2);
        for (x, y) in f1.as_slice().iter().zip(f2.as_slice()) {
            prop_assert!((alpha * x - y).abs() < 1e-11 * y.abs().max(1.0));
        }
    }

    #[test]
    fn traffic_models_scale_monotonically(zones in 1usize..2000) {
        // Kernel traffic must grow monotonically with the zone count (no
        // weird non-monotone model artifacts the autotuner could exploit).
        let small = ProblemShape::new(3, 2, zones);
        let big = ProblemShape::new(3, 2, zones * 2);
        let k = FzKernel::tuned();
        prop_assert!(k.traffic(&big).flops > k.traffic(&small).flops);
        prop_assert!(k.traffic(&big).dram_bytes > k.traffic(&small).dram_bytes);
        let k8 = MomentumRhsKernel;
        prop_assert!(k8.traffic(&big).flops > k8.traffic(&small).flops);
    }
}
