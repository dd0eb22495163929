//! setup_phases — *measured* milliseconds of each one-time phase of a
//! solver build (`Hydro::builder(..).build()`) on the end-to-end
//! benchmark's three 3D workloads and its 2D shape, the body the builder
//! runs against the loop it replaced:
//!
//! - `geometry`: `|J₀|` and the point positions `ρ₀` is read at, in one
//!   `fem::geom::zone_geometry_pass` (the points as vector lanes), against
//!   the point-at-a-time loops `fem::geom::{zone_jacobians, eval_h1_vector}`
//!   zone by zone;
//! - `kinematic_blocks`: `M_V`'s zone blocks on the `blast_la::WeightedGram`
//!   register tile, against `fem::mass::reference::kinematic_blocks`;
//! - `scatter`: `M_V` from those blocks, its pattern counted once and each
//!   entry summed in zone order (`CsrMatrix::from_zone_blocks`), against
//!   the triplet push and `CsrBuilder`'s stable sort and merge
//!   (`fem::mass::reference::scatter_kinematic_blocks`);
//! - `thermodynamic_blocks`: `M_E` on the same tile, against
//!   `fem::mass::reference::assemble_thermodynamic_mass`;
//! - `me_inverse`: `M_E`'s block inverse in one batched kernel
//!   (`BlockDiag::inverse`), against `blast_la::LuFactors::{factor,
//!   inverse}` block by block;
//! - `matfree_diagonal`: the matrix-free Jacobi diagonal with its basis
//!   products formed once, against the per-zone loop
//!   `sumfac::reference::diagonal`.
//!
//! Every pair is asserted bit-equal before it is timed. Part of
//! `host_kernels` (`BENCH_host_kernels.json`, block `setup`); single thread
//! like the rest of that artifact.

use blast_core::AssemblyMode;
use blast_fem::geom;
use blast_fem::{mass, quad_points_1d, BasisTable, CartMesh, H1Space, L2Space, TensorRule};
use blast_la::{DMatrix, LuFactors};
use blast_kernels::sumfac::{self, SumfacFactors, SumfacMassKernel};
use blast_kernels::ProblemShape;

use crate::harness::{self, Budget, Cell, Gate, Timing};

/// `(workload, dim, order, zones per axis, assembly)`: the benchmark's 3D
/// workloads, and the 2D shape its serial and threads workloads share.
pub const SETUP_WORKLOADS: [(&str, usize, usize, usize, AssemblyMode); 4] = [
    ("sedov3d_q3_stored", 3, 3, 5, AssemblyMode::Stored),
    ("sedov3d_q3_matfree", 3, 3, 5, AssemblyMode::MatrixFree),
    ("sedov3d_q2_gpu", 3, 2, 8, AssemblyMode::Stored),
    ("sedov2d_q2_serial", 2, 2, 32, AssemblyMode::Stored),
];

/// The kinematic blocks must run at least this many times faster than
/// their reference at SIMD level 1 or more on the 3D stored shapes
/// (measured 4.4-6.5x at level 2 and 3.2-3.6x at level 1). The 2D row is
/// not gated: its 9 x 9 blocks over 9 points read 3.5x at level 2 but 0.9x
/// at level 1.
const BLOCKS_GATE_SPEEDUP: f64 = 2.0;

/// The zone-order scatter must run at least this many times faster than
/// the triplet push and sort on both stored shapes, at every SIMD level
/// (it is scalar code).
const SCATTER_GATE_SPEEDUP: f64 = 3.0;

/// The batched block inverse must run at least this many times faster
/// than the per-block `LuFactors` loop on every workload, at every SIMD
/// level. Set before the first measurement of the kernel (an untuned
/// prototype of it read about 2x); `BENCH_host_kernels.json` holds what it
/// reads.
const INVERSE_GATE_SPEEDUP: f64 = 2.0;

/// Timing variant of the body the builder runs; [`REFERENCE`] is the other.
const BODY: usize = 0;
/// See [`BODY`].
const REFERENCE: usize = 1;

/// One phase of one workload's build.
#[derive(Clone, Debug)]
pub struct SetupPhaseResult {
    /// Benchmark workload, e.g. `"sedov3d_q3_stored"`.
    pub workload: &'static str,
    /// Phase name (see the module docs).
    pub phase: &'static str,
    /// The speedup over the reference a gated row must reach: the
    /// scatter's, the block inverse's, and the 3D kinematic blocks' at SIMD
    /// level 1 or more.
    pub bar: Option<f64>,
    /// Variants: the builder's body, then the reference loop; seconds per
    /// call.
    pub t: Timing,
}

impl SetupPhaseResult {
    /// This row's cells; a gated row adds its gate to `gates`.
    pub fn row(&self, gates: &mut Vec<Gate>) -> Vec<Cell> {
        let speedup = self.t.median_ratio(&[REFERENCE], &[BODY]);
        if let Some(bar) = self.bar {
            let detail = format!("{speedup:.2}x of the reference loop, need >= {bar:.1}x");
            let name = format!("setup {} {}", self.workload, self.phase);
            gates.push(Gate::new(name, speedup >= bar, detail));
        }
        vec![
            Cell::new("workload", self.workload),
            Cell::new("phase", self.phase),
            Cell::new("gated", self.bar.is_some()),
            Cell::new("ms", self.t.min(BODY) * 1e3),
            Cell::new("reference_ms", self.t.min(REFERENCE) * 1e3),
            Cell::times("speedup", speedup),
        ]
    }
}

/// What the phases of one build read.
struct Inputs<const D: usize> {
    kin: H1Space<D>,
    thermo: L2Space<D>,
    rule: TensorRule<D>,
    kin_table: BasisTable<D>,
    thermo_table: BasisTable<D>,
    shape: ProblemShape,
    zone_dofs: Vec<usize>,
    x0: Vec<f64>,
    /// Sedov's `ρ₀ = 1`, so the frozen mass factor is `|J₀|`.
    rho0detj0: Vec<f64>,
}

impl<const D: usize> Inputs<D> {
    fn new(order: usize, zones_per_axis: usize) -> Self {
        let mesh = CartMesh::<D>::unit(zones_per_axis);
        let kin = H1Space::new(mesh.clone(), order);
        let thermo = L2Space::new(mesh.clone(), order - 1);
        let rule = TensorRule::<D>::gauss(quad_points_1d(order));
        let kin_table = kin.basis().tabulate(&rule.points);
        let thermo_table = thermo.basis().tabulate(&rule.points);
        let shape = ProblemShape::new(D, order, mesh.num_zones());
        let zone_dofs = kin.all_zone_dofs().to_vec();
        let x0 = kin.initial_coords();
        let mut inp = Self {
            kin,
            thermo,
            rule,
            kin_table,
            thermo_table,
            shape,
            zone_dofs,
            x0,
            rho0detj0: Vec::new(),
        };
        inp.rho0detj0 = inp.geometry(BODY).0;
        inp
    }

    /// `|J₀|` and the position at every point as the builder forms them,
    /// through `fem::geom`'s pass (`BODY`) or its per-zone loops.
    fn geometry(&self, variant: usize) -> (Vec<f64>, Vec<[f64; D]>) {
        let (kin, table, x0) = (&self.kin, &self.kin_table, &self.x0);
        let (mut dets, mut points) = (Vec::new(), Vec::new());
        if variant == BODY {
            geom::zone_geometry_pass(kin, table, x0, |_, g, pos| {
                dets.extend(g.iter().map(|g| g.det));
                points.extend_from_slice(pos);
            });
            return (dets, points);
        }
        let (mut g, mut pos) = (Vec::new(), Vec::new());
        for z in 0..self.shape.zones {
            geom::zone_jacobians(kin, table, x0, z, &mut g);
            geom::eval_h1_vector(kin, table, x0, z, &mut pos);
            dets.extend(g.iter().map(|g| g.det));
            points.extend_from_slice(&pos);
        }
        (dets, points)
    }

    /// `α_k ρ₀|J₀|` per point: the matrix-free mass scale factors.
    fn svals(&self) -> Vec<f64> {
        let npts = self.shape.npts;
        let w = &self.rule.weights;
        self.rho0detj0.iter().enumerate().map(|(p, r)| w[p % npts] * r).collect()
    }
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Times every phase of one workload's build, after checking each body
/// against its reference bit for bit.
fn measure_workload<const D: usize>(
    workload: &'static str,
    order: usize,
    zones: usize,
    assembly: AssemblyMode,
    budget: Budget,
) -> Vec<SetupPhaseResult> {
    let inp = Inputs::<D>::new(order, zones);
    let (kin, rule, table, w) = (&inp.kin, &inp.rule, &inp.kin_table, &inp.rho0detj0);
    let (thermo, thermo_table) = (&inp.thermo, &inp.thermo_table);
    let blocks_bar = (D == 3 && blast_la::simd::level() >= 1).then_some(BLOCKS_GATE_SPEEDUP);
    let mut out = Vec::new();
    let mut phase = |phase: &'static str, bar: Option<f64>, run: &mut dyn FnMut(usize)| {
        let t = harness::time_interleaved(2, budget, run);
        out.push(SetupPhaseResult { workload, phase, bar, t });
    };

    let ((dets, points), (dets_ref, points_ref)) = (inp.geometry(BODY), inp.geometry(REFERENCE));
    assert_eq!(bits(&dets), bits(&dets_ref), "{workload}: |J0|");
    assert_eq!(bits(points.as_flattened()), bits(points_ref.as_flattened()), "{workload}: points");
    phase("geometry", None, &mut |v| {
        inp.geometry(v);
    });
    match assembly {
        AssemblyMode::Stored => {
            let blocks = mass::kinematic_blocks(kin, rule, table, w);
            let reference = mass::reference::kinematic_blocks(kin, rule, table, w);
            assert_eq!(bits(&blocks), bits(&reference), "{workload}: kinematic blocks");
            phase("kinematic_blocks", blocks_bar, &mut |v| {
                if v == BODY {
                    mass::kinematic_blocks(kin, rule, table, w);
                } else {
                    mass::reference::kinematic_blocks(kin, rule, table, w);
                }
            });
            let mv = mass::scatter_kinematic_blocks(kin, &blocks);
            let reference = mass::reference::scatter_kinematic_blocks(kin, &blocks);
            assert_eq!(mv.col_idx(), reference.col_idx(), "{workload}: M_V pattern");
            assert_eq!(bits(mv.values()), bits(reference.values()), "{workload}: M_V");
            phase("scatter", Some(SCATTER_GATE_SPEEDUP), &mut |v| {
                if v == BODY {
                    mass::scatter_kinematic_blocks(kin, &blocks);
                } else {
                    mass::reference::scatter_kinematic_blocks(kin, &blocks);
                }
            });
        }
        AssemblyMode::MatrixFree => {
            let (shape, dofs, n) = (&inp.shape, &inp.zone_dofs, kin.num_dofs());
            let (factors, svals) = (SumfacFactors::for_shape(shape), inp.svals());
            let diag = SumfacMassKernel.diagonal(shape, &factors, &svals, dofs, n);
            let reference = sumfac::reference::diagonal(shape, &factors, &svals, dofs, n);
            assert_eq!(bits(&diag), bits(&reference), "{workload}: matrix-free diagonal");
            phase("matfree_diagonal", None, &mut |v| {
                if v == BODY {
                    SumfacMassKernel.diagonal(shape, &factors, &svals, dofs, n);
                } else {
                    sumfac::reference::diagonal(shape, &factors, &svals, dofs, n);
                }
            });
        }
    }
    let me = mass::assemble_thermodynamic_mass(thermo, rule, thermo_table, w);
    let reference = mass::reference::assemble_thermodynamic_mass(thermo, rule, thermo_table, w);
    for z in 0..me.num_blocks() {
        let (got, want) = (bits(me.block(z)), bits(reference.block(z)));
        assert_eq!(got, want, "{workload}: thermodynamic block {z}");
    }
    phase("thermodynamic_blocks", None, &mut |v| {
        if v == BODY {
            mass::assemble_thermodynamic_mass(thermo, rule, thermo_table, w);
        } else {
            mass::reference::assemble_thermodynamic_mass(thermo, rule, thermo_table, w);
        }
    });
    // The per-block loop the batched kernel replaced, over the blocks as
    // the builder held them before, one matrix each.
    let n = me.block_size();
    let blocks: Vec<DMatrix> =
        (0..me.num_blocks()).map(|z| DMatrix::from_col_major(n, n, me.block(z).to_vec())).collect();
    let reference = || -> Vec<DMatrix> {
        let inverse = |b: &DMatrix| {
            let lu = LuFactors::factor(b);
            assert!(!lu.is_singular(), "singular thermodynamic mass block");
            lu.inverse()
        };
        blocks.iter().map(inverse).collect()
    };
    let inv = me.inverse();
    for (z, want) in reference().iter().enumerate() {
        assert_eq!(bits(inv.block(z)), bits(want.as_slice()), "{workload}: M_E inverse block {z}");
    }
    phase("me_inverse", Some(INVERSE_GATE_SPEEDUP), &mut |v| {
        if v == BODY {
            me.inverse();
        } else {
            reference();
        }
    });
    out
}

/// Every phase of every [`SETUP_WORKLOADS`] row. The caller picks the pool
/// (one thread in `host_kernels`).
pub fn measure(budget: Budget) -> Vec<SetupPhaseResult> {
    let workload = |&(name, dim, order, zones, assembly): &(&'static str, _, _, _, _)| match dim {
        2 => measure_workload::<2>(name, order, zones, assembly, budget),
        _ => measure_workload::<3>(name, order, zones, assembly, budget),
    };
    SETUP_WORKLOADS.iter().flat_map(workload).collect()
}
