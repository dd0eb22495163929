//! point_physics — *measured* nanoseconds per quadrature point of the
//! per-point physics of a 3D force evaluation: kernel 1 (adjugate / det /
//! `σ_min(J)`), kernel 2 (EOS + tensor viscosity) and the whole matrix-free
//! force kernel, each as the host body the solver runs (groups of `W`
//! points, the Jacobi eigen-solves in lock step) against the
//! point-at-a-time scalar body it replaced
//! (`blast_kernels::point::reference`, the kernel tests' oracle).
//!
//! Two states per shape, because the cost of a Jacobi solve is decided by
//! its input: the initial state (`v = 0` on a Cartesian mesh — every solve
//! passes the convergence test before its first sweep; this is what the
//! end-to-end benchmark's layer probes time) and a mid-run Sedov state
//! (four steps in, where the solves really iterate — this is what a run
//! pays). The gate is on the second: the median per-round `lanes / scalar`
//! time ratio must be below 1 for all three kernels. Outputs are asserted
//! bit-equal before anything is timed.
//!
//! Part of `host_kernels` (`BENCH_host_kernels.json`, block
//! `point_physics`); single thread like the rest of that artifact.

use blast_core::{AssemblyMode, ExecMode, Executor, Hydro, RunConfig, Sedov};
use blast_fem::geom::zone_jacobians;
use blast_fem::{quad_points_1d, TensorRule};
use blast_kernels::k1::AdjugateDetKernel;
use blast_kernels::k2::{StressKernel, ZoneConstants};
use blast_kernels::k3::{CoefGradKernel, PointMajorGrads};
use blast_kernels::k56::BatchedDimGemm;
use blast_kernels::point::reference;
use blast_kernels::sumfac::{SumfacFactors, SumfacForceKernel};
use blast_kernels::{ProblemShape, Workspace};
use blast_la::{BatchedMats, DMatrix};
use gpu_sim::CpuSpec;

use crate::harness::{self, Budget, Cell, Gate, Timing};

/// `(order, zones per axis, label)`: the end-to-end benchmark's two 3D
/// meshes.
pub const POINT_SHAPES: [(usize, usize, &str); 2] = [(3, 5, "Q3 3D 5^3"), (2, 8, "Q2 3D 8^3")];

/// Steps taken before the mid-run state is sampled (the benchmark's 3D
/// workloads time steps 3 to 6 and 3 to 8).
const MID_RUN_STEPS: usize = 4;

/// The three timed bodies; variant `2k` of a [`Timing`] is the lock-step
/// body of `KERNELS[k]`, `2k + 1` its scalar reference.
const KERNELS: [&str; 3] = ["k1", "k2", "matfree_force"];

/// One shape in one state.
#[derive(Clone, Debug)]
pub struct PointPhysicsResult {
    /// Shape label, e.g. `"Q3 3D 5^3"`.
    pub label: &'static str,
    /// `"initial"` or `"mid-run"`.
    pub state: &'static str,
    /// Quadrature points in the mesh.
    pub points: usize,
    /// Mid-run rows carry the gate.
    pub gated: bool,
    /// Seconds per mesh sweep, variants as in `KERNELS`.
    pub t: Timing,
}

impl PointPhysicsResult {
    /// This row's cells; a gated row adds one gate per kernel to `gates`.
    pub fn row(&self, gates: &mut Vec<Gate>) -> Vec<Cell> {
        let mut row = vec![
            Cell::new("label", self.label),
            Cell::new("state", self.state),
            Cell::new("points", self.points),
            Cell::new("gated", self.gated),
        ];
        for (k, name) in KERNELS.iter().enumerate() {
            let ns = |v: usize| self.t.min(v) * 1e9 / self.points as f64;
            let ratio = self.t.median_ratio(&[2 * k], &[2 * k + 1]);
            if self.gated {
                let detail = format!("lock-step / scalar = {ratio:.2}, need < 1");
                let what = format!("point_physics {} {}: {name}", self.label, self.state);
                gates.push(Gate::new(what, ratio < 1.0, detail));
            }
            row.push(Cell::new(format!("{name}_ns"), ns(2 * k)));
            row.push(Cell::new(format!("{name}_scalar_ns"), ns(2 * k + 1)));
            row.push(Cell::times(format!("{name}_ratio"), ratio));
        }
        row
    }
}

/// Everything the three kernels read, at one solver state.
struct Inputs {
    shape: ProblemShape,
    num_h1_dofs: usize,
    zone_dofs: Vec<usize>,
    x: Vec<f64>,
    v: Vec<f64>,
    e: Vec<f64>,
    alpha: Vec<f64>,
    rho0detj0: Vec<f64>,
    consts: ZoneConstants,
    thermo_vals: DMatrix,
    factors: SumfacFactors,
    /// Kernel-3 / kernel-5 outputs at this state (inputs of kernels 1, 2).
    jac: BatchedMats,
    grad_v_ref: BatchedMats,
}

/// Builds the Sedov solver of `(order, zones_per_axis)`, advances it
/// `steps` steps, and rebuilds the kernels' operands at that state through
/// public `fem` / `kernels` constructors.
fn inputs(order: usize, zones_per_axis: usize, steps: usize) -> Inputs {
    let problem = Sedov::default();
    let exec = Executor::new(ExecMode::CpuSerial, CpuSpec::e5_2670(), None);
    let mut hydro = Hydro::<3>::builder(&problem, [zones_per_axis; 3])
        .order(order)
        .assembly(AssemblyMode::Stored)
        .executor(exec)
        .build()
        .expect("the benchmark's Sedov meshes build");
    let initial = hydro.initial_state();
    let mut state = initial.clone();
    if steps > 0 {
        hydro.run(&mut state, RunConfig::to(f64::MAX).max_steps(steps)).expect("Sedov steps");
    }

    let (kin, thermo) = (hydro.kin_space(), hydro.thermo_space());
    let shape = *hydro.shape();
    let (zones, npts) = (shape.zones, shape.npts);
    let rule = TensorRule::<3>::gauss(quad_points_1d(order));
    let kin_table = kin.basis().tabulate(&rule.points);
    let thermo_table = thermo.basis().tabulate(&rule.points);
    // Sedov: rho0 = 1, so the frozen mass factor is |J_0|.
    let mut rho0detj0 = vec![0.0; shape.total_points()];
    let mut geom = Vec::new();
    for z in 0..zones {
        zone_jacobians(kin, &kin_table, &initial.x, z, &mut geom);
        for k in 0..npts {
            rho0detj0[z * npts + k] = geom[k].det;
        }
    }
    let zone_dofs: Vec<usize> = (0..zones).flat_map(|z| kin.zone_dofs(z).iter().copied()).collect();
    let h = kin.mesh().zone_size();
    let h_min = h.iter().copied().fold(f64::INFINITY, f64::min);
    let consts = ZoneConstants {
        gamma: vec![1.4; zones],
        h0: vec![h_min / order as f64; zones],
        j0inv_diag: (0..zones).flat_map(|_| h.iter().map(|hd| 1.0 / hd)).collect(),
    };
    let num_h1_dofs = kin.num_dofs();
    let table = PointMajorGrads::from_tables(&kin_table.grads);
    let mut jac = BatchedMats::zeros(3, 3, shape.total_points());
    let mut grad_v_ref = jac.clone();
    CoefGradKernel::compute(&shape, &state.x, num_h1_dofs, &zone_dofs, &table, &mut jac);
    CoefGradKernel::compute(&shape, &state.v, num_h1_dofs, &zone_dofs, &table, &mut grad_v_ref);
    Inputs {
        shape,
        num_h1_dofs,
        zone_dofs,
        x: state.x,
        v: state.v,
        e: state.e,
        alpha: rule.weights,
        rho0detj0,
        consts,
        thermo_vals: thermo_table.values,
        factors: SumfacFactors::for_shape(&shape),
        jac,
        grad_v_ref,
    }
}

/// What the three kernels write, once for each way of running them.
struct Outputs {
    adj: BatchedMats,
    det: Vec<f64>,
    hmin: Vec<f64>,
    sigma: BatchedMats,
    inv_dt: Vec<f64>,
    dsf: BatchedMats,
    detj: Vec<f64>,
    mf_inv_dt: Vec<f64>,
}

impl Outputs {
    fn new(n: usize) -> Self {
        let (mats, vec) = (|| BatchedMats::zeros(3, 3, n), || vec![0.0; n]);
        Self {
            adj: mats(),
            det: vec(),
            hmin: vec(),
            sigma: mats(),
            inv_dt: vec(),
            dsf: mats(),
            detj: vec(),
            mf_inv_dt: vec(),
        }
    }

    /// Panics unless every field holds the bits `want` holds.
    fn assert_bits_equal(&self, want: &Outputs) {
        let fields = [
            ("k1 adj", self.adj.as_slice(), want.adj.as_slice()),
            ("k1 det", &self.det, &want.det),
            ("k1 hmin", &self.hmin, &want.hmin),
            ("k2 sigma", self.sigma.as_slice(), want.sigma.as_slice()),
            ("k2 inv_dt", &self.inv_dt, &want.inv_dt),
            ("matfree dsf", self.dsf.as_slice(), want.dsf.as_slice()),
            ("matfree detj", &self.detj, &want.detj),
            ("matfree inv_dt", &self.mf_inv_dt, &want.mf_inv_dt),
        ];
        for (what, got, want) in fields {
            assert!(
                got.len() == want.len()
                    && got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()),
                "point_physics: {what} differs from the scalar reference"
            );
        }
    }
}

/// One call of kernel `k` of [`KERNELS`] into `out`: the solver's lock-step
/// body, or the scalar reference. Kernel 2 reads kernel 1's `det` / `hmin`
/// from `out` and `grad_v`, the kernel-5 product of kernel 1's `adj`.
fn run(inp: &Inputs, grad_v: &BatchedMats, k: usize, lanes: bool, out: &mut Outputs) {
    let Inputs { shape, num_h1_dofs, zone_dofs, x, v, e, alpha, rho0detj0, consts, .. } = inp;
    let Outputs { adj, det, hmin, sigma, inv_dt, dsf, detj, mf_inv_dt } = out;
    match (k, lanes) {
        (0, true) => AdjugateDetKernel::compute(shape, &inp.jac, adj, det, hmin),
        (0, false) => reference::k1(&inp.jac, adj, det, hmin),
        (1, true) => StressKernel { workspace: Workspace::Registers, use_viscosity: true }.compute(
            shape, e, &inp.thermo_vals, grad_v, &inp.jac, det, hmin, rho0detj0, consts, sigma,
            inv_dt,
        ),
        (1, false) => reference::k2(
            shape, true, e, &inp.thermo_vals, grad_v, &inp.jac, det, hmin, rho0detj0, consts,
            sigma, inv_dt,
        ),
        (_, true) => SumfacForceKernel { use_viscosity: true }.compute(
            shape, &inp.factors, x, v, e, *num_h1_dofs, zone_dofs, alpha, rho0detj0, consts, dsf,
            detj, mf_inv_dt,
        ),
        (_, false) => reference::matfree_force(
            shape, &inp.factors, x, v, e, *num_h1_dofs, zone_dofs, alpha, rho0detj0, consts, dsf,
            detj, mf_inv_dt,
        ),
    }
}

/// Measures one shape in one state.
fn measure_state(
    label: &'static str,
    state: &'static str,
    inp: &Inputs,
    budget: Budget,
) -> PointPhysicsResult {
    let n = inp.shape.total_points();
    let (mut lanes, mut scalar) = (Outputs::new(n), Outputs::new(n));

    // The equivalence the timing rests on.
    let mut grad_v = BatchedMats::zeros(3, 3, n);
    for k in 0..3 {
        run(inp, &grad_v, k, true, &mut lanes);
        if k == 0 {
            let inv_det: Vec<f64> = lanes.det.iter().map(|d| 1.0 / d).collect();
            let k5 = BatchedDimGemm::nn_tuned();
            k5.compute(&inp.grad_v_ref, &lanes.adj, Some(&inv_det), &mut grad_v);
        }
        run(inp, &grad_v, k, false, &mut scalar);
    }
    lanes.assert_bits_equal(&scalar);

    let t = harness::time_interleaved(6, budget, &mut |v| {
        let out = if v % 2 == 0 { &mut lanes } else { &mut scalar };
        run(inp, &grad_v, v / 2, v % 2 == 0, out);
    });
    PointPhysicsResult { label, state, points: n, gated: state == "mid-run", t }
}

/// Every shape in both states. The caller pins the pool to one thread: the
/// kernels fan out over it, the references are serial loops.
pub fn measure(budget: Budget) -> Vec<PointPhysicsResult> {
    let mut rows = Vec::new();
    for &(order, zones_per_axis, label) in &POINT_SHAPES {
        for (state, steps) in [("initial", 0), ("mid-run", MID_RUN_STEPS)] {
            let inp = inputs(order, zones_per_axis, steps);
            rows.push(measure_state(label, state, &inp, budget));
        }
    }
    rows
}
