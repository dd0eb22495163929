//! point_physics — *measured* nanoseconds per quadrature point of the
//! stress half of a force evaluation, layer by layer: kernel 1
//! (adjugate / det / `σ_min(J)`), kernel 2 (EOS + tensor viscosity) and the
//! whole matrix-free force kernel (groups of `W` points, the eigen-solves
//! in lock step), kernel 3 (both calls, `J` and `∇̂v̂`, on its register
//! tile) and kernels 5 and 6 (the `d x d` products in lane groups), on the
//! end-to-end benchmark's 3D meshes and its 2D one, each as the host body
//! the solver runs against the
//! point-at-a-time body it replaced — `blast_kernels::point::reference`,
//! `k3::reference`, `k56::reference`, the kernel tests' oracles.
//!
//! Two states per shape, because the cost of a Jacobi solve is decided by
//! its input: the initial state (`v = 0` on a Cartesian mesh — every solve
//! passes the convergence test before its first sweep; this is what the
//! end-to-end benchmark's layer probes time) and a mid-run Sedov state
//! (four steps in, where the solves really iterate — this is what a run
//! pays). The gate is on the second: the median per-round `lanes /
//! reference` time ratio must be below 1 for every kernel. Each kernel
//! reads the production pipeline's outputs of the kernels before it, and
//! its outputs are asserted bit-equal to its reference's before anything
//! is timed.
//!
//! Part of `host_kernels` (`BENCH_host_kernels.json`, block
//! `point_physics`); single thread like the rest of that artifact.

use blast_core::{AssemblyMode, ExecMode, Executor, Hydro, RunConfig, Sedov};
use blast_fem::geom::zone_jacobians;
use blast_fem::{quad_points_1d, TensorRule};
use blast_kernels::k1::AdjugateDetKernel;
use blast_kernels::k2::{StressKernel, ZoneConstants};
use blast_kernels::k3::{self, CoefGradKernel, PointMajorGrads};
use blast_kernels::k56::{self, BatchedDimGemm};
use blast_kernels::point::reference;
use blast_kernels::sumfac::{SumfacFactors, SumfacForceKernel};
use blast_kernels::{ProblemShape, Workspace};
use blast_la::{BatchedMats, DMatrix};
use gpu_sim::CpuSpec;

use crate::harness::{self, Budget, Cell, Gate, Timing};

/// `(dim, order, zones per axis, label)`: the end-to-end benchmark's
/// meshes.
pub const POINT_SHAPES: [(usize, usize, usize, &str); 3] =
    [(3, 3, 5, "Q3 3D 5^3"), (3, 2, 8, "Q2 3D 8^3"), (2, 2, 32, "Q2 2D 32^2")];

/// Steps taken before the mid-run state is sampled (the benchmark's 3D
/// workloads time steps 3 to 6 and 3 to 8).
const MID_RUN_STEPS: usize = 4;

/// The timed bodies; variant `2k` of a [`Timing`] is the production body
/// of `KERNELS[k]`, `2k + 1` its reference.
const KERNELS: [&str; 6] = ["k1", "k2", "matfree_force", "k3", "k5", "k6"];

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
                let detail = format!("lanes / reference = {ratio:.2}, need < 1");
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

/// Everything the kernels read, at one solver state.
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
    /// The kinematic gradient tables and kernel 3's copy of them.
    kin_grads: Vec<DMatrix>,
    table: PointMajorGrads,
    /// The production pipeline's intermediates at this state: kernel 3's
    /// `J` and `∇̂v̂`, kernel 1's `adj(J)`, `|J|`, `σ_min(J)` and `1/|J|`,
    /// kernel 5's `∇v`, kernel 2's `σ̂` — what each timed kernel reads.
    jac: BatchedMats,
    grad_v_ref: BatchedMats,
    adj: BatchedMats,
    det: Vec<f64>,
    hmin: Vec<f64>,
    inv_det: Vec<f64>,
    grad_v: BatchedMats,
    sigma: BatchedMats,
}

/// Builds the `D`-dimensional Sedov solver of `(order, zones_per_axis)`,
/// advances it `steps` steps, and rebuilds the kernels' operands at that
/// state through public `fem` / `kernels` constructors.
fn inputs<const D: usize>(order: usize, zones_per_axis: usize, steps: usize) -> Inputs {
    let problem = Sedov::default();
    let exec = Executor::new(ExecMode::CpuSerial, CpuSpec::e5_2670(), None);
    let mut hydro = Hydro::<D>::builder(&problem, [zones_per_axis; D])
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
    let rule = TensorRule::<D>::gauss(quad_points_1d(order));
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
    let zone_dofs = kin.all_zone_dofs().to_vec();
    let h = kin.mesh().zone_size();
    let h_min = h.iter().copied().fold(f64::INFINITY, f64::min);
    let consts = ZoneConstants {
        gamma: vec![1.4; zones],
        h0: vec![h_min / order as f64; zones],
        j0inv_diag: (0..zones).flat_map(|_| h.iter().map(|hd| 1.0 / hd)).collect(),
    };
    let num_h1_dofs = kin.num_dofs();
    let table = PointMajorGrads::from_tables(&kin_table.grads);
    let n = shape.total_points();
    let mut out = Outputs::new(D, n);
    let [jac, grad_v_ref, adj, grad_v, sigma] = [(); 5].map(|_| BatchedMats::zeros(D, D, n));
    let mut inp = Inputs {
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
        kin_grads: kin_table.grads.to_vec(),
        table,
        jac,
        grad_v_ref,
        adj,
        det: vec![0.0; n],
        hmin: vec![0.0; n],
        inv_det: vec![0.0; n],
        grad_v,
        sigma,
    };
    // The pipeline in order (kernels 3, 1, 5, 2), each output handed on.
    run(&inp, 3, true, &mut out);
    (inp.jac, inp.grad_v_ref) = (out.jac.clone(), out.grad_v_ref.clone());
    run(&inp, 0, true, &mut out);
    (inp.adj, inp.det, inp.hmin) = (out.adj.clone(), out.det.clone(), out.hmin.clone());
    inp.inv_det = inp.det.iter().map(|d| 1.0 / d).collect();
    run(&inp, 4, true, &mut out);
    inp.grad_v = out.grad_v.clone();
    run(&inp, 1, true, &mut out);
    inp.sigma = out.sigma.clone();
    inp
}

/// What the kernels write, once for each way of running them.
struct Outputs {
    adj: BatchedMats,
    det: Vec<f64>,
    hmin: Vec<f64>,
    sigma: BatchedMats,
    inv_dt: Vec<f64>,
    dsf: BatchedMats,
    detj: Vec<f64>,
    mf_inv_dt: Vec<f64>,
    jac: BatchedMats,
    grad_v_ref: BatchedMats,
    grad_v: BatchedMats,
    s: BatchedMats,
}

impl Outputs {
    fn new(d: usize, n: usize) -> Self {
        let (mats, vec) = (|| BatchedMats::zeros(d, d, n), || vec![0.0; n]);
        Self {
            adj: mats(),
            det: vec(),
            hmin: vec(),
            sigma: mats(),
            inv_dt: vec(),
            dsf: mats(),
            detj: vec(),
            mf_inv_dt: vec(),
            jac: mats(),
            grad_v_ref: mats(),
            grad_v: mats(),
            s: mats(),
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
            ("k3 jac", self.jac.as_slice(), want.jac.as_slice()),
            ("k3 grad_v_ref", self.grad_v_ref.as_slice(), want.grad_v_ref.as_slice()),
            ("k5 grad_v", self.grad_v.as_slice(), want.grad_v.as_slice()),
            ("k6 s", self.s.as_slice(), want.s.as_slice()),
        ];
        for (what, got, want) in fields {
            assert!(
                got.len() == want.len()
                    && got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()),
                "point_physics: {what} differs from the reference"
            );
        }
    }
}

/// One call of kernel `k` of [`KERNELS`] into `out`: the solver's body, or
/// its reference, on the pipeline intermediates in `inp`.
fn run(inp: &Inputs, k: usize, lanes: bool, out: &mut Outputs) {
    let Inputs { shape, num_h1_dofs, zone_dofs, x, v, e, alpha, rho0detj0, consts, .. } = inp;
    let (grad_v, det, hmin) = (&inp.grad_v, &inp.det, &inp.hmin);
    let Outputs { adj, sigma, inv_dt, dsf, detj, mf_inv_dt, .. } = out;
    let (k5, k6) = (BatchedDimGemm::nn_tuned(), BatchedDimGemm::nt_tuned());
    match (k, lanes) {
        (0, true) => AdjugateDetKernel::compute(shape, &inp.jac, adj, &mut out.det, &mut out.hmin),
        (0, false) => reference::k1(&inp.jac, adj, &mut out.det, &mut out.hmin),
        (1, true) => StressKernel { workspace: Workspace::Registers, use_viscosity: true }.compute(
            shape, e, &inp.thermo_vals, grad_v, &inp.jac, det, hmin, rho0detj0, consts, sigma,
            inv_dt,
        ),
        (1, false) => reference::k2(
            shape, true, e, &inp.thermo_vals, grad_v, &inp.jac, det, hmin, rho0detj0, consts,
            sigma, inv_dt,
        ),
        (2, true) => SumfacForceKernel { use_viscosity: true }.compute(
            shape, &inp.factors, x, v, e, *num_h1_dofs, zone_dofs, alpha, rho0detj0, consts, dsf,
            detj, mf_inv_dt,
        ),
        (2, false) => reference::matfree_force(
            shape, &inp.factors, x, v, e, *num_h1_dofs, zone_dofs, alpha, rho0detj0, consts, dsf,
            detj, mf_inv_dt,
        ),
        (3, true) => {
            let table = &inp.table;
            CoefGradKernel::compute(shape, x, *num_h1_dofs, zone_dofs, table, &mut out.jac);
            CoefGradKernel::compute(shape, v, *num_h1_dofs, zone_dofs, table, &mut out.grad_v_ref);
        }
        (3, false) => {
            let grads = &inp.kin_grads;
            k3::reference(shape, x, *num_h1_dofs, zone_dofs, grads, &mut out.jac);
            k3::reference(shape, v, *num_h1_dofs, zone_dofs, grads, &mut out.grad_v_ref);
        }
        (4, true) => k5.compute(&inp.grad_v_ref, &inp.adj, Some(&inp.inv_det), &mut out.grad_v),
        (4, false) => {
            let inv_det = Some(&inp.inv_det[..]);
            k56::reference(k5.transpose, &inp.grad_v_ref, &inp.adj, inv_det, &mut out.grad_v)
        }
        (_, true) => k6.compute(&inp.sigma, &inp.adj, None, &mut out.s),
        (_, false) => k56::reference(k6.transpose, &inp.sigma, &inp.adj, None, &mut out.s),
    }
}

/// Measures one shape in one state.
fn measure_state(
    label: &'static str,
    state: &'static str,
    inp: &Inputs,
    budget: Budget,
) -> PointPhysicsResult {
    let (d, n) = (inp.shape.dim, inp.shape.total_points());
    let (mut lanes, mut scalar) = (Outputs::new(d, n), Outputs::new(d, n));

    // The equivalence the timing rests on.
    for k in 0..KERNELS.len() {
        run(inp, k, true, &mut lanes);
        run(inp, k, false, &mut scalar);
    }
    lanes.assert_bits_equal(&scalar);

    let t = harness::time_interleaved(2 * KERNELS.len(), budget, &mut |v| {
        let out = if v % 2 == 0 { &mut lanes } else { &mut scalar };
        run(inp, v / 2, v % 2 == 0, out);
    });
    PointPhysicsResult { label, state, points: n, gated: state == "mid-run", t }
}

/// Every shape in both states. The caller pins the pool to one thread: the
/// kernels fan out over it, the references are serial loops.
pub fn measure(budget: Budget) -> Vec<PointPhysicsResult> {
    let mut rows = Vec::new();
    for &(dim, order, zones_per_axis, label) in &POINT_SHAPES {
        for (state, steps) in [("initial", 0), ("mid-run", MID_RUN_STEPS)] {
            let inp = match dim {
                2 => inputs::<2>(order, zones_per_axis, steps),
                _ => inputs::<3>(order, zones_per_axis, steps),
            };
            rows.push(measure_state(label, state, &inp, budget));
        }
    }
    rows
}
