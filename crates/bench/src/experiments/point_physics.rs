//! point_physics — *measured* nanoseconds per quadrature point of the
//! per-point physics of a 3D force evaluation: kernel 1 (adjugate / det /
//! `σ_min(J)`), kernel 2 (EOS + tensor viscosity) and the whole matrix-free
//! force kernel, each as the host body the solver runs (groups of `W`
//! points, the Jacobi eigen-solves in lock step) against the
//! point-at-a-time scalar body it replaced ([`scalar`]).
//!
//! Two states per shape, because the cost of a Jacobi solve is decided by
//! its input: the initial state (`v = 0` on a Cartesian mesh — every solve
//! passes the convergence test before its first sweep; this is what the
//! end-to-end benchmark's layer probes time) and a mid-run Sedov state
//! (four steps in, where the solves really iterate — this is what a run
//! pays). The gate is on the second: the median over interleaved rounds of
//! the per-round `lanes / scalar` time ratio (the `pcg_streaming` statistic)
//! must be below 1 for all three kernels. Outputs are asserted bit-equal
//! before anything is timed.
//!
//! Part of `host_kernels` (`BENCH_host_kernels.json`, block
//! `point_physics`); single thread like the rest of that artifact.

use std::time::Instant;

use blast_core::{AssemblyMode, ExecMode, Executor, Hydro, RunConfig, Sedov};
use blast_fem::geom::zone_jacobians;
use blast_fem::{quad_points_1d, TensorRule};
use blast_kernels::k1::AdjugateDetKernel;
use blast_kernels::k2::{StressKernel, ZoneConstants};
use blast_kernels::k3::{CoefGradKernel, PointMajorGrads};
use blast_kernels::k56::BatchedDimGemm;
use blast_kernels::sumfac::{SumfacFactors, SumfacForceKernel};
use blast_kernels::{ProblemShape, Workspace};
use blast_la::{BatchedMats, DMatrix};
use gpu_sim::CpuSpec;

/// `(order, zones per axis, label)`: the end-to-end benchmark's two 3D
/// meshes.
pub const POINT_SHAPES: [(usize, usize, &str); 2] = [(3, 5, "Q3 3D 5^3"), (2, 8, "Q2 3D 8^3")];

/// Steps taken before the mid-run state is sampled (the benchmark's 3D
/// workloads time steps 3 to 6 and 3 to 8).
const MID_RUN_STEPS: usize = 4;

/// The three timed bodies, in the order of every `[_; 3]` below.
pub const KERNELS: [&str; 3] = ["k1", "k2", "matfree_force"];

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
    /// Best round of the lock-step body, ns per point, per [`KERNELS`].
    pub lanes_ns: [f64; 3],
    /// Best round of the scalar reference, ns per point.
    pub scalar_ns: [f64; 3],
    /// Median over rounds of the per-round `lanes / scalar` ratio.
    pub ratio: [f64; 3],
}

impl PointPhysicsResult {
    /// Kernels whose median ratio is not below 1 on a gated row.
    pub fn gate_failures(&self) -> Vec<&'static str> {
        let lost = |k: &usize| self.gated && self.ratio[*k] >= 1.0;
        (0..3).filter(lost).map(|k| KERNELS[k]).collect()
    }

    /// One row of the `point_physics` JSON block.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = (0..3)
            .map(|k| {
                format!(
                    "\"{0}_ns\": {1:.2}, \"{0}_scalar_ns\": {2:.2}, \"{0}_ratio\": {3:.4}",
                    KERNELS[k], self.lanes_ns[k], self.scalar_ns[k], self.ratio[k]
                )
            })
            .collect();
        format!(
            "    {{\"label\": \"{}\", \"state\": \"{}\", \"points\": {}, \"gated\": {}, {}}}",
            self.label,
            self.state,
            self.points,
            self.gated,
            cells.join(", ")
        )
    }
}

/// The point-at-a-time bodies the lock-step kernels replaced, through the
/// scalar `svd3` / `sym_eig3`: what a force evaluation ran before, and the
/// oracle the timed outputs are compared against.
pub mod scalar {
    use blast_fem::sumfac::{forward, SumfacScratch};
    use blast_kernels::k2::ZoneConstants;
    use blast_kernels::sumfac::SumfacFactors;
    use blast_kernels::ProblemShape;
    use blast_la::{svd3, sym_eig3, BatchedMats, DMatrix, SmallMat};

    /// Kernel 1 at one point: writes `adj`, returns `(det, σ_min)`.
    fn geometry_at_point(jac: &[f64], adj: &mut [f64]) -> (f64, f64) {
        let j = SmallMat::<3>::from_col_slice(jac);
        j.adjugate().write_col_slice(adj);
        (j.det(), svd3(&j).min_singular())
    }

    /// Kernel 1 over the mesh.
    pub fn k1(jac: &BatchedMats, adj: &mut BatchedMats, det: &mut [f64], hmin: &mut [f64]) {
        for p in 0..det.len() {
            (det[p], hmin[p]) = geometry_at_point(jac.mat(p), adj.mat_mut(p));
        }
    }

    fn smooth_step_01(x: f64, eps: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x >= eps {
            1.0
        } else {
            let y = x / eps;
            y * y * (3.0 - 2.0 * y)
        }
    }

    /// Kernel 2 at one point of zone `z`: writes `sigma`, returns `inv_dt`.
    #[allow(clippy::too_many_arguments)]
    fn stress_at_point(
        consts: &ZoneConstants,
        z: usize,
        order: f64,
        e_pt: f64,
        rho0detj0: f64,
        det: f64,
        hmin: f64,
        grad_v: &[f64],
        jac: &[f64],
        sigma: &mut [f64],
    ) -> f64 {
        let gamma = consts.gamma[z];
        let j0inv = &consts.j0inv_diag[z * 3..(z + 1) * 3];
        let e_val = e_pt.max(0.0);
        let rho = rho0detj0 / det;
        let p_eos = (gamma - 1.0) * rho * e_val;
        let cs = (gamma * (gamma - 1.0) * e_val).sqrt();

        let eps_t = SmallMat::<3>::from_col_slice(grad_v).sym();
        let eig = sym_eig3(&eps_t);
        let (mu, dir) = (eig.values[2], std::array::from_fn(|i| eig.vectors[(i, 2)]));
        let j = SmallMat::<3>::from_col_slice(jac);
        let jpi = SmallMat::<3>::from_fn(|i, c| j[(i, c)] * j0inv[c]);
        let ph = jpi.mul_vec(&dir);
        let h = consts.h0[z] * ph.iter().map(|x| x * x).sum::<f64>().sqrt();
        let mut visc_coeff = 2.0 * rho * h * h * mu.abs();
        let eps_sw = 1e-12;
        visc_coeff += 0.5 * rho * h * cs * (1.0 - smooth_step_01(mu - 2.0 * eps_sw, eps_sw));
        let mut sig = SmallMat::<3>::zeros();
        for i in 0..3 {
            sig[(i, i)] = -p_eos;
        }
        for c in 0..3 {
            for r in 0..3 {
                sig[(r, c)] += visc_coeff * eps_t[(r, c)];
            }
        }
        sig.write_col_slice(sigma);
        let h_min = (hmin / order).max(1e-300);
        cs / h_min + 2.5 * visc_coeff / (rho * h_min * h_min)
    }

    /// Kernel 2 over the mesh (viscosity on).
    #[allow(clippy::too_many_arguments)]
    pub fn k2(
        shape: &ProblemShape,
        e_coeffs: &[f64],
        thermo_vals: &DMatrix,
        grad_v: &BatchedMats,
        jac: &BatchedMats,
        det: &[f64],
        hmin: &[f64],
        rho0detj0: &[f64],
        consts: &ZoneConstants,
        sigma: &mut BatchedMats,
        inv_dt: &mut [f64],
    ) {
        let (npts, nthermo) = (shape.npts, shape.nthermo);
        for p in 0..inv_dt.len() {
            let (z, k) = (p / npts, p % npts);
            let mut e_pt = 0.0;
            for l in 0..nthermo {
                e_pt += e_coeffs[z * nthermo + l] * thermo_vals[(l, k)];
            }
            inv_dt[p] = stress_at_point(
                consts,
                z,
                shape.order as f64,
                e_pt,
                rho0detj0[p],
                det[p],
                hmin[p],
                grad_v.mat(p),
                jac.mat(p),
                sigma.mat_mut(p),
            );
        }
    }

    /// Zone staging of [`matfree_force`], allocated once.
    #[derive(Default)]
    pub struct ForceScratch {
        uz: Vec<f64>,
        tmp: Vec<f64>,
        jac: Vec<f64>,
        gvref: Vec<f64>,
        e_pt: Vec<f64>,
        sf: SumfacScratch,
    }

    /// The `d²` forward gradient transforms of one zone's field `u`, into
    /// the point-major `[k*9 + c + g*3]` batch `out`.
    fn zone_gradients(
        factors: &SumfacFactors,
        u: &[f64],
        num_h1_dofs: usize,
        dofs: &[usize],
        ws: &mut ForceScratch,
        into_jac: bool,
    ) {
        let nkin = dofs.len();
        for c in 0..3 {
            for (m, &dof) in dofs.iter().enumerate() {
                ws.uz[c * nkin + m] = u[c * num_h1_dofs + dof];
            }
        }
        for c in 0..3 {
            for g in 0..3 {
                let comp = &ws.uz[c * nkin..(c + 1) * nkin];
                forward(&factors.kin, 3, comp, Some(g), &mut ws.tmp, &mut ws.sf);
                let out = if into_jac { &mut ws.jac } else { &mut ws.gvref };
                for (k, &t) in ws.tmp.iter().enumerate() {
                    out[k * 9 + c + g * 3] = t;
                }
            }
        }
    }

    /// The matrix-free force kernel over the mesh (viscosity on): the same
    /// sum-factorized transforms, then the kernel 1 / 5 / 2 / 6 chain one
    /// point at a time.
    #[allow(clippy::too_many_arguments)]
    pub fn matfree_force(
        shape: &ProblemShape,
        factors: &SumfacFactors,
        x: &[f64],
        v: &[f64],
        e: &[f64],
        num_h1_dofs: usize,
        zone_dofs: &[usize],
        alpha: &[f64],
        rho0detj0: &[f64],
        consts: &ZoneConstants,
        dsf: &mut BatchedMats,
        detj: &mut [f64],
        inv_dt: &mut [f64],
        ws: &mut ForceScratch,
    ) {
        let (npts, nkin, nthermo) = (shape.npts, shape.nkin, shape.nthermo);
        ws.uz.resize(3 * nkin, 0.0);
        for buf in [&mut ws.tmp, &mut ws.e_pt] {
            buf.resize(npts, 0.0);
        }
        for buf in [&mut ws.jac, &mut ws.gvref] {
            buf.resize(npts * 9, 0.0);
        }
        for z in 0..shape.zones {
            let dofs = &zone_dofs[z * nkin..(z + 1) * nkin];
            zone_gradients(factors, x, num_h1_dofs, dofs, ws, true);
            zone_gradients(factors, v, num_h1_dofs, dofs, ws, false);
            let ez = &e[z * nthermo..(z + 1) * nthermo];
            forward(&factors.thermo, 3, ez, None, &mut ws.e_pt, &mut ws.sf);
            for k in 0..npts {
                let p = z * npts + k;
                let jac_k = &ws.jac[k * 9..(k + 1) * 9];
                let (mut adj, mut gv, mut sig) = ([0.0; 9], [0.0; 9], [0.0; 9]);
                let (det, hmin) = geometry_at_point(jac_k, &mut adj);
                detj[p] = det;
                let inv_det = 1.0 / det;
                for g in 0..3 {
                    for c in 0..3 {
                        let mut acc = 0.0;
                        for t in 0..3 {
                            acc += ws.gvref[k * 9 + c + t * 3] * adj[t + g * 3];
                        }
                        gv[c + g * 3] = acc * inv_det;
                    }
                }
                inv_dt[p] = stress_at_point(
                    consts,
                    z,
                    shape.order as f64,
                    ws.e_pt[k],
                    rho0detj0[p],
                    det,
                    hmin,
                    &gv,
                    jac_k,
                    &mut sig,
                );
                let out = dsf.mat_mut(p);
                for g in 0..3 {
                    for c in 0..3 {
                        let mut acc = 0.0;
                        for t in 0..3 {
                            acc += sig[c + t * 3] * adj[g + t * 3];
                        }
                        out[c + g * 3] = alpha[k] * acc;
                    }
                }
            }
        }
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
    force_ws: scalar::ForceScratch,
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
            force_ws: scalar::ForceScratch::default(),
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
    let Outputs { adj, det, hmin, sigma, inv_dt, dsf, detj, mf_inv_dt, force_ws } = out;
    match (k, lanes) {
        (0, true) => AdjugateDetKernel::compute(shape, &inp.jac, adj, det, hmin),
        (0, false) => scalar::k1(&inp.jac, adj, det, hmin),
        (1, true) => StressKernel { workspace: Workspace::Registers, use_viscosity: true }.compute(
            shape, e, &inp.thermo_vals, grad_v, &inp.jac, det, hmin, rho0detj0, consts, sigma,
            inv_dt,
        ),
        (1, false) => scalar::k2(
            shape, e, &inp.thermo_vals, grad_v, &inp.jac, det, hmin, rho0detj0, consts, sigma,
            inv_dt,
        ),
        (_, true) => SumfacForceKernel { use_viscosity: true }.compute(
            shape, &inp.factors, x, v, e, *num_h1_dofs, zone_dofs, alpha, rho0detj0, consts, dsf,
            detj, mf_inv_dt,
        ),
        (_, false) => scalar::matfree_force(
            shape, &inp.factors, x, v, e, *num_h1_dofs, zone_dofs, alpha, rho0detj0, consts, dsf,
            detj, mf_inv_dt, force_ws,
        ),
    }
}

/// Measures one shape in one state over `rounds` interleaved rounds.
fn measure_state(
    label: &'static str,
    state: &'static str,
    inp: &Inputs,
    rounds: usize,
) -> PointPhysicsResult {
    let n = inp.shape.total_points();
    let (mut lanes, mut reference) = (Outputs::new(n), Outputs::new(n));

    // Warm-up off the clock, and the equivalence the timing rests on.
    let mut grad_v = BatchedMats::zeros(3, 3, n);
    for k in 0..3 {
        run(inp, &grad_v, k, true, &mut lanes);
        if k == 0 {
            let inv_det: Vec<f64> = lanes.det.iter().map(|d| 1.0 / d).collect();
            let k5 = BatchedDimGemm::nn_tuned();
            k5.compute(&inp.grad_v_ref, &lanes.adj, Some(&inv_det), &mut grad_v);
        }
        run(inp, &grad_v, k, false, &mut reference);
    }
    lanes.assert_bits_equal(&reference);

    let mut timed = |k: usize, lanes_side: bool| {
        let out = if lanes_side { &mut lanes } else { &mut reference };
        let t0 = Instant::now();
        run(inp, &grad_v, k, lanes_side, out);
        t0.elapsed().as_secs_f64()
    };
    let (mut lanes_ns, mut scalar_ns) = ([f64::INFINITY; 3], [f64::INFINITY; 3]);
    let mut ratio = [0.0; 3];
    for k in 0..3 {
        let mut ratios: Vec<f64> = (0..rounds)
            .map(|_| {
                let (l, s) = (timed(k, true), timed(k, false));
                lanes_ns[k] = lanes_ns[k].min(l * 1e9 / n as f64);
                scalar_ns[k] = scalar_ns[k].min(s * 1e9 / n as f64);
                l / s
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratio[k] = ratios[rounds / 2];
    }

    PointPhysicsResult {
        label,
        state,
        points: n,
        gated: state == "mid-run",
        lanes_ns,
        scalar_ns,
        ratio,
    }
}

/// Every shape in both states. One thread: the kernels fan out over the
/// pool, the references are serial loops.
pub fn measure(smoke: bool) -> Vec<PointPhysicsResult> {
    let rounds = if smoke { 5 } else { 15 };
    rayon::Pool::new(1).install(|| {
        let mut rows = Vec::new();
        for &(order, zones_per_axis, label) in &POINT_SHAPES {
            for (state, steps) in [("initial", 0), ("mid-run", MID_RUN_STEPS)] {
                let inp = inputs(order, zones_per_axis, steps);
                rows.push(measure_state(label, state, &inp, rounds));
            }
        }
        rows
    })
}
