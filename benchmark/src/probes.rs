//! Machine ceilings and layer probes: each layer timed from outside, on
//! operands rebuilt at the workload's shape through public `fem` /
//! `kernels` / `la` constructors.
//!
//! Probe timings are the minimum over [`ROUNDS`] interleaved rounds of the
//! mean of a calibrated number of back-to-back calls.

use std::hint::black_box;
use std::time::Instant;

use blast_repro::blast_core::exec::cg_iteration_traffic_fused;
use blast_repro::blast_core::Hydro;
use blast_repro::blast_fem::geom::zone_jacobians;
use blast_repro::blast_fem::mass::{assemble_kinematic_mass, assemble_thermodynamic_mass};
use blast_repro::blast_fem::{quad_points_1d, sumfac, SumfacScratch, TensorRule};
use blast_repro::blast_kernels::base::{
    compute_az_pipeline_into, MonolithicCornerForce, PipelineScratch,
};
use blast_repro::blast_kernels::k2::ZoneConstants;
use blast_repro::blast_kernels::k7::FzKernel;
use blast_repro::blast_kernels::k8_10::{EnergyRhsKernel, MomentumRhsKernel};
use blast_repro::blast_kernels::sumfac::{SumfacFactors, SumfacForceKernel, SumfacMassKernel};
use blast_repro::blast_la::tile::{self, Op};
use blast_repro::blast_la::{
    pcg_solve_ws, stream, BatchedMats, DiagPrecond, PcgOptions, PcgWorkspace,
};
use blast_repro::blast_telemetry::{names, Telemetry, Track};
use blast_repro::gpu_sim::{CpuDevice, CpuSpec, DeviceCatalog, GpuDevice};
use blast_repro::powermon::CpuPowerState;
use rayon::prelude::*;

use crate::rng::SplitMix64;
use crate::sys;

/// Interleaved rounds every probe's minimum is taken over.
pub const ROUNDS: usize = 5;

/// Wall time one round of a probe is calibrated to.
const ROUND_TARGET_S: f64 = 5e-3;

/// Most calls in a round (bounds what the accounting probes accumulate).
const MAX_CALLS: usize = 1 << 16;

/// The Table-3 `F_z` GEMM shapes `(m, n, k)` — Q1 3D, Q4 2D, Q2 3D, Q3 3D,
/// Q4 3D, the same constants as `blast-bench`'s `host_kernels` — plus a
/// cache-resident 256^3 square.
const PEAK_SHAPES: [(usize, usize, usize); 6] = [
    (24, 1, 8),
    (50, 16, 36),
    (81, 8, 64),
    (192, 27, 125),
    (375, 64, 216),
    (256, 256, 256),
];

struct Probe<'a> {
    body: Box<dyn FnMut() + 'a>,
    calls: usize,
    best_s: f64,
}

/// A set of probes timed in interleaved rounds.
#[derive(Default)]
struct ProbeSet<'a> {
    probes: Vec<Probe<'a>>,
}

impl<'a> ProbeSet<'a> {
    /// Adds a probe; returns its index. One warm-up call grows the probe's
    /// buffers, then the call count is doubled until a round reaches
    /// [`ROUND_TARGET_S`].
    fn add(&mut self, mut body: impl FnMut() + 'a) -> usize {
        body();
        let mut calls = 1usize;
        loop {
            let t = Instant::now();
            for _ in 0..calls {
                body();
            }
            if t.elapsed().as_secs_f64() >= ROUND_TARGET_S || calls >= MAX_CALLS {
                break;
            }
            calls *= 2;
        }
        self.probes.push(Probe {
            body: Box::new(body),
            calls,
            best_s: f64::INFINITY,
        });
        self.probes.len() - 1
    }

    /// Runs the rounds and returns each probe's best per-call seconds, by
    /// index. Consumes the set, which ends the probes' borrows.
    fn run(mut self) -> Vec<f64> {
        for _ in 0..ROUNDS {
            for p in &mut self.probes {
                let t = Instant::now();
                for _ in 0..p.calls {
                    (p.body)();
                }
                p.best_s = p.best_s.min(t.elapsed().as_secs_f64() / p.calls as f64);
            }
        }
        self.probes.iter().map(|p| p.best_s).collect()
    }
}

/// Ceilings measured once per invocation.
#[derive(Clone, Debug)]
pub struct Machine {
    pub triad_gbps: f64,
    pub triad_array_mib: f64,
    pub llc_mib: f64,
    /// Whether the 25 %-of-`MemAvailable` cap shrank the arrays below
    /// four times the last-level cache.
    pub triad_capped: bool,
    pub gemm_peak_gflops: f64,
    pub thread_spawn_us: f64,
}

/// One-thread stream triad `a = b + s c`; bytes are computed as three
/// arrays of eight-byte words (write-allocate traffic not counted).
fn triad() -> (f64, f64, f64, bool) {
    let llc = sys::llc_bytes().max(1 << 20);
    let want = 4 * llc;
    let cap = sys::mem_available_bytes() / 4 / 3;
    let capped = cap > 0 && cap < want;
    let bytes = if capped { cap } else { want };
    let len = (bytes / 8) as usize;
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let mut best = f64::INFINITY;
    for round in 0..3 {
        let s = 1.0 + round as f64;
        let t = Instant::now();
        for ((ai, &bi), &ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        best = best.min(t.elapsed().as_secs_f64());
        black_box(&mut a);
    }
    let mib = |x: u64| x as f64 / (1 << 20) as f64;
    (
        3.0 * 8.0 * len as f64 / best / 1e9,
        mib(8 * len as u64),
        mib(llc),
        capped,
    )
}

fn gemm_peak(rng: &mut SplitMix64) -> f64 {
    let mut set = ProbeSet::default();
    let mut flops = Vec::new();
    for &(m, n, k) in &PEAK_SHAPES {
        let a = rng.vector(m * k);
        let b = rng.vector(n * k);
        let mut c = vec![0.0; m * n];
        set.add(move || {
            tile::gemm(m, n, k, 1.0, &a, Op::N, &b, Op::T, 0.0, &mut c);
            black_box(&mut c);
        });
        flops.push(2.0 * (m * n * k) as f64);
    }
    let secs = set.run();
    flops
        .iter()
        .zip(&secs)
        .map(|(f, s)| f / s / 1e9)
        .fold(0.0, f64::max)
}

fn thread_spawn_us() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let calls = 200;
        let t = Instant::now();
        for _ in 0..calls {
            std::thread::spawn(|| ())
                .join()
                .expect("empty thread cannot panic");
        }
        best = best.min(t.elapsed().as_secs_f64() / calls as f64);
    }
    best * 1e6
}

pub fn machine(rng: &mut SplitMix64) -> Machine {
    let (triad_gbps, triad_array_mib, llc_mib, triad_capped) = triad();
    Machine {
        triad_gbps,
        triad_array_mib,
        llc_mib,
        triad_capped,
        gemm_peak_gflops: gemm_peak(rng),
        thread_spawn_us: thread_spawn_us(),
    }
}

/// Per-call costs of each layer at one workload's shape.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub gemm_gflops: f64,
    pub pcg_us_per_iter: f64,
    /// Computed (not measured) bytes of one fused PCG iteration.
    pub pcg_iter_bytes: f64,
    pub spmv_dot_us: f64,
    pub mass_assembly_ms: f64,
    pub tables_ms: f64,
    pub sumfac_apply_us: f64,
    pub az_pipeline_ms: f64,
    pub az_pipeline_gflops: f64,
    pub fz_ms: f64,
    pub momentum_rhs_ms: f64,
    pub energy_rhs_ms: f64,
    pub sumfac_force_ms: f64,
    pub sumfac_mass_apply_us: f64,
    pub launch_ns: f64,
    pub run_phase_ns: f64,
    pub span_ns: f64,
    pub par_call_us: f64,
}

/// Times every layer on operands of `hydro`'s shape. `hydro` only lends
/// its spaces, shape and initial state; every operand the probes touch is
/// rebuilt here, with random content drawn from `rng`.
pub fn layers<const D: usize>(hydro: &Hydro<D>, rng: &mut SplitMix64) -> Layers {
    let kin = hydro.kin_space();
    let thermo = hydro.thermo_space();
    let shape = *hydro.shape();
    let order = shape.order;
    let (nz, npts, n) = (shape.zones, shape.npts, kin.num_dofs());
    let total = shape.total_points();
    let state = hydro.initial_state();

    // fem: tabulation and mass assembly are set-up work, timed per call.
    let tabulate = || {
        let rule = TensorRule::<D>::gauss(quad_points_1d(order));
        let kin_table = kin.basis().tabulate(&rule.points);
        let thermo_table = thermo.basis().tabulate(&rule.points);
        (rule, kin_table, thermo_table)
    };
    let (rule, kin_table, thermo_table) = tabulate();
    let mut rho0detj0 = vec![0.0; total];
    let mut geom = Vec::new();
    for z in 0..nz {
        zone_jacobians(kin, &kin_table, &state.x, z, &mut geom);
        for k in 0..npts {
            rho0detj0[z * npts + k] = geom[k].det; // Sedov: rho0 = 1
        }
    }
    let mv = assemble_kinematic_mass(kin, &rule, &kin_table, &rho0detj0);
    let precond = DiagPrecond::from_diagonal(&mv.diagonal());
    let zone_dofs: Vec<usize> = (0..nz)
        .flat_map(|z| kin.zone_dofs(z).iter().copied())
        .collect();
    let h = kin.mesh().zone_size();
    let h_min = h.iter().copied().fold(f64::INFINITY, f64::min);
    let consts = ZoneConstants {
        gamma: vec![1.4; nz],
        h0: vec![h_min / order as f64; nz],
        j0inv_diag: (0..nz).flat_map(|_| h.iter().map(|hd| 1.0 / hd)).collect(),
    };
    let factors = SumfacFactors::for_shape(&shape);
    let svals: Vec<f64> = rho0detj0
        .iter()
        .enumerate()
        .map(|(p, r)| rule.weights[p % npts] * r)
        .collect();

    // Seeded operands.
    let (m, nn, k) = (shape.nvdof(), shape.nthermo, npts);
    let gemm_a = rng.vector(m * k * nz);
    let gemm_b = rng.vector(nn * k);
    let pcg_rhs = rng.vector(n);
    let vec_n = rng.vector(n);
    let vel = rng.vector(D * n);
    let zone_u = rng.vector(shape.nkin);

    // Stored-path intermediates the downstream kernels consume.
    let mut pipe = PipelineScratch::new();
    let az_pipeline = |pipe: &mut PipelineScratch| {
        compute_az_pipeline_into(
            &shape,
            &state.x,
            &state.v,
            &state.e,
            n,
            &zone_dofs,
            &kin_table.grads,
            &thermo_table.values,
            &rule.weights,
            &rho0detj0,
            &consts,
            true,
            pipe,
        );
    };
    az_pipeline(&mut pipe);
    let mut fz = BatchedMats::zeros(m, nn, nz);
    FzKernel::compute(&shape, &pipe.az, &thermo_table.values, &mut fz);

    // Accounting-cost probes run empty bodies on devices that carry a
    // telemetry sink, as the solver's executor's do.
    let k7 = FzKernel::tuned();
    let (k7_cfg, k7_traffic) = (k7.config(&shape), k7.traffic(&shape));
    let gpu = GpuDevice::new(DeviceCatalog::gpu("k20"));
    gpu.attach_telemetry(Telemetry::sink());
    let host = CpuDevice::new(CpuSpec::e5_2670());
    host.attach_telemetry(Telemetry::sink());
    let tel = Telemetry::new();
    let items = [0u64; 64];

    // Probe outputs, declared ahead of the set that borrows them.
    let mut gemm_c = vec![0.0; m * nn * nz];
    let mut pcg_ws = PcgWorkspace::new();
    let mut pcg_x = vec![0.0; n];
    let mut pcg_iters = 0usize;
    let mut spmv_y = vec![0.0; n];
    let mut sf_ws = SumfacScratch::new();
    let mut sf_pts = vec![0.0; npts];
    let mut sf_out = vec![0.0; shape.nkin];
    let mut pipe2 = PipelineScratch::new();
    let mut fz2 = BatchedMats::zeros(m, nn, nz);
    let mut mom_rhs = vec![0.0; D * n];
    let mut mom_local = Vec::new();
    let mut rhs_e = vec![0.0; nz * nn];
    let mut dsf = BatchedMats::zeros(D, D, total);
    let mut detj = vec![0.0; total];
    let mut inv_dt = vec![0.0; total];
    let mut mass_y = vec![0.0; n];
    let mut mass_local = Vec::new();

    let mut set = ProbeSet::default();

    let i_tables = set.add(|| {
        black_box(tabulate());
    });
    let i_mass = set.add(|| {
        black_box(assemble_kinematic_mass(kin, &rule, &kin_table, &rho0detj0));
        black_box(assemble_thermodynamic_mass(
            thermo,
            &rule,
            &thermo_table,
            &rho0detj0,
        ));
    });

    let i_gemm = set.add(|| {
        for (az, cz) in gemm_a
            .chunks_exact(m * k)
            .zip(gemm_c.chunks_exact_mut(m * nn))
        {
            tile::gemm(m, nn, k, 1.0, az, Op::N, &gemm_b, Op::T, 0.0, cz);
        }
        black_box(&mut gemm_c);
    });

    let opts = PcgOptions::default();
    let i_pcg = set.add(|| {
        pcg_x.iter_mut().for_each(|x| *x = 0.0);
        let res = pcg_solve_ws(&mut &mv, &precond, &pcg_rhs, &mut pcg_x, &opts, &mut pcg_ws);
        assert!(res.converged, "probe PCG on the mass matrix must converge");
        pcg_iters = res.iterations;
    });
    let i_spmv = set.add(|| {
        black_box(stream::spmv_dot(&mv, &vec_n, &mut spmv_y));
    });

    let i_sumfac = set.add(|| {
        for _ in 0..nz {
            sumfac::forward(&factors.kin, D, &zone_u, None, &mut sf_pts, &mut sf_ws);
            sumfac::backward(&factors.kin, D, &sf_pts, None, 0.0, &mut sf_out, &mut sf_ws);
        }
        black_box(&mut sf_out);
    });

    let i_az = set.add(|| az_pipeline(&mut pipe2));
    let i_fz = set.add(|| FzKernel::compute(&shape, &pipe.az, &thermo_table.values, &mut fz2));
    let i_mom = set.add(|| {
        MomentumRhsKernel::compute_with(&shape, &fz, &zone_dofs, n, &mut mom_rhs, &mut mom_local);
    });
    let i_energy =
        set.add(|| EnergyRhsKernel::compute(&shape, &fz, &vel, &zone_dofs, n, &mut rhs_e));

    let force = SumfacForceKernel {
        use_viscosity: true,
    };
    let i_sf_force = set.add(|| {
        force.compute(
            &shape,
            &factors,
            &state.x,
            &state.v,
            &state.e,
            n,
            &zone_dofs,
            &rule.weights,
            &rho0detj0,
            &consts,
            &mut dsf,
            &mut detj,
            &mut inv_dt,
        );
    });
    let i_sf_mass = set.add(|| {
        SumfacMassKernel.compute_with(
            &shape,
            &factors,
            &svals,
            &zone_dofs,
            n,
            &vec_n,
            &mut mass_y,
            &mut mass_local,
        );
    });

    let i_launch = set.add(|| {
        gpu.launch(FzKernel::NAME, &k7_cfg, &k7_traffic, || ())
            .expect("no fault plan installed");
    });
    let i_phase = set.add(|| {
        host.run_phase(
            names::phases::CORNER_FORCE,
            &k7_traffic,
            1,
            0.15,
            CpuPowerState::Busy,
            || (),
        );
    });

    let i_span = set.add(|| tel.span(Track::Host, names::phases::STEP, 0.0, 1.0));

    let i_par = set.add(|| {
        items.par_iter().for_each(|x| {
            black_box(x);
        });
    });

    let secs = set.run();
    let (ms, us, ns) = (1e3, 1e6, 1e9);
    let s = |i: usize| secs[i];
    let az_flops = MonolithicCornerForce
        .optimized_equivalent_traffic(&shape)
        .flops;
    Layers {
        gemm_gflops: 2.0 * (m * nn * k * nz) as f64 / s(i_gemm) / 1e9,
        pcg_us_per_iter: s(i_pcg) * us / pcg_iters.max(1) as f64,
        pcg_iter_bytes: cg_iteration_traffic_fused(mv.nnz(), n).dram_bytes,
        spmv_dot_us: s(i_spmv) * us,
        mass_assembly_ms: s(i_mass) * ms,
        tables_ms: s(i_tables) * ms,
        sumfac_apply_us: s(i_sumfac) * us,
        az_pipeline_ms: s(i_az) * ms,
        az_pipeline_gflops: az_flops / s(i_az) / 1e9,
        fz_ms: s(i_fz) * ms,
        momentum_rhs_ms: s(i_mom) * ms,
        energy_rhs_ms: s(i_energy) * ms,
        sumfac_force_ms: s(i_sf_force) * ms,
        sumfac_mass_apply_us: s(i_sf_mass) * us,
        launch_ns: s(i_launch) * ns,
        run_phase_ns: s(i_phase) * ns,
        span_ns: s(i_span) * ns,
        par_call_us: s(i_par) * us,
    }
}
