//! Shared scenario builders for the application-level experiments.
//!
//! Functional problem sizes are chosen so every experiment runs in seconds
//! on a laptop while the *modeled* device times keep the paper's operand
//! shapes (order, points-per-zone, batching) — see DESIGN.md on the
//! functional/performance split.

use std::sync::Arc;

use blast_core::{
    ExecMode, Executor, Hydro, HydroConfig, HydroState, Problem, Sedov, TriplePoint,
};
use gpu_sim::{CpuSpec, DeviceCatalog, GpuDevice, GpuSpec};

/// The one scenario constructor: `problem` on `zones` with `cfg`, executed
/// in `mode` on the E5-2670 host of §4.2 plus (for GPU / hybrid modes) a
/// fresh simulated device built from `spec`.
pub(crate) fn build<const D: usize>(
    problem: &dyn Problem<D>,
    zones: [usize; D],
    cfg: HydroConfig,
    mode: ExecMode,
    spec: GpuSpec,
) -> (Hydro<D>, HydroState) {
    let needs_gpu = matches!(mode, ExecMode::Gpu { .. } | ExecMode::Hybrid { .. });
    let gpu = needs_gpu.then(|| Arc::new(GpuDevice::new(spec)));
    let hydro = Hydro::<D>::builder(problem, zones)
        .config(cfg)
        .executor(Executor::new(mode, CpuSpec::e5_2670(), gpu))
        .build()
        .expect("scenario fits the device");
    let state = hydro.initial_state();
    (hydro, state)
}

/// 3D Sedov on the E5-2670 + K20 single node of §4.2.
pub fn sedov3d(order: usize, zones_axis: usize, mode: ExecMode) -> (Hydro<3>, HydroState) {
    sedov3d_on(order, zones_axis, mode, DeviceCatalog::gpu("k20"))
}

/// 3D Sedov on an explicit GPU spec — the ablation hook: energy-model
/// terms can be zeroed in `spec` without touching the device presets.
pub fn sedov3d_on(
    order: usize,
    zones_axis: usize,
    mode: ExecMode,
    spec: GpuSpec,
) -> (Hydro<3>, HydroState) {
    let cfg = HydroConfig { order, ..Default::default() };
    build(&Sedov::default(), [zones_axis; 3], cfg, mode, spec)
}

/// 2D Sedov (for the quicker 2D studies).
pub fn sedov2d(order: usize, zones_axis: usize, mode: ExecMode) -> (Hydro<2>, HydroState) {
    let cfg = HydroConfig { order, ..Default::default() };
    build(&Sedov::default(), [zones_axis; 2], cfg, mode, DeviceCatalog::gpu("k20"))
}

/// 2D triple point at a given order; `base_zones` scales the 7x3 domain.
pub fn triple_point(order: usize, base_zones: usize, mode: ExecMode) -> (Hydro<2>, HydroState) {
    triple_point_with_cfl(order, base_zones, mode, HydroConfig::default().cfl)
}

/// 2D triple point with an explicit CFL factor (strong shear on coarse
/// Lagrangian meshes wants a conservative step).
pub fn triple_point_with_cfl(
    order: usize,
    base_zones: usize,
    mode: ExecMode,
    cfl: f64,
) -> (Hydro<2>, HydroState) {
    let cfg = HydroConfig { order, cfl, ..Default::default() };
    let zones = [7 * base_zones, 3 * base_zones];
    build(&TriplePoint::default(), zones, cfg, mode, DeviceCatalog::gpu("k20"))
}

/// Steps a hydro `n` times at a CFL-limited dt; returns the simulated wall
/// time consumed by those steps.
pub fn run_steps<const D: usize>(hydro: &mut Hydro<D>, state: &mut HydroState, n: usize) -> f64 {
    let t0 = hydro.wall_time();
    let mut dt = hydro.suggest_dt(state);
    for _ in 0..n {
        let out = hydro.step(state, dt);
        dt = out.dt_next();
    }
    hydro.wall_time() - t0
}
