//! Fig. 15 — K20 board power in the six §5.2 scenarios (3D Sedov, domain
//! limited by the Q4-Q3 memory ceiling). "The stable value of the y-axis is
//! more meaningful": we report the mean power over the active kernels.

use blast_core::ExecMode;
use gpu_sim::GpuSpec;

use crate::experiments::scenarios::{run_steps, sedov3d_on};
use crate::table;
use gpu_sim::DeviceCatalog;

/// Runs one scenario and returns the NVML-style mean board power.
///
/// For the corner-force-only scenarios the device is *not saturated* with
/// one MPI rank: between a rank's kernel launches the host runs its CG /
/// integration phases and the board sits at the ~50 W active floor. NVML's
/// per-millisecond sampling averages over those gaps, which is exactly why
/// the paper sees low power for "corner force 1 MPI" and higher power once
/// Hyper-Q interleaves eight ranks' kernels ("1MPI corner force ... has not
/// saturated the GPU, therefore its power is low"). We model the window
/// with a duty cycle `min(1, q/2)` for `q` resident ranks.
fn scenario_power(order: usize, zones_axis: usize, mode: ExecMode, only_cf: bool) -> f64 {
    scenario_power_on(order, zones_axis, mode, only_cf, DeviceCatalog::gpu("k20"))
}

/// `scenario_power` on an explicit spec — exported so the ablation suite
/// can re-run the corner-force scenarios with energy-model terms zeroed.
pub fn scenario_power_on(
    order: usize,
    zones_axis: usize,
    mode: ExecMode,
    only_cf: bool,
    spec: GpuSpec,
) -> f64 {
    let queues = match mode {
        ExecMode::Gpu { mpi_queues, .. } => mpi_queues,
        _ => 1,
    };
    let (mut h, mut s) = sedov3d_on(order, zones_axis, mode, spec);
    run_steps(&mut h, &mut s, 2);
    let dev = h.executor().gpu.as_ref().expect("gpu").clone();
    if only_cf {
        // Mean over the corner-force kernels only (exclude PCG/transfers).
        let cf_kernels = [
            "kernel_PzVz_Phi_F",
            "kernel_CalcAjugate_det",
            "kernel_NN_dgemmBatched",
            "kernel_loop_grad_v",
            "kernel_NT_dgemmBatched",
            "kernel_Phi_sigma_hat_z",
            "kernel_loop_zones",
            "kernel_loop_zones_dv_dt",
            "kernel_loop_quadrature_point",
        ];
        let mut e = 0.0;
        let mut t = 0.0;
        for ev in dev.events() {
            if cf_kernels.contains(&ev.name) {
                e += ev.stats.power_w * ev.stats.time_s;
                t += ev.stats.time_s;
            }
        }
        let p_kernels = e / t;
        let duty = (0.5 * queues as f64).min(1.0);
        duty * p_kernels + (1.0 - duty) * dev.spec().active_floor_w
    } else {
        dev.power_trace().mean_active_power()
    }
}

/// PCG-only power: mean over kernel 9's launches, whichever variant the
/// solver runs (kernel 11 shares the SpMV's name and rides along: two
/// launches a step against hundreds). Uses the paper's 16^3
/// domain — the kinematic system is then large enough that the SpMV fills
/// the device (a small system underfills it and the power drops, which is
/// itself the Fig. 15 saturation effect).
fn pcg_power() -> f64 {
    let (mut h, mut s) =
        sedov3d_on(2, 16, ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 }, DeviceCatalog::gpu("k20"));
    run_steps(&mut h, &mut s, 2);
    let dev = h.executor().gpu.as_ref().expect("gpu").clone();
    let mut e = 0.0;
    let mut t = 0.0;
    for ev in dev.events() {
        if blast_kernels::k9::LAUNCH_NAMES.contains(&ev.name) {
            e += ev.stats.power_w * ev.stats.time_s;
            t += ev.stats.time_s;
        }
    }
    e / t
}

/// The six Fig. 15 scenarios: `(label, mean watts)`.
pub fn measure() -> Vec<(String, f64)> {
    vec![
        (
            "overall, base impl. (1 MPI)".into(),
            scenario_power(2, 12, ExecMode::Gpu { base: true, gpu_pcg: true, mpi_queues: 1 }, false),
        ),
        (
            "overall, optimized (1 MPI)".into(),
            scenario_power(2, 12, ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 }, false),
        ),
        (
            "corner force Q2-Q1 (1 MPI)".into(),
            scenario_power(2, 8, ExecMode::Gpu { base: false, gpu_pcg: false, mpi_queues: 1 }, true),
        ),
        (
            "corner force Q2-Q1 (8 MPI)".into(),
            scenario_power(2, 8, ExecMode::Gpu { base: false, gpu_pcg: false, mpi_queues: 8 }, true),
        ),
        (
            "corner force Q4-Q3 (8 MPI)".into(),
            scenario_power(4, 6, ExecMode::Gpu { base: false, gpu_pcg: false, mpi_queues: 8 }, true),
        ),
        ("CUDA-PCG Q2-Q1 (1 MPI)".into(), pcg_power()),
    ]
}

/// Regenerates Fig. 15.
pub fn report() -> String {
    let data = measure();
    let rows: Vec<Vec<String>> = data
        .iter()
        .map(|(name, w)| vec![name.clone(), format!("{w:.1} W")])
        .collect();
    let mut out = table::render(
        "Fig. 15 — K20 board power by scenario (idle 20 W, startup ~50 W, TDP 225 W)",
        &["scenario", "mean active power"],
        &rows,
    );
    out.push_str(
        "\nPaper's findings reproduced: optimized < base (on-chip memory saves power); \
         8 MPI > 1 MPI (Hyper-Q overhead + higher duty); PCG > corner force at 1 MPI. \
         Residual divergence: the paper measured Q4-Q3 above Q2-Q1 at 8 MPI; with the \
         SM-utilization floor (`GpuSpec::sm_util_w`, charged while the execution units \
         stream from on-chip memories) Q4's corner force closes most of the gap but \
         still sits below Q2's DRAM-heavy mix — see the sm_util ablation and \
         EXPERIMENTS.md for the quantified residual.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiment: run with --release")]
    fn six_scenarios_satisfy_paper_orderings() {
        let d = super::measure();
        let get = |s: &str| d.iter().find(|(n, _)| n.contains(s)).map(|(_, w)| *w).unwrap();
        let base = get("base impl.");
        let opt = get("overall, optimized");
        let cf1 = get("corner force Q2-Q1 (1 MPI)");
        let cf8 = get("corner force Q2-Q1 (8 MPI)");
        let q4 = get("corner force Q4-Q3");
        let pcg = get("CUDA-PCG");

        assert!(opt < base, "optimized {opt} W !< base {base} W");
        let saving = 1.0 - opt / base;
        // Paper: ~10% lower power; our base kernel's spill traffic burns
        // proportionally more (the local-memory energy surcharge), so the
        // modeled saving can reach ~40%.
        assert!(saving > 0.02 && saving < 0.45, "power saving {saving}");
        assert!(cf8 > cf1, "8 MPI {cf8} !> 1 MPI {cf1}");
        // Documented divergence, now bounded: the paper measured Q4-Q3
        // above Q2-Q1; our per-event energy model prices Q4's on-chip
        // streaming below Q2's DRAM-heavy mix. The SM-utilization floor
        // recovers most of the missing issue/scheduler power, so Q4 must
        // clearly exceed the unsaturated 1-MPI level AND sit within 40 W
        // of Q2 at 8 MPI (the gap was ~50 W before the term).
        assert!(q4 > cf1, "Q4-Q3 {q4} !> CF 1 MPI {cf1}");
        assert!(
            cf8 - q4 < 40.0,
            "Q4-Q3 vs Q2-Q1 8-MPI residual gap {:.1} W regressed past 40 W",
            cf8 - q4
        );
        assert!(pcg > cf1, "PCG {pcg} !> CF 1MPI {cf1}");
        // All within the physical envelope.
        for (name, w) in &d {
            assert!(*w >= 50.0 && *w <= 225.0, "{name}: {w} W");
        }
    }
}
