//! Ablation studies for the design choices DESIGN.md calls out (beyond the
//! paper's own figures):
//!
//! 1. autotuned vs default kernel parameters across method orders,
//! 2. CPU-only vs GPU-only vs hybrid execution,
//! 3. Hyper-Q queue count (1/2/4/8) on time and power,
//! 4. the SM-utilization power floor (`GpuSpec::sm_util_w`) on the Fig. 15
//!    Q4-vs-Q2 corner-force comparison.

use std::sync::Arc;

use blast_core::{ExecMode, Executor, Hydro, Sedov};
use blast_kernels::k3::CoefGradKernel;
use blast_kernels::k56::BatchedDimGemm;
use blast_kernels::k7::FzKernel;
use blast_kernels::{GemmVariant, ProblemShape};
use gpu_sim::{CpuSpec, GpuDevice, GpuSpec};

use crate::experiments::scenarios::run_steps;
use crate::table;
use gpu_sim::DeviceCatalog;

/// Ablation 1: per-order autotuned parameters vs one-size-fits-all
/// constants. For each order the tuner sweeps the feasible candidate grid;
/// the "fixed" column uses the constant that is optimal at Q2 (what a
/// developer would hard-code without the §3.2.1 autotuner). Returns
/// `(order, kernel, t_fixed, t_tuned, best_param)`.
fn tuned_vs_default() -> Vec<(usize, &'static str, f64, f64, u32)> {
    let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
    let sweep = |times: Vec<(u32, f64)>| -> (u32, f64) {
        times
            .into_iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty sweep")
    };
    let mut rows = Vec::new();
    for order in [2usize, 3, 4] {
        let zones = match order {
            2 => 4096,
            3 => 1000,
            _ => 512,
        };
        let shape = ProblemShape::new(3, order, zones);

        let k3_time = |na: u32| {
            let k = CoefGradKernel { variant: GemmVariant::V3, zones_per_block: na };
            let cfg = k.config(&shape);
            (gpu_sim::occupancy(dev.spec(), &cfg).fraction > 0.0)
                .then(|| dev.model_kernel(&cfg, &k.traffic(&shape)).time_s)
        };
        let fixed = k3_time(CoefGradKernel::tuned().zones_per_block).expect("feasible");
        let (best, t) = sweep(
            [1u32, 2, 4, 8, 16, 32, 64]
                .into_iter()
                .filter_map(|na| k3_time(na).map(|t| (na, t)))
                .collect(),
        );
        rows.push((order, "kernel 3", fixed, t, best));

        let count = shape.total_points();
        let k56_time = |n: u32| {
            let k = BatchedDimGemm { transpose: blast_kernels::k56::Transpose::NN, mats_per_block: n };
            let cfg = k.config(3, count);
            (gpu_sim::occupancy(dev.spec(), &cfg).fraction > 0.0)
                .then(|| dev.model_kernel(&cfg, &k.traffic(3, count)).time_s)
        };
        let fixed = k56_time(BatchedDimGemm::nn_tuned().mats_per_block).expect("feasible");
        let (best, t) = sweep(
            [1u32, 2, 4, 8, 16, 32, 64]
                .into_iter()
                .filter_map(|n| k56_time(n).map(|t| (n, t)))
                .collect(),
        );
        rows.push((order, "kernel 5/6", fixed, t, best));

        let k7_time = |cb: u32| {
            let k = FzKernel { variant: GemmVariant::V3, col_block: cb };
            let cfg = k.config(&shape);
            (gpu_sim::occupancy(dev.spec(), &cfg).fraction > 0.0)
                .then(|| dev.model_kernel(&cfg, &k.traffic(&shape)).time_s)
        };
        let fixed = k7_time(FzKernel::tuned().col_block).expect("feasible");
        let (best, t) = sweep(
            [1u32, 2, 4, 8, 16, 32, 64]
                .into_iter()
                .filter_map(|cb| k7_time(cb).map(|t| (cb, t)))
                .collect(),
        );
        rows.push((order, "kernel 7", fixed, t, best));
    }
    rows
}

/// Ablation 2: CPU vs GPU vs hybrid wall time on the same problem.
fn execution_modes() -> Vec<(&'static str, f64)> {
    let problem = Sedov::default();
    let run = |mode: ExecMode| -> f64 {
        let gpu = matches!(mode, ExecMode::Gpu { .. } | ExecMode::Hybrid { .. })
            .then(|| Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20"))));
        let exec = Executor::new(mode, CpuSpec::e5_2670(), gpu);
        let mut h = Hydro::<2>::builder(&problem, [16, 16]).executor(exec).build()
            .expect("fits");
        let mut s = h.initial_state();
        run_steps(&mut h, &mut s, 4)
    };
    vec![
        ("CPU serial", run(ExecMode::CpuSerial)),
        ("CPU 8 threads", run(ExecMode::CpuParallel { threads: 8 })),
        ("GPU (corner force)", run(ExecMode::Gpu { base: false, gpu_pcg: false, mpi_queues: 8 })),
        ("GPU (+ CUDA-PCG)", run(ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 8 })),
        ("Hybrid (auto-balance)", run(ExecMode::Hybrid { threads: 8 })),
    ]
}

/// Ablation 3: Hyper-Q queue count effect: `(queues, wall_s, gpu_power_w)`.
fn hyperq_sweep() -> Vec<(u32, f64, f64)> {
    let problem = Sedov::default();
    [1u32, 2, 4, 8]
        .into_iter()
        .map(|q| {
            let gpu = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
            let exec = Executor::new(
                ExecMode::Gpu { base: false, gpu_pcg: false, mpi_queues: q },
                CpuSpec::e5_2670(),
                Some(gpu.clone()),
            );
            let mut h = Hydro::<3>::builder(&problem, [6; 3]).executor(exec).build()
                .expect("fits");
            let mut s = h.initial_state();
            let wall = run_steps(&mut h, &mut s, 2);
            let p = gpu.power_trace().mean_active_power();
            (q, wall, p)
        })
        .collect()
}

/// Ablation 4: the SM-utilization power floor on the two Fig. 15
/// corner-force scenarios that diverge from the paper. Returns
/// `(label, q2_8mpi_w, q4_8mpi_w, gap_w)` for the term off (0 W) and on
/// (the K20 preset).
fn sm_util_ablation() -> Vec<(&'static str, f64, f64, f64)> {
    let cf = || ExecMode::Gpu { base: false, gpu_pcg: false, mpi_queues: 8 };
    let power = |spec: GpuSpec| {
        let q2 =
            crate::experiments::fig15_gpu_power::scenario_power_on(2, 8, cf(), true, spec.clone());
        let q4 = crate::experiments::fig15_gpu_power::scenario_power_on(4, 6, cf(), true, spec);
        (q2, q4)
    };
    let (q2_off, q4_off) = power(GpuSpec { sm_util_w: 0.0, ..DeviceCatalog::gpu("k20") });
    let (q2_on, q4_on) = power(DeviceCatalog::gpu("k20"));
    vec![
        ("sm_util_w = 0 (ablated)", q2_off, q4_off, q2_off - q4_off),
        ("sm_util_w = K20 preset", q2_on, q4_on, q2_on - q4_on),
    ]
}

/// Full ablation report.
pub fn report() -> String {
    let mut out = String::new();

    let rows: Vec<Vec<String>> = tuned_vs_default()
        .into_iter()
        .map(|(order, k, fixed, tuned, best)| {
            vec![
                format!("Q{}-Q{}", order, order - 1),
                k.to_string(),
                format!("{:.3} ms", fixed * 1e3),
                format!("{:.3} ms", tuned * 1e3),
                best.to_string(),
                format!("{:.2}x", fixed / tuned),
            ]
        })
        .collect();
    out.push_str(&table::render(
        "Ablation 1 — per-order autotuning vs Q2-tuned fixed parameters",
        &["method", "kernel", "fixed param", "autotuned", "best value", "gain"],
        &rows,
    ));
    out.push('\n');

    let rows: Vec<Vec<String>> = execution_modes()
        .into_iter()
        .map(|(m, t)| vec![m.to_string(), format!("{:.4} s", t)])
        .collect();
    out.push_str(&table::render(
        "Ablation 2 — execution modes (2D Sedov, 16x16 Q2-Q1, 4 steps)",
        &["mode", "wall"],
        &rows,
    ));
    out.push('\n');

    let rows: Vec<Vec<String>> = hyperq_sweep()
        .into_iter()
        .map(|(q, t, p)| vec![q.to_string(), format!("{t:.4} s"), format!("{p:.1} W")])
        .collect();
    out.push_str(&table::render(
        "Ablation 3 — Hyper-Q queue count (3D Sedov, 6^3 Q2-Q1, 2 steps)",
        &["queues", "wall", "GPU power"],
        &rows,
    ));
    out.push('\n');

    let rows: Vec<Vec<String>> = sm_util_ablation()
        .into_iter()
        .map(|(label, q2, q4, gap)| {
            vec![
                label.to_string(),
                format!("{q2:.1} W"),
                format!("{q4:.1} W"),
                format!("{gap:.1} W"),
            ]
        })
        .collect();
    out.push_str(&table::render(
        "Ablation 4 — SM-utilization floor on the Fig. 15 Q4-vs-Q2 divergence (8 MPI)",
        &["energy model", "CF Q2-Q1", "CF Q4-Q3", "Q2 - Q4 gap"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn per_order_tuning_never_loses_and_sometimes_wins() {
        let rows = super::tuned_vs_default();
        for (order, kernel, fixed, tuned, _) in &rows {
            assert!(
                *tuned <= fixed * 1.001,
                "Q{order} {kernel}: autotuned {tuned} worse than fixed {fixed}"
            );
        }
        // The Q2-tuned constants are suboptimal at some other order — the
        // reason the paper re-tunes per order.
        let best_gain = rows.iter().map(|(_, _, f, t, _)| f / t).fold(0.0, f64::max);
        assert!(best_gain > 1.1, "per-order tuning gain only {best_gain}");
        // And the winning parameter differs across orders for some kernel.
        let k3_params: Vec<u32> = rows
            .iter()
            .filter(|(_, k, _, _, _)| *k == "kernel 3")
            .map(|&(_, _, _, _, p)| p)
            .collect();
        let k7_params: Vec<u32> = rows
            .iter()
            .filter(|(_, k, _, _, _)| *k == "kernel 7")
            .map(|&(_, _, _, _, p)| p)
            .collect();
        assert!(
            k3_params.windows(2).any(|w| w[0] != w[1])
                || k7_params.windows(2).any(|w| w[0] != w[1]),
            "optima identical across orders: k3 {k3_params:?}, k7 {k7_params:?}"
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiment: run with --release")]
    fn accelerated_modes_beat_cpu() {
        let modes = super::execution_modes();
        let get = |name: &str| modes.iter().find(|(n, _)| n.contains(name)).unwrap().1;
        assert!(get("CPU 8 threads") < get("CPU serial"));
        assert!(get("GPU (corner force)") < get("CPU 8 threads"));
        assert!(get("Hybrid") < get("CPU 8 threads"));
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiment: run with --release")]
    fn sm_util_floor_narrows_the_q4_gap() {
        let rows = super::sm_util_ablation();
        let (_, _, _, gap_off) = rows[0];
        let (_, q2_on, q4_on, gap_on) = rows[1];
        // The floor must narrow (not widen) the Q4-vs-Q2 divergence, and
        // the residual with the preset value stays under 40 W.
        assert!(gap_on < gap_off, "sm_util_w widened the gap: {gap_on} !< {gap_off}");
        assert!(gap_on < 40.0, "residual gap {gap_on:.1} W regressed past 40 W");
        for w in [q2_on, q4_on] {
            assert!((50.0..=225.0).contains(&w), "power {w} W outside the K20 envelope");
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiment: run with --release")]
    fn hyperq_fills_and_heats_the_device() {
        let sweep = super::hyperq_sweep();
        let (q1, t1, p1) = sweep[0];
        let (q8, t8, p8) = sweep[3];
        assert_eq!((q1, q8), (1, 8));
        assert!(t8 <= t1 * 1.001, "sharing should not slow the work: {t8} vs {t1}");
        assert!(p8 > p1, "queue power overhead missing: {p8} vs {p1}");
    }
}
