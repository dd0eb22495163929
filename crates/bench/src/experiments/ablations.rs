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

use crate::experiments::fig15_gpu_power::scenario_power_on;
use crate::experiments::scenarios::run_steps;
use crate::harness::{Block, Cell, Experiment, Gate, Report};
use gpu_sim::DeviceCatalog;

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("ablations", run);

/// One ablation's table and the relations it must show.
type Part = (Block, Vec<Gate>);

/// Ablation 1: per-order autotuned parameters vs one-size-fits-all
/// constants. For each order the tuner sweeps the feasible candidate grid;
/// the "fixed" column uses the constant that is optimal at Q2 (what a
/// developer would hard-code without the §3.2.1 autotuner).
fn tuning() -> Part {
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
            let k =
                BatchedDimGemm { transpose: blast_kernels::k56::Transpose::NN, mats_per_block: n };
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
    let table = rows.iter().map(|&(order, kernel, fixed, tuned, best)| {
        vec![
            Cell::new("method", format!("Q{}-Q{}", order, order - 1)),
            Cell::new("kernel", kernel),
            Cell::new("fixed_ms", fixed * 1e3),
            Cell::new("autotuned_ms", tuned * 1e3),
            Cell::new("best_value", best as usize),
            Cell::times("gain", fixed / tuned),
        ]
    });
    let losses: Vec<String> =
        rows.iter().filter(|r| r.3 > r.2 * 1.001).map(|r| format!("Q{} {}", r.0, r.1)).collect();
    let best_gain = rows.iter().map(|r| r.2 / r.3).fold(0.0, f64::max);
    let params = |kernel| rows.iter().filter(|r| r.1 == kernel).map(|r| r.4).collect::<Vec<u32>>();
    let (k3, k7) = (params("kernel 3"), params("kernel 7"));
    let varies = |p: &[u32]| p.windows(2).any(|w| w[0] != w[1]);
    let block = Block::table(
        "tuning",
        "Ablation 1 — per-order autotuning vs Q2-tuned fixed parameters",
        table.collect(),
    );
    let gates = vec![
        Gate::new("autotuning never loses", losses.is_empty(), format!("loses at {losses:?}")),
        // The Q2-tuned constants are suboptimal at some other order — the
        // reason the paper re-tunes per order.
        Gate::new(
            "per-order tuning wins somewhere",
            best_gain > 1.1,
            format!("best gain {best_gain:.2}x, need > 1.1x"),
        ),
        Gate::new(
            "the optimum moves with the order",
            varies(&k3) || varies(&k7),
            format!("kernel 3 {k3:?}, kernel 7 {k7:?}"),
        ),
    ];
    (block, gates)
}

/// Ablation 2: CPU vs GPU vs hybrid wall time on the same problem.
fn execution_modes() -> Part {
    let problem = Sedov::default();
    let run = |mode: ExecMode| -> f64 {
        let gpu = matches!(mode, ExecMode::Gpu { .. } | ExecMode::Hybrid { .. })
            .then(|| Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20"))));
        let exec = Executor::new(mode, CpuSpec::e5_2670(), gpu);
        let mut h = Hydro::<2>::builder(&problem, [16, 16]).executor(exec).build().expect("fits");
        let mut s = h.initial_state();
        run_steps(&mut h, &mut s, 4)
    };
    let modes = [
        ("CPU serial", run(ExecMode::CpuSerial)),
        ("CPU 8 threads", run(ExecMode::CpuParallel { threads: 8 })),
        ("GPU (corner force)", run(ExecMode::Gpu { base: false, gpu_pcg: false, mpi_queues: 8 })),
        ("GPU (+ CUDA-PCG)", run(ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 8 })),
        ("Hybrid (auto-balance)", run(ExecMode::Hybrid { threads: 8 })),
    ];
    let [serial, threads, gpu, _, hybrid] = modes.map(|m| m.1);
    let block = Block::table(
        "modes",
        "Ablation 2 — execution modes (2D Sedov, 16x16 Q2-Q1, 4 steps)",
        modes.map(|(mode, t)| vec![Cell::new("mode", mode), Cell::new("wall_s", t)]).into(),
    );
    let gate = Gate::new(
        "accelerated modes beat the CPU",
        threads < serial && gpu < threads && hybrid < threads,
        format!(
            "serial {serial:.4} s, 8 threads {threads:.4} s, GPU {gpu:.4} s, hybrid {hybrid:.4} s"
        ),
    );
    (block, vec![gate])
}

/// Ablation 3: Hyper-Q queue count effect on time and GPU power.
fn hyperq_sweep() -> Part {
    let problem = Sedov::default();
    let sweep = [1u32, 2, 4, 8].map(|q| {
        let gpu = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
        let exec = Executor::new(
            ExecMode::Gpu { base: false, gpu_pcg: false, mpi_queues: q },
            CpuSpec::e5_2670(),
            Some(gpu.clone()),
        );
        let mut h = Hydro::<3>::builder(&problem, [6; 3]).executor(exec).build().expect("fits");
        let mut s = h.initial_state();
        let wall = run_steps(&mut h, &mut s, 2);
        let p = gpu.power_trace().mean_active_power();
        (q, wall, p)
    });
    let rows = sweep.map(|(q, t, p)| {
        vec![Cell::new("queues", q as usize), Cell::new("wall_s", t), Cell::new("gpu_w", p)]
    });
    let ((_, t1, p1), (_, t8, p8)) = (sweep[0], sweep[3]);
    let block = Block::table(
        "hyperq",
        "Ablation 3 — Hyper-Q queue count (3D Sedov, 6^3 Q2-Q1, 2 steps)",
        rows.into(),
    );
    let gate = Gate::new(
        "8 queues fill and heat the device",
        t8 <= t1 * 1.001 && p8 > p1,
        format!("1 queue {t1:.4} s / {p1:.1} W, 8 queues {t8:.4} s / {p8:.1} W"),
    );
    (block, vec![gate])
}

/// Ablation 4: the SM-utilization power floor on the two Fig. 15
/// corner-force scenarios that diverge from the paper, with the term off
/// (0 W) and on (the K20 preset).
fn sm_util_ablation() -> Part {
    let cf = || ExecMode::Gpu { base: false, gpu_pcg: false, mpi_queues: 8 };
    let power = |spec: GpuSpec| {
        (
            scenario_power_on(2, 8, cf(), true, spec.clone()),
            scenario_power_on(4, 6, cf(), true, spec),
        )
    };
    let (q2_off, q4_off) = power(GpuSpec { sm_util_w: 0.0, ..DeviceCatalog::gpu("k20") });
    let (q2_on, q4_on) = power(DeviceCatalog::gpu("k20"));
    let (gap_off, gap_on) = (q2_off - q4_off, q2_on - q4_on);
    let rows =
        [("sm_util_w = 0 (ablated)", q2_off, q4_off), ("sm_util_w = K20 preset", q2_on, q4_on)]
            .map(|(model, q2, q4)| {
                vec![
                    Cell::new("energy_model", model),
                    Cell::new("cf_q2_w", q2),
                    Cell::new("cf_q4_w", q4),
                    Cell::new("gap_w", q2 - q4),
                ]
            });
    let block = Block::table(
        "sm_util",
        "Ablation 4 — SM-utilization floor on the Fig. 15 Q4-vs-Q2 divergence (8 MPI)",
        rows.into(),
    );
    // The floor must narrow (not widen) the Q4-vs-Q2 divergence, and the
    // residual with the preset value stays under 40 W.
    let gate = Gate::new(
        "the SM floor narrows the Q4 gap",
        gap_on < gap_off
            && gap_on < 40.0
            && [q2_on, q4_on].iter().all(|w| (50.0..=225.0).contains(w)),
        format!(
            "gap {gap_off:.1} W -> {gap_on:.1} W (need < 40 W), Q2 {q2_on:.1} W, Q4 {q4_on:.1} W"
        ),
    );
    (block, vec![gate])
}

/// All four ablations.
fn run(_smoke: bool) -> Report {
    let parts = [tuning(), execution_modes(), hyperq_sweep(), sm_util_ablation()];
    let (blocks, gates): (Vec<Block>, Vec<Vec<Gate>>) = parts.into_iter().unzip();
    Report { blocks, gates: gates.concat() }
}

#[cfg(test)]
mod tests {
    use crate::harness::{assert_gates_hold, Report};

    #[test]
    fn per_order_tuning_never_loses_and_sometimes_wins() {
        let (block, gates) = super::tuning();
        assert_gates_hold(&Report { blocks: vec![block], gates }, &[]);
    }
}
