//! Fig. 6 — GPU kernel-time breakdown: base implementation vs the
//! redesigned/optimized one (3D Sedov Q2-Q1, corner force + CUDA-PCG).
//!
//! Paper: in the base code `kernel_loop_quadrature_point` dominates (~65%)
//! with the SpMV at ~30%; after the redesign the same SpMV time becomes
//! ~65% of the (much smaller) total while the replacement kernels take 25%.
//!
//! Both runs are built with `PcgOptions { fused: false, .. }`: the figure
//! reproduces the paper's launch-per-op CUDA-PCG loop, and the fused
//! kernels (which replace `csrMv_ci_kernel` with `fusedCsrMvDot_ci_kernel`
//! in the ledger) have their own experiment, `pcg_streaming`.

use blast_core::{ExecMode, Hydro, HydroConfig, HydroState, Sedov};
use blast_la::PcgOptions;
use gpu_sim::DeviceCatalog;

use crate::experiments::phase_table;
use crate::experiments::scenarios::{build, run_steps};
use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("fig06_kernel_breakdown", run);

/// The device launch ledger `(kernel, seconds, calls)` of 3D Sedov Q2-Q1 on
/// 12^3 zones with the launch-per-op PCG, two steps in, largest first.
fn ledger(base: bool) -> Vec<(&'static str, f64, u64)> {
    let cfg = HydroConfig {
        order: 2,
        pcg: PcgOptions { fused: false, ..Default::default() },
        ..Default::default()
    };
    let mode = ExecMode::Gpu { base, gpu_pcg: true, mpi_queues: 1 };
    let (mut h, mut s): (Hydro<3>, HydroState) =
        build(&Sedov::default(), [12; 3], cfg, mode, DeviceCatalog::gpu("k20"));
    run_steps(&mut h, &mut s, 2);
    let summary = h.executor().gpu.as_ref().expect("gpu").kernel_summary();
    summary.into_iter().map(|(name, t, calls)| (name, t, calls as u64)).collect()
}

/// Both flavors' kernel tables, the total time saved, and the shift of the
/// largest share from the monolith to the SpMV.
fn run(_smoke: bool) -> Report {
    let (base, opt) = (ledger(true), ledger(false));
    let total = |l: &[(&str, f64, u64)]| l.iter().map(|k| k.1).sum::<f64>();
    let (t_base, t_opt) = (total(&base), total(&opt));
    let share = |l: &[(&str, f64, u64)], name: &str| {
        l.iter().find(|k| k.0 == name).map_or(0.0, |k| k.1) / total(l)
    };
    let top = |l: &[(&'static str, f64, u64)]| l.first().map_or("none", |k| k.0);
    let (mono, spmv) = ("kernel_loop_quadrature_point", "csrMv_ci_kernel");
    let (mono_base, mono_opt) = (share(&base, mono), share(&opt, mono));
    let (spmv_base, spmv_opt) = (share(&base, spmv), share(&opt, spmv));
    Report {
        blocks: vec![
            phase_table("base", "Fig. 6 (left) — base implementation kernel times", &base),
            phase_table("optimized", "Fig. 6 (right) — redesigned/optimized kernel times", &opt),
            Block::record(
                "total",
                "total GPU time; paper: ~60% less time to solution, the SpMV's time unchanged \
                 and its share grown because everything else got faster",
                vec![
                    Cell::new("base_ms", t_base * 1e3),
                    Cell::new("optimized_ms", t_opt * 1e3),
                    Cell::pct("saved", 1.0 - t_opt / t_base),
                ],
            ),
        ],
        gates: vec![
            Gate::new(
                "base: the monolith leads",
                top(&base) == mono && mono_base > 0.3,
                format!("top {}, monolith share {mono_base:.3}, need {mono} > 0.3", top(&base)),
            ),
            Gate::new(
                "optimized: the SpMV leads",
                top(&opt) == spmv && mono_opt == 0.0 && spmv_opt > 0.3,
                format!(
                    "top {}, monolith share {mono_opt:.3}, SpMV share {spmv_opt:.3}; need {spmv} \
                     > 0.3 and no monolith",
                    top(&opt)
                ),
            ),
            Gate::new(
                "the SpMV share grows",
                spmv_opt > spmv_base,
                format!("{spmv_base:.3} -> {spmv_opt:.3}"),
            ),
            Gate::new(
                "total GPU time shrinks",
                t_opt < 0.75 * t_base,
                format!("{:.3} ms -> {:.3} ms, need < 0.75x", t_base * 1e3, t_opt * 1e3),
            ),
        ],
    }
}
