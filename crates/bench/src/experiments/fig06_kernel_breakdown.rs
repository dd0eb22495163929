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
use blast_telemetry::{table, PhaseTotal, Track};
use gpu_sim::DeviceCatalog;

use crate::experiments::scenarios::{build, run_steps};

/// 3D Sedov Q2-Q1 on 12^3 zones with the launch-per-op PCG, two steps in.
fn run_unfused(base: bool) -> Hydro<3> {
    let cfg = HydroConfig {
        order: 2,
        pcg: PcgOptions { fused: false, ..Default::default() },
        ..Default::default()
    };
    let mode = ExecMode::Gpu { base, gpu_pcg: true, mpi_queues: 1 };
    let (mut h, mut s): (Hydro<3>, HydroState) =
        build(&Sedov::default(), [12; 3], cfg, mode, DeviceCatalog::gpu("k20"));
    run_steps(&mut h, &mut s, 2);
    h
}

/// `(kernel, share)` lists for base and optimized runs plus the total GPU
/// times.
pub fn measure() -> (Vec<(&'static str, f64)>, Vec<(&'static str, f64)>, f64, f64) {
    let shares = |base: bool| {
        let h = run_unfused(base);
        let dev = h.executor().gpu.as_ref().expect("gpu").clone();
        let summary = dev.kernel_summary();
        let total: f64 = summary.iter().map(|(_, t, _)| t).sum();
        let shares: Vec<(&'static str, f64)> =
            summary.into_iter().map(|(name, t, _)| (name, t / total)).collect();
        (shares, total)
    };
    let (base_shares, base_total) = shares(true);
    let (opt_shares, opt_total) = shares(false);
    (base_shares, opt_shares, base_total, opt_total)
}

/// Per-kernel time table for one run flavor, straight from the device's
/// launch ledger, rendered by the shared telemetry table exporter.
fn kernel_table(title: &str, base: bool) -> String {
    let h = run_unfused(base);
    let dev = h.executor().gpu.as_ref().expect("gpu").clone();
    let totals: Vec<PhaseTotal> = dev
        .kernel_summary()
        .into_iter()
        .map(|(name, seconds, calls)| PhaseTotal {
            track: Track::Gpu,
            name,
            seconds,
            calls: calls as u64,
        })
        .collect();
    table::render_totals(title, &totals)
}

/// Regenerates Fig. 6.
pub fn report() -> String {
    let (_, _, t_base, t_opt) = measure();
    let mut out = kernel_table("Fig. 6 (left) — base implementation kernel times", true);
    out.push('\n');
    out.push_str(&kernel_table("Fig. 6 (right) — redesigned/optimized kernel times", false));
    out.push_str(&format!(
        "\nTotal GPU time: base {:.3} ms -> optimized {:.3} ms ({:.0}% less; paper: ~60% less \
         time to solution). The SpMV's absolute time is unchanged; its share grows because \
         everything else got faster.\n",
        t_base * 1e3,
        t_opt * 1e3,
        100.0 * (1.0 - t_opt / t_base)
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiment: run with --release")]
    fn breakdown_shifts_from_monolith_to_spmv() {
        let (base, opt, t_base, t_opt) = super::measure();
        let share = |list: &[(&'static str, f64)], name: &str| {
            list.iter().find(|(n, _)| *n == name).map(|(_, s)| *s).unwrap_or(0.0)
        };
        // Base: the monolithic kernel is the single largest consumer.
        let mono = share(&base, "kernel_loop_quadrature_point");
        assert!(mono > 0.3, "monolith share {mono}");
        assert_eq!(base[0].0, "kernel_loop_quadrature_point", "top consumer: {:?}", &base[..2]);
        // Optimized: the monolith is gone; SpMV leads.
        assert_eq!(share(&opt, "kernel_loop_quadrature_point"), 0.0);
        let spmv_opt = share(&opt, "csrMv_ci_kernel");
        let spmv_base = share(&base, "csrMv_ci_kernel");
        assert!(spmv_opt > spmv_base, "SpMV share must grow: {spmv_base} -> {spmv_opt}");
        assert!(spmv_opt > 0.3, "optimized SpMV share {spmv_opt}");
        assert_eq!(opt[0].0, "csrMv_ci_kernel", "top consumer: {:?}", &opt[..2]);
        // Total time shrinks substantially.
        assert!(t_opt < 0.75 * t_base, "{t_opt} vs {t_base}");
    }
}
