//! Table 5 — CUDA + OpenMP auto-balance: fraction of zones assigned to the
//! GPU and periods to convergence on a six-core Westmere + C2050 node.
//!
//! Paper: 2D Sedov 75% in 14 periods; 2D triple point 77% in 12 periods.

use std::sync::Arc;

use blast_core::{ExecMode, Executor, Hydro, Sedov, TriplePoint};
use gpu_sim::{CpuSpec, GpuDevice, GpuSpec};

use crate::table;

fn westmere_fermi_exec() -> Executor {
    let dev = Arc::new(GpuDevice::new(GpuSpec::c2050()));
    Executor::new(ExecMode::Hybrid { threads: 6 }, CpuSpec::x5660(), Some(dev))
}

/// Runs each problem in hybrid mode until the balancer converges; returns
/// `(problem, optimal ratio, convergence periods)`.
pub fn measure() -> Vec<(String, f64, usize)> {
    let mut out = Vec::new();

    let sedov = Sedov::default();
    let mut h = Hydro::<2>::builder(&sedov, [16, 16])
        .executor(westmere_fermi_exec())
        .build()
        .expect("fits");
    let mut s = h.initial_state();
    let mut dt = h.suggest_dt(&s);
    for _ in 0..40 {
        let o = h.step(&mut s, dt);
        dt = o.dt_next();
        if h.executor().balancer.as_ref().expect("hybrid").is_converged() {
            break;
        }
    }
    let bal = h.executor().balancer.as_ref().expect("hybrid");
    out.push((
        "2D: Sedov".to_string(),
        bal.ratio(),
        bal.convergence_periods().unwrap_or(bal.periods()),
    ));

    let tp = TriplePoint::default();
    let mut h = Hydro::<2>::builder(&tp, [21, 9])
        .executor(westmere_fermi_exec())
        .build()
        .expect("fits");
    let mut s = h.initial_state();
    let mut dt = h.suggest_dt(&s);
    for _ in 0..40 {
        let o = h.step(&mut s, dt);
        dt = o.dt_next();
        if h.executor().balancer.as_ref().expect("hybrid").is_converged() {
            break;
        }
    }
    let bal = h.executor().balancer.as_ref().expect("hybrid");
    out.push((
        "2D: Triple-pt".to_string(),
        bal.ratio(),
        bal.convergence_periods().unwrap_or(bal.periods()),
    ));
    out
}

/// Regenerates Table 5.
pub fn report() -> String {
    let rows: Vec<Vec<String>> = measure()
        .into_iter()
        .map(|(p, r, n)| vec![p, table::pct(r), n.to_string()])
        .collect();
    let mut out = table::render(
        "Table 5 — auto-balance on X5660 (6 cores) + C2050",
        &["problem", "optimal ratio (GPU)", "convergence periods"],
        &rows,
    );
    out.push_str("\nPaper: Sedov 75% in 14 periods; triple-pt 77% in 12 periods.\n");
    out
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiment: run with --release")]
    fn ratios_and_periods_in_table5_regime() {
        for (name, ratio, periods) in super::measure() {
            assert!(
                ratio > 0.6 && ratio < 0.95,
                "{name}: ratio {ratio} outside the GPU-favoured regime"
            );
            assert!(
                (4..=30).contains(&periods),
                "{name}: {periods} periods outside Table 5's order of magnitude"
            );
        }
    }
}
