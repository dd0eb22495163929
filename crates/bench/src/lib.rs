//! # blast-bench
//!
//! The benchmark harness: one experiment module per table/figure of the
//! paper's evaluation, each regenerating the corresponding rows/series from
//! the reproduction (workload generation, parameter sweeps, baselines).
//!
//! Run a single artifact:
//!
//! ```text
//! cargo run -p blast-bench --release --bin fig11_speedup
//! ```
//!
//! or everything at once:
//!
//! ```text
//! cargo run -p blast-bench --release --bin paper_report
//! ```
//!
//! Criterion wall-clock benchmarks of the computational cores live in
//! `benches/`; the experiment binaries report *simulated device* times from
//! the calibrated models (see `DESIGN.md` for the substitution rationale).

pub mod experiments;
pub mod table;

/// Whether a bench binary was asked for its reduced CI budget: `--smoke` on
/// the command line or `BLAST_BENCH_SMOKE` set to anything but `0`.
pub fn smoke_requested() -> bool {
    std::env::args().any(|a| a == "--smoke")
        || std::env::var("BLAST_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

/// Paper-vs-measured comparison row for EXPERIMENTS.md.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Metric name.
    pub metric: String,
    /// Value reported by the paper.
    pub paper: String,
    /// Value measured from the reproduction.
    pub measured: String,
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_experiments_are_registered() {
        let names = crate::experiments::all_experiment_names();
        // 20 artifacts: Figs 1-8, 11-16 and Tables 1, 3-7 (+ Fig 2, 3).
        assert!(names.len() >= 19, "only {} experiments registered", names.len());
        assert!(names.contains(&"fig11_speedup"));
        assert!(names.contains(&"tab7_greenup"));
    }
}
