//! # blast-bench
//!
//! The benchmark harness: one experiment module per table/figure of the
//! paper's evaluation, each regenerating the corresponding rows/series from
//! the reproduction (workload generation, parameter sweeps, baselines).
//!
//! Run a single artifact, or everything at once:
//!
//! ```text
//! cargo run -p blast-bench --release --bin paper_report fig11_speedup
//! cargo run -p blast-bench --release --bin paper_report
//! ```
//!
//! Most experiment binaries report *simulated device* times from the
//! calibrated models (see `DESIGN.md` for the substitution rationale). The
//! ones that measure real wall-clock — `host_kernels`, `pcg_streaming`,
//! `matfree_ceiling`, `host_speedup`, and the modeled `fleet_routing` gate —
//! go through [`harness`]: variants timed in interleaved rounds (a table
//! shows the best round, a gate reads the median of the per-round ratios),
//! rows declared once as typed cells and rendered as text and as a
//! `BENCH_*.json` stamped with schema, git revision and machine, and gates
//! declared as named `{name, ok, detail}` results that land in the artifact
//! and set the bin's exit status. `--smoke` selects the reduced CI budget.

pub mod experiments;
pub mod harness;
pub mod table;

#[cfg(test)]
mod tests {
    use crate::experiments::EXPERIMENTS;

    #[test]
    fn all_experiments_are_registered() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        // 20 artifacts: Figs 1-8, 11-16 and Tables 1, 3-7 (+ Fig 2, 3).
        assert!(names.len() >= 19, "only {} experiments registered", names.len());
        assert!(names.contains(&"fig11_speedup") && names.contains(&"tab7_greenup"));
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "an experiment is registered twice");
        // Every registered name is a module, and every bin named after an
        // experiment module is registered.
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let module = |name: &str| src.join("experiments").join(format!("{name}.rs")).is_file();
        for name in &names {
            assert!(module(name), "registered experiment {name} has no module");
        }
        for bin in std::fs::read_dir(src.join("bin")).unwrap() {
            let path = bin.unwrap().path();
            let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
            assert!(!module(&stem) || names.contains(&&*stem), "bin {stem} is not in EXPERIMENTS");
        }
    }
}
