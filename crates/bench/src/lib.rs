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
//! Every experiment is one [`harness::Experiment`]: typed blocks and named
//! gates, the paper relations its rows must keep. Most report *simulated
//! device* times (`DESIGN.md` §1); a full `paper_report` writes those into
//! `BENCH_paper.json` and exits non-zero on a failed gate. The gate bins are
//! each `harness::main` of one experiment; `--smoke` selects the CI budget
//! of the wall-clock ones, which write their own `BENCH_*.json`.

pub mod experiments;
pub mod harness;

#[cfg(test)]
mod tests {
    use crate::experiments::EXPERIMENTS;

    /// Every simulated-clock experiment (no artifact of its own: a member of
    /// `BENCH_paper.json`) keeps its paper relations, its gates, under the
    /// budget `paper_report` runs (the wall-clock gate bins' experiments
    /// have tests of their own).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiments: run with --release")]
    fn every_modeled_experiment_keeps_its_gates() {
        for exp in EXPERIMENTS.iter().filter(|e| e.artifact.is_none()) {
            println!("{}", exp.name);
            crate::harness::assert_gates_hold(&(exp.run)(false), &[]);
        }
    }

    /// The registry holds exactly the paper's artifacts (Figs. 1-8, 11-16,
    /// Tables 1, 3-7) among its `fig` / `tab` entries, every module that
    /// declares an experiment, each once; and every bin is `paper_report`,
    /// `trace_smoke` or `harness::main` of the registered experiment it is
    /// named after.
    #[test]
    fn all_experiments_are_registered() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let artifact = |n: &&str| n.starts_with("fig") || n.starts_with("tab");
        let paper: Vec<&str> = names.iter().copied().filter(artifact).collect();
        let figs = (1..=8).chain(11..=16).map(|n| format!("fig{n:02}_"));
        let tabs = [1, 3, 4, 5, 6, 7].map(|n| format!("tab{n}_"));
        let want: Vec<String> = figs.chain(tabs).collect();
        assert_eq!(paper.len(), want.len(), "the paper artifacts registered: {paper:?}");
        for w in &want {
            let hits = paper.iter().filter(|n| n.starts_with(w.as_str())).count();
            assert_eq!(hits, 1, "{w}* among the registered artifacts {paper:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "an experiment is registered twice");

        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let read = |path: std::path::PathBuf| std::fs::read_to_string(path).unwrap();
        for module in std::fs::read_dir(src.join("experiments")).unwrap() {
            let path = module.unwrap().path();
            let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
            let declares = read(path).contains("pub const EXPERIMENT: Experiment");
            assert_eq!(declares, names.contains(&&*stem), "module {stem} vs EXPERIMENTS");
        }
        for bin in std::fs::read_dir(src.join("bin")).unwrap() {
            let path = bin.unwrap().path();
            let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
            if stem == "paper_report" || stem == "trace_smoke" {
                continue;
            }
            let main = format!("harness::main(&blast_bench::experiments::{stem}::EXPERIMENT)");
            assert!(read(path).contains(&main), "bin {stem} is not `{main}`");
            assert!(names.contains(&&*stem), "bin {stem} is not in EXPERIMENTS");
        }
    }
}
