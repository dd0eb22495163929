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
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    use blast_telemetry::chrome::Json;

    use crate::experiments::EXPERIMENTS;
    use crate::harness::{
        parse_artifact, render_paper_json, Experiment, Report, HEADER_KEYS, PAPER_ARTIFACT,
        PAPER_POOL_WIDTH,
    };

    /// `members`' reports under the budget `paper_report` runs, on a pool of
    /// [`PAPER_POOL_WIDTH`] of their own.
    fn run_members(
        members: impl Iterator<Item = &'static Experiment>,
    ) -> Vec<(&'static Experiment, Report)> {
        let pool = rayon::Pool::new(PAPER_POOL_WIDTH);
        members.map(|e| (e, pool.install(|| (e.run)(false)))).collect()
    }

    /// Every member of `BENCH_paper.json` (no artifact of its own) with its
    /// report, run once for the two release tests that read them.
    fn paper_runs() -> &'static [(&'static Experiment, Report)] {
        static RUNS: OnceLock<Vec<(&'static Experiment, Report)>> = OnceLock::new();
        RUNS.get_or_init(|| run_members(EXPERIMENTS.iter().filter(|e| e.artifact.is_none())))
    }

    /// Every simulated-clock experiment (no artifact of its own: a member of
    /// `BENCH_paper.json`) keeps its paper relations, its gates, under the
    /// budget `paper_report` runs (the wall-clock gate bins' experiments
    /// have tests of their own).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiments: run with --release")]
    fn every_modeled_experiment_keeps_its_gates() {
        for (exp, report) in paper_runs() {
            println!("{}", exp.name);
            crate::harness::assert_gates_hold(report, &[]);
        }
    }

    /// A cell of `BENCH_paper.json` that a fresh run prints differently:
    /// where it is, the committed text and the fresh one.
    type Moved = (String, String, String);

    fn text(value: Option<&Json>) -> String {
        match value {
            None => "(absent)".into(),
            Some(Json::Null) => "null".into(),
            Some(Json::Bool(b)) => b.to_string(),
            Some(Json::Num(x)) => format!("{x}"),
            Some(Json::Str(s)) => s.clone(),
            Some(other) => format!("{other:?}"),
        }
    }

    /// A row's name: its `name` cell, else its string cells in key order,
    /// else its index.
    fn row_label(row: Option<&Json>, at: usize) -> String {
        let Some(Json::Obj(cells)) = row else { return at.to_string() };
        if let Some(name) = cells.get("name").and_then(Json::as_str) {
            return name.to_string();
        }
        let mut keys: Vec<&String> = cells.keys().collect();
        keys.sort();
        let labels: Vec<&str> = keys.iter().filter_map(|k| cells[*k].as_str()).collect();
        if labels.is_empty() {
            at.to_string()
        } else {
            labels.join(" ")
        }
    }

    /// Appends every leaf where `old` and `new` differ, objects walked in
    /// key order and arrays row by row.
    fn diff(at: &str, old: Option<&Json>, new: Option<&Json>, out: &mut Vec<Moved>) {
        match (old, new) {
            (Some(Json::Obj(a)), Some(Json::Obj(b))) => {
                let keys: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
                for k in keys {
                    diff(&format!("{at} {k}"), a.get(k), b.get(k), out);
                }
            }
            (Some(Json::Arr(a)), Some(Json::Arr(b))) => {
                for i in 0..a.len().max(b.len()) {
                    let label = row_label(b.get(i).or(a.get(i)), i);
                    diff(&format!("{at} [{label}]"), a.get(i), b.get(i), out);
                }
            }
            _ if old == new => {}
            _ => out.push((at.to_string(), text(old), text(new))),
        }
    }

    /// The cells of the committed `BENCH_paper.json` that `runs` print
    /// differently, compared as printed (six significant digits, as the
    /// artifact holds them): each run's member, and the header gates named
    /// after those runs. With `whole`, also every committed member and gate
    /// that `runs` do not produce. The header's `git_rev` and `machine` say
    /// which commit and host wrote the file, not what it measured, and are
    /// not compared.
    fn moved_cells(runs: &[(&Experiment, Report)], whole: bool) -> Vec<Moved> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let committed = std::fs::read_to_string(root.join(PAPER_ARTIFACT)).unwrap();
        let committed = parse_artifact(&committed).unwrap();
        let fresh = parse_artifact(&render_paper_json(runs)).unwrap();
        let mut out = Vec::new();
        for key in ["schema", "experiment", "smoke"] {
            diff(key, committed.get(key), fresh.get(key), &mut out);
        }
        let names: Vec<&str> = runs.iter().map(|(e, _)| e.name).collect();
        let Json::Obj(members) = &committed else { panic!("{PAPER_ARTIFACT}: not an object") };
        let unrun = |k: &&String| ![&HEADER_KEYS[..], &names].concat().contains(&k.as_str());
        for name in members.keys().filter(|k| whole && unrun(k)) {
            out.push((name.clone(), "a member".into(), "(absent)".into()));
        }
        for name in &names {
            diff(name, committed.get(name), fresh.get(name), &mut out);
        }
        let ours = |g: &&Json| {
            let name = g.get("name").and_then(Json::as_str).unwrap_or("");
            whole || names.iter().any(|n| name.starts_with(&format!("{n}: ")))
        };
        let gates = |doc: &Json| {
            let all = doc.get("gates").and_then(Json::as_arr).unwrap_or(&[]);
            Json::Arr(all.iter().filter(ours).cloned().collect())
        };
        diff("gates", Some(&gates(&committed)), Some(&gates(&fresh)), &mut out);
        out
    }

    /// Fails listing `moved` in the table form of a re-record in
    /// EXPERIMENTS.md.
    fn assert_nothing_moved(moved: &[Moved]) {
        if moved.is_empty() {
            return;
        }
        let mut table = String::from("| cell | committed | now | sign |\n|---|---|---|---|\n");
        for (cell, old, new) in moved {
            let sign = match (old.parse::<f64>(), new.parse::<f64>()) {
                (Ok(a), Ok(b)) if b > a => "+",
                (Ok(a), Ok(b)) if b < a => "−",
                _ => "≠",
            };
            table.push_str(&format!("| {cell} | {old} | {new} | {sign} |\n"));
        }
        panic!(
            "{} cells of {PAPER_ARTIFACT} moved; after an intended change, regenerate it with \
             `cargo run -p blast-bench --release --bin paper_report` from the repository root \
             and list the cells in CHANGES.md:\n{table}",
            moved.len()
        );
    }

    /// A full `paper_report` run prints the committed `BENCH_paper.json`,
    /// cell for cell and gate for gate: every member is simulated, so a
    /// moved cell is a moved bill, whether or not a gate notices.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "hydro-scale experiments: run with --release")]
    fn the_committed_paper_artifact_is_what_paper_report_prints() {
        assert_nothing_moved(&moved_cells(paper_runs(), true));
    }

    /// The members that run in milliseconds, so that a debug `cargo test`
    /// compares them with the committed file too: the device and host
    /// models behind Figs. 1, 3-5, 7, 8, 12-14 and 16, Tables 3 and 4, and
    /// the telemetry profile.
    #[test]
    fn quick_paper_members_print_the_committed_cells() {
        const QUICK: [&str; 13] = [
            "fig01_perf_per_watt",
            "fig03_zone_dofs",
            "fig04_register_vs_local",
            "fig05_tune_k3",
            "fig07_kernel_variants",
            "fig08_bandwidth",
            "tab3_matrix_shapes",
            "tab4_batched_dgemv",
            "fig12_weak_scaling",
            "fig13_strong_scaling",
            "fig14_cpu_power",
            "fig16_cpu_power_offload",
            "telemetry_profile",
        ];
        let members = QUICK.iter().map(|name| {
            let exp = EXPERIMENTS.iter().find(|e| e.name == *name).expect("registered");
            assert!(exp.artifact.is_none(), "{name} is not a member of {PAPER_ARTIFACT}");
            exp
        });
        assert_nothing_moved(&moved_cells(&run_members(members), false));
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
