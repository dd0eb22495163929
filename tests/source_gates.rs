//! Contracts on the source tree itself: what a PR deleted on purpose stays
//! deleted, and what exists once stays single. Each test reads the checked-in
//! files; its doc comment is the reason the contract exists.

use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Every readable file under the repository-relative directories `dirs`, as
/// `(relative path, text)`, in path order; build output and this file are
/// skipped.
fn files_under(dirs: &[&str]) -> Vec<(String, String)> {
    fn walk(rel: &str, out: &mut Vec<(String, String)>) {
        let entries = std::fs::read_dir(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        let mut names: Vec<String> =
            entries.map(|e| e.unwrap().file_name().into_string().unwrap()).collect();
        names.sort();
        for name in names {
            let child = format!("{rel}/{name}");
            if root().join(&child).is_dir() {
                if name != "target" {
                    walk(&child, out);
                }
            } else if let Ok(text) = std::fs::read_to_string(root().join(&child)) {
                out.push((child, text));
            }
        }
    }
    let mut out = Vec::new();
    dirs.iter().for_each(|dir| walk(dir, &mut out));
    out.retain(|(path, _)| path != "tests/source_gates.rs");
    out
}

/// The whole tree a PR may touch outside `benchmark/`.
const TREE: [&str; 4] = ["crates", "src", "tests", "examples"];

/// `path:line: text` of every line of `files` that `hit` accepts.
fn lines_where(files: &[(String, String)], hit: impl Fn(&str) -> bool) -> Vec<String> {
    files
        .iter()
        .flat_map(|(path, text)| {
            text.lines()
                .enumerate()
                .filter(|(_, l)| hit(l))
                .map(move |(i, l)| format!("{path}:{}: {l}", i + 1))
        })
        .collect()
}

/// `text` up to its unit-test module.
fn non_test(text: &str) -> &str {
    text.find("#[cfg(test)]").map_or(text, |at| &text[..at])
}

/// `text` without the top-level item that starts at the line beginning with
/// `start` and ends at the next line beginning with `}`.
fn without_item(text: &str, start: &str) -> String {
    let mut inside = false;
    let mut found = false;
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| {
            inside |= l.starts_with(start);
            found |= inside;
            let keep = !inside;
            inside &= !l.starts_with('}');
            keep
        })
        .collect();
    assert!(found, "no item starts with '{start}'");
    kept.join("\n")
}

/// Superseded entry points are deleted in the PR that supersedes them, not
/// parked behind `#[deprecated]` with a parity test.
#[test]
fn no_deprecated_api_kept_alive() {
    let hits = lines_where(&files_under(&TREE), |l| {
        l.contains("#[deprecated") || l.contains("allow(deprecated)")
    });
    assert!(hits.is_empty(), "{hits:#?}");
}

/// Kernel configuration and fault-tolerance state travel as values the
/// solver owns (`TileConfig`, `PcgOptions`, `Abft`): two solvers in one
/// process must not see each other's settings, so the numeric crates hold
/// no lockable or atomic `static`, and the installers PR 15 deleted stay gone.
/// The one write-once `static` is the SIMD level of `blast-la`, a fact about
/// the host that no solver sets. (The `thread_local!` `RefCell` scratches of
/// `la/src/abft.rs` and `kernels/src/sumfac.rs` are per-thread buffers, not
/// configuration, and match neither pattern.)
#[test]
fn no_process_global_kernel_state() {
    let numeric = files_under(&[
        "crates/la/src",
        "crates/kernels/src",
        "crates/autotune/src",
        "crates/core/src",
    ]);
    let statics_of = |types: &[&str]| {
        lines_where(&numeric, |l| {
            l.find("static ").is_some_and(|at| types.iter().any(|t| l[at..].contains(t)))
        })
    };
    let statics = statics_of(&["Atomic", "Mutex", "RwLock"]);
    assert!(statics.is_empty(), "{statics:#?}");
    let once = statics_of(&["OnceLock", "LazyLock"]);
    assert!(
        once.len() == 1 && once[0].starts_with("crates/la/src/simd.rs:"),
        "the level in la/src/simd.rs is the only write-once static: {once:#?}"
    );
    let installers = lines_where(&files_under(&TREE), |l| {
        l.contains("set_active_tile_index") || l.contains("set_active_stream_index")
    });
    assert!(installers.is_empty(), "{installers:#?}");
}

/// The PCG iteration lives in `blast_la::pcg`, once (plus the scalar oracle
/// the tests compare against), at any number of lock-step systems; kernel 9
/// bills its sweeps and computes none; `la` records no telemetry (the solver
/// counts its solves); and the solver reaches the solve entry points from
/// one function only.
#[test]
fn one_pcg_loop() {
    let k9 = read("crates/kernels/src/k9.rs");
    assert!(!non_test(&k9).contains("stream::"), "kernel 9 runs a streaming sweep of its own");
    assert!(!read("crates/la/Cargo.toml").contains("blast-telemetry"), "la depends on telemetry");
    let pcg = read("crates/la/src/pcg.rs");
    let loops = without_item(non_test(&pcg), "pub fn pcg_solve_ws_reference")
        .matches("for iter in 1..=")
        .count();
    assert_eq!(loops, 1, "the PCG iteration must exist once beside its oracle");

    // Functions of the force module that call a solve entry point:
    // `pcg_solve_*(`, turbofish allowed, or `.solve_ws(`.
    let calls_a_solve = |line: &str| {
        line.contains(".solve_ws(")
            || line.match_indices("pcg_solve_").any(|(at, _)| {
                let rest =
                    line[at..].trim_start_matches(|c: char| c.is_ascii_lowercase() || c == '_');
                let rest = rest
                    .strip_prefix("::<")
                    .and_then(|r| r.split_once('>'))
                    .map_or(rest, |(_, r)| r);
                rest.starts_with('(')
            })
    };
    let force = read("crates/core/src/solver/force.rs");
    let mut current = "";
    let mut callers = Vec::new();
    for line in non_test(&force).lines() {
        let decl = line.trim_start().trim_start_matches("pub(crate) ").trim_start_matches("pub ");
        if let Some(name) = decl.strip_prefix("fn ") {
            current =
                name.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).next().unwrap();
        }
        if calls_a_solve(line) && !callers.contains(&current) {
            callers.push(current);
        }
    }
    assert_eq!(callers, ["solve_momentum"], "the solve entry points have one caller");
}

/// Kernels 1 and 2 and the matrix-free force share `kernels::point`, whose
/// 3D eigen-solves run in lanes: no kernel calls the scalar `sym_eig3` /
/// `svd3` — they belong to the one point-at-a-time oracle,
/// `point/reference.rs`, which tests and `point_physics` compare against —
/// and `blast_la::eig` holds the Jacobi iteration once beside its own
/// scalar oracle: one lane body for values and for eigenpairs.
#[test]
fn one_per_point_body() {
    let kernels: Vec<(String, String)> = files_under(&["crates/kernels/src"])
        .into_iter()
        .filter(|(path, _)| path != "crates/kernels/src/point/reference.rs")
        .map(|(path, text)| (path, non_test(&text).to_string()))
        .collect();
    let scalar_solves = lines_where(&kernels, |l| l.contains("sym_eig3(") || l.contains("svd3("));
    assert!(scalar_solves.is_empty(), "scalar 3x3 eigen-solve in a kernel: {scalar_solves:#?}");
    let eig = read("crates/la/src/eig.rs");
    let loops = without_item(non_test(&eig), "pub fn sym_eig3(").matches("for _sweep in").count();
    assert_eq!(loops, 1, "the lane Jacobi iteration must exist once beside `sym_eig3`");
}

/// `rayon::Pool::new(width).install(..)` scopes a width to a thread; the
/// process-wide `set_active_threads` stays only as the default-pool shim
/// `benchmark/` calls, and the pool's workers are persistent, not scoped
/// threads spawned per call.
#[test]
fn pool_width_travels_on_a_handle() {
    let outside_the_shim: Vec<(String, String)> = files_under(&TREE)
        .into_iter()
        .filter(|(path, _)| !path.starts_with("crates/shims/rayon/"))
        .collect();
    let setters = lines_where(&outside_the_shim, |l| l.contains("set_active_threads"));
    assert!(setters.is_empty(), "{setters:#?}");
    let scoped =
        lines_where(&files_under(&["crates/shims/rayon/src"]), |l| l.contains("thread::scope"));
    assert!(scoped.is_empty(), "{scoped:#?}");
}

/// The kernel sequence of a force evaluation is written once over a
/// `KernelLauncher`, and the launcher alone decides whether a kernel is a
/// billed device launch or a plain call. So no kernel knows a device (only
/// the launcher module and kernel 9's sweep launcher name `GpuDevice`), each
/// kernel body the `A_z` pipeline and the per-assembly sequence own has one
/// call site, the evaluation has one tail, and the only raw device launches
/// left are the launcher's, kernel 9's, the hybrid envelope and the
/// matrix-free solve's after-the-fact bill. (`exec.rs` names kernels to cost
/// a phase, never to run one, so the force-kernel count reads `solver/`.)
#[test]
fn one_corner_force_pipeline() {
    // Non-test, non-comment lines of `dirs` that `hit` accepts.
    let sites = |dirs: &[&str], hit: &dyn Fn(&str) -> bool| {
        let code: Vec<(String, String)> = files_under(dirs)
            .into_iter()
            .map(|(path, text)| (path, non_test(&text).to_string()))
            .collect();
        lines_where(&code, |l| !l.trim_start().starts_with("//") && hit(l))
    };
    let file_of = |site: &String| site.split(':').next().unwrap().to_string();
    let (kernels, core) = ("crates/kernels/src", "crates/core/src");

    let allowed = ["crates/kernels/src/k9.rs", "crates/kernels/src/launch.rs"];
    let mut device_aware = sites(&[kernels], &|l| l.contains("GpuDevice"));
    device_aware.retain(|site| !allowed.contains(&file_of(site).as_str()));
    assert!(device_aware.is_empty(), "a kernel takes a device: {device_aware:#?}");

    let once: [(&[&str], &str); 5] = [
        (&[kernels, core], "CoefGradKernel::compute("),
        (&[kernels, core], "AzKernel::compute("),
        (&[kernels, core], "FzKernel::compute_with("),
        (&[kernels, "crates/core/src/solver"], "SumfacForceKernel {"),
        (&[core], "ForceEval {"),
    ];
    for (dirs, body) in once {
        let declares = |l: &str| l.contains("struct ") || l.starts_with("impl ");
        let found = sites(dirs, &|l| l.contains(body) && !declares(l));
        assert_eq!(found.len(), 1, "`{body}` must appear once: {found:#?}");
    }
    let raw = sites(&[kernels, core], &|l| {
        ["dev.launch(", "gpu.launch(", "GpuDevice::launch("].iter().any(|c| l.contains(c))
    });
    let force = "crates/core/src/solver/force.rs";
    let files: Vec<String> = raw.iter().map(file_of).collect();
    assert_eq!(files, [allowed[0], allowed[1], force, force], "{raw:#?}");
}

/// `blast-la` detects one SIMD level, caps it with one variable and clones a
/// kernel body for it one way (`la/src/simd.rs`): `tile` and `stream` cannot
/// run in different regimes, so there is one golden table per regime and no
/// mixed case to skip. And a streaming op names its block grid once: the pool
/// and the caller walk the same producer through `walk`, which is the
/// thread-count invariance written as code instead of as twin loops that
/// have to be kept equal by hand.
#[test]
fn one_simd_level_one_grid_walk() {
    let la: Vec<(String, String)> = files_under(&["crates/la/src"])
        .into_iter()
        .filter(|(path, _)| path != "crates/la/src/simd.rs")
        .collect();
    let cloned_elsewhere = lines_where(&la, |l| {
        l.contains("target_feature") || l.contains("is_x86_feature_detected")
    });
    assert!(cloned_elsewhere.is_empty(), "{cloned_elsewhere:#?}");

    let stream = read("crates/la/src/stream.rs");
    let ops = non_test(&stream);
    let decisions: Vec<&str> =
        ops.lines().filter(|l| l.contains("_on_pool(") && !l.contains("fn ")).collect();
    assert_eq!(decisions.len(), 15, "{decisions:#?}");
    for line in decisions {
        let before = &line[..line.find("_on_pool(").unwrap()];
        assert!(
            (before.contains("walk(") || before.contains("walk_sum(")) && !before.contains("if "),
            "a pool decision outside `walk`: {line}"
        );
    }
    let outside_the_oracle = without_item(ops, "pub mod reference");
    for serial in [".chunks(", ".chunks_mut("] {
        assert!(!outside_the_oracle.contains(serial), "`{serial}` beside `walk`");
    }

    let mut everywhere = files_under(&["crates", "src", "tests", "examples", ".github", ".claude"]);
    everywhere.extend(["README.md", "DESIGN.md"].map(|f| (f.to_string(), read(f))));
    let old_caps = lines_where(&everywhere, |l| {
        l.contains("BLAST_TILE_SIMD") || l.contains("BLAST_STREAM_SIMD")
    });
    assert!(old_caps.is_empty(), "{old_caps:#?}");
}

/// The accepted-step protocol — resume or suggest, clamp onto `t_final`,
/// advance, count, write a generation on the policy's cadence from an
/// audited-clean state only, roll back — is `Hydro::{begin, advance,
/// checkpoint_now, rollback}` over a `RunCursor` in `core/src/solver/run.rs`,
/// and every driver (`Hydro::run`, the serve quantum, the cluster rank loop,
/// the fleet pilot) steps through it: no driver outside the solver reaches
/// under the cursor or keeps a cadence of its own, and the 2 % dt growth rule
/// is `StepOutcome::dt_next`, once.
#[test]
fn one_run_driver() {
    let code_under = |dirs: &[&str]| -> Vec<(String, String)> {
        files_under(dirs)
            .into_iter()
            .filter(|(path, _)| !path.contains("/tests/"))
            .map(|(path, text)| (path, non_test(&text).to_string()))
            .collect()
    };
    let core = "crates/core/src";
    let owners = ["crates/core/src/solver/run.rs", "crates/core/src/checkpoint.rs"];
    let under_the_cursor = [
        ".try_resume(",
        ".rollback_to_latest(",
        ".write_checkpoint(",
        ".restore_checkpoint(",
        ".due(",
        "steps_since",
    ];
    let drivers: Vec<(String, String)> = code_under(&["crates", "src", "examples"])
        .into_iter()
        .filter(|(path, _)| !path.starts_with("crates/core/src/"))
        .collect();
    let reached = lines_where(&drivers, |l| under_the_cursor.iter().any(|p| l.contains(p)));
    assert!(reached.is_empty(), "a driver with a run loop of its own: {reached:#?}");

    let beside_the_owners: Vec<(String, String)> = code_under(&[core])
        .into_iter()
        .filter(|(path, _)| !owners.contains(&path.as_str()))
        .collect();
    let second_cadence = lines_where(&beside_the_owners, |l| {
        l.contains(".write_checkpoint(") || l.contains("steps_since")
    });
    assert!(second_cadence.is_empty(), "{second_cadence:#?}");

    let growth = lines_where(&files_under(&TREE), |l| l.contains("dt_est.min(1.02"));
    assert!(
        growth.len() == 1 && growth[0].starts_with("crates/core/src/solver/mod.rs:"),
        "the dt growth rule lives in `StepOutcome::dt_next` only: {growth:#?}"
    );
}
