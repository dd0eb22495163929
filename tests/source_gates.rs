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

/// `text` split into the top-level item that starts at the line beginning
/// with `start` and ends at the next line beginning with `}`, and the rest.
fn split_item(text: &str, start: &str) -> (String, String) {
    let (mut inside, mut item, mut rest) = (false, Vec::new(), Vec::new());
    for l in text.lines() {
        inside |= l.starts_with(start);
        if inside {
            item.push(l);
        } else {
            rest.push(l);
        }
        inside &= !l.starts_with('}');
    }
    assert!(!item.is_empty(), "no item starts with '{start}'");
    (item.join("\n"), rest.join("\n"))
}

/// `text` without the top-level item that starts at the line beginning with
/// `start` and ends at the next line beginning with `}`.
fn without_item(text: &str, start: &str) -> String {
    split_item(text, start).1
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
/// solver owns (`PcgOptions`, `Abft`): two solvers in one
/// process must not see each other's settings, so the numeric crates hold
/// no lockable or atomic `static`, and the installers PR 15 deleted stay gone.
/// The one write-once `static` is the SIMD level of `blast-la`, a fact about
/// the host that no solver sets. (The `thread_local!` `RefCell` scratches of
/// `la/src/abft.rs`, `kernels/src/sumfac.rs` and `kernels/src/k7.rs` are
/// per-thread buffers, not configuration, and match neither pattern.)
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
/// 2D and 3D eigen-solves run in lanes: no kernel calls the scalar
/// `sym_eig2` / `svd2` / `sym_eig3` / `svd3` — they belong to the one
/// point-at-a-time oracle, `point/reference.rs`, which tests and
/// `point_physics` compare against — and `blast_la::eig` holds the Jacobi
/// iteration once beside its own scalar oracle: one lane body for values
/// and for eigenpairs.
#[test]
fn one_per_point_body() {
    let kernels: Vec<(String, String)> = files_under(&["crates/kernels/src"])
        .into_iter()
        .filter(|(path, _)| path != "crates/kernels/src/point/reference.rs")
        .map(|(path, text)| (path, non_test(&text).to_string()))
        .collect();
    let scalar = ["sym_eig2(", "svd2(", "sym_eig3(", "svd3("];
    let scalar_solves = lines_where(&kernels, |l| scalar.iter().any(|s| l.contains(s)));
    assert!(scalar_solves.is_empty(), "scalar eigen-solve in a kernel: {scalar_solves:#?}");
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
/// the launcher module and kernel 9's sweep log name `GpuDevice`), each
/// kernel body the `A_z` pipeline and the per-assembly sequence own has one
/// call site, the evaluation has one tail, and the only raw device launches
/// left are the launcher's, the hybrid envelope and the matrix-free solve's
/// after-the-fact bill: kernel 9 issues its bill through the launcher.
/// (`exec.rs` names kernels to cost a phase, never to run one, so the
/// force-kernel count reads `solver/`.)
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
        (&[kernels, core], "FzKernel::compute_fused("),
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
    assert_eq!(files, [allowed[1], force, force], "{raw:#?}");
}

/// `blast-la` detects one SIMD level, caps it with one variable and clones a
/// kernel body for it one way (`la/src/simd.rs`), and every clone fuses
/// each multiply-add: the level is throughput only, so there is one golden
/// table, no `FMA` parameter and no branch on a regime (`tile::fma_active`
/// is a constant kept for the benchmark's stamp, read by nothing else). The
/// kernels' clones read the same level, so the cap holds for them too and
/// nothing else in the workspace detects a feature.
/// And a streaming op names its block grid once: the pool
/// and the caller walk the same producer through `walk`, which is the
/// thread-count invariance written as code instead of as twin loops that
/// have to be kept equal by hand.
#[test]
fn one_simd_level_one_grid_walk() {
    let beside_the_level = |dirs: &[&str]| -> Vec<(String, String)> {
        files_under(dirs).into_iter().filter(|(path, _)| path != "crates/la/src/simd.rs").collect()
    };
    let cloned_elsewhere =
        lines_where(&beside_the_level(&["crates/la/src"]), |l| l.contains("target_feature"));
    assert!(cloned_elsewhere.is_empty(), "{cloned_elsewhere:#?}");
    // `blast_kernels::isa` clones too, at the same level: one detection, one
    // cap, workspace-wide.
    let detected_elsewhere =
        lines_where(&beside_the_level(&TREE), |l| l.contains("is_x86_feature_detected"));
    assert!(detected_elsewhere.is_empty(), "{detected_elsewhere:#?}");
    let definition = "pub const fn fma_active() -> bool {";
    let regimes = lines_where(&files_under(&["crates", "tests"]), |l| {
        l.contains("const FMA")
            || l.contains("FMA ||")
            || (l.contains("fma_active") && l.trim() != definition)
    });
    assert!(regimes.is_empty(), "{regimes:#?}");

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

/// Hand-written intrinsics live in one place: `tile::gemm`'s level-2 register
/// tile, the `zmm` module of `la/src/tile.rs`, where LLVM would not keep the
/// accumulators in registers on its own. Every other kernel is a portable
/// body the SIMD level clones, so no other code line names `core::arch` /
/// `std::arch` (feature detection aside, which the gate above pins to
/// `la/src/simd.rs`) or calls an `_mm*` intrinsic. And every `unsafe` block,
/// fn or impl in `crates/la/src` has a `// SAFETY:` comment directly above it
/// (attributes between allowed) that says why it holds.
#[test]
fn intrinsics_in_one_module_each_unsafe_with_its_reason() {
    let intrinsic = ["core::arch", "std::arch", "_mm_", "_mm256_", "_mm512_"];
    let names_an_intrinsic = |l: &str| {
        let code = l.trim_start();
        !code.starts_with("//")
            && !code.contains("is_x86_feature_detected")
            && intrinsic.iter().any(|p| code.contains(p))
    };
    let mut beside = files_under(&TREE);
    for (path, text) in &mut beside {
        if path == "crates/la/src/tile.rs" {
            let (zmm, rest) = split_item(text, "mod zmm");
            assert!(zmm.lines().any(names_an_intrinsic), "the zmm module names no intrinsic");
            *text = rest;
        }
    }
    let hits = lines_where(&beside, names_an_intrinsic);
    assert!(hits.is_empty(), "intrinsics outside `tile::zmm`: {hits:#?}");

    let mut unexplained = Vec::new();
    for (path, text) in files_under(&["crates/la/src"]) {
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let code = line.trim_start();
            let opens = ["unsafe {", "unsafe fn ", "unsafe impl"];
            if code.starts_with("//") || !opens.iter().any(|u| code.contains(u)) {
                continue;
            }
            let explained = lines[..i]
                .iter()
                .rev()
                .map(|l| l.trim_start())
                .skip_while(|l| l.starts_with("#["))
                .take_while(|l| l.starts_with("//") && !l.starts_with("///"))
                .any(|l| l.starts_with("// SAFETY:"));
            if !explained {
                unexplained.push(format!("{path}:{}: {line}", i + 1));
            }
        }
    }
    assert!(unexplained.is_empty(), "`unsafe` without a `// SAFETY:` line: {unexplained:#?}");
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

/// A step attempt's guard is written once in `core/src`: `Hydro::try_advance`
/// names each outcome's redo dt and budget in one arm and restores the
/// pre-step snapshot, counts the redo and loops in one place; one helper
/// lands a planned SDC flip on any of its sites; one audit entry runs and
/// bills the energy reference, the pending audit and the due audit; and the
/// ladder reports every corruption it sees from one line. A new outcome is a
/// new arm, not another hand-copied restore / bill / report block.
#[test]
fn one_step_guard() {
    let core: Vec<(String, String)> = files_under(&["crates/core/src"])
        .into_iter()
        .map(|(path, text)| (path, non_test(&text).to_string()))
        .collect();
    for call in ["restore_saved(", "apply_flip(", ".bill_audit(", "report_corruption("] {
        let sites = lines_where(&core, |l| {
            l.contains(call) && !l.contains("fn ") && !l.trim_start().starts_with("//")
        });
        assert_eq!(sites.len(), 1, "`{call}` must have one call site: {sites:#?}");
    }
}

/// The cluster ranks read one clock, the virtual one of `cluster_sim::comm`:
/// a message arrives at its sender's clock plus the network model's cost and
/// a receive times out at a virtual deadline, so whether a live rank is
/// declared dead depends on the fault seed, never on machine load. No line
/// of `crates/cluster/src`, its unit tests included, reads the wall clock or
/// sleeps.
#[test]
fn cluster_ranks_read_one_clock() {
    let cluster = files_under(&["crates/cluster/src"]);
    let hits = lines_where(&cluster, |l| {
        ["std::time", "Instant", "Duration", "thread::sleep"].iter().any(|w| l.contains(w))
    });
    assert!(hits.is_empty(), "wall-clock time in the rank runtime: {hits:#?}");
}

/// The sum-factorized transforms run at compile-time shapes in one kernel
/// (`blast_la::tensor`, cloned at the one SIMD level), so the general
/// `tile::gemm` chain they replaced survives once, as their bitwise oracle
/// in `fem::sumfac::reference`, not as a second path a caller can reach. The
/// matrix-free momentum solve advances its `d` components in one lock-step
/// solve like the stored host leg, so `core` makes no scalar `pcg_solve_ws`
/// call; and `SumfacMassKernel` has one zone body (gather, transforms,
/// scatter), of which the scalar apply is the one-component case.
#[test]
fn one_sumfac_transform() {
    let sumfac = read("crates/fem/src/sumfac.rs");
    let outside_the_oracle = without_item(non_test(&sumfac), "pub mod reference");
    let beside = outside_the_oracle.contains("tile::gemm(");
    assert!(!beside, "a `tile::gemm` transform beside the oracle");

    let core: Vec<(String, String)> = files_under(&["crates/core/src"])
        .into_iter()
        .map(|(path, text)| (path, non_test(&text).to_string()))
        .collect();
    let scalar_solves = lines_where(&core, |l| l.contains("pcg_solve_ws("));
    assert!(scalar_solves.is_empty(), "a per-component solve in core: {scalar_solves:#?}");

    let kernels = read("crates/kernels/src/sumfac.rs");
    let (mass, _) = split_item(non_test(&kernels), "impl SumfacMassKernel");
    for step in ["par_chunks_exact_mut(", "forward(", "backward("] {
        assert_eq!(mass.matches(step).count(), 1, "`{step}` in the mass kernel's zone body only");
    }
}

/// A stored force evaluation runs kernel 4's zone body inside kernel 7's
/// zone loop (`FzKernel::compute_fused`), so one zone's `A_z` stays in cache
/// and the batch (41.5 MB at 5³ Q3-3D) is never written out and read back.
/// The solver therefore names neither the pipeline that stores the batch nor
/// the scratch field it lands in: `compute_az_pipeline_into` serves the
/// probes and tests that inspect it.
#[test]
fn the_solver_never_materializes_a_z() {
    let core: Vec<(String, String)> = files_under(&["crates/core/src"])
        .into_iter()
        .map(|(path, text)| (path, non_test(&text).to_string()))
        .collect();
    let names_the_batch = |l: &str| {
        l.contains("compute_az_pipeline_into")
            || l.match_indices(".az").any(|(at, _)| !l[at + 3..].starts_with(is_ident))
    };
    let hits = lines_where(&core, names_the_batch);
    assert!(hits.is_empty(), "the solver names the `A_z` batch: {hits:#?}");
}

/// A step attempt and a dt suggestion each lend the solver's step scratch
/// once (`Hydro::lend_scratch`, the one `mem::take` of it), and every phase
/// under them reads and writes it in place. No buffer leaves the scratch, so
/// no error exit owes one back, and no `&self` method needs to mutate through
/// a shared reference — the executor's degrade flag and resilience ledger
/// included: non-test `core/src` names no `Cell` / `RefCell`, calls no
/// `borrow_mut()`, has no `recycle`, and moves no field out of the scratch.
#[test]
fn the_solver_lends_its_scratch_once() {
    let core: Vec<(String, String)> = files_under(&["crates/core/src"])
        .into_iter()
        .map(|(path, text)| (path, non_test(&text).to_string()))
        .collect();
    let hits = lines_where(&core, |l| {
        l.split(|c: char| !is_ident(c)).any(|w| ["Cell", "RefCell", "recycle"].contains(&w))
            || l.contains("borrow_mut()")
            || l.contains("mem::take(&mut ws.")
            || l.contains("mem::take(&mut self.scratch.")
    });
    assert!(hits.is_empty(), "interior mutability or a pool hand-back: {hits:#?}");
    let lends = lines_where(&core, |l| l.contains("mem::take(&mut self.scratch)"));
    assert_eq!(lends.len(), 1, "the scratch is lent at one site: {lends:#?}");
}

/// Every `pub fn` / `struct` / `enum` / `const` / `type` in the non-test
/// source of the non-shim crates is named, as a whole word, in some other
/// `.rs` file of the repository (`benchmark/src` counts), or is on the
/// allow-list below (at most 10 entries, each with its reason, and each
/// still needed). Public surface that nothing else names is where dead
/// knobs and test-only helpers hide: an item ships with its caller, stays
/// private, or lives behind `#[cfg(test)]`.
#[test]
fn every_pub_item_has_a_caller() {
    // `(file, item)`: public for a reader the word search cannot see.
    const ALLOWED: [(&str, &str); 2] = [
        // Kept for the planned convergence-order study, which refines meshes.
        ("crates/fem/src/mesh.rs", "refine"),
        // Return type of `validate_chrome_trace`, read field by field.
        ("crates/telemetry/src/chrome.rs", "TraceSummary"),
    ];
    let mut dirs: Vec<&str> = TREE.to_vec();
    dirs.push("benchmark");
    let sources: Vec<(String, String)> =
        files_under(&dirs).into_iter().filter(|(path, _)| path.ends_with(".rs")).collect();
    let words: Vec<std::collections::HashSet<&str>> = sources
        .iter()
        .map(|(_, text)| text.split(|c: char| !is_ident(c)).filter(|w| !w.is_empty()).collect())
        .collect();

    let (mut unnamed, mut allowed_hits) = (Vec::new(), Vec::new());
    for (i, (path, text)) in sources.iter().enumerate() {
        let parts: Vec<&str> = path.split('/').collect();
        if parts.len() < 4 || parts[0] != "crates" || parts[1] == "shims" || parts[2] != "src" {
            continue;
        }
        for (line, name) in public_items(text) {
            if words.iter().enumerate().any(|(j, w)| j != i && w.contains(name)) {
                continue;
            }
            match ALLOWED.iter().position(|&entry| entry == (path.as_str(), name)) {
                Some(at) => allowed_hits.push(at),
                None => unnamed.push(format!("{path}:{line}: {name}")),
            }
        }
    }
    assert!(unnamed.is_empty(), "{} pub items no other file names: {unnamed:#?}", unnamed.len());
    let stale: Vec<_> =
        ALLOWED.iter().enumerate().filter(|(at, _)| !allowed_hits.contains(at)).collect();
    assert!(stale.is_empty(), "allow-list entries no longer needed: {stale:?}");
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `(line, name)` of each `pub fn` / `struct` / `enum` / `const` / `type`
/// declared in `text` outside `#[cfg(test)]` items.
fn public_items(text: &str) -> Vec<(usize, &str)> {
    // `const fn` before `const`, so a function is not read as a constant.
    const KINDS: [&str; 8] =
        ["const fn ", "unsafe fn ", "async fn ", "fn ", "struct ", "enum ", "const ", "type "];
    let (mut out, mut test_item, mut skip_to) = (Vec::new(), false, None::<String>);
    for (i, line) in text.lines().enumerate() {
        let code = line.trim_start();
        if let Some(end) = &skip_to {
            if line == end {
                skip_to = None;
            }
            continue;
        }
        if code == "#[cfg(test)]" {
            test_item = true;
            continue;
        }
        if code.starts_with("#[") || code.starts_with("//") {
            continue;
        }
        if std::mem::take(&mut test_item) {
            if code.ends_with('{') {
                skip_to = Some(format!("{}}}", &line[..line.len() - code.len()]));
            }
            continue;
        }
        let Some(decl) = code.strip_prefix("pub ") else { continue };
        let Some(rest) = KINDS.iter().find_map(|k| decl.strip_prefix(k)) else { continue };
        let name = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
        if !name.is_empty() {
            out.push((i + 1, name));
        }
    }
    out
}
