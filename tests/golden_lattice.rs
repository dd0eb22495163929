//! The solver's equivalence lattice, declared once. A cell is a shape
//! {2D Q2–Q4, 3D Q2–Q3} × assembly {stored, matrix-free} × execution mode
//! × PCG `fused` × ABFT verify × audit cadence, stepped through
//! `try_advance`. Two classes hold over the cells:
//!
//! 1. Within one (shape, assembly), every cell ends on the same bits of
//!    `(v, e, x, t)` and of the next `dt` — the paper's CPU ≡ GPU claim
//!    (Table 6) made bitwise, with pool width, Hyper-Q queues, launch
//!    fusion, the auditors and a mid-run fall-back to the host as further
//!    axes — and only the degraded cell reports `is_degraded()`.
//! 2. Across assemblies at one shape, `v`, `e`, `x` and `dt` agree to
//!    `CROSS_ASSEMBLY_RTOL`: the sum-factorized operators evaluate the
//!    stored batches' bilinear forms in another order (DESIGN §16).
//!
//! The committed table pins golden's cells (Q2, default settings,
//! `GOLDEN_MODES`) across commits: checkpoint CRC-32 footer, simulated
//! wall-clock bits, host+GPU trace-energy bits. A change to any physics
//! bit, or to the order or arguments of any billed phase / launch /
//! transfer / idle, changes a row. The one table holds at every SIMD level
//! (every level fuses each multiply-add) and is invariant under
//! `BLAST_THREADS`. After an *intended* trajectory change, copy the table
//! the failure prints. The SIMD level is read once per process, so CI runs
//! this file with `BLAST_SIMD` unset, `=1` and `=0`. Debug builds run the
//! sample; release builds run the full product too.

use std::panic::resume_unwind;
use std::sync::Arc;

use blast_repro::blast_core::{
    AssemblyMode, AuditConfig, ExecMode, Executor, Hydro, HydroError, HydroState, Sedov,
};
use blast_repro::blast_la::PcgOptions;
use blast_repro::blast_telemetry::names::counters::GPU_LAUNCHES;
use blast_repro::gpu_sim::{CpuSpec, DeviceCatalog, FaultKind, FaultPlan, GpuDevice};

const STEPS: usize = 3;

/// Class 2's bound on `rel_diff` between a stored and a matrix-free cell of
/// one shape; EXPERIMENTS.md records what each shape measures.
const CROSS_ASSEMBLY_RTOL: f64 = 1e-9;

/// `(cell, checkpoint CRC-32, wall_time bits, trace energy bits)`.
type Row = (&'static str, u32, u64, u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("2d_q2/stored/cpu_serial", 0x9eccfff1, 0x3f52e7d5dd0d369e, 0x3fa2343b6d593917),
    ("2d_q2/stored/cpu_parallel2", 0x9eccfff1, 0x3f4423edd52694dc, 0x3f9a834c1597c9f6),
    ("2d_q2/stored/gpu_base", 0x9eccfff1, 0x3f6070df6c0a2555, 0x3fc73d7eeac87b3c),
    ("2d_q2/stored/gpu", 0x9eccfff1, 0x3f53a23b293f4f4b, 0x3fb3eff9fe76eea2),
    ("2d_q2/stored/gpu_pcg", 0x9eccfff1, 0x3f8987e174551621, 0x3febeb00d7c14d73),
    ("2d_q2/stored/hybrid", 0x9eccfff1, 0x3f29a1da4713fe6b, 0x3f9977bfe8863747),
    ("2d_q2/matfree/cpu_serial", 0xd0351b14, 0x3f57388e765a5757, 0x3fa65bf52cf5fd19),
    ("2d_q2/matfree/cpu_parallel2", 0xd0351b14, 0x3f47e5d2aec6ad32, 0x3f9f758a58138a00),
    ("2d_q2/matfree/gpu", 0xd0351b14, 0x3f54025b8cf937b3, 0x3fb16fefe25f7ff0),
    ("2d_q2/matfree/gpu_pcg", 0xd0351b14, 0x3f4a4fc9a121bf93, 0x3fad3e30e1dffa42),
    ("2d_q2/matfree/hybrid", 0xd0351b14, 0x3f2cc0a4a08cc842, 0x3f9b754f81535ec5),
    ("3d_q2/stored/cpu_serial", 0x495c3038, 0x3f91f2661c0ce9d2, 0x3fe147e752026f25),
    ("3d_q2/stored/cpu_parallel2", 0x495c3038, 0x3f826a0cd665f918, 0x3fd83d9ae63c3cea),
    ("3d_q2/stored/gpu_base", 0x495c3038, 0x3f8eb287f466359d, 0x3ff58dfa0e544bf2),
    ("3d_q2/stored/gpu", 0x495c3038, 0x3f6d29666abd9e89, 0x3fcbfb8e55cbd37e),
    ("3d_q2/stored/gpu_pcg", 0x495c3038, 0x3fa7797b86722cf5, 0x4009fff3c72e0cfc),
    ("3d_q2/stored/hybrid", 0x495c3038, 0x3f581e7c59292b86, 0x3fc870d2dc9f22a4),
    ("3d_q2/matfree/cpu_serial", 0x27521d5d, 0x3f8772ad3e9ff530, 0x3fd693ebd0cd0596),
    ("3d_q2/matfree/cpu_parallel2", 0x27521d5d, 0x3f78050f7c64465c, 0x3fcf9ea962c0009e),
    ("3d_q2/matfree/gpu", 0x27521d5d, 0x3f73c8d6cff58700, 0x3fd016bddff170fc),
    ("3d_q2/matfree/gpu_pcg", 0x27521d5d, 0x3f5dbf459c5b88c6, 0x3fc20ee7d9aa2a3e),
    ("3d_q2/matfree/hybrid", 0x27521d5d, 0x3f5181612d6d2922, 0x3fc0079f06e6ad9a),
];

/// `(name, dimension, order, zones per axis)`.
type Shape = (&'static str, usize, usize, usize);

const SHAPES: [Shape; 5] = [
    ("2d_q2", 2, 2, 6),
    ("2d_q3", 2, 3, 4),
    ("2d_q4", 2, 4, 3),
    ("3d_q2", 3, 2, 3),
    ("3d_q3", 3, 3, 2),
];

const ASSEMBLIES: [(&str, AssemblyMode); 2] =
    [("stored", AssemblyMode::Stored), ("matfree", AssemblyMode::MatrixFree)];

/// Every mode. A `cpu_parallel{w}` cell runs on a `w`-wide pool, the others
/// on whatever `BLAST_THREADS` provides. `DEGRADED` is `gpu_pcg` with a
/// persistent ECC fault on the first launch after its first accepted step.
const MODES: [(&str, ExecMode); 10] = [
    ("cpu_serial", ExecMode::CpuSerial),
    ("cpu_parallel1", ExecMode::CpuParallel { threads: 1 }),
    ("cpu_parallel2", ExecMode::CpuParallel { threads: 2 }),
    ("cpu_parallel8", ExecMode::CpuParallel { threads: 8 }),
    ("gpu_base", ExecMode::Gpu { base: true, gpu_pcg: false, mpi_queues: 1 }),
    ("gpu", ExecMode::Gpu { base: false, gpu_pcg: false, mpi_queues: 1 }),
    ("gpu_pcg", ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 }),
    ("gpu_pcg_q8", ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 8 }),
    ("hybrid", ExecMode::Hybrid { threads: 6 }),
    (DEGRADED, ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 }),
];
const DEGRADED: &str = "gpu_pcg_degraded";
const GOLDEN_MODES: [&str; 6] =
    ["cpu_serial", "cpu_parallel2", "gpu_base", "gpu", "gpu_pcg", "hybrid"];

/// The settings besides the mode. `audit_every == 0` builds no auditor;
/// ABFT verify needs one.
#[derive(Clone, Copy, PartialEq)]
struct Knobs {
    fused: bool,
    audit_every: u64,
    abft: bool,
}

const DEFAULT: Knobs = Knobs { fused: true, audit_every: 0, abft: false };

/// `(mode, knobs, accepted steps)`.
type Cell = (&'static str, Knobs, usize);

struct Outcome {
    cell: String,
    /// The row of one of golden's cells: CRC-32, clock bits, energy bits.
    golden: Option<(u32, u64, u64)>,
    /// The state and the next `dt` after each accepted step.
    after: Vec<(HydroState, f64)>,
    degraded: bool,
    launches_after_first: u64,
}

fn run_cell<const D: usize>(
    (_, _, order, n): Shape,
    assembly: AssemblyMode,
    (mode, knobs, steps): (ExecMode, Knobs, usize),
    fault_at: Option<u64>,
) -> Result<Outcome, HydroError> {
    let needs_gpu = matches!(mode, ExecMode::Gpu { .. } | ExecMode::Hybrid { .. });
    let gpu = needs_gpu.then(|| Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20"))));
    if let (Some(dev), Some(op)) = (&gpu, fault_at) {
        dev.set_fault_plan(FaultPlan::seeded(3).with_persistent(FaultKind::EccError, op));
    }
    let run = || {
        let problem = Sedov::default();
        let mut builder = Hydro::<D>::builder(&problem, [n; D])
            .order(order)
            .assembly(assembly)
            .pcg(PcgOptions { fused: knobs.fused, ..PcgOptions::default() })
            .executor(Executor::new(mode.clone(), CpuSpec::e5_2670(), gpu));
        if knobs.audit_every > 0 {
            let audit = AuditConfig::default().every_steps(knobs.audit_every).abft(knobs.abft);
            builder = builder.audit(audit);
        }
        let mut hydro = builder.build()?;
        let mut state = hydro.initial_state();
        let mut dt = hydro.try_suggest_dt(&state)?;
        let (mut redos, mut after, mut launches_after_first) = (0, Vec::new(), 0);
        for _ in 0..steps {
            let adv = hydro.try_advance(&mut state, dt)?;
            dt = adv.dt_next;
            redos += adv.redos;
            after.push((state.clone(), dt));
            if after.len() == 1 {
                launches_after_first = hydro.executor().telemetry().counter(GPU_LAUNCHES);
            }
        }
        let image = hydro.make_checkpoint(&state, dt, steps as u64, redos as u64).to_bytes();
        let crc = u32::from_le_bytes(image[image.len() - 4..].try_into().expect("4-byte footer"));
        let end = hydro.wall_time();
        let exec = hydro.executor();
        let joules = exec.host.power_trace().energy(0.0, end)
            + exec.gpu.as_ref().map_or(0.0, |g| g.power_trace().energy(0.0, end));
        let (cell, degraded) = (String::new(), exec.is_degraded());
        let golden = Some((crc, end.to_bits(), joules.to_bits()));
        Ok(Outcome { cell, golden, after, degraded, launches_after_first })
    };
    match mode {
        ExecMode::CpuParallel { threads } => rayon::Pool::new(threads as usize).install(run),
        _ => run(),
    }
}

/// Runs one (shape, assembly)'s cells in order: the first runs the most
/// steps, and a `DEGRADED` cell follows the clean `gpu_pcg` cell with its
/// knobs.
fn run_group(shape: Shape, assembly: (&str, AssemblyMode), cells: &[Cell]) -> Vec<Outcome> {
    let ((aname, assembly), (sname, dim, order, _)) = (assembly, shape);
    let mut clean_launches: Vec<(Knobs, u64)> = Vec::new();
    let mut out = Vec::new();
    for &(mname, knobs, steps) in cells {
        let unfused = if knobs.fused { "" } else { "+unfused" };
        let audit = match knobs.audit_every {
            0 => String::new(),
            n => format!("+audit{n}"),
        };
        let abft = if knobs.abft { "+abft" } else { "" };
        let cell = format!("{sname}/{aname}/{mname}{unfused}{audit}{abft}");
        let mode = MODES.iter().find(|m| m.0 == mname).expect("a declared mode").1.clone();
        let fault_at = (mname == DEGRADED).then(|| {
            let clean = clean_launches.iter().find(|c| c.0 == knobs);
            clean.unwrap_or_else(|| panic!("{cell}: no clean gpu_pcg cell before it")).1
        });
        let outcome = match dim {
            2 => run_cell::<2>(shape, assembly, (mode, knobs, steps), fault_at),
            _ => run_cell::<3>(shape, assembly, (mode, knobs, steps), fault_at),
        };
        let outcome = outcome.unwrap_or_else(|e| panic!("{cell}: {e}"));
        if mname == "gpu_pcg" {
            clean_launches.push((knobs, outcome.launches_after_first));
        }
        let golden = order == 2 && knobs == DEFAULT && GOLDEN_MODES.contains(&mname);
        out.push(Outcome { cell, golden: outcome.golden.filter(|_| golden), ..outcome });
    }
    out
}

/// `max |a - b| / max |a|`: the difference relative to the field's scale.
fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let scale = a.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
    a.iter().zip(b).fold(0.0_f64, |m, (x, y)| m.max((x - y).abs())) / scale
}

/// Runs each (shape, assembly) on a thread of its own with the cells `cells`
/// lists for the shape (`gpu_base` over stored only: the monolithic kernel
/// has no matrix-free form) and checks classes 1 and 2, naming each cell.
fn run_and_check(cells: impl Fn(Shape) -> Vec<Cell>) -> (Vec<Outcome>, Vec<String>) {
    let runs: Vec<Vec<Outcome>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for shape in SHAPES {
            for assembly in ASSEMBLIES {
                let mut cells = cells(shape);
                cells.retain(|c| c.0 != "gpu_base" || assembly.1 == AssemblyMode::Stored);
                handles.push(s.spawn(move || run_group(shape, assembly, &cells)));
            }
        }
        handles.into_iter().map(|h| h.join().unwrap_or_else(|e| resume_unwind(e))).collect()
    });
    let mut bad = Vec::new();
    let bits = |(s, dt): &(HydroState, f64)| -> Vec<u64> {
        s.v.iter().chain(&s.e).chain(&s.x).chain([&s.t, dt]).map(|x| x.to_bits()).collect()
    };
    for cells in &runs {
        let first = &cells[0];
        for c in cells {
            let steps = c.after.len();
            let (cell, reference, degraded) = (&c.cell, &first.cell, c.degraded);
            if bits(&c.after[steps - 1]) != bits(&first.after[steps - 1]) {
                let what = format!("{cell} differs from {reference} after {steps} steps");
                bad.push(format!("class 1 (bitwise within an assembly): {what}"));
            }
            if degraded != cell.contains(DEGRADED) {
                bad.push(format!("class 1 (degraded cell): {cell} has is_degraded() = {degraded}"));
            }
        }
    }
    for pair in runs.chunks_exact(2) {
        let (sc, mc) = (&pair[0][0], &pair[1][0]);
        assert_eq!(sc.after.len(), mc.after.len(), "class 2 compares equal step counts");
        let ((s, sdt), (m, mdt)) = (sc.after.last().unwrap(), mc.after.last().unwrap());
        let d = [rel_diff(&s.v, &m.v), rel_diff(&s.e, &m.e), rel_diff(&s.x, &m.x)];
        let diffs = [d[0], d[1], d[2], rel_diff(&[*sdt], &[*mdt])];
        let shown = diffs.map(|x| format!("{x:.1e}")).join(", ");
        let diff = format!("{} vs {}: v, e, x, dt differ by {shown}", sc.cell, mc.cell);
        println!("{diff}");
        if !diffs.iter().all(|&x| x <= CROSS_ASSEMBLY_RTOL) {
            bad.push(format!("class 2 (stored ~ matrix-free to {CROSS_ASSEMBLY_RTOL:e}): {diff}"));
        }
    }
    (runs.into_iter().flatten().collect(), bad)
}

/// The tier-1 sample. At Q2 each (dim, assembly) runs golden's cells and
/// four more that between them take every other value of every axis; each
/// higher-order (shape, assembly) runs one cell, for class 2. A cell runs
/// `STEPS` when golden's or when its audit first falls due at step 3, else
/// two, the fewest that put the degrade mid-run; class 1 compares it with
/// the reference's state after as many steps.
#[test]
fn every_assembly_mode_cell_matches_the_committed_table() {
    let (outcomes, mut bad) = run_and_check(|(_, _, order, _)| {
        if order > 2 {
            return vec![("cpu_serial", DEFAULT, 2)];
        }
        let mut cells: Vec<Cell> = GOLDEN_MODES.iter().map(|&m| (m, DEFAULT, STEPS)).collect();
        cells.extend([
            ("cpu_parallel1", Knobs { fused: false, ..DEFAULT }, 2),
            ("cpu_parallel8", Knobs { audit_every: 1, abft: true, ..DEFAULT }, 2),
            ("gpu_pcg_q8", Knobs { audit_every: 3, ..DEFAULT }, STEPS),
            (DEGRADED, DEFAULT, 2),
        ]);
        cells
    });
    let actual: Vec<(&str, u32, u64, u64)> = outcomes
        .iter()
        .filter_map(|o| o.golden.map(|(crc, wall, joules)| (o.cell.as_str(), crc, wall, joules)))
        .collect();
    if actual != GOLDEN {
        let mut table = String::new();
        for (i, row @ &(cell, crc, wall, joules)) in actual.iter().enumerate() {
            let mark = if GOLDEN.get(i) == Some(row) { "" } else { " // differs" };
            table.push_str(&format!(
                "    (\"{cell}\", 0x{crc:08x}, 0x{wall:016x}, 0x{joules:016x}),{mark}\n"
            ));
        }
        bad.push(format!("golden lattice mismatch; the table this build produces:\n{table}"));
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// The full product, every cell at `STEPS`: 950 cells.
#[test]
#[cfg_attr(debug_assertions, ignore = "the full lattice: run with --release")]
fn the_full_lattice_holds_both_classes() {
    let (outcomes, bad) = run_and_check(|_| {
        let mut cells = Vec::new();
        for fused in [true, false] {
            for (audit_every, abft) in [(0, false), (1, false), (3, false), (1, true), (3, true)] {
                let knobs = Knobs { fused, audit_every, abft };
                cells.extend(MODES.iter().map(|m| (m.0, knobs, STEPS)));
            }
        }
        cells
    });
    assert_eq!(outcomes.len(), 950);
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}
