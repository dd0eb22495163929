//! Measures the host GEMM micro-kernels (naive vs tiled)
//! on the Table-3 shapes and the host bodies of kernels 3 and 4 against
//! their reference loops, writes `BENCH_host_kernels.json`, and exits
//! non-zero if the tiled core loses to naive on any shape of order 2 or
//! higher, kernels 3 and 4 together are below 2x their references on
//! such a shape in 3D, or a lock-step per-point body (kernels 1, 2, the
//! matrix-free force) does not beat its scalar reference on a mid-run
//! Sedov state — the CI bench-smoke gate.
//!
//! `--smoke` (or `BLAST_BENCH_SMOKE=1`) shrinks the measurement budget
//! for CI; the shape list and the gate stay complete.

use std::process::ExitCode;

use blast_bench::experiments::host_kernels;

fn main() -> ExitCode {
    let smoke = blast_bench::smoke_requested();
    let r = host_kernels::measure_with_budget(smoke);
    print!("{}", host_kernels::render(&r));

    let path = "BENCH_host_kernels.json";
    if let Err(e) = std::fs::write(path, r.to_json()) {
        eprintln!("host_kernels: failed to write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");

    let failures = r.gate_failures();
    for s in &failures {
        eprintln!(
            "GATE FAIL {}: tiled best {:.2} GFLOP/s < naive {:.2} GFLOP/s ({:.2}x)",
            s.label,
            s.tiled_gflops,
            s.naive_gflops,
            s.speedup()
        );
    }
    let az_failures = r.az_gate_failures();
    for a in &az_failures {
        eprintln!(
            "GATE FAIL az_kernels {}: {:.2}x of reference (k3 {:.2}x, k4 {:.2}x), need {:.1}x",
            a.label,
            a.speedup(),
            a.k3_speedup(),
            a.k4_speedup(),
            host_kernels::AZ_GATE_SPEEDUP
        );
    }
    let point_failures = r.point_gate_failures();
    for f in &point_failures {
        eprintln!("GATE FAIL point_physics {f}: lock-step body lost to its scalar reference");
    }
    if failures.is_empty() && az_failures.is_empty() && point_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
