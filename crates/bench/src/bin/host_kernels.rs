//! Measures the host GEMM micro-kernels (naive vs tiled)
//! on the Table-3 shapes, writes `BENCH_host_kernels.json`, and exits
//! non-zero if the tiled core loses to naive on any order >= 2 shape —
//! the CI bench-smoke gate.
//!
//! `--smoke` (or `BLAST_BENCH_SMOKE=1`) shrinks the measurement budget
//! for CI; the shape list and the gate stay complete.

use std::process::ExitCode;

use blast_bench::experiments::host_kernels;

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("BLAST_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let r = host_kernels::measure_with_budget(smoke);
    print!("{}", host_kernels::render(&r));

    let path = "BENCH_host_kernels.json";
    if let Err(e) = std::fs::write(path, r.to_json()) {
        eprintln!("host_kernels: failed to write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");

    let failures = r.gate_failures();
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for s in failures {
            eprintln!(
                "GATE FAIL {}: tiled best {:.2} GFLOP/s < naive {:.2} GFLOP/s ({:.2}x)",
                s.label,
                s.tiled_gflops,
                s.naive_gflops,
                s.speedup()
            );
        }
        ExitCode::FAILURE
    }
}
