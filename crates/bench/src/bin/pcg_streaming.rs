//! Measures the fused streaming PCG kernels against the unfused
//! launch-per-op loop (host wall-clock + modeled GPU-sim leg), writes
//! `BENCH_pcg_streaming.json`, and exits non-zero if fusion loses on any
//! order >= 2 host shape or fails to cut the modeled launch count, device
//! time, or energy — the CI pcg-stream-smoke gate.
//!
//! `--smoke` (or `BLAST_BENCH_SMOKE=1`) shrinks the measurement budget
//! for CI; the shape list and the gates stay complete.

use std::process::ExitCode;

use blast_bench::experiments::pcg_streaming;

fn main() -> ExitCode {
    let smoke = blast_bench::smoke_requested();
    let r = pcg_streaming::measure_with_budget(smoke);
    print!("{}", pcg_streaming::render(&r));

    let path = "BENCH_pcg_streaming.json";
    if let Err(e) = std::fs::write(path, r.to_json()) {
        eprintln!("pcg_streaming: failed to write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");

    let failures = r.gate_failures();
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in failures {
            eprintln!("GATE FAIL {f}");
        }
        ExitCode::FAILURE
    }
}
