//! Measures the matrix-free sum-factorization path against the stored
//! batched path (host proxy wall-clock + the gpu-sim Q4 ceiling run),
//! writes `BENCH_matfree.json`, and exits non-zero if matrix-free loses
//! on any order >= 3 shape, the stored Q4 ceiling build fails to return
//! the typed OOM, the matrix-free build fails to run, or the modeled
//! flop/byte shift collapses — the CI matfree-smoke gate.
//!
//! `--smoke` (or `BLAST_BENCH_SMOKE=1`) drops the ceiling mesh from 32³
//! to 24³ for CI; the shape list and the gates stay complete.

use std::process::ExitCode;

use blast_bench::experiments::matfree_ceiling;

fn main() -> ExitCode {
    let smoke = blast_bench::smoke_requested();
    let r = matfree_ceiling::measure_with_budget(smoke);
    print!("{}", matfree_ceiling::render(&r));

    let path = "BENCH_matfree.json";
    if let Err(e) = std::fs::write(path, r.to_json()) {
        eprintln!("matfree_ceiling: failed to write {path}: {e}");
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
