//! In-run phase table (`experiments::in_run_phases`): writes `BENCH_phases.json`.
//! `--smoke` selects the CI budget; a failed gate exits non-zero.
fn main() -> std::process::ExitCode {
    blast_bench::harness::main(&blast_bench::experiments::in_run_phases::EXPERIMENT)
}
