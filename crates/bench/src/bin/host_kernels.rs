//! Host micro-kernel gate (`experiments::host_kernels`): writes `BENCH_host_kernels.json`.
//! `--smoke` selects the CI budget; a failed gate exits non-zero.
fn main() -> std::process::ExitCode {
    blast_bench::harness::main(&blast_bench::experiments::host_kernels::EXPERIMENT)
}
