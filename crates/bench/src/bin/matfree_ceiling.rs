//! Matrix-free ceiling gate (`experiments::matfree_ceiling`): writes `BENCH_matfree.json`.
//! `--smoke` selects the CI budget; a failed gate exits non-zero.
fn main() -> std::process::ExitCode {
    blast_bench::harness::main(&blast_bench::experiments::matfree_ceiling::EXPERIMENT)
}
