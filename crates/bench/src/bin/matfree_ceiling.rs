//! Matrix-free ceiling gate (`experiments::matfree_ceiling`): writes `BENCH_matfree.json`.
//! `--smoke` selects the CI budget; a failed gate exits non-zero.
//!
//! Memory: the full budget (no flag) steps a 32³ Q4 3D matrix-free solve and
//! peaked at 4.8 GB resident (`VmHWM`) on a 2-vCPU AVX-512 host; the smoke
//! budget peaks at about 2 GB. Do not run the full budget on a shared
//! machine without that much memory to spare.
fn main() -> std::process::ExitCode {
    blast_bench::harness::main(&blast_bench::experiments::matfree_ceiling::EXPERIMENT)
}
