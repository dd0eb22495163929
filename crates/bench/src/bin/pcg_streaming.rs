//! Streaming-PCG gate (`experiments::pcg_streaming`): writes `BENCH_pcg_streaming.json`.
//! `--smoke` selects the CI budget; a failed gate exits non-zero.
fn main() -> std::process::ExitCode {
    blast_bench::harness::main(&blast_bench::experiments::pcg_streaming::EXPERIMENT)
}
