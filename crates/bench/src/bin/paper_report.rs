//! Regenerates every table and figure of the paper's evaluation in one run
//! and writes the simulated-clock ones into `BENCH_paper.json`.
//!
//! Optionally pass experiment names to run a subset (no artifact written):
//! `cargo run -p blast-bench --release --bin paper_report -- fig11_speedup`.
//! A failed gate exits non-zero.
fn main() -> std::process::ExitCode {
    blast_bench::harness::paper_main(blast_bench::experiments::EXPERIMENTS)
}
