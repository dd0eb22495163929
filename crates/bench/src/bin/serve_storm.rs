//! Serve-storm gate (`experiments::serve_storm`): bursty multi-tenant job
//! arrivals under chaos; a lost job, energy that does not reconcile or a
//! missed worker death exits non-zero.
fn main() -> std::process::ExitCode {
    blast_bench::harness::main(&blast_bench::experiments::serve_storm::EXPERIMENT)
}
