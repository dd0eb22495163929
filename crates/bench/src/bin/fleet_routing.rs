//! Fleet-routing gate (`experiments::fleet_routing`): writes `BENCH_fleet.json`.
//! `--smoke` selects the CI budget; a failed gate exits non-zero.
fn main() -> std::process::ExitCode {
    blast_bench::harness::main(&blast_bench::experiments::fleet_routing::EXPERIMENT)
}
