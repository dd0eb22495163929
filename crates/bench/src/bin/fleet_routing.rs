//! Fleet-routing gate driver: places a mixed three-tenant workload on a
//! heterogeneous fleet with the greenup-driven router, runs every static
//! single-device placement of the same workload for comparison, writes
//! `BENCH_fleet.json`, and exits non-zero if the routed placement is not
//! strictly cheaper (billed tenant energy) than all-CPU and every static
//! pin while meeting every job's SLO — the CI fleet-smoke gate. The
//! routed ledger digest is also diffed across host-pool sizes 1 and 8.
//!
//! `--smoke` (or `BLAST_BENCH_SMOKE=1`) trims the per-tenant job counts;
//! the fleet, the job classes, and the gates stay complete.

use std::process::ExitCode;

use blast_bench::experiments::fleet_routing;

fn main() -> ExitCode {
    let smoke = blast_bench::smoke_requested();
    let (r, failures) = fleet_routing::report_with_status(smoke);
    print!("{}", r.render());

    let path = "BENCH_fleet.json";
    if let Err(e) = std::fs::write(path, r.to_json()) {
        eprintln!("fleet_routing: failed to write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in failures {
            eprintln!("GATE FAIL {f}");
        }
        ExitCode::FAILURE
    }
}
