//! SDC campaign gate (`experiments::sdc_campaign`): injects a planned bit
//! flip at every modeled site; a flip that is not detected and recovered
//! bit-identically, or failed typed, exits non-zero.
fn main() -> std::process::ExitCode {
    blast_bench::harness::main(&blast_bench::experiments::sdc_campaign::EXPERIMENT)
}
