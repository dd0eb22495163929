//! One module per paper artifact. Every module exposes one
//! `pub const EXPERIMENT: harness::Experiment` whose `run` returns the
//! artifact's rows as typed blocks and the paper relations they must keep as
//! named gates.

use crate::harness::{Block, Cell, Experiment};

pub mod ablations;
pub mod scenarios;

pub mod fig01_perf_per_watt;
pub mod fig02_triple_point_orders;
pub mod fig03_zone_dofs;
pub mod fig04_register_vs_local;
pub mod fig05_tune_k3;
pub mod fig06_kernel_breakdown;
pub mod fig07_kernel_variants;
pub mod fig08_bandwidth;
pub mod fig11_speedup;
pub mod host_kernels;
pub mod in_run_phases;
pub mod matfree_ceiling;
pub mod pcg_streaming;
pub mod point_physics;
pub mod fig12_weak_scaling;
pub mod fleet_routing;
pub mod fig13_strong_scaling;
pub mod fig14_cpu_power;
pub mod fig15_gpu_power;
pub mod fig16_cpu_power_offload;
pub mod tab1_cpu_profile;
pub mod tab3_matrix_shapes;
pub mod tab4_batched_dgemv;
pub mod tab5_autobalance;
pub mod tab6_validation;
pub mod resilience_overhead;
pub mod sdc_campaign;
pub mod serve_storm;
pub mod setup_phases;
pub mod tab7_greenup;
pub mod telemetry_profile;

/// Every registered experiment, in `paper_report` order. A
/// `src/bin/<name>.rs` other than `paper_report` and `trace_smoke` must be
/// `harness::main` of one of them (checked by the registry test).
pub const EXPERIMENTS: &[Experiment] = &[
    fig01_perf_per_watt::EXPERIMENT,
    fig02_triple_point_orders::EXPERIMENT,
    fig03_zone_dofs::EXPERIMENT,
    tab1_cpu_profile::EXPERIMENT,
    fig04_register_vs_local::EXPERIMENT,
    fig05_tune_k3::EXPERIMENT,
    fig06_kernel_breakdown::EXPERIMENT,
    fig07_kernel_variants::EXPERIMENT,
    fig08_bandwidth::EXPERIMENT,
    tab3_matrix_shapes::EXPERIMENT,
    tab4_batched_dgemv::EXPERIMENT,
    tab5_autobalance::EXPERIMENT,
    tab6_validation::EXPERIMENT,
    fig11_speedup::EXPERIMENT,
    fig12_weak_scaling::EXPERIMENT,
    fig13_strong_scaling::EXPERIMENT,
    fig14_cpu_power::EXPERIMENT,
    fig15_gpu_power::EXPERIMENT,
    fig16_cpu_power_offload::EXPERIMENT,
    tab7_greenup::EXPERIMENT,
    resilience_overhead::EXPERIMENT,
    ablations::EXPERIMENT,
    host_kernels::EXPERIMENT,
    pcg_streaming::EXPERIMENT,
    in_run_phases::EXPERIMENT,
    matfree_ceiling::EXPERIMENT,
    telemetry_profile::EXPERIMENT,
    serve_storm::EXPERIMENT,
    sdc_campaign::EXPERIMENT,
    fleet_routing::EXPERIMENT,
];

/// A per-phase time table: one row per `(name, seconds, calls)` entry of
/// `totals`, in order, with its share of their summed time, and a `total`
/// row.
fn phase_table(name: &'static str, title: &str, totals: &[(&str, f64, u64)]) -> Block {
    let sum: f64 = totals.iter().map(|p| p.1).sum();
    let calls: u64 = totals.iter().map(|p| p.2).sum();
    let row = |&(phase, seconds, calls): &(&str, f64, u64)| {
        vec![
            Cell::new("phase", phase),
            Cell::new("seconds", seconds),
            Cell::new("calls", calls as usize),
            Cell::pct("share", if sum > 0.0 { seconds / sum } else { 0.0 }),
        ]
    };
    let rows = totals.iter().chain([&("total", sum, calls)]).map(row).collect();
    Block::table(name, title, rows)
}

#[cfg(test)]
mod tests {
    use crate::harness::{parse_artifact, render_json, Report};
    use blast_telemetry::chrome::Json;

    /// The rows of `phase_table(totals)` as the artifact carries them.
    fn rows(totals: &[(&str, f64, u64)]) -> Vec<Json> {
        let blocks = vec![super::phase_table("t", "t", totals)];
        let json = render_json("demo", false, &Report { blocks, gates: Vec::new() });
        parse_artifact(&json).unwrap().get("t").and_then(Json::as_arr).unwrap().to_vec()
    }

    fn num(r: &Json, k: &str) -> Option<f64> {
        r.get(k).and_then(Json::as_f64)
    }

    /// Rows keep the order they are given, each with its share of the
    /// summed time, and a `total` row closes the table.
    #[test]
    fn phase_table_lists_phases_with_shares_and_a_total() {
        let two = rows(&[("corner_force", 3.0, 2), ("cg_solver", 1.0, 5)]);
        let names: Vec<_> = two.iter().map(|r| r.get("phase").and_then(Json::as_str)).collect();
        assert_eq!(names, [Some("corner_force"), Some("cg_solver"), Some("total")]);
        let shares: Vec<_> = two.iter().map(|r| num(r, "share")).collect();
        assert_eq!(shares, [Some(0.75), Some(0.25), Some(1.0)]);
        assert_eq!(num(&two[2], "calls"), Some(7.0));
    }

    /// With no phases the table is a lone `total` row of zero seconds.
    #[test]
    fn empty_phase_table_renders_zero_total() {
        let empty = rows(&[]);
        assert_eq!((empty.len(), num(&empty[0], "seconds")), (1, Some(0.0)));
    }
}
