//! One module per paper artifact. Every module exposes
//! `pub fn report() -> String` that regenerates the artifact's rows/series,
//! or, for a gate experiment, a `harness::Experiment`.

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
pub mod host_speedup;
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

/// Every registered experiment, in `paper_report` order: its name and the
/// function that regenerates its text. A `src/bin/<name>.rs` that drives an
/// experiment module must be listed here (checked by the registry test).
/// The two hydro-scale gate experiments (`matfree_ceiling`, `fleet_routing`)
/// run their smoke budget here; the full one belongs to their gate bins.
pub const EXPERIMENTS: &[(&str, fn() -> String)] = &[
    ("fig01_perf_per_watt", fig01_perf_per_watt::report),
    ("fig02_triple_point_orders", fig02_triple_point_orders::report),
    ("fig03_zone_dofs", fig03_zone_dofs::report),
    ("tab1_cpu_profile", tab1_cpu_profile::report),
    ("fig04_register_vs_local", fig04_register_vs_local::report),
    ("fig05_tune_k3", fig05_tune_k3::report),
    ("fig06_kernel_breakdown", fig06_kernel_breakdown::report),
    ("fig07_kernel_variants", fig07_kernel_variants::report),
    ("fig08_bandwidth", fig08_bandwidth::report),
    ("tab3_matrix_shapes", tab3_matrix_shapes::report),
    ("tab4_batched_dgemv", tab4_batched_dgemv::report),
    ("tab5_autobalance", tab5_autobalance::report),
    ("tab6_validation", tab6_validation::report),
    ("fig11_speedup", fig11_speedup::report),
    ("fig12_weak_scaling", fig12_weak_scaling::report),
    ("fig13_strong_scaling", fig13_strong_scaling::report),
    ("fig14_cpu_power", fig14_cpu_power::report),
    ("fig15_gpu_power", fig15_gpu_power::report),
    ("fig16_cpu_power_offload", fig16_cpu_power_offload::report),
    ("tab7_greenup", tab7_greenup::report),
    ("resilience_overhead", resilience_overhead::report),
    ("host_speedup", host_speedup::report),
    ("host_kernels", || host_kernels::EXPERIMENT.text(false)),
    ("pcg_streaming", || pcg_streaming::EXPERIMENT.text(false)),
    ("matfree_ceiling", || matfree_ceiling::EXPERIMENT.text(true)),
    ("telemetry_profile", telemetry_profile::report),
    ("serve_storm", serve_storm::report),
    ("sdc_campaign", sdc_campaign::report),
    ("fleet_routing", || fleet_routing::EXPERIMENT.text(true)),
];

/// Runs an experiment by name.
pub fn run_by_name(name: &str) -> Option<String> {
    EXPERIMENTS.iter().find(|(n, _)| *n == name).map(|(_, report)| report())
}
