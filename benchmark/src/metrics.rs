//! Every metric the benchmark reports, by name: unit, direction and — for
//! the end-to-end ones — the regression bound. `BENCHMARK.json` lists the
//! same names (a unit test holds the two together); `README.md` gives the
//! definitions and which end-to-end metric each layer metric should move.

use crate::stats::{Better, Bound};

#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which an end-to-end metric may worsen
    /// (0 for per-layer metrics, which carry no bound).
    pub bound: f64,
    /// Counts and simulated-clock values that must repeat exactly between
    /// two runs of one commit with one seed.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        exact,
    }
}

use Better::{Higher, Lower};

/// `setup_s` counts as worse only beyond its relative bound *and* this
/// many seconds: a 10 ms set-up moves by 25 % on scheduler noise alone.
pub const SETUP_FLOOR_S: f64 = 0.020;

pub const END_TO_END: [Def; 7] = [
    e2e("zone_updates_per_s", "1/s", Higher, 0.25, false),
    e2e("run_s", "s", Lower, 0.25, false),
    e2e("cpu_core_s", "s", Lower, 0.25, false),
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("peak_rss_mib", "MiB", Lower, 0.20, false),
    e2e("sim_time_s", "sim_s", Lower, 1e-9, true),
    e2e("sim_energy_j", "sim_J", Lower, 1e-9, true),
];

pub const PER_LAYER: [Def; 47] = [
    layer("machine.triad_gbps", "GB/s", Higher, false),
    layer("machine.triad_array_mib", "MiB", Higher, false),
    layer("machine.llc_mib", "MiB", Higher, false),
    layer("machine.triad_capped", "flag", Lower, false),
    layer("machine.gemm_peak_gflops", "GFLOP/s", Higher, false),
    layer("machine.thread_spawn_us", "us", Lower, false),
    layer("la.gemm_gflops", "GFLOP/s", Higher, false),
    layer("la.gemm_frac_of_peak", "ratio", Higher, false),
    layer("la.pcg_iters_per_solve", "count", Lower, true),
    layer("la.pcg_us_per_iter", "us", Lower, false),
    layer("la.pcg_gbps", "GB/s", Higher, false),
    layer("la.pcg_frac_of_triad", "ratio", Higher, false),
    layer("la.spmv_dot_us", "us", Lower, false),
    layer("fem.mass_assembly_ms", "ms", Lower, false),
    layer("fem.tables_ms", "ms", Lower, false),
    layer("fem.sumfac_apply_us", "us", Lower, false),
    layer("kernels.az_pipeline_ms", "ms", Lower, false),
    layer("kernels.az_pipeline_gflops", "GFLOP/s", Higher, false),
    layer("kernels.fz_ms", "ms", Lower, false),
    layer("kernels.momentum_rhs_ms", "ms", Lower, false),
    layer("kernels.energy_rhs_ms", "ms", Lower, false),
    layer("kernels.sumfac_force_ms", "ms", Lower, false),
    layer("kernels.sumfac_mass_apply_us", "us", Lower, false),
    layer("gpu_sim.launch_ns", "ns", Lower, false),
    layer("gpu_sim.run_phase_ns", "ns", Lower, false),
    layer("gpu_sim.launches_per_step", "count", Lower, true),
    layer("gpu_sim.sim_gpu_busy_share", "ratio", Higher, true),
    layer("gpu_sim.host_model_ratio", "ratio", Higher, false),
    layer("powermon.sim_host_energy_j", "sim_J", Lower, true),
    layer("powermon.sim_gpu_energy_j", "sim_J", Lower, true),
    layer("powermon.sim_mean_power_w", "sim_W", Lower, true),
    layer("powermon.trace_segments", "count", Lower, true),
    layer("powermon.greenup_vs_cpu", "ratio", Higher, true),
    layer("telemetry.span_ns", "ns", Lower, false),
    layer("telemetry.spans_per_step", "count", Lower, true),
    layer("telemetry.dropped_spans", "count", Lower, true),
    layer("telemetry.tracing_overhead_ratio", "ratio", Lower, false),
    layer("rayon.par_call_us", "us", Lower, false),
    layer("rayon.pool_calls_per_step", "count", Lower, true),
    layer("rayon.steals_per_step", "count", Lower, false),
    layer("rayon.threads_speedup", "ratio", Higher, false),
    layer("core.step_ms_p50", "ms", Lower, false),
    layer("core.step_ms_hi", "ms", Lower, false),
    layer("core.step_redos", "count", Lower, true),
    layer("core.force_evals", "count", Lower, true),
    layer("core.allocs_per_step", "count", Lower, false),
    layer("core.explained_share", "ratio", Higher, false),
];

impl Def {
    /// The bound the in-tree comparator (`--agree`) applies.
    pub fn comparator_bound(&self) -> Bound {
        let abs_floor = if self.name == "setup_s" {
            SETUP_FLOOR_S
        } else {
            0.0
        };
        Bound {
            rel: self.bound,
            abs_floor,
        }
    }
}

/// One reported value.
#[derive(Clone, Debug)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Pairs `values` with `defs` by position; the two must list the same
/// names in the same order, so a metric cannot be dropped or misnamed.
pub fn zip_values(defs: &[Def], values: &[(&'static str, f64)]) -> Vec<Value> {
    assert_eq!(
        defs.len(),
        values.len(),
        "metric table and values differ in length"
    );
    defs.iter()
        .zip(values)
        .map(|(d, &(name, value))| {
            assert_eq!(d.name, name, "metric table and values differ in order");
            Value {
                name: d.name,
                value,
                unit: d.unit,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_repro::blast_telemetry::chrome::{parse_json, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn defined(defs: &[Def]) -> Vec<(String, String, String)> {
        let better = |b| {
            if b == Better::Higher {
                "higher"
            } else {
                "lower"
            }
        };
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    better(d.better).to_string(),
                )
            })
            .collect()
    }

    /// `BENCHMARK.json` and the runner must name the same metrics and
    /// workloads, or the driver rejects the run.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse_json(&text).expect("valid JSON");
        assert_eq!(listed(&doc, "end_to_end"), defined(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), defined(&PER_LAYER));
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end")
            .iter()
            .map(|m| m.get("bound").and_then(Json::as_f64).expect("bound"))
            .collect();
        assert_eq!(
            bounds,
            END_TO_END.iter().map(|d| d.bound).collect::<Vec<_>>()
        );
        let listed: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |k| w.get(k).and_then(Json::as_str).expect("string field");
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(&str, &str)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(listed, ours);
    }
}
