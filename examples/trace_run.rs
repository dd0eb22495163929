//! Trace a run: export the unified telemetry of an instrumented CPU-GPU
//! Sedov run as Chrome trace-event JSON, loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `about://tracing`.
//!
//! The export carries one thread lane per telemetry track (host, gpu,
//! cluster, pool): nested `X` spans for the solver phases and GPU kernels,
//! `i` instants for degrade/recovery events, and `C` counter lanes sampling
//! the host and GPU power traces on the same simulated-time axis.
//!
//! ```text
//! cargo run --release --example trace_run [out.json]
//! ```

use blast_repro::blast_core::{ExecMode, Hydro, RunConfig, Sedov};
use blast_repro::blast_telemetry::{chrome, Track};
use gpu_sim::DeviceCatalog;

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "trace_run.json".into());

    // An instrumented hybrid run: the builder wires one telemetry sink
    // through the executor into the host device, the GPU, and the solver.
    let problem = Sedov::default();
    let mut hydro = Hydro::<2>::builder(&problem, [8, 8])
        .order(2)
        .device(&DeviceCatalog::get("k20"))
        .mode(ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 })
        .build()
        .expect("setup");
    let mut state = hydro.initial_state();

    let stats = hydro.run(&mut state, RunConfig::to(0.05).max_steps(40)).expect("run");
    println!("ran {} steps (+{} retries) to t = {:.4}", stats.steps, stats.retries, state.t);

    // Export spans + power lanes from the same simulated clock.
    let exec = hydro.executor();
    let tel = exec.telemetry().clone();
    let host_power = exec.host.power_trace();
    let gpu_power = exec.gpu.as_ref().expect("gpu").power_trace();
    let json = chrome::chrome_trace_with_power(
        &tel,
        &[(Track::Host, &host_power), (Track::Gpu, &gpu_power)],
    );

    // The exporter's own validator — the same check CI's trace-smoke lane
    // runs — before anything is written.
    let summary = chrome::validate_chrome_trace(&json).expect("structurally valid trace");
    println!(
        "trace: {} spans, {} instants, {} power samples, ends at {:.4} s (simulated)",
        summary.spans, summary.instants, summary.counter_samples, summary.max_end_s
    );

    std::fs::write(&out_path, &json).expect("write trace");
    println!("wrote {out_path} — open it at https://ui.perfetto.dev");
}
