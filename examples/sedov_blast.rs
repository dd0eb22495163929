//! The paper's headline experiment end-to-end: the 3D Sedov blast on a
//! single E5-2670 + K20 node, CPU-only vs CPU-GPU, with the speedup /
//! powerup / greenup triple of Table 7.
//!
//! Node powers are composed the paper's way ("by adding data in Figure 15
//! and Figure 16 together"): dual-package RAPL levels plus the GPU's
//! active power.
//!
//! ```text
//! cargo run --release --example sedov_blast
//! ```

use std::sync::Arc;

use blast_repro::blast_core::{ExecMode, Executor, Hydro, HydroConfig, HydroState, Sedov};
use blast_repro::gpu_sim::{CpuSpec, GpuDevice};
use blast_repro::powermon::{CpuPowerModel, CpuPowerState, EnergyReport, Greenup};
use gpu_sim::DeviceCatalog;

fn run(order: usize, zones: usize, mode: ExecMode, label: &str) -> (f64, f64) {
    let gpu = matches!(mode, ExecMode::Gpu { .. })
        .then(|| Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20"))));
    let exec = Executor::new(mode, CpuSpec::e5_2670(), gpu);
    let problem = Sedov::default();
    let config = HydroConfig { order, ..Default::default() };
    let mut hydro =
        Hydro::<3>::builder(&problem, [zones; 3]).config(config).executor(exec).build().expect("fits on the K20");
    let mut state: HydroState = hydro.initial_state();

    let mut dt = hydro.suggest_dt(&state);
    for _ in 0..3 {
        let out = hydro.step(&mut state, dt);
        dt = out.dt_next();
    }
    let wall = hydro.wall_time();

    // Node power, composed as in the paper's Table 7.
    let rapl = CpuPowerModel::e5_2670();
    let power = match hydro.executor().gpu.as_ref() {
        None => {
            let busy = rapl.read(CpuPowerState::Busy, 1.0);
            2.0 * (busy.pkg_watts + busy.dram_watts)
        }
        Some(g) => {
            let off = rapl.read(CpuPowerState::GpuOffload, 1.0);
            2.0 * (off.pkg_watts + off.dram_watts) + g.power_trace().mean_active_power()
        }
    };
    println!(
        "  {label:<22} wall {:>8.4} s   node power {:>6.1} W   energy {:>8.1} J",
        wall,
        power,
        power * wall
    );
    (wall, power)
}

fn main() {
    println!("3D Sedov blast, 3 RK2-average steps per configuration\n");
    for (order, zones) in [(2usize, 16usize), (4, 8)] {
        println!("Q{}-Q{} ({}^3 zones):", order, order - 1, zones);
        let (t_cpu, p_cpu) =
            run(order, zones, ExecMode::CpuParallel { threads: 8 }, "CPU only (8 threads)");
        let (t_gpu, p_gpu) = run(
            order,
            zones,
            ExecMode::Gpu { base: false, gpu_pcg: false, mpi_queues: 8 },
            "CPU-GPU (8 MPI + K20)",
        );
        let g = Greenup::compare(
            EnergyReport::new(t_cpu, p_cpu),
            EnergyReport::new(t_gpu, p_gpu),
        );
        println!(
            "  => speedup {:.2}x  powerup {:.2}  greenup {:.2}  (energy saved {:.0}%)\n",
            g.speedup,
            g.powerup,
            g.greenup,
            100.0 * g.energy_saving_fraction()
        );
    }
    println!("Paper (Table 7): Q2-Q1 -> 0.67 / 1.9 / 1.27; Q4-Q3 -> 0.57 / 2.5 / 1.42");
}
