//! The §3.2.1 autotuner in action: tune kernel 3's pack count and kernel
//! 7's column-block size for two different method orders, showing that the
//! best configuration depends on the order — the reason BLAST tunes at
//! runtime instead of hard-coding parameters.
//!
//! ```text
//! cargo run --release --example autotune_demo
//! ```

use blast_repro::autotune::tuner::{Autotuner, DEFAULT_SAMPLES_PER_PERIOD};
use blast_repro::blast_kernels::k3::CoefGradKernel;
use blast_repro::blast_kernels::k7::FzKernel;
use blast_repro::blast_kernels::{GemmVariant, ProblemShape};
use blast_repro::gpu_sim::{occupancy, GpuDevice};
use gpu_sim::DeviceCatalog;

fn tune_k3(dev: &GpuDevice, shape: &ProblemShape) -> (u32, Vec<(u32, f64)>) {
    let candidates: Vec<u32> = [1, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .filter(|&na| {
            let k = CoefGradKernel { variant: GemmVariant::V3, zones_per_block: na };
            occupancy(dev.spec(), &k.config(shape)).fraction > 0.0
        })
        .collect();
    let mut tuner = Autotuner::new(candidates.clone(), DEFAULT_SAMPLES_PER_PERIOD);
    while !tuner.is_done() {
        let k = CoefGradKernel { variant: GemmVariant::V3, zones_per_block: *tuner.current() };
        tuner.record(dev.model_kernel(&k.config(shape), &k.traffic(shape)).time_s);
    }
    let curve = candidates
        .iter()
        .copied()
        .zip(tuner.mean_times().into_iter().map(|t| t.unwrap()))
        .collect();
    (*tuner.best().unwrap(), curve)
}

fn tune_k7(dev: &GpuDevice, shape: &ProblemShape) -> (u32, Vec<(u32, f64)>) {
    let candidates: Vec<u32> = [1, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .filter(|&cb| {
            let k = FzKernel { variant: GemmVariant::V3, col_block: cb };
            occupancy(dev.spec(), &k.config(shape)).fraction > 0.0
        })
        .collect();
    let mut tuner = Autotuner::new(candidates.clone(), DEFAULT_SAMPLES_PER_PERIOD);
    while !tuner.is_done() {
        let k = FzKernel { variant: GemmVariant::V3, col_block: *tuner.current() };
        tuner.record(dev.model_kernel(&k.config(shape), &k.traffic(shape)).time_s);
    }
    let curve = candidates
        .iter()
        .copied()
        .zip(tuner.mean_times().into_iter().map(|t| t.unwrap()))
        .collect();
    (*tuner.best().unwrap(), curve)
}

fn print_curve(name: &str, best: u32, curve: &[(u32, f64)]) {
    println!("  {name}: tuned value = {best}");
    for &(c, t) in curve {
        let bar = "#".repeat((t / curve.iter().map(|&(_, t)| t).fold(f64::INFINITY, f64::min)
            * 10.0) as usize);
        println!("    {c:>3}: {:>9.4} ms  {bar}{}", t * 1e3, if c == best { "  <- best" } else { "" });
    }
}

fn main() {
    let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
    for order in [2usize, 4] {
        let zones = if order == 2 { 4096 } else { 512 };
        let shape = ProblemShape::new(3, order, zones);
        println!(
            "Q{}-Q{} ({} zones, {} points/zone, A_z {}x{}):",
            order,
            order - 1,
            zones,
            shape.npts,
            shape.nvdof(),
            shape.npts
        );
        let (b3, c3) = tune_k3(&dev, &shape);
        print_curve("kernel 3 zones/block", b3, &c3);
        let (b7, c7) = tune_k7(&dev, &shape);
        print_curve("kernel 7 column block", b7, &c7);
        println!();
    }
    println!(
        "The tuner \"adapts our CUDA kernels to the orders of the finite element \
         method\" (§3.2.1) — note the order-dependent optima."
    );
}
