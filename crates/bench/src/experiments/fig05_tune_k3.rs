//! Fig. 5 — tuning kernel 3's zones-per-block pack count on K20 (3D
//! Q2-Q1). The paper reaches 60% of the theoretical batched-DGEMM peak.

use autotune::tuner::{Autotuner, DEFAULT_SAMPLES_PER_PERIOD};
use blast_kernels::k3::CoefGradKernel;
use blast_kernels::{GemmVariant, ProblemShape};
use gpu_sim::{DeviceCatalog, GpuDevice};

use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("fig05_tune_k3", run);

/// Sweeps the pack count through the autotuner.
fn run(_smoke: bool) -> Report {
    let shape = ProblemShape::new(3, 2, 4096);
    let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
    // Prune infeasible candidates exactly like §3.2.1 ("artificial values,
    // like those exceeding the shared memory, will be eliminated").
    let candidates: Vec<u32> = [1u32, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .filter(|&na| {
            let k = CoefGradKernel { variant: GemmVariant::V3, zones_per_block: na };
            gpu_sim::occupancy(dev.spec(), &k.config(&shape)).fraction > 0.0
        })
        .collect();
    let mut tuner = Autotuner::new(candidates.clone(), DEFAULT_SAMPLES_PER_PERIOD);
    while !tuner.is_done() {
        let na = *tuner.current();
        let k = CoefGradKernel { variant: GemmVariant::V3, zones_per_block: na };
        tuner.record(dev.model_kernel(&k.config(&shape), &k.traffic(&shape)).time_s);
    }
    let best = *tuner.best().expect("tuning done");
    let times: Vec<f64> = tuner.mean_times().into_iter().map(|t| t.expect("sampled")).collect();
    let k = CoefGradKernel { variant: GemmVariant::V3, zones_per_block: best };
    let gflops = dev.model_kernel(&k.config(&shape), &k.traffic(&shape)).gflops;
    let tmin = times.iter().copied().fold(f64::INFINITY, f64::min);
    let rows = candidates.iter().zip(&times).map(|(&na, &t)| {
        vec![
            Cell::new("zones_per_block", na as usize),
            Cell::new("time_ms", t * 1e3),
            Cell::times("vs_best", t / tmin),
            Cell::new("tuned", na == best),
        ]
    });
    let time_of = |na: u32| candidates.iter().position(|&c| c == na).map(|i| times[i]);
    let gain = time_of(1).unwrap_or(f64::NAN) / time_of(best).expect("the winner is a candidate");
    Report {
        blocks: vec![
            Block::table(
                "pack_count",
                "Fig. 5 — kernel 3 pack-count tuning (3D Q2-Q1, K20)",
                rows.collect(),
            ),
            Block::record(
                "tuned",
                "tuned kernel 3; the paper's \"60% of theoretical [batched] peak\" refers to \
                 the DIM x DIM batched-DGEMM bound, which kernels 5/6 reach",
                vec![
                    Cell::new("zones_per_block", best as usize),
                    Cell::new("gflops", gflops),
                    Cell::times("gain_over_one_zone", gain),
                ],
            ),
        ],
        gates: vec![
            Gate::new(
                "feasible candidates",
                candidates.len() >= 4,
                format!("{candidates:?} survive pruning, need >= 4"),
            ),
            Gate::new("tuner packs zones", best > 1, format!("tuned N = {best}, need > 1")),
            Gate::new(
                "tuning gain",
                gain > 1.5,
                format!("N = 1 takes {gain:.2}x the tuned time, need > 1.5x"),
            ),
            Gate::new("tuned rate", gflops > 10.0, format!("{gflops:.1} GF/s, need > 10")),
        ],
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tuner_picks_a_packed_configuration() {
        crate::harness::assert_gates_hold(&super::run(false), &[]);
    }
}
