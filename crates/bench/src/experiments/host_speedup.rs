//! Host speedup — *measured* wall-clock scaling of the in-tree thread
//! pool on a batched-kernel workload (the paper's 8-core OpenMP leg,
//! run for real instead of only modeled), plus the determinism check
//! that makes the parallelism admissible: every thread count must
//! produce bitwise-identical output.
//!
//! The measured curve is also what calibrates
//! `CpuSpec::parallel_efficiency`, closing the loop between the
//! simulated roofline and the one piece of hardware we actually have.

use blast_kernels::ProblemShape;
use blast_la::tile::{self, Op};
use blast_la::{batched_gemm_nn, batched_gemv_n, BatchedMats};
use blast_telemetry::names::counters;
use blast_telemetry::{Telemetry, TelemetrySink};
use gpu_sim::CpuSpec;

use crate::harness::{self, Block, Budget, Cell, Report};

/// Thread counts the sweep visits (the paper's Table 1 axis).
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One row of the sweep.
#[derive(Clone, Debug)]
struct SpeedupSample {
    /// Pool threads configured for the run.
    pub threads: usize,
    /// Measured wall-clock of the best round, seconds.
    pub time_s: f64,
    /// Speedup vs. the 1-thread run (median per-round ratio).
    pub speedup: f64,
    /// Whether the run's output is bitwise identical to 1 thread's.
    pub bitwise_equal: bool,
}

/// Full sweep result.
#[derive(Clone, Debug)]
struct HostSpeedup {
    /// One sample per entry of [`THREAD_COUNTS`].
    pub samples: Vec<SpeedupSample>,
    /// Cores the host actually exposes (`available_parallelism`) — on a
    /// single-core box the speedup column cannot exceed 1 no matter how
    /// correct the pool is, so readers need this to interpret it.
    pub cores_detected: usize,
    /// `CpuSpec::parallel_efficiency` before calibration (E5-2670 preset).
    pub pe_before: f64,
    /// After calibration against the measured curve.
    pub pe_after: f64,
    /// Single-thread GFLOP/s of `tile::gemm` (at SIMD level 2 its zmm
    /// register tile, below it the generic body) on the 3D Q2 corner-force
    /// shape, as fed to `CpuSpec::calibrate_host_gflops`.
    pub tiled_gflops: f64,
    /// Corner-force flop efficiency implied by the measurement
    /// (`CpuSpec::host_flop_efficiency` after calibration).
    pub host_flop_efficiency: f64,
    /// True when the sweep produced *no* usable multi-core sample and the
    /// preset `parallel_efficiency` was kept uncalibrated. Loudly flagged
    /// (warning line + `host_calibration_kept` counter) because a silent
    /// keep used to masquerade as a calibrated value.
    pub preset_kept: bool,
}

/// The batched-kernel workload: kernels 5/6-shaped batched DGEMM plus a
/// kernel 8-shaped batched DGEMV, sized so one sweep iteration is a few
/// tens of milliseconds of real work. Returns the output buffer whose
/// bits must match across thread counts.
fn workload(reps: usize) -> Vec<f64> {
    let (m, n, k) = (24, 24, 24);
    let count = 512;
    let a = BatchedMats::from_fn(m, k, count, |z, i, j| {
        ((z * 31 + i * 7 + j) % 97) as f64 * 1e-2 - 0.5
    });
    let b = BatchedMats::from_fn(k, n, count, |z, i, j| {
        ((z * 17 + i + j * 5) % 89) as f64 * 1e-2 - 0.4
    });
    let mut c = BatchedMats::zeros(m, n, count);
    let x: Vec<f64> = (0..n * count).map(|i| ((i % 61) as f64) * 1e-2 - 0.3).collect();
    let mut y = vec![0.0f64; m * count];
    for _ in 0..reps {
        batched_gemm_nn(1.0, &a, &b, 1e-3, &mut c);
        batched_gemv_n(1.0, &c, &x, 1e-3, &mut y);
    }
    let mut out = c.as_slice().to_vec();
    out.extend_from_slice(&y);
    out
}

/// Best-of-rounds single-thread GFLOP/s of `tile::gemm` on the 3D Q2
/// corner-force shape: kernel 7's per-zone `F_z = A_z * B^T`, 81 velocity
/// dofs x 8 thermodynamic basis functions over 64 points (paper Table 3),
/// ~1 ms per sample so dispatch and timer overhead vanish.
fn production_gemm_gflops() -> f64 {
    let shape = ProblemShape::new(3, 2, 1);
    let (m, n, k) = (shape.nvdof(), shape.nthermo, shape.npts);
    // Deterministic operand fill; values are irrelevant to timing but a
    // non-trivial pattern keeps any data-dependent path honest.
    let a: Vec<f64> = (0..m * k).map(|i| ((i * 37 + 11) % 101) as f64 * 1e-2 - 0.5).collect();
    // B is the n x k thermodynamic basis table (kernel 7 consumes it
    // transposed).
    let b: Vec<f64> = (0..n * k).map(|i| ((i * 53 + 7) % 97) as f64 * 1e-2 - 0.4).collect();
    let mut c = vec![0.0f64; m * n];
    let t = harness::time_interleaved(1, Budget { rounds: 7, sample_s: 1e-3 }, &mut |_| {
        tile::gemm(m, n, k, 1.0, &a, Op::N, &b, Op::T, 0.0, &mut c);
    });
    (2 * m * n * k) as f64 / t.min(0) / 1e9
}

/// Runs the sweep and the calibration, reporting the preset-kept
/// fallback on `telemetry` (see [`HostSpeedup::preset_kept`]).
fn measure_with_telemetry(telemetry: &TelemetrySink) -> HostSpeedup {
    // Both measurements are of the production hot path: the batched
    // kernels below and the GFLOP/s calibration run `tile::gemm`.
    let tiled_gflops = production_gemm_gflops();
    // One sample is one `workload(10)`; the thread counts interleave.
    let pools = THREAD_COUNTS.map(rayon::Pool::new);
    let mut outputs = vec![Vec::new(); THREAD_COUNTS.len()];
    let t = harness::time_interleaved(pools.len(), Budget { rounds: 3, sample_s: 0.0 }, &mut |v| {
        outputs[v] = pools[v].install(|| workload(10));
    });
    let bits = |v: usize| outputs[v].iter().map(|x| x.to_bits());
    let samples: Vec<SpeedupSample> = (0..pools.len())
        .map(|v| SpeedupSample {
            threads: THREAD_COUNTS[v],
            time_s: t.min(v),
            speedup: t.median_ratio(&[0], &[v]),
            bitwise_equal: bits(v).eq(bits(0)),
        })
        .collect();

    let mut spec = CpuSpec::e5_2670();
    let pe_before = spec.parallel_efficiency;
    let curve: Vec<(u32, f64)> =
        samples.iter().filter(|s| s.threads > 1).map(|s| (s.threads as u32, s.speedup)).collect();
    // Calibrating against a curve flattened by a core-starved host would
    // poison the simulation (pe near the clamp floor); only feed the
    // model speedups the hardware could physically express.
    let cores_detected = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let usable: Vec<(u32, f64)> =
        curve.into_iter().filter(|&(t, _)| (t as usize) <= cores_detected).collect();
    let preset_kept = usable.is_empty();
    if preset_kept {
        // The silent path that bit us: calibration "succeeds" but feeds
        // the preset back. Make it observable in both channels.
        telemetry.counter_add(counters::HOST_CALIBRATION_KEPT, 1);
        eprintln!(
            "host_speedup: WARNING: no usable multi-core sample ({cores_detected} core(s) \
             detected); parallel_efficiency preset {pe_before:.3} kept uncalibrated"
        );
    }
    let pe_after = spec.calibrate_parallel_efficiency(&usable);
    let host_flop_efficiency = spec.calibrate_host_gflops(tiled_gflops).unwrap_or(0.0);

    HostSpeedup {
        samples,
        cores_detected,
        pe_before,
        pe_after,
        tiled_gflops,
        host_flop_efficiency,
        preset_kept,
    }
}

/// Regenerates the artifact.
pub fn report() -> String {
    let r = measure_with_telemetry(&Telemetry::sink());
    let rows = r.samples.iter().map(|s| {
        vec![
            Cell::new("threads", s.threads),
            Cell::new("time_ms", s.time_s * 1e3),
            Cell::times("speedup", s.speedup),
            Cell::new("bitwise_equal_1_thread", s.bitwise_equal),
        ]
    });
    let title = "host_speedup — measured pool scaling on batched DGEMM+DGEMV (real wall-clock)";
    let note = format!(
        "Host exposes {} core(s); speedup is bounded by that regardless of pool size.\n\
         parallel_efficiency: {:.3} preset -> {:.3} calibrated from the measured curve{}.\n\
         tiled hot path: default tile, {:.2} GFLOP/s single-thread\n\
         -> corner-force flop efficiency {:.3} fed to the roofline.",
        r.cores_detected,
        r.pe_before,
        r.pe_after,
        if r.preset_kept { " (WARNING: no usable multi-core sample; preset kept)" } else { "" },
        r.tiled_gflops,
        r.host_flop_efficiency,
    );
    let report =
        Report { blocks: vec![Block::table("samples", title, rows.collect())], gates: Vec::new() };
    harness::render_text("host_speedup", false, &report) + &note + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The determinism half of the acceptance criterion runs everywhere;
    /// the >= 2.5x speedup half is physically impossible on a 1-core
    /// container, so it is gated on the hardware actually having cores.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "wall-clock measurement; run with --release")]
    fn sweep_is_bitwise_deterministic_and_scales_when_cores_exist() {
        let sink = Telemetry::sink();
        let r = measure_with_telemetry(&sink);
        // The preset-kept fallback must be loud: flag, counter, and the
        // rendered note all agree (and a multi-core host never trips it).
        assert_eq!(sink.counter(counters::HOST_CALIBRATION_KEPT), r.preset_kept as u64);
        if r.cores_detected >= 2 {
            assert!(!r.preset_kept, "multi-core host kept the preset");
        }
        assert_eq!(r.samples.len(), THREAD_COUNTS.len());
        for s in &r.samples {
            assert!(s.bitwise_equal, "threads={} diverged from 1-thread bits", s.threads);
            assert!(s.time_s > 0.0);
        }
        assert!(r.pe_after > 0.0 && r.pe_after <= 1.0);
        assert!(r.tiled_gflops > 0.0);
        assert!(r.host_flop_efficiency > 0.0 && r.host_flop_efficiency <= 1.0);
        if r.cores_detected >= 8 {
            let s8 = r.samples.iter().find(|s| s.threads == 8).unwrap();
            assert!(s8.speedup >= 2.5, "8-thread speedup {} < 2.5x on an 8-core host", s8.speedup);
        }
    }
}
