//! Assembly-mode autotuning: stored batched matrices vs matrix-free
//! sum factorization, per `(dimension, order)`.
//!
//! The two modes do the same physics; they differ in what they persist
//! and recompute. The choice has a hard component and a soft one:
//!
//! - **Hard (memory)**: when the stored working set — per-zone `A_z`/`F_z`
//!   batches plus the CSR kinematic mass matrix — does not fit the device
//!   budget, matrix-free is *forced* regardless of speed (the paper's
//!   Q4-Q3 ceiling at `16^3` zones on a 5 GB K20; matrix-free keeps only
//!   `d x d` per-point data and sails past it).
//! - **Soft (time)**: below the ceiling, the faster mode wins, measured
//!   as interleaved min-of-rounds over the *differential* per-zone work.
//!   The per-point physics (EOS, geometry, viscosity) is identical in
//!   both modes and is excluded; what's timed is the stored path's dense
//!   `nvdof x npts x nthermo` contraction and `A_z` batch fill against
//!   the matrix-free path's `~3d²` thin 1D transform chains.
//!
//! Both modes are bitwise-deterministic internally, so this is a
//! performance/fit knob, safe to cache per `(dim, order)` for the
//! process lifetime. Low orders tend to keep the stored path (small
//! batches, L3-resident matrix streams); the measured crossover moves to
//! matrix-free as `order` grows and the stored contraction outgrows every
//! cache level.

use std::sync::Mutex;
use std::time::Instant;

use blast_fem::sumfac::{backward, forward, SumfacScratch};
use blast_la::tile::{self, Op};
use blast_kernels::sumfac::{
    matfree_resident_bytes, stored_resident_bytes, AssemblyMode, SumfacFactors,
};
use blast_kernels::ProblemShape;

/// Outcome of one assembly-mode decision.
#[derive(Clone, Debug)]
pub struct AssemblyChoice {
    /// Catalog device id the decision was validated for (see
    /// [`crate::DEFAULT_DEVICE`]) — part of the soft-choice cache key.
    pub device: String,
    /// Spatial dimension.
    pub dim: usize,
    /// Kinematic order `k`.
    pub order: usize,
    /// Zone count the footprints were evaluated at.
    pub zones: usize,
    /// The selected mode.
    pub mode: AssemblyMode,
    /// Modeled stored-path resident bytes at `zones`.
    pub stored_bytes: usize,
    /// Modeled matrix-free resident bytes at `zones`.
    pub matfree_bytes: usize,
    /// True when the device budget forced matrix-free (no timing ran).
    pub forced_by_memory: bool,
    /// Measured per-zone stored proxy time, seconds (0 when forced).
    pub stored_time_s: f64,
    /// Measured per-zone matrix-free proxy time, seconds (0 when forced).
    pub matfree_time_s: f64,
}

/// Timed repetitions per round (per candidate).
const REPS: usize = 8;
/// Interleaved rounds; the per-candidate minimum is kept.
const ROUNDS: usize = 5;

/// Times the *stored-mode differential* work for one zone: the `F_z`
/// contraction (`nvdof x nthermo` from `nvdof x npts`, kernel 7) plus the
/// `A_z` batch fill the matrix-free path never performs (kernel 4's
/// `nvdof x npts` write).
fn stored_proxy(shape: &ProblemShape, bt: &[f64], az: &mut [f64], fz: &mut [f64]) {
    let nvdof = shape.nvdof();
    // Kernel-4 stand-in: the A_z batch materialization.
    for (i, a) in az.iter_mut().enumerate() {
        *a = (i % 97) as f64 * 1.0e-2;
    }
    // Kernel-7 stand-in: F_z = A_z B^T (shapes after transposition).
    tile::gemm(nvdof, shape.nthermo, shape.npts, 1.0, az, Op::N, bt, Op::T, 0.0, fz);
}

/// Times the *matrix-free differential* work for one zone: `2d²` forward
/// gradient transforms (geometry + velocity), `d²` backward transforms
/// (momentum), one thermo forward and one thermo backward (energy
/// interpolation + projection) — the real [`blast_fem::sumfac`] chains.
#[allow(clippy::too_many_arguments)]
fn matfree_proxy(
    shape: &ProblemShape,
    f: &SumfacFactors,
    u: &[f64],
    et: &[f64],
    q: &mut [f64],
    out_kin: &mut [f64],
    out_thermo: &mut [f64],
    ws: &mut SumfacScratch,
) {
    let d = shape.dim;
    for g in 0..d {
        for c in 0..d {
            let comp = &u[c * shape.nkin..(c + 1) * shape.nkin];
            forward(&f.kin, d, comp, Some(g), q, ws);
            forward(&f.kin, d, comp, Some(g), q, ws);
        }
        backward(&f.kin, d, q, Some(g), if g == 0 { 0.0 } else { 1.0 }, out_kin, ws);
    }
    forward(&f.thermo, d, et, None, q, ws);
    backward(&f.thermo, d, q, None, 0.0, out_thermo, ws);
}

/// Runs the timed search for `(dim, order)`, ignoring any memory budget.
/// Returns `(stored_s, matfree_s)` per-zone proxy times.
pub fn measure_assembly_proxies(dim: usize, order: usize) -> (f64, f64) {
    let shape = ProblemShape::new(dim, order, 1);
    let f = SumfacFactors::new(dim, order);
    let nvdof = shape.nvdof();
    // B^T operand of kernel 7 (npts x nthermo column-major values).
    let bt: Vec<f64> = (0..shape.npts * shape.nthermo)
        .map(|i| ((i % 13) as f64 - 6.0) * 1.0e-2)
        .collect();
    let mut az = vec![0.0; nvdof * shape.npts];
    let mut fz = vec![0.0; nvdof * shape.nthermo];
    let u: Vec<f64> = (0..dim * shape.nkin).map(|i| ((i % 11) as f64 - 5.0) * 0.1).collect();
    let et: Vec<f64> = (0..shape.nthermo).map(|i| (i % 7) as f64 * 0.1).collect();
    let mut q = vec![0.0; shape.npts];
    let mut out_kin = vec![0.0; shape.nkin];
    let mut out_thermo = vec![0.0; shape.nthermo];
    let mut ws = SumfacScratch::default();

    // Warm-up (buffers, TLS tile workspaces, instruction caches).
    stored_proxy(&shape, &bt, &mut az, &mut fz);
    matfree_proxy(&shape, &f, &u, &et, &mut q, &mut out_kin, &mut out_thermo, &mut ws);

    let mut best_stored = f64::INFINITY;
    let mut best_matfree = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for _ in 0..REPS {
            stored_proxy(&shape, &bt, &mut az, &mut fz);
        }
        best_stored = best_stored.min(t0.elapsed().as_secs_f64() / REPS as f64);
        let t0 = Instant::now();
        for _ in 0..REPS {
            matfree_proxy(&shape, &f, &u, &et, &mut q, &mut out_kin, &mut out_thermo, &mut ws);
        }
        best_matfree = best_matfree.min(t0.elapsed().as_secs_f64() / REPS as f64);
    }
    (best_stored, best_matfree)
}

/// Decides the assembly mode for a problem, uncached.
///
/// `device_budget` is the device memory capacity for GPU/hybrid runs
/// (`None` on CPU-only hosts, where only the timed search applies —
/// host RAM is not modeled as a ceiling).
pub fn choose_assembly_mode_uncached(
    dim: usize,
    order: usize,
    zones: usize,
    num_h1_dofs: usize,
    num_l2_dofs: usize,
    device_budget: Option<usize>,
) -> AssemblyChoice {
    let shape = ProblemShape::new(dim, order, zones);
    let stored_bytes = stored_resident_bytes(&shape, num_h1_dofs, num_l2_dofs);
    let matfree_bytes = matfree_resident_bytes(&shape, num_h1_dofs, num_l2_dofs);
    if let Some(budget) = device_budget {
        if stored_bytes > budget && matfree_bytes <= budget {
            return AssemblyChoice {
                device: crate::DEFAULT_DEVICE.to_string(),
                dim,
                order,
                zones,
                mode: AssemblyMode::MatrixFree,
                stored_bytes,
                matfree_bytes,
                forced_by_memory: true,
                stored_time_s: 0.0,
                matfree_time_s: 0.0,
            };
        }
    }
    let (stored_time_s, matfree_time_s) = measure_assembly_proxies(dim, order);
    let mode = if matfree_time_s < stored_time_s {
        AssemblyMode::MatrixFree
    } else {
        AssemblyMode::Stored
    };
    AssemblyChoice {
        device: crate::DEFAULT_DEVICE.to_string(),
        dim,
        order,
        zones,
        mode,
        stored_bytes,
        matfree_bytes,
        forced_by_memory: false,
        stored_time_s,
        matfree_time_s,
    }
}

static CACHE: Mutex<Vec<AssemblyChoice>> = Mutex::new(Vec::new());

/// Decides the assembly mode for a problem on the default local-host
/// device key. See [`choose_assembly_mode_for`].
pub fn choose_assembly_mode(
    dim: usize,
    order: usize,
    zones: usize,
    num_h1_dofs: usize,
    num_l2_dofs: usize,
    device_budget: Option<usize>,
) -> AssemblyChoice {
    choose_assembly_mode_for(
        crate::DEFAULT_DEVICE,
        dim,
        order,
        zones,
        num_h1_dofs,
        num_l2_dofs,
        device_budget,
    )
}

/// Decides the assembly mode for a problem on a named catalog device.
/// The footprint check always runs fresh (it depends on `zones` and the
/// budget, which differ per device); the timed proxy search is cached per
/// `(device, dim, order)` for the process lifetime.
pub fn choose_assembly_mode_for(
    device: &str,
    dim: usize,
    order: usize,
    zones: usize,
    num_h1_dofs: usize,
    num_l2_dofs: usize,
    device_budget: Option<usize>,
) -> AssemblyChoice {
    let shape = ProblemShape::new(dim, order, zones);
    let stored_bytes = stored_resident_bytes(&shape, num_h1_dofs, num_l2_dofs);
    let matfree_bytes = matfree_resident_bytes(&shape, num_h1_dofs, num_l2_dofs);
    if let Some(budget) = device_budget {
        if stored_bytes > budget && matfree_bytes <= budget {
            return AssemblyChoice {
                device: device.to_string(),
                dim,
                order,
                zones,
                mode: AssemblyMode::MatrixFree,
                stored_bytes,
                matfree_bytes,
                forced_by_memory: true,
                stored_time_s: 0.0,
                matfree_time_s: 0.0,
            };
        }
    }
    let mut cache = CACHE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) =
        cache.iter().find(|c| c.device == device && c.dim == dim && c.order == order)
    {
        return AssemblyChoice {
            device: device.to_string(),
            dim,
            order,
            zones,
            mode: hit.mode,
            stored_bytes,
            matfree_bytes,
            forced_by_memory: false,
            stored_time_s: hit.stored_time_s,
            matfree_time_s: hit.matfree_time_s,
        };
    }
    let choice = AssemblyChoice {
        device: device.to_string(),
        ..choose_assembly_mode_uncached(dim, order, zones, num_h1_dofs, num_l2_dofs, None)
    };
    cache.push(choice.clone());
    AssemblyChoice { stored_bytes, matfree_bytes, ..choice }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_pressure_forces_matrix_free() {
        // Q4-Q3 3D at 32^3 zones against the 5 GB K20 budget: stored
        // cannot fit, matrix-free must be forced without any timing.
        let za = 32usize;
        let n_h1 = (4 * za + 1).pow(3);
        let zones = za.pow(3);
        let n_l2 = zones * 64;
        let c = choose_assembly_mode(3, 4, zones, n_h1, n_l2, Some(5 << 30));
        assert_eq!(c.mode, AssemblyMode::MatrixFree);
        assert!(c.forced_by_memory);
        assert!(c.stored_bytes > 5 << 30);
        assert!(c.matfree_bytes <= 5 << 30);
    }

    #[test]
    fn unforced_choice_is_measured_and_cached() {
        let c1 = choose_assembly_mode(2, 2, 16, 1089, 64, None);
        assert!(!c1.forced_by_memory);
        assert!(c1.stored_time_s > 0.0 && c1.matfree_time_s > 0.0);
        // Second call replays the cached measurement.
        let c2 = choose_assembly_mode(2, 2, 64, 4225, 256, None);
        assert_eq!(c1.mode, c2.mode);
        assert_eq!(c1.stored_time_s.to_bits(), c2.stored_time_s.to_bits());
        // Footprints still reflect the *new* zones.
        assert!(c2.stored_bytes > c1.stored_bytes);
    }

    #[test]
    fn soft_choice_cache_is_keyed_by_device_id() {
        let a = choose_assembly_mode_for("k20", 2, 1, 16, 289, 16, None);
        let b = choose_assembly_mode_for("fermi", 2, 1, 16, 289, 16, None);
        assert_eq!(a.device, "k20");
        assert_eq!(b.device, "fermi");
        // Each device ran (and replays) its own measured proxy search.
        assert!(a.stored_time_s > 0.0 && b.stored_time_s > 0.0);
        let replay = choose_assembly_mode_for("k20", 2, 1, 64, 1089, 64, None);
        assert_eq!(replay.stored_time_s.to_bits(), a.stored_time_s.to_bits());
    }

    #[test]
    fn high_order_proxy_prefers_matrix_free() {
        // At Q4 in 3D the stored contraction is 375 x 512 x 64 per zone
        // (~24.6 MFLOP) vs ~0.4 MFLOP of thin transforms; the measured
        // proxy should agree with the asymptotics by a wide margin.
        let (stored, matfree) = measure_assembly_proxies(3, 4);
        assert!(
            matfree < stored,
            "matfree proxy {matfree:.2e}s should beat stored {stored:.2e}s at Q4-3D"
        );
    }
}
