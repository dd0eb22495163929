//! Kernel 7 — `kernel_loop_zones`: the per-zone corner-force product
//! `F_z = A_z B^T`.
//!
//! "One thread block works on one zone. Each thread block does a
//! matrix-matrix transpose multiplication ... this kernel can also be
//! expressed as a batched DGEMM, with the number of batches being the
//! number of zones." `B` (`nthermo x npts`) is shared by every zone, so:
//!
//! - **v1** loads both `A_z` and `B` straight from global memory;
//! - **v2** stages `A_z` in shared memory and reads `B` from constant
//!   memory ("since B is globally shared by all thread blocks");
//! - **v3** adds column **blocking**: dividing `A_z` into 1D column blocks
//!   cuts the shared memory per block, letting more blocks reside per SM —
//!   "blocking can deliver a second benefit [on GPU]: ... enhance the
//!   parallelism." The block size is autotuned.
//!
//! # The host body
//!
//! On the host, v2's staging is a cache instead of shared memory: a stored
//! force evaluation runs kernel 4's zone body inside this kernel's zone loop
//! ([`FzKernel::compute_fused`]). Each zone's `A_z` (330 KB at Q3-3D) is
//! assembled into a grow-only per-thread buffer and multiplied while it is
//! still in L2, so the whole batch (41.5 MB at 5³ Q3-3D) is never stored
//! and read back. [`FzKernel::compute_with`] multiplies a stored batch
//! through the same zone loop; the two agree to the bit, because every
//! `A_z` entry comes from the same body and `tile::gemm` does not depend on
//! where its operands live. A device still bills kernels 4 and 7 as two
//! launches: the fusion is a host schedule, not a change to the model.

use std::cell::RefCell;

use blast_la::tile::{self, Op};
use blast_la::{Abft, BatchedMats, DMatrix};
use gpu_sim::{LaunchConfig, Traffic};
use rayon::prelude::*;

use crate::isa::Isa;
use crate::k4;
use crate::shapes::ProblemShape;
use crate::GemmVariant;

thread_local! {
    /// One zone's `A_z` for the fused loop, one high-water buffer per
    /// thread (the idiom of `kernels::sumfac`'s zone scratch).
    static TLS_AZ: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Kernel 7: batched `F_z = A_z B^T` over zones.
#[derive(Clone, Copy, Debug)]
pub struct FzKernel {
    /// Optimization variant.
    pub variant: GemmVariant,
    /// Column block size for v3 (autotuned).
    pub col_block: u32,
}

impl FzKernel {
    /// Table 2 kernel name.
    pub const NAME: &'static str = "kernel_loop_zones";

    /// Tuned default.
    pub fn tuned() -> Self {
        Self { variant: GemmVariant::V3, col_block: 16 }
    }

    /// Launch configuration.
    pub fn config(&self, shape: &ProblemShape) -> LaunchConfig {
        let nvdof = shape.nvdof() as u32;
        let npts = shape.npts as u32;
        let grid = shape.zones as u32;
        let threads = 256;
        let shared = match self.variant {
            GemmVariant::V1 => 0,
            // Whole A_z staged per block: nvdof x npts doubles (this is
            // what chokes residency and motivates v3's blocking).
            GemmVariant::V2 => (nvdof * npts * 8).min(48 * 1024),
            // Column-blocked: only `col_block` columns of A_z at a time.
            GemmVariant::V3 => nvdof * self.col_block.max(1) * 8,
        };
        LaunchConfig::new(grid, threads, shared, 32)
    }

    /// Declared traffic.
    pub fn traffic(&self, shape: &ProblemShape) -> Traffic {
        let z = shape.zones as f64;
        let nvdof = shape.nvdof() as f64;
        let npts = shape.npts as f64;
        let nth = shape.nthermo as f64;
        let flops = z * 2.0 * nvdof * npts * nth;
        let az_bytes = z * nvdof * npts * 8.0;
        let b_bytes = nth * npts * 8.0;
        let fz_bytes = z * nvdof * nth * 8.0;
        match self.variant {
            // v1: every output element walks a row of A_z and a row of B in
            // global memory — A_z is re-read once per thermodynamic basis
            // function with no on-chip reuse.
            GemmVariant::V1 => Traffic {
                flops,
                dram_bytes: az_bytes * nth + fz_bytes + z * b_bytes,
                l2_bytes: z * b_bytes * 0.5,
                ..Default::default()
            },
            // v2/v3: A_z read once from DRAM, streamed through shared;
            // B lives in constant memory (L2-class traffic per zone).
            GemmVariant::V2 | GemmVariant::V3 => Traffic {
                flops,
                dram_bytes: az_bytes + fz_bytes + b_bytes,
                l2_bytes: z * b_bytes,
                shared_bytes: az_bytes + flops * 8.0 * 0.25,
                ..Default::default()
            },
        }
    }

    /// Pure computation: `fz[z] = az[z] * b^T` (batched; `b` is
    /// `nthermo x npts`, shared by all zones).
    pub fn compute(shape: &ProblemShape, az: &BatchedMats, b: &DMatrix, fz: &mut BatchedMats) {
        Self::compute_with(shape, az, b, fz, None);
    }

    /// [`Self::compute`] with each zone's multiply checksum-verified by
    /// `abft` when the solver owns one (zone `z` is ABFT panel `z`).
    pub fn compute_with(
        shape: &ProblemShape,
        az: &BatchedMats,
        b: &DMatrix,
        fz: &mut BatchedMats,
        abft: Option<&Abft>,
    ) {
        assert_eq!(az.shape(), (shape.nvdof(), shape.npts));
        assert_eq!(az.count(), shape.zones);
        let sa = az.stride();
        Self::zone_loop(shape, b, fz, abft, |z, gemm| gemm(&az.as_slice()[z * sa..(z + 1) * sa]));
    }

    /// Kernels 4 and 7 in one zone loop: `fz[z] = A_z b^T` with each `A_z`
    /// assembled by kernel 4's zone body (from `s`, `grads`, `alpha`, the
    /// arguments of `AzKernel::compute`) into this thread's zone buffer and
    /// multiplied there, so no `A_z` batch exists. Bitwise
    /// `AzKernel::compute` followed by [`Self::compute_with`], ABFT panels
    /// included.
    pub fn compute_fused(
        shape: &ProblemShape,
        s: &BatchedMats,
        grads: &[DMatrix],
        alpha: &[f64],
        b: &DMatrix,
        fz: &mut BatchedMats,
        abft: Option<&Abft>,
    ) {
        Self::fused_at(Isa::detect(), shape, s, grads, alpha, b, fz, abft);
    }

    /// [`Self::compute_fused`] through kernel 4's zone body compiled for `isa`.
    fn fused_at(
        isa: Isa,
        shape: &ProblemShape,
        s: &BatchedMats,
        grads: &[DMatrix],
        alpha: &[f64],
        b: &DMatrix,
        fz: &mut BatchedMats,
        abft: Option<&Abft>,
    ) {
        k4::check_inputs(shape, s, grads, alpha);
        let (len, ss) = (shape.nvdof() * shape.npts, shape.npts * shape.dim * shape.dim);
        Self::zone_loop(shape, b, fz, abft, |z, gemm| {
            TLS_AZ.with(|buf| {
                let buf = &mut *buf.borrow_mut();
                if buf.len() < len {
                    buf.resize(len, 0.0);
                }
                let (s_z, az_z) = (&s.as_slice()[z * ss..(z + 1) * ss], &mut buf[..len]);
                k4::zone_into(isa, s_z, grads, alpha, shape.nkin, az_z);
                gemm(az_z);
            })
        });
    }

    /// The zone loop of both bodies: `with_az(z, gemm)` hands zone `z`'s
    /// `A_z` to `gemm`, which stores `F_z = A_z b^T` (ABFT panel `z`).
    fn zone_loop(
        shape: &ProblemShape,
        b: &DMatrix,
        fz: &mut BatchedMats,
        abft: Option<&Abft>,
        with_az: impl Fn(usize, &mut dyn FnMut(&[f64])) + Sync + Send,
    ) {
        let (nvdof, npts, nth) = (shape.nvdof(), shape.npts, shape.nthermo);
        assert_eq!(b.shape(), (nth, npts));
        assert_eq!(fz.shape(), (nvdof, nth));
        assert_eq!(fz.count(), shape.zones);

        let b = b.as_slice();
        fz.par_mats_mut().for_each(|(z, fz_z)| {
            // F = A B^T: A (nvdof x npts) col-major, B (nth x npts).
            with_az(z, &mut |az_z| match abft {
                Some(abft) => abft.gemm(z, nvdof, nth, npts, 1.0, az_z, Op::N, b, Op::T, 0.0, fz_z),
                None => tile::gemm(nvdof, nth, npts, 1.0, az_z, Op::N, b, Op::T, 0.0, fz_z),
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{bits, signed_zero_mix as mix};
    use crate::k4::AzKernel;
    use blast_la::dense::gemm_nt;
    use gpu_sim::{DeviceCatalog, GpuDevice};

    fn setup(zones: usize) -> (ProblemShape, BatchedMats, DMatrix) {
        let shape = ProblemShape::new(2, 2, zones);
        let az = BatchedMats::from_fn(shape.nvdof(), shape.npts, zones, |z, i, j| {
            ((z * 31 + i * 7 + j) as f64 * 0.11).sin()
        });
        let b = DMatrix::from_fn(shape.nthermo, shape.npts, |i, j| {
            ((i * 3 + j) as f64 * 0.23).cos()
        });
        (shape, az, b)
    }

    #[test]
    fn matches_dense_gemm_nt() {
        let (shape, az, b) = setup(4);
        let mut fz = BatchedMats::zeros(shape.nvdof(), shape.nthermo, 4);
        FzKernel::compute(&shape, &az, &b, &mut fz);
        for z in 0..4 {
            let a = DMatrix::from_col_major(shape.nvdof(), shape.npts, az.mat(z).to_vec());
            let mut expect = DMatrix::zeros(shape.nvdof(), shape.nthermo);
            gemm_nt(1.0, &a, &b, 0.0, &mut expect);
            for i in 0..shape.nvdof() {
                for j in 0..shape.nthermo {
                    assert!((fz.get(z, i, j) - expect[(i, j)]).abs() < 1e-13);
                }
            }
        }
    }

    #[test]
    fn fz_shape_is_81x8_for_q2q1_3d() {
        // Table 4: "each small matrix is 81 by 8".
        let shape = ProblemShape::new(3, 2, 1);
        let fz = BatchedMats::zeros(shape.nvdof(), shape.nthermo, 1);
        assert_eq!(fz.shape(), (81, 8));
    }

    #[test]
    fn variant_ordering_v3_best() {
        let shape = ProblemShape::new(3, 2, 4096);
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let t = |k: FzKernel| dev.model_kernel(&k.config(&shape), &k.traffic(&shape)).time_s;
        let t1 = t(FzKernel { variant: GemmVariant::V1, col_block: 0 });
        let t2 = t(FzKernel { variant: GemmVariant::V2, col_block: 0 });
        let t3 = t(FzKernel::tuned());
        assert!(t2 < t1, "v2 {t2} !< v1 {t1}");
        assert!(t3 < t2, "v3 {t3} !< v2 {t2}");
        // "v2 is a substantial improvement": at least 2x over v1.
        assert!(t1 / t2 > 2.0, "v1/v2 = {}", t1 / t2);
    }

    #[test]
    fn blocking_raises_occupancy() {
        // v2 stages all of A_z (up to 48 KB): 1 block/SM. v3's column
        // blocking shrinks the footprint and lifts residency.
        let shape = ProblemShape::new(3, 2, 4096);
        let spec = DeviceCatalog::gpu("k20");
        let occ2 = gpu_sim::occupancy(&spec, &FzKernel { variant: GemmVariant::V2, col_block: 0 }.config(&shape));
        let occ3 = gpu_sim::occupancy(&spec, &FzKernel::tuned().config(&shape));
        assert!(occ3.fraction > occ2.fraction, "{} vs {}", occ3.fraction, occ2.fraction);
    }

    #[test]
    fn col_block_tuning_has_tradeoff() {
        // Very small blocks re-read; very large blocks kill occupancy —
        // there is an interior optimum for the autotuner to find.
        let shape = ProblemShape::new(3, 4, 512); // Q4-Q3: big A_z
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let mut times = Vec::new();
        for cb in [1u32, 4, 8, 16, 32, 64] {
            let k = FzKernel { variant: GemmVariant::V3, col_block: cb };
            let cfg = k.config(&shape);
            if gpu_sim::occupancy(dev.spec(), &cfg).fraction == 0.0 {
                continue;
            }
            times.push(dev.model_kernel(&cfg, &k.traffic(&shape)).time_s);
        }
        assert!(times.len() >= 3, "most configs must be feasible");
    }

    /// Seeded kernel-4 inputs `(s, grads, alpha)` and kernel 7's `b` of a
    /// Q`order`-`dim`D problem on `zones` zones, exact `±0.0` mixed in.
    fn stress_inputs(
        dim: usize,
        order: usize,
        zones: usize,
    ) -> (ProblemShape, BatchedMats, Vec<DMatrix>, Vec<f64>, DMatrix) {
        let shape = ProblemShape::new(dim, order, zones);
        let (nkin, npts, total) = (shape.nkin, shape.npts, shape.total_points());
        let s = BatchedMats::from_data(dim, dim, total, mix(dim * dim * total, 3));
        let grads = (0..dim)
            .map(|g| DMatrix::from_col_major(nkin, npts, mix(nkin * npts, 5 + g as u64)))
            .collect();
        let b = DMatrix::from_col_major(shape.nthermo, npts, mix(shape.nthermo * npts, 9));
        (shape, s, grads, mix(npts, 11), b)
    }

    /// Kernel 4 into a stored batch, then kernel 7 over it.
    fn two_pass(
        (shape, s, grads, alpha, b): &(ProblemShape, BatchedMats, Vec<DMatrix>, Vec<f64>, DMatrix),
        abft: Option<&Abft>,
    ) -> BatchedMats {
        let mut az = BatchedMats::zeros(shape.nvdof(), shape.npts, shape.zones);
        AzKernel::compute(shape, s, grads, alpha, &mut az);
        let mut fz = BatchedMats::zeros(shape.nvdof(), shape.nthermo, shape.zones);
        FzKernel::compute_with(shape, &az, b, &mut fz, abft);
        fz
    }

    /// NaN in the first `len` entries of this thread's zone buffer.
    fn poison_zone_buffer(len: usize) {
        TLS_AZ.with(|buf| {
            let buf = &mut *buf.borrow_mut();
            buf.clear();
            buf.resize(len, f64::NAN);
        });
    }

    #[test]
    fn fused_is_kernel_4_then_kernel_7_bitwise() {
        let pools = [1, 2, 8].map(|width| (width, rayon::Pool::new(width)));
        for (dim, order, zones) in [(2, 2, 3), (3, 2, 3), (3, 3, 3), (3, 4, 2)] {
            let inputs = stress_inputs(dim, order, zones);
            let (shape, s, grads, alpha, b) = &inputs;
            let fz_len = shape.nvdof() * shape.nthermo * zones;
            for abft in [None, Some(Abft::default())] {
                let expect = bits(two_pass(&inputs, abft.as_ref()).as_slice());
                // Every ISA level on one thread, the detected one on the
                // wider pools; `fz` and the caller's zone buffer NaN-filled,
                // so an entry either kernel skipped would show.
                let levels = Isa::available();
                let runs = levels.iter().map(|&isa| (isa, &pools[0]));
                let runs = runs.chain(pools[1..].iter().map(|p| (Isa::detect(), p)));
                for (isa, (width, pool)) in runs {
                    let mut fz = BatchedMats::from_data(
                        shape.nvdof(),
                        shape.nthermo,
                        zones,
                        vec![f64::NAN; fz_len],
                    );
                    pool.install(|| {
                        poison_zone_buffer(shape.nvdof() * shape.npts);
                        FzKernel::fused_at(isa, shape, s, grads, alpha, b, &mut fz, abft.as_ref());
                    });
                    let what = format!("Q{order}-{dim}D {isa:?} abft={}", abft.is_some());
                    assert_eq!(bits(fz.as_slice()), expect, "{what} pool {width}");
                }
                if let Some(abft) = &abft {
                    assert_eq!(abft.violations(), 0, "Q{order}-{dim}D: a clean panel failed");
                }
            }
        }
    }

    #[test]
    fn an_armed_panel_flip_is_caught_as_in_the_two_pass_path() {
        let inputs = stress_inputs(3, 2, 4);
        let clean = two_pass(&inputs, None);
        let run = |fused: bool| {
            let abft = Abft::default();
            abft.arm_flip(2, 5, 55);
            let fz = if fused {
                let (shape, s, grads, alpha, b) = &inputs;
                let mut fz = BatchedMats::zeros(shape.nvdof(), shape.nthermo, shape.zones);
                FzKernel::compute_fused(shape, s, grads, alpha, b, &mut fz, Some(&abft));
                fz
            } else {
                two_pass(&inputs, Some(&abft))
            };
            (bits(fz.as_slice()), abft.take_violation(), abft.disarm(), abft.violations())
        };
        let (two, fused) = (run(false), run(true));
        assert!(two.1.is_some() && !two.2, "the two-pass flip landed and was caught: {two:?}");
        assert_ne!(two.0, bits(clean.as_slice()), "the flip changed F_z");
        assert_eq!(fused, two, "the fused loop lands and catches the same flip");
    }

    #[test]
    fn zero_az_gives_zero_force() {
        let (shape, _, b) = setup(2);
        let az = BatchedMats::zeros(shape.nvdof(), shape.npts, 2);
        let mut fz = BatchedMats::from_fn(shape.nvdof(), shape.nthermo, 2, |_, _, _| 9.9);
        FzKernel::compute(&shape, &az, &b, &mut fz);
        assert!(fz.as_slice().iter().all(|&x| x == 0.0));
    }
}
