//! CUDA-style occupancy calculation.
//!
//! Occupancy — resident warps per SM relative to the maximum — is the knob
//! the paper's autotuning turns: "The number of matrix performed per thread
//! block can be tuned to find an optimal occupancy. ... We find 32 delivered
//! the best performance with an occupancy 98.3%." A block's residency is
//! limited by whichever of threads, registers, or shared memory it exhausts
//! first.

use crate::spec::GpuSpec;

/// A kernel launch configuration (the CUDA `<<<grid, block, smem>>>` triple
/// plus the per-thread register count the compiler would report).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub grid_blocks: u32,
    /// Threads per block.
    pub block_threads: u32,
    /// Dynamic + static shared memory per block, bytes.
    pub shared_bytes: u32,
    /// Registers per thread.
    pub regs_per_thread: u32,
}

impl LaunchConfig {
    /// Convenience constructor.
    pub fn new(grid_blocks: u32, block_threads: u32, shared_bytes: u32, regs_per_thread: u32) -> Self {
        Self { grid_blocks, block_threads, shared_bytes, regs_per_thread }
    }
}

/// Occupancy analysis result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Occupancy {
    /// Resident blocks per SM.
    pub blocks_per_sm: u32,
    /// Resident warps per SM.
    pub warps_per_sm: u32,
    /// Occupancy fraction: resident threads / max threads per SM.
    pub fraction: f64,
    /// Which resource limits residency.
    pub limiter: Limiter,
    /// Fraction of the whole device the grid can keep busy
    /// (1.0 when there are at least `sm_count * blocks_per_sm` blocks —
    /// the "tail effect" derating for small grids).
    pub device_fill: f64,
}

/// The residency-limiting resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Limiter {
    /// Max threads (or max blocks) per SM.
    Threads,
    /// Register file exhausted.
    Registers,
    /// Shared memory exhausted.
    SharedMemory,
    /// Launch config invalid (zero residency).
    Invalid,
}

/// Computes occupancy for a launch on a device.
pub fn occupancy(spec: &GpuSpec, cfg: &LaunchConfig) -> Occupancy {
    if cfg.block_threads == 0
        || cfg.grid_blocks == 0
        || cfg.block_threads > spec.max_threads_per_sm
        || cfg.shared_bytes > spec.max_shared_per_block
        || cfg.regs_per_thread > spec.max_regs_per_thread
    {
        return Occupancy {
            blocks_per_sm: 0,
            warps_per_sm: 0,
            fraction: 0.0,
            limiter: Limiter::Invalid,
            device_fill: 0.0,
        };
    }

    // Warp-granular thread allocation.
    let warps_per_block = cfg.block_threads.div_ceil(spec.warp_size);
    let alloc_threads = warps_per_block * spec.warp_size;

    let by_threads = (spec.max_threads_per_sm / alloc_threads).min(spec.max_blocks_per_sm);
    // Register allocation is per-warp in practice; per-thread is close
    // enough for the model (and matches the occupancy spreadsheet).
    let by_regs = spec
        .registers_per_sm
        .checked_div(cfg.regs_per_thread * alloc_threads)
        .unwrap_or(u32::MAX);
    let by_smem = spec.shared_mem_per_sm.checked_div(cfg.shared_bytes).unwrap_or(u32::MAX);

    let blocks_per_sm = by_threads.min(by_regs).min(by_smem);
    if blocks_per_sm == 0 {
        // Registers or shared memory do not fit even one block.
        let limiter = if by_regs == 0 { Limiter::Registers } else { Limiter::SharedMemory };
        return Occupancy {
            blocks_per_sm: 0,
            warps_per_sm: 0,
            fraction: 0.0,
            limiter,
            device_fill: 0.0,
        };
    }
    let limiter = if blocks_per_sm == by_threads {
        Limiter::Threads
    } else if blocks_per_sm == by_regs {
        Limiter::Registers
    } else {
        Limiter::SharedMemory
    };

    let warps_per_sm = blocks_per_sm * warps_per_block;
    let fraction =
        (warps_per_sm * spec.warp_size) as f64 / spec.max_threads_per_sm as f64;
    let resident_capacity = (spec.sm_count * blocks_per_sm) as f64;
    let device_fill = (cfg.grid_blocks as f64 / resident_capacity).min(1.0);

    Occupancy { blocks_per_sm, warps_per_sm, fraction, limiter, device_fill }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DeviceCatalog;

    #[test]
    fn full_occupancy_on_k20() {
        // 256 threads, no smem, 32 regs: 8 blocks fill 2048 threads/SM.
        let spec = DeviceCatalog::gpu("k20");
        let occ = occupancy(&spec, &LaunchConfig::new(1000, 256, 0, 32));
        assert_eq!(occ.blocks_per_sm, 8);
        assert!((occ.fraction - 1.0).abs() < 1e-12);
        assert_eq!(occ.limiter, Limiter::Threads);
        assert_eq!(occ.device_fill, 1.0);
    }

    #[test]
    fn register_limited_on_fermi() {
        // The paper's Fig. 4 scenario: register-hungry kernels on Fermi
        // (32k registers/SM) are register-limited long before Kepler.
        let fermi = GpuSpec::c2050();
        let kepler = DeviceCatalog::gpu("k20");
        let cfg = LaunchConfig::new(1000, 256, 0, 63);
        let of = occupancy(&fermi, &cfg);
        let ok = occupancy(&kepler, &cfg);
        assert_eq!(of.limiter, Limiter::Registers);
        assert!(ok.fraction > of.fraction);
    }

    #[test]
    fn shared_memory_limited() {
        let spec = DeviceCatalog::gpu("k20");
        // 24 KB smem per block: only 2 blocks per SM fit in 48 KB.
        let occ = occupancy(&spec, &LaunchConfig::new(100, 128, 24 * 1024, 20));
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.limiter, Limiter::SharedMemory);
    }

    #[test]
    fn oversized_block_is_invalid() {
        let spec = DeviceCatalog::gpu("k20");
        let occ = occupancy(&spec, &LaunchConfig::new(10, 4096, 0, 16));
        assert_eq!(occ.limiter, Limiter::Invalid);
        assert_eq!(occ.fraction, 0.0);
    }

    #[test]
    fn too_many_regs_per_thread_invalid_on_fermi() {
        let spec = GpuSpec::c2050();
        let occ = occupancy(&spec, &LaunchConfig::new(10, 128, 0, 100));
        assert_eq!(occ.limiter, Limiter::Invalid);
    }

    #[test]
    fn small_grid_underfills_device() {
        let spec = DeviceCatalog::gpu("k20");
        // 13 SMs x 8 resident blocks = 104 concurrent blocks; a 26-block
        // grid fills a quarter of the device.
        let occ = occupancy(&spec, &LaunchConfig::new(26, 256, 0, 32));
        assert!((occ.device_fill - 0.25).abs() < 1e-12);
    }

    #[test]
    fn warp_granularity_rounds_up() {
        let spec = DeviceCatalog::gpu("k20");
        // 33 threads allocate 2 warps (64 thread slots).
        let occ = occupancy(&spec, &LaunchConfig::new(1000, 33, 0, 16));
        // 2048 / 64 = 32 blocks, but capped by max_blocks_per_sm = 16.
        assert_eq!(occ.blocks_per_sm, 16);
        assert_eq!(occ.warps_per_sm, 32);
    }

    #[test]
    fn tuned_kernel56_high_occupancy() {
        // §3.2: kernels 5/6 tuned to 32 matrices per block hit 98.3%
        // occupancy. With 32 3x3 matrices one block uses ~9*32 threads
        // rounded to warps; pick 288 threads, 28 regs, 32*9*8*2 B smem.
        let spec = DeviceCatalog::gpu("k20");
        let cfg = LaunchConfig::new(4096, 288, 32 * 9 * 8 * 2, 28);
        let occ = occupancy(&spec, &cfg);
        assert!(occ.fraction > 0.85, "fraction {}", occ.fraction);
    }
}
