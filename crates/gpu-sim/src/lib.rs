//! # gpu-sim
//!
//! A simulated CUDA-like GPU for reproducing the paper's performance and
//! power results without NVIDIA hardware.
//!
//! ## What is real and what is modeled
//!
//! **Real:** every kernel launched on a [`GpuDevice`] *functionally
//! executes* — the launch body runs the actual numerics, with thread blocks
//! dispatched in parallel on the host thread pool (rayon), so all numerical
//! results (and the Table 6 validation) are genuine.
//!
//! **Modeled:** the *reported time and power* of each launch come from an
//! analytic device model fed by the kernel's declared [`Traffic`] (flops and
//! per-level memory bytes, which the kernels in `blast-kernels` compute
//! exactly from the operand shapes):
//!
//! - an **occupancy calculator** (registers / shared memory / thread limits
//!   per SM, like the CUDA occupancy API),
//! - a **roofline timing model**: kernel time is the max of the compute time
//!   and the per-memory-level transfer times, each derated by occupancy,
//! - an **energy-based power model**: every flop and every byte moved at
//!   each level costs a per-event energy, with DRAM ≫ shared-memory cost per
//!   byte (the Hong & Kim ratio the paper cites to explain why the optimized
//!   kernels draw less power), plus an active-power floor and a Hyper-Q
//!   sharing overhead.
//!
//! This reproduces the paper's mechanisms: register spills turn into local-
//! memory (DRAM) traffic and slow kernels down (Fig. 4); shared-memory
//! tiling cuts DRAM traffic and with it both time and power (Figs. 7, 8,
//! 15); occupancy tuning moves kernels along the roofline (Fig. 5).

pub mod catalog;
pub mod cpu;
pub mod device;
pub mod fault;
pub mod occupancy;
pub mod spec;
pub mod traffic;

pub use catalog::{DeviceCatalog, DeviceSpec, DeviceSpecBuilder};
pub use cpu::{CpuDevice, CpuSpec};
pub use device::{GpuDevice, KernelEvent, KernelStats};
pub use fault::{
    apply_flip, derive_fault, fault_draw, fault_seed_from_env, FaultKind, FaultPlan, FaultStats,
    GpuError, RetryPolicy, SdcFault, SdcHit, SdcPlan, SdcSite, TransferDir, FAULT_SEED_ENV,
};
pub use occupancy::{occupancy, LaunchConfig, Occupancy};
pub use spec::GpuSpec;
pub use traffic::Traffic;
