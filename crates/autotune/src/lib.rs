//! # autotune
//!
//! The paper's autotuning machinery (§3.2.1) and the CUDA/OpenMP
//! auto-balance scheduler (§3.3).
//!
//! Both exploit "the iterative time stepping nature of CFD applications":
//! every time step repeats the same kernels on slowly-evolving data, so the
//! scheduler can spend early steps *measuring* candidate configurations and
//! then lock in the best one.
//!
//! - [`Autotuner`]: enumerates a pruned candidate list (one per kernel
//!   parameter combination), times each for one *sampling period* (the
//!   paper averages forty time steps to eliminate noise), and converges to
//!   the optimum.
//! - [`AutoBalancer`]: splits corner-force zones between the CPU (OpenMP
//!   analog) and the GPU, adjusting the ratio from measured per-period
//!   times until they equalize (Table 5: ~75% of zones on a C2050 against
//!   a six-core Westmere, converged in 12-14 periods).
//! - [`host_tiles`]: the Table-3 corner-force GEMM shape and the default
//!   tile's measured GFLOP/s on it, so the cost model can be calibrated
//!   against the real host.
//! - [`assembly`]: the memory-or-time decision between the stored batched
//!   operators and the matrix-free sum-factorized path, per
//!   `(dimension, order)` with a hard device-footprint override.

pub mod assembly;
pub mod balance;
pub mod host_tiles;
pub mod tuner;

/// Device key used by the un-keyed [`choose_assembly_mode`]: "whatever
/// box this process runs on". Fleet-aware callers pass a `DeviceCatalog`
/// id to [`choose_assembly_mode_for`] instead, so each device in a mixed
/// fleet gets its own validated cache row.
pub const DEFAULT_DEVICE: &str = "local-host";

pub use assembly::{choose_assembly_mode, choose_assembly_mode_for, AssemblyChoice};
pub use balance::AutoBalancer;
pub use tuner::{Autotuner, TunerPhase};
