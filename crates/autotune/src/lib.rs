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

pub mod balance;
pub mod tuner;

pub use balance::AutoBalancer;
pub use tuner::{Autotuner, TunerPhase};
