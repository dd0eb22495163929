//! # blast-core
//!
//! The paper's primary contribution: BLAST — compressible hydrodynamics in
//! a moving Lagrangian frame with high-order finite elements — redesigned
//! for CPU-GPU execution.
//!
//! The semi-discrete system (§2):
//!
//! ```text
//! Momentum:  M_V dv/dt = -F · 1
//! Energy:    dе/dt     =  M_E^{-1} F^T · v
//! Motion:    dx/dt     =  v
//! ```
//!
//! with kinematic space `Q_k` (continuous) and thermodynamic space
//! `Q_{k-1}` (discontinuous). The generalized force matrix `F` is assembled
//! from per-zone corner-force matrices `F_z = A_z B^T` (eqs. 4-6), the
//! FLOP-intensive hot spot that this crate can execute on:
//!
//! - the **CPU** (serial or rayon-parallel — the OpenMP analog),
//! - the **simulated GPU** via the optimized kernel pipeline of
//!   `blast-kernels` (or the base monolithic kernel, for the Fig. 6 and
//!   Fig. 15 base-vs-optimized comparisons),
//! - **hybrid CPU+GPU** with the auto-balance zone split of §3.3.
//!
//! Time integration uses the energy-conserving RK2-average scheme: the
//! energy update applies `F^T` to the *midpoint* velocity, making the total
//! energy `½ v^T M_V v + 1^T M_E e` exact to solver tolerance (Table 6).

pub mod audit;
pub mod checkpoint;
pub mod error;
pub mod exec;
pub mod fleet;
pub mod problems;
pub mod retry;
pub mod solver;
pub mod state;

pub use audit::AuditConfig;
pub use checkpoint::{
    Checkpoint, CheckpointError, CheckpointPolicy, CheckpointStore, LoadedCheckpoint,
};
pub use error::HydroError;
pub use exec::{ExecMode, Executor};
pub use fleet::{DevicePilot, Prediction};
pub use problems::{Problem, Sedov, TaylorGreen, TriplePoint};
pub use retry::RetryPolicy;
pub use blast_kernels::sumfac::AssemblyMode;
pub use solver::{
    AdvanceOutcome, Hydro, HydroBuilder, HydroConfig, MatFreeConstrainedOp, RequiredBytes,
    RunConfig, RunCursor, RunStats, StepOutcome, ENERGY_RECONCILE_TOL, MAX_STEP_REDOS,
};
pub use state::{EnergyBreakdown, HydroState};
