//! Typed solver errors and their recovery classification.
//!
//! The solver distinguishes three failure families:
//!
//! - **Device faults** ([`HydroError::Gpu`]): the simulated GPU exhausted
//!   its retry budget (or is out of memory). At setup these abort; mid-run
//!   the solver degrades to the CPU path and continues (§"Fault model &
//!   recovery semantics" in DESIGN.md).
//! - **Numerical breakdowns** (`NonFinite`, `PcgBreakdown`, `MeshTangled`):
//!   the step produced something unusable. These are *recoverable by
//!   rollback* — `Hydro::try_advance` restores the pre-step state and redoes
//!   the step with a halved dt.
//! - Everything else is a bug and stays a panic (documented invariant
//!   asserts on operand shapes).

use gpu_sim::GpuError;

/// A typed failure from setup, a force evaluation, or a time step.
#[derive(Clone, Debug, PartialEq)]
pub enum HydroError {
    /// The simulated device failed past its retry budget (or OOM'd).
    Gpu(GpuError),
    /// The *modeled* device working set of the requested problem exceeds
    /// the device memory, detected by the builder's footprint pre-check
    /// before any allocation or assembly happens. Carries the numbers the
    /// caller needs to act: shrink the problem, or switch the assembly
    /// mode to matrix-free (`HydroBuilder::assembly`), whose footprint the
    /// same pre-check accepts far past the stored-matrix ceiling.
    OutOfMemory {
        /// Modeled resident bytes of the requested configuration.
        required: usize,
        /// Device memory capacity, bytes.
        available: usize,
    },
    /// A state or derived field picked up a NaN/Inf.
    NonFinite {
        /// Which field went non-finite (e.g. `"accel"`, `"de/dt"`).
        what: &'static str,
        /// First offending index.
        index: usize,
    },
    /// The momentum PCG failed to converge (stall or indefinite operator).
    PcgBreakdown {
        /// Residual at the point of breakdown.
        residual: f64,
        /// Iterations spent.
        iterations: usize,
    },
    /// A zone Jacobian determinant went non-positive (mesh inversion).
    MeshTangled {
        /// Quadrature point index (global).
        point: usize,
        /// Zone owning the point.
        zone: usize,
        /// The offending determinant.
        detj: f64,
    },
    /// The builder was handed a configuration no solver can be built
    /// from (order 0, a zero-zone axis, a non-finite or non-positive CFL
    /// factor). Detected at the top of `HydroBuilder::build`, before any
    /// work; not dt-related, so rollback cannot clear it.
    InvalidConfig {
        /// Which builder input is unusable.
        what: &'static str,
        /// Human-readable cause, with the offending value.
        detail: String,
    },
    /// Writing or restoring a checkpoint failed (I/O or decode). Not
    /// dt-related, so rollback cannot clear it.
    Checkpoint {
        /// Human-readable cause.
        detail: String,
    },
    /// The step auditor (or an ABFT GEMM checksum) caught silent data
    /// corruption: a physics invariant moved past its tolerance with no
    /// loud fault anywhere. Recoverable by rollback — the redo re-executes
    /// at the *same* dt (corruption is not a CFL problem), and a transient
    /// flip will not re-fire; a stuck bit exhausts [`crate::MAX_STEP_REDOS`]
    /// and surfaces this error to the caller, checkpoint store intact.
    CorruptionDetected {
        /// Step-attempt ordinal at which the audit tripped.
        step: u64,
        /// Which audit fired (`"energy"`, `"symmetry"`, `"geometry"`,
        /// `"finite"`, `"range"`, `"frozen-crc"`, `"abft"`).
        audit: &'static str,
        /// The measured invariant violation magnitude.
        measured: f64,
        /// The tolerance it exceeded.
        tolerance: f64,
    },
}

impl HydroError {
    /// Whether rolling the step back and halving dt can plausibly clear
    /// the failure. Device faults are not dt-related: those are handled by
    /// degrading to the CPU path instead.
    pub fn recoverable_by_rollback(&self) -> bool {
        matches!(
            self,
            HydroError::NonFinite { .. }
                | HydroError::PcgBreakdown { .. }
                | HydroError::MeshTangled { .. }
                | HydroError::CorruptionDetected { .. }
        )
    }
}

impl From<GpuError> for HydroError {
    fn from(e: GpuError) -> Self {
        HydroError::Gpu(e)
    }
}

/// The inline kernel launcher cannot refuse a kernel.
impl From<std::convert::Infallible> for HydroError {
    fn from(never: std::convert::Infallible) -> Self {
        match never {}
    }
}

impl std::fmt::Display for HydroError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HydroError::Gpu(e) => write!(f, "{e}"),
            HydroError::OutOfMemory { required, available } => write!(
                f,
                "out of device memory: modeled footprint needs {required} B of {available} B — \
                 shrink the problem or use AssemblyMode::MatrixFree"
            ),
            HydroError::NonFinite { what, index } => {
                write!(f, "non-finite value in {what} at index {index}")
            }
            HydroError::PcgBreakdown { residual, iterations } => write!(
                f,
                "momentum PCG broke down after {iterations} iterations (residual {residual:.3e})"
            ),
            HydroError::MeshTangled { point, zone, detj } => write!(
                f,
                "mesh tangled: |J| = {detj} at point {point} (zone {zone}) — reduce the CFL"
            ),
            HydroError::InvalidConfig { what, detail } => {
                write!(f, "invalid solver configuration ({what}): {detail}")
            }
            HydroError::Checkpoint { detail } => write!(f, "checkpoint failure: {detail}"),
            HydroError::CorruptionDetected { step, audit, measured, tolerance } => write!(
                f,
                "silent data corruption detected at step {step}: {audit} audit measured \
                 {measured:.6e} against tolerance {tolerance:.6e}"
            ),
        }
    }
}

impl std::error::Error for HydroError {}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::TransferDir;

    #[test]
    fn rollback_classification() {
        assert!(HydroError::NonFinite { what: "accel", index: 3 }.recoverable_by_rollback());
        assert!(HydroError::PcgBreakdown { residual: 1.0, iterations: 9 }
            .recoverable_by_rollback());
        assert!(HydroError::MeshTangled { point: 0, zone: 0, detj: -0.1 }
            .recoverable_by_rollback());
        let sdc = HydroError::CorruptionDetected {
            step: 12,
            audit: "energy",
            measured: 3e-4,
            tolerance: 1e-9,
        };
        assert!(sdc.recoverable_by_rollback(), "audit trips redo in place first");
        let msg = sdc.to_string();
        assert!(msg.contains("step 12") && msg.contains("energy"), "replayable log line: {msg}");
        let gpu = HydroError::Gpu(GpuError::Transfer {
            direction: TransferDir::H2d,
            bytes: 64,
            attempts: 4,
        });
        assert!(!gpu.recoverable_by_rollback());
    }

    #[test]
    fn display_keeps_oom_phrase() {
        // Callers match on the canonical "out of device memory" phrase.
        let e = HydroError::Gpu(GpuError::Oom {
            device: "K20".into(),
            requested: 10,
            in_use: 0,
            capacity: 5,
        });
        assert!(e.to_string().contains("out of device memory"));
    }

    #[test]
    fn typed_oom_is_actionable_and_not_rollbackable() {
        let e = HydroError::OutOfMemory { required: 6_000_000_000, available: 5_368_709_120 };
        assert!(!e.recoverable_by_rollback(), "dt halving cannot shrink a footprint");
        let msg = e.to_string();
        assert!(msg.contains("out of device memory"), "canonical phrase: {msg}");
        assert!(msg.contains("6000000000") && msg.contains("5368709120"), "numbers: {msg}");
        assert!(msg.contains("MatrixFree"), "points at the fix: {msg}");
    }
}
