//! # blast-kernels
//!
//! The paper's redesigned CUDA kernels (Table 2), implemented against the
//! simulated GPU of `gpu-sim`.
//!
//! | No. | Kernel name                    | Purpose                                   | Module |
//! |-----|--------------------------------|-------------------------------------------|--------|
//! | 1   | `kernel_CalcAjugate_det`       | SVD, eigenvalues, adjugate of `J`         | [`k1`] |
//! | 2   | `kernel_loop_grad_v`           | EOS, stress tensor `σ̂(q̂_k)`              | [`k2`] |
//! | 3   | `kernel_PzVz_Phi_F`            | Batched `∇̂v̂(q̂_k)`, `J_z(q̂_k)`           | [`k3`] |
//! | 4   | `kernel_Phi_sigma_hat_z`       | `A_z` columns from the stress             | [`k4`] |
//! | 5   | `kernel_NN_dgemmBatched`       | Auxiliary `DIM x DIM` batched DGEMM       | [`k56`] |
//! | 6   | `kernel_NT_dgemmBatched`       | Auxiliary `DIM x DIM` batched DGEMM (B^T) | [`k56`] |
//! | 7   | `kernel_loop_zones`            | `F_z = A_z B^T`                           | [`k7`] |
//! | 8   | `kernel_loop_zones_dv_dt`      | `-F · 1` (batched DGEMV)                  | [`k8_10`] |
//! | 10  | `kernel_dgemvt`                | `F^T · v` (batched DGEMV, transposed)     | [`k8_10`] |
//! | 9   | CUDA-PCG                       | Solve `M_V dv/dt = -F·1`                  | [`k9`] |
//! | 11  | SpMV (`csrMv_ci_kernel`)       | Apply `M_E^{-1}`                          | [`k11`] |
//!
//! Plus the *base implementation* the paper started from — a monolithic
//! `kernel_loop_quadrature_point` ([`base`]) whose per-thread workspaces
//! spill to local memory — and vendor-library baselines ([`cublas_like`])
//! with the documented pathologies (`cublasDgemmBatched` at ~1.3 GFLOP/s on
//! `DIM x DIM` batches; streamed `cublasDgemv` at ~0.2 GFLOP/s).
//!
//! Every kernel follows the same contract: a `NAME`, a `config` and a
//! `traffic` — what a launch bills, which is where optimization variants
//! differ and what the device timing/power model consumes — beside a
//! `compute*` body whose *math really executes* (in parallel over thread
//! blocks via rayon) and is bit-identical across variants. No kernel knows
//! a device: a sequence of kernels is written once over a
//! [`launch::KernelLauncher`], which decides whether each body is a billed
//! device launch or a plain call. Each kernel's unit tests validate the
//! math against `blast-la` and the performance ordering of its variants.

pub mod base;
pub mod cublas_like;
mod isa;
pub mod k1;
pub mod k11;
pub mod k2;
pub mod k3;
pub mod k4;
pub mod k56;
pub mod k7;
pub mod k8_10;
pub mod k9;
pub mod launch;
#[doc(hidden)]
pub mod point;
pub mod shapes;
pub mod sumfac;

pub use shapes::ProblemShape;
pub use sumfac::AssemblyMode;

/// The instruction-set level the host bodies of kernels 1 to 4 and of the
/// matrix-free force dispatch to on this machine under its `BLAST_SIMD` cap
/// (`"scalar"`, `"avx2"` or `"avx512"`).
pub fn host_isa() -> &'static str {
    let isa = isa::Isa::detect();
    match (isa.is_avx512(), isa.is_avx2()) {
        (true, _) => "avx512",
        (_, true) => "avx2",
        _ => "scalar",
    }
}

/// Workspace placement for the per-thread scratch matrices of kernels 1-2
/// (the Fig. 4 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workspace {
    /// Workspace spilled to local memory (base implementation on Fermi:
    /// "the register spill issue is serious by inspecting the PTX code").
    LocalMemory,
    /// Workspace held in register arrays (the optimized form on Kepler,
    /// which "doubles the number of physical registers per SMX").
    Registers,
}

/// Optimization level of the custom batched-DGEMM kernels 3, 4 and 7
/// (the Fig. 7 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmVariant {
    /// v1 — straightforward: operands read from global memory (kernel 3
    /// reads `B` through the texture cache).
    V1,
    /// v2 — `A` staged through shared memory, `B` in shared (kernel 3) or
    /// constant memory (kernel 7).
    V2,
    /// v3 — v2 plus tuning: multiple `A` matrices per thread block
    /// (kernels 3/4) or column blocking (kernel 7), parameters autotuned.
    V3,
}
