//! Fig. 4 — kernels 1 and 2 with the per-thread workspace in local memory
//! vs register arrays (3D Q2-Q1 on K20). The paper reports a 4x speedup on
//! kernel 2 from registers.

use blast_kernels::k1::AdjugateDetKernel;
use blast_kernels::k2::StressKernel;
use blast_kernels::{ProblemShape, Workspace};
use gpu_sim::{DeviceCatalog, GpuDevice};

use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("fig04_register_vs_local", run);

/// Modeled local-memory vs register times of kernels 1 and 2.
fn run(_smoke: bool) -> Report {
    let shape = ProblemShape::new(3, 2, 4096);
    let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
    let t_k1 = |ws| {
        let k = AdjugateDetKernel { workspace: ws };
        dev.model_kernel(&k.config(&shape), &k.traffic(&shape)).time_s
    };
    let t_k2 = |ws| {
        let k = StressKernel { workspace: ws, use_viscosity: true };
        dev.model_kernel(&k.config(&shape), &k.traffic(&shape)).time_s
    };
    let kernels = [
        ("kernel 1 (CalcAjugate_det)", t_k1(Workspace::LocalMemory), t_k1(Workspace::Registers)),
        ("kernel 2 (loop_grad_v)", t_k2(Workspace::LocalMemory), t_k2(Workspace::Registers)),
    ];
    let mut gates = Vec::new();
    let rows = kernels.map(|(name, local, regs)| {
        let x = local / regs;
        let detail = format!("{x:.2}x, need 1.5x < speedup < 8x");
        gates.push(Gate::new(format!("{name} register speedup"), x > 1.5 && x < 8.0, detail));
        vec![
            Cell::new("kernel", name),
            Cell::new("local_ms", local * 1e3),
            Cell::new("register_ms", regs * 1e3),
            Cell::times("speedup", x),
        ]
    });
    let [s1, s2] = kernels.map(|(_, local, regs)| local / regs);
    gates.push(Gate::new(
        "kernel 2 gains the most",
        s2 >= 0.8 * s1,
        format!("kernel 2 {s2:.2}x vs kernel 1 {s1:.2}x, need >= 0.8 x kernel 1"),
    ));
    Report {
        blocks: vec![Block::table(
            "workspace",
            "Fig. 4 — workspace placement, 3D Q2-Q1 on K20; paper: \"By taking advantage of \
             the more registers available on Kepler, kernel 2 achieved a 4x speedup.\"",
            rows.into(),
        )],
        gates,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn register_speedups_in_paper_band() {
        crate::harness::assert_gates_hold(&super::run(false), &[]);
    }
}
