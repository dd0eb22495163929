//! Table 3 — operand counts of the custom batched DGEMM kernels 3, 4, 7.

use blast_kernels::ProblemShape;

use crate::harness::{Block, Cell, Experiment, Gate, Report};

/// The harness entry of this experiment.
pub const EXPERIMENT: Experiment = Experiment::modeled("tab3_matrix_shapes", run);

/// Table 3 for the paper's 3D Q2-Q1 configuration on a 16^3 domain.
fn run(_smoke: bool) -> Report {
    let shape = ProblemShape::new(3, 2, 16 * 16 * 16);
    let kernels = [
        (3u32, "zones / points / zones*points"),
        (4, "zones*points / points / zones*points"),
        (7, "zones / 1 / zones"),
    ];
    let counts = kernels.map(|(k, _)| shape.table3_row(k));
    let rows = kernels.iter().zip(&counts).map(|(&(k, desc), &(a, b, c))| {
        vec![
            Cell::new("kernel", format!("kernel {k}")),
            Cell::new("num_a", a),
            Cell::new("num_b", b),
            Cell::new("num_c", c),
            Cell::new("paper_row", desc),
        ]
    });
    let dims = |rows: usize, cols: usize| format!("{rows}x{cols}");
    let operands = vec![
        Cell::new("a_z", dims(shape.nvdof(), shape.npts)),
        Cell::new("b", dims(shape.nthermo, shape.npts)),
        Cell::new("f_z", dims(shape.nvdof(), shape.nthermo)),
    ];
    let a_z = (shape.nvdof(), shape.npts);
    Report {
        blocks: vec![
            Block::table(
                "counts",
                "Table 3 — matrix counts (3D Q2-Q1, 16^3 zones)",
                rows.collect(),
            ),
            Block::record("operands", "operand shapes per zone", operands),
        ],
        gates: vec![
            // 16^3 = 4096 zones, 64 points: kernel 3 -> 4096 / 64 / 262144.
            Gate::new(
                "kernel 3 counts",
                counts[0] == (4096, 64, 262144),
                format!("{:?}, need (4096, 64, 262144)", counts[0]),
            ),
            Gate::new("A_z is 81 x 64", a_z == (81, 64), format!("{a_z:?}")),
        ],
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_match_paper_semantics() {
        crate::harness::assert_gates_hold(&super::run(false), &[]);
    }
}
