//! host_kernels — *measured* single-thread wall-clock of the host GEMM
//! micro-kernels on the paper's Table-3 corner-force shapes: the
//! pre-tiling naive kernel vs the cache-blocked register-tiled core.
//!
//! Unlike the modeled figure/table experiments, every number here is real
//! hardware time. Measurement is interleaved min-of-samples: each round
//! times every variant once and every variant keeps its best round, so
//! external noise (steal time on a shared box) that slows one round
//! cannot bias the comparison — it only discards that round.
//!
//! The binary (`cargo run -p blast-bench --release --bin host_kernels`)
//! writes the machine-readable artifact `BENCH_host_kernels.json` and
//! exits non-zero if the tiled core loses to naive on any shape of order
//! >= 2 — the CI bench-smoke gate.

use std::time::Instant;

use blast_la::dense::naive;
use blast_la::tile::{self, Op, CANDIDATES};

use crate::table;

/// The Table-3 corner-force `F_z` shapes `(m, n, k, label)`: Q1-Q4 in 3D
/// plus the 2D Q4 shape (same constants as the tiled-GEMM property tests).
pub const SHAPES: [(usize, usize, usize, &str); 5] = [
    (24, 1, 8, "Q1 3D"),
    (50, 16, 36, "Q4 2D"),
    (81, 8, 64, "Q2 3D"),
    (192, 27, 125, "Q3 3D"),
    (375, 64, 216, "Q4 3D"),
];

/// Measured throughput on one shape.
#[derive(Clone, Debug)]
pub struct ShapeResult {
    /// Table-3 label, e.g. `"Q3 3D"`.
    pub label: &'static str,
    /// GEMM rows (velocity dofs per zone).
    pub m: usize,
    /// GEMM columns (thermodynamic basis functions).
    pub n: usize,
    /// Contraction length (quadrature points).
    pub k: usize,
    /// Order >= 2 (participates in the CI gate)?
    pub gated: bool,
    /// Naive kernel, GFLOP/s.
    pub naive_gflops: f64,
    /// Best tile candidate, GFLOP/s.
    pub tiled_gflops: f64,
    /// Candidate index behind `tiled_gflops`.
    pub tiled_index: usize,
}

impl ShapeResult {
    /// Best tiled candidate over naive — the gate metric.
    pub fn speedup(&self) -> f64 {
        self.tiled_gflops / self.naive_gflops
    }
}

/// Full experiment result.
#[derive(Clone, Debug)]
pub struct HostKernels {
    /// One entry per [`SHAPES`] row.
    pub shapes: Vec<ShapeResult>,
    /// Whether the FMA micro-kernel clones were active (the ULP-bounded
    /// determinism regime; see `blast_la::tile`).
    pub fma_active: bool,
    /// Whether the reduced smoke budget was used.
    pub smoke: bool,
}

impl HostKernels {
    /// Shapes of order >= 2 where the tiled core lost to naive (the CI
    /// bench-smoke gate; empty means the gate passes).
    pub fn gate_failures(&self) -> Vec<&ShapeResult> {
        self.shapes.iter().filter(|s| s.gated && s.speedup() < 1.0).collect()
    }

    /// Machine-readable artifact (`BENCH_host_kernels.json`).
    pub fn to_json(&self) -> String {
        let mut rows = Vec::new();
        for s in &self.shapes {
            rows.push(format!(
                "    {{\"label\": \"{}\", \"m\": {}, \"n\": {}, \"k\": {}, \"gated\": {}, \
                 \"naive_gflops\": {:.4}, \"tiled_gflops\": {:.4}, \"tiled_candidate\": {}, \
                 \"speedup\": {:.4}}}",
                s.label,
                s.m,
                s.n,
                s.k,
                s.gated,
                s.naive_gflops,
                s.tiled_gflops,
                s.tiled_index,
                s.speedup(),
            ));
        }
        format!(
            "{{\n  \"experiment\": \"host_kernels\",\n  \"threads\": 1,\n  \
             \"fma_active\": {},\n  \"smoke\": {},\n  \"shapes\": [\n{}\n  ]\n}}\n",
            self.fma_active,
            self.smoke,
            rows.join(",\n")
        )
    }
}

/// Deterministic operand fill.
fn fill(buf: &mut [f64], seed: usize) {
    for (i, v) in buf.iter_mut().enumerate() {
        let s = i.wrapping_mul(2654435761).wrapping_add(seed) % 1000;
        *v = (s as f64 - 500.0) * 1e-3;
    }
}

/// Measures one shape: all variants (naive + 12 tile candidates) timed
/// round-robin, `rounds` rounds, each sample sized to `sample_s`
/// seconds; every variant keeps its minimum.
fn measure_shape(
    m: usize,
    n: usize,
    k: usize,
    label: &'static str,
    gated: bool,
    rounds: usize,
    sample_s: f64,
) -> ShapeResult {
    let nvariants = 1 + CANDIDATES.len();
    let mut a = vec![0.0; m * k];
    let mut b = vec![0.0; n * k]; // B^T operand of the NT product: n x k.
    let mut c = vec![0.0; m * n];
    fill(&mut a, 1);
    fill(&mut b, 2);

    let mut run = |v: usize| {
        if v == 0 {
            naive::gemm_nt_raw(m, n, k, 1.0, &a, &b, 0.0, &mut c);
        } else {
            let cfg = CANDIDATES[v - 1];
            tile::gemm_tiled_direct(cfg, m, n, k, 1.0, &a, Op::N, &b, Op::T, 0.0, &mut c);
        }
    };

    // Calibrate each variant's inner repeat count to ~sample_s per sample.
    let mut inner = vec![1u32; nvariants];
    for (v, reps) in inner.iter_mut().enumerate() {
        run(v); // warm caches off the clock
        let t0 = Instant::now();
        run(v);
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        *reps = (sample_s / once).ceil().max(1.0) as u32;
    }

    let mut best = vec![f64::INFINITY; nvariants];
    for _ in 0..rounds {
        for v in 0..nvariants {
            let t0 = Instant::now();
            for _ in 0..inner[v] {
                run(v);
            }
            best[v] = best[v].min(t0.elapsed().as_secs_f64() / inner[v] as f64);
        }
    }

    let flops = (2 * m * n * k) as f64;
    let gf = |t: f64| flops / t / 1e9;
    let tiled = &best[1..];
    let ti =
        tiled.iter().enumerate().min_by(|x, y| x.1.total_cmp(y.1)).map(|(i, _)| i).unwrap_or(0);
    ShapeResult {
        label,
        m,
        n,
        k,
        gated,
        naive_gflops: gf(best[0]),
        tiled_gflops: gf(tiled[ti]),
        tiled_index: ti,
    }
}

/// Runs the full sweep. `smoke` shrinks the budget (fewer rounds, shorter
/// samples) for the CI bench-smoke lane; the shape list stays complete so
/// the gate still covers every Q2+ shape.
pub fn measure_with_budget(smoke: bool) -> HostKernels {
    let (rounds, sample_s) = if smoke { (5, 2e-4) } else { (25, 1e-3) };
    let shapes = SHAPES
        .iter()
        .map(|&(m, n, k, label)| {
            // Q1 is excluded from the gate: at 24x1x8 a call is a few
            // hundred ns and dispatch overhead dominates any tiling.
            let gated = label != "Q1 3D";
            measure_shape(m, n, k, label, gated, rounds, sample_s)
        })
        .collect();
    HostKernels { shapes, fma_active: tile::fma_active(), smoke }
}

/// Full-budget sweep (the experiment registry entry point).
pub fn measure() -> HostKernels {
    measure_with_budget(false)
}

/// Renders the human-readable table.
pub fn render(r: &HostKernels) -> String {
    let rows: Vec<Vec<String>> = r
        .shapes
        .iter()
        .map(|s| {
            vec![
                s.label.to_string(),
                format!("{}x{}x{}", s.m, s.n, s.k),
                table::f(s.naive_gflops),
                format!("{} (cfg{})", table::f(s.tiled_gflops), s.tiled_index),
                format!("{:.2}x", s.speedup()),
            ]
        })
        .collect();
    let mut out = table::render(
        "host_kernels — measured single-thread GEMM GFLOP/s on Table-3 shapes (real wall-clock)",
        &["shape", "m x n x k", "naive", "tiled", "speedup"],
        &rows,
    );
    out.push_str(&format!(
        "\nFMA micro-kernels {}; best-of-{} interleaved samples per variant.\n",
        if r.fma_active { "active (ULP-bounded vs naive)" } else { "inactive (bitwise vs naive)" },
        if r.smoke { 5 } else { 25 },
    ));
    out
}

/// Regenerates the artifact.
pub fn report() -> String {
    render(&measure())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_covers_all_shapes_and_emits_json() {
        let r = measure_with_budget(true);
        assert_eq!(r.shapes.len(), SHAPES.len());
        for s in &r.shapes {
            assert!(s.naive_gflops > 0.0 && s.tiled_gflops > 0.0);
            assert!(s.tiled_index < CANDIDATES.len());
        }
        assert_eq!(r.shapes.iter().filter(|s| s.gated).count(), 4);
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"host_kernels\""));
        assert!(json.contains("\"Q3 3D\""));
        // Balanced braces/brackets — cheap well-formedness check without a
        // JSON parser in the tree.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    /// The ISSUE acceptance gate: >= 2x over naive on the Q3/Q4 Table-3
    /// shapes, single thread, release. Wall-clock — debug builds skip it.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "wall-clock measurement; run with --release")]
    fn tiled_core_is_2x_naive_on_q3_q4() {
        let r = measure();
        for want in ["Q3 3D", "Q4 3D"] {
            let s = r.shapes.iter().find(|s| s.label == want).unwrap();
            assert!(
                s.speedup() >= 2.0,
                "{want}: tiled {:.2} vs naive {:.2} GFLOP/s = {:.2}x < 2x",
                s.tiled_gflops,
                s.naive_gflops,
                s.speedup()
            );
        }
    }
}
