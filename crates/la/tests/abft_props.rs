//! Property tests for the ABFT-checksummed GEMM path (satellite of the
//! SDC-defense PR): random single-bit flips in the A/B/C panels are
//! detected by the Huang–Abraham column identity, and the checksummed
//! path is bitwise-identical to the plain tiled path when no fault lands.

use blast_la::abft::{self, check_columns, column_sums, Abft};
use blast_la::tile::{self, Op};
use proptest::prelude::*;

/// Column-major reference multiply `C = A (m x k) * B (k x n)`.
fn naive_gemm(m: usize, n: usize, k: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut c = vec![0.0; m * n];
    for j in 0..n {
        for p in 0..k {
            let bv = b[p + j * k];
            for i in 0..m {
                c[i + j * m] += a[i + p * m] * bv;
            }
        }
    }
    c
}

/// Flips `bit` of the largest-magnitude entry (the flip model's
/// "significant victim" — a flip on a denormal nobody reads is outside
/// the threat model).
fn flip_largest(buf: &mut [f64], bit: u32) {
    let (i, _) = buf
        .iter()
        .enumerate()
        .max_by(|(_, x), (_, y)| x.abs().total_cmp(&y.abs()))
        .expect("non-empty panel");
    buf[i] = f64::from_bits(buf[i].to_bits() ^ (1u64 << bit));
}

/// Entries bounded away from zero so every panel has a significant
/// victim and products cannot vanish below the rounding band.
fn entry() -> impl Strategy<Value = f64> {
    (-4.0..4.0f64).prop_map(|x| if x < 0.0 { x - 0.25 } else { x + 0.25 })
}

type Panel = ((usize, usize, usize), Vec<f64>, Vec<f64>);

/// Dims up to 6x6x6 plus max-size operand pools (sliced to `m*k` / `k*n`
/// per case — the shim has no dependent generation).
fn panels() -> impl Strategy<Value = Panel> {
    (
        (1usize..=6, 1usize..=6, 1usize..=6),
        proptest::collection::vec(entry(), 36),
        proptest::collection::vec(entry(), 36),
    )
}

fn run_check(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    b: &[f64],
    c_post: &[f64],
) -> Option<abft::AbftViolation> {
    let pre = vec![0.0; n];
    let pre_abs = vec![0.0; n];
    let mut w = vec![0.0; k];
    let mut w_abs = vec![0.0; k];
    check_columns(
        m, n, k, 1.0, a, Op::N, b, Op::N, 0.0, &pre, &pre_abs, c_post, &mut w, &mut w_abs,
    )
}

proptest! {
    /// No fault: the column identity holds to rounding for every shape.
    #[test]
    fn clean_multiply_passes(panel in panels()) {
        let ((m, n, k), a_full, b_full) = panel;
        let (a, b) = (a_full[..m * k].to_vec(), b_full[..k * n].to_vec());
        let c = naive_gemm(m, n, k, &a, &b);
        prop_assert!(run_check(m, n, k, &a, &b, &c).is_none());
    }

    /// A single bit flip in the *result* panel (post-multiply) is caught.
    #[test]
    fn flip_in_c_detected(panel in panels(), bit in 44u32..=55) {
        let ((m, n, k), a_full, b_full) = panel;
        let (a, b) = (a_full[..m * k].to_vec(), b_full[..k * n].to_vec());
        let mut c = naive_gemm(m, n, k, &a, &b);
        flip_largest(&mut c, bit);
        let v = run_check(m, n, k, &a, &b, &c);
        prop_assert!(v.is_some(), "C flip at bit {bit} escaped");
        let v = v.unwrap();
        prop_assert!(v.measured > v.tolerance);
    }

    /// A flip in the A operand *after* checksum capture (the multiply
    /// consumes the corrupt panel, the verifier holds the clean one).
    #[test]
    fn flip_in_a_detected(panel in panels(), bit in 44u32..=55) {
        let ((m, n, k), a_full, b_full) = panel;
        let (a, b) = (a_full[..m * k].to_vec(), b_full[..k * n].to_vec());
        let mut a_corrupt = a.clone();
        flip_largest(&mut a_corrupt, bit);
        let c = naive_gemm(m, n, k, &a_corrupt, &b);
        prop_assert!(run_check(m, n, k, &a, &b, &c).is_some(), "A flip at bit {bit} escaped");
    }

    /// Same for the B operand.
    #[test]
    fn flip_in_b_detected(panel in panels(), bit in 44u32..=55) {
        let ((m, n, k), a_full, b_full) = panel;
        let (a, b) = (a_full[..m * k].to_vec(), b_full[..k * n].to_vec());
        let mut b_corrupt = b.clone();
        flip_largest(&mut b_corrupt, bit);
        let c = naive_gemm(m, n, k, &a, &b_corrupt);
        prop_assert!(run_check(m, n, k, &a, &b, &c).is_some(), "B flip at bit {bit} escaped");
    }

    /// The checksummed path returns bitwise-identical results to the
    /// plain tiled path when no fault is armed — verification reads, it
    /// never rewrites.
    #[test]
    fn verify_mode_is_bitwise_identical(panel in panels()) {
        let ((m, n, k), a_full, b_full) = panel;
        let (a, b) = (a_full[..m * k].to_vec(), b_full[..k * n].to_vec());
        let mut c_plain = vec![0.5; m * n];
        tile::gemm(m, n, k, 1.0, &a, Op::N, &b, Op::N, 0.5, &mut c_plain);

        let abft = Abft::default();
        let mut c_checked = vec![0.5; m * n];
        abft.gemm(0, m, n, k, 1.0, &a, Op::N, &b, Op::N, 0.5, &mut c_checked);
        prop_assert!(abft.take_violation().is_none(), "clean multiply flagged");

        for (p, q) in c_plain.iter().zip(&c_checked) {
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    /// End-to-end through `Abft::gemm`: an armed single-bit flip lands in
    /// its victim panel only, and the post-multiply verification records
    /// the violation for the solver to poll.
    #[test]
    fn armed_flip_through_checked_gemm(panel in panels(), bit in 44u32..=55, lane in 0u64..1_000_000) {
        let ((m, n, k), a_full, b_full) = panel;
        let (a, b) = (a_full[..m * k].to_vec(), b_full[..k * n].to_vec());
        let abft = Abft::default();
        abft.arm_flip(1, lane, bit);
        let mut c = vec![0.0; m * n];
        abft.gemm(0, m, n, k, 1.0, &a, Op::N, &b, Op::N, 0.0, &mut c);
        prop_assert!(abft.take_violation().is_none(), "panel 0 consumed panel 1's flip");
        abft.gemm(1, m, n, k, 1.0, &a, Op::N, &b, Op::N, 0.0, &mut c);
        prop_assert!(abft.take_violation().is_some(), "armed flip (bit {bit}) escaped the checksums");
        prop_assert!(!abft.disarm(), "the victim panel consumes the flip");
    }
}

#[test]
fn column_sums_helper_matches_naive() {
    let c = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3 x 2 column-major
    assert_eq!(column_sums(3, 2, &c), vec![6.0, 15.0]);
}
