//! Algorithm-based fault tolerance (ABFT) for the tiled GEMM hot path.
//!
//! Huang–Abraham checksums: for `C = alpha * op(A) * op(B) + beta * C_pre`,
//! the column-sum vector of the result must satisfy
//!
//! ```text
//! e^T C  =  alpha * (e^T op(A)) * op(B)  +  beta * (e^T C_pre)
//! ```
//!
//! where `e` is the all-ones vector. The right-hand side costs
//! `O(mk + kn + mn)` — one rank-1 shadow of the `O(mnk)` multiply — and is
//! computed *before* the product from the untouched operands, so a bit flip
//! in an `A`/`B` panel during the multiply, or in the `C` panel after it,
//! shifts at least one column sum and is caught at the kernel boundary.
//! Column sums alone suffice for *detection* (any single corrupted entry of
//! `C` perturbs exactly its column's sum; a corrupted `A` row or `B` column
//! perturbs a whole row/column of `C`); the classical row+column pair is
//! only needed to *localize and correct*, which this layer does not do —
//! the solver rolls the step back instead.
//!
//! The verified multiply calls the identical [`crate::tile::gemm`], so when
//! no fault fires it is bitwise-identical to the plain tiled path; checksum
//! scratch lives in a thread-local high-water pool, preserving the
//! zero-alloc steady-state contract. Everything else — the one-shot armed
//! flip, the pending violation, the counters — is an [`Abft`] value its
//! solver owns, so two solvers in one process never see each other's flips
//! or checksums, and a caller without one calls `tile::gemm` directly.
//!
//! Verification tolerance: the checksum identity holds exactly in real
//! arithmetic; in floating point both sides accumulate `O((m + k) * eps)`
//! relative rounding against the magnitude of the *absolute-value* checksum
//! (the same sums over `|A|`, `|B|`, `|C_pre|`), so the acceptance band is
//! `ABFT_GUARD * (m + k) * eps * scale_j` per column. Injected flips live
//! in the high-mantissa/exponent range (relative perturbation >= 2^-9 of a
//! significant entry), orders of magnitude above the band.

use crate::tile::{self, Op};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Safety factor on the `(m + k) * eps` rounding band of the checksum
/// identity. Generous against false positives; still ~7 orders of
/// magnitude below the smallest injected flip on Table-3 shapes.
const ABFT_GUARD: f64 = 8.0;

/// A detected checksum violation — everything needed for a replayable
/// "measured vs tolerance" log line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AbftViolation {
    /// GEMM shape (after transpositions).
    pub m: usize,
    /// Result columns.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// First column whose checksum failed.
    pub column: usize,
    /// Absolute checksum discrepancy measured.
    pub measured: f64,
    /// The tolerance it exceeded.
    pub tolerance: f64,
}

/// One solver's ABFT state: the armed SDC flip, the first unpolled
/// violation and the verification counters. Shared by reference across the
/// pool threads of one batched kernel, hence atomics.
#[derive(Debug, Default)]
pub struct Abft {
    // One-shot armed flip (SdcSite::GemmPanel): victim panel + 1 (0 = none)
    // in `armed_panel`, stored last with Release so the panel that matches
    // it with Acquire sees its lane and bit.
    armed_panel: AtomicU64,
    armed_lane: AtomicU64,
    armed_bit: AtomicU32,
    // First violation since the last poll. A Mutex (not an atomic) because
    // the payload is a struct; contention is nil — violations are
    // one-per-injected-flip events.
    violation: Mutex<Option<AbftViolation>>,
    verifies: AtomicU64,
    violations: AtomicU64,
    verify_flops: AtomicU64,
}

impl Abft {
    /// Arms a one-shot bit flip against the result of the next verified
    /// multiply of panel `panel` (the `SdcSite::GemmPanel` injection
    /// point). `bit` is the IEEE-754 bit to XOR; `lane` selects the victim
    /// among the panel's significant entries.
    pub fn arm_flip(&self, panel: usize, lane: u64, bit: u32) {
        self.armed_lane.store(lane, Ordering::Relaxed);
        self.armed_bit.store(bit, Ordering::Relaxed);
        self.armed_panel.store(panel as u64 + 1, Ordering::Release);
    }

    /// Clears any still-armed flip, returning whether one was pending (i.e.
    /// [`Self::arm_flip`] fired but the victim panel never ran verified).
    /// The solver polls this after a step to learn whether an armed flip
    /// actually landed.
    pub fn disarm(&self) -> bool {
        self.armed_panel.swap(0, Ordering::AcqRel) != 0
    }

    // Only the victim panel matches, and one batch multiplies each panel
    // once, so the flip has exactly one taker whatever the pool size.
    fn take_armed(&self, panel: usize) -> Option<(u64, u32)> {
        let tag = panel as u64 + 1;
        // The plain load keeps every other panel off the shared line.
        let mine = self.armed_panel.load(Ordering::Relaxed) == tag
            && self
                .armed_panel
                .compare_exchange(tag, 0, Ordering::Acquire, Ordering::Relaxed)
                .is_ok();
        mine.then(|| {
            (self.armed_lane.load(Ordering::Relaxed), self.armed_bit.load(Ordering::Relaxed))
        })
    }

    /// Takes the first checksum violation recorded since the last poll.
    pub fn take_violation(&self) -> Option<AbftViolation> {
        self.violation.lock().expect("no panic while the violation slot is held").take()
    }

    /// Verifications performed so far.
    pub fn verifies(&self) -> u64 {
        self.verifies.load(Ordering::Relaxed)
    }

    /// Checksum violations recorded so far.
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// Drains the accumulated checksum-arithmetic flop count (for energy
    /// billing of the audit overhead).
    pub fn take_verify_flops(&self) -> u64 {
        self.verify_flops.swap(0, Ordering::Relaxed)
    }

    fn record_violation(&self, v: AbftViolation) {
        self.violations.fetch_add(1, Ordering::Relaxed);
        let mut slot = self.violation.lock().expect("no panic while the violation slot is held");
        if slot.is_none() {
            *slot = Some(v);
        }
    }
}

// Column-sum scratch, one high-water pool per thread: [pre | pre_abs]
// (n each) then [w | w_abs] (k each).
thread_local! {
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

// op(A)[i, p]: A is stored column-major m x k for `N`, k x m for `T`.
#[inline]
fn op_a_elem(a: &[f64], op: Op, m: usize, k: usize, i: usize, p: usize) -> f64 {
    match op {
        Op::N => a[i + p * m],
        Op::T => a[p + i * k],
    }
}

/// Column sums of a column-major `m x n` panel (test/diagnostic helper;
/// the hot path uses the in-place scratch variant).
pub fn column_sums(m: usize, n: usize, c: &[f64]) -> Vec<f64> {
    (0..n).map(|j| c[j * m..j * m + m].iter().sum()).collect()
}

/// Checks the Huang–Abraham column identity for a completed
/// `C = alpha * op_a(A) * op_b(B) + beta * C_pre`, given the column sums
/// of `C_pre` (signed and absolute) captured before the multiply.
/// Returns the first violated column, or `None` when every column is
/// within the rounding band. Pure — the property tests drive it directly.
pub fn check_columns(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    op_a: Op,
    b: &[f64],
    op_b: Op,
    beta: f64,
    pre: &[f64],
    pre_abs: &[f64],
    c_post: &[f64],
    w: &mut [f64],
    w_abs: &mut [f64],
) -> Option<AbftViolation> {
    debug_assert!(w.len() >= k && w_abs.len() >= k);
    // w = e^T op(A): column sums of the (transposed-as-needed) operand.
    for p in 0..k {
        let (mut s, mut sa) = (0.0, 0.0);
        for i in 0..m {
            let v = op_a_elem(a, op_a, m, k, i, p);
            s += v;
            sa += v.abs();
        }
        w[p] = s;
        w_abs[p] = sa;
    }
    let eps_band = ABFT_GUARD * (m + k) as f64 * f64::EPSILON;
    for j in 0..n {
        let (mut wb, mut wb_abs) = (0.0, 0.0);
        for p in 0..k {
            let bv = match op_b {
                Op::N => b[p + j * k],
                Op::T => b[j + p * n],
            };
            wb += w[p] * bv;
            wb_abs += w_abs[p] * bv.abs();
        }
        let post: f64 = c_post[j * m..j * m + m].iter().sum();
        let predicted = alpha * wb + beta * pre[j];
        let scale = alpha.abs() * wb_abs + beta.abs() * pre_abs[j];
        let measured = (post - predicted).abs();
        let tolerance = eps_band * scale + f64::MIN_POSITIVE;
        // `partial_cmp` so a NaN on either side (a corrupted panel can
        // poison the sums) trips the violation instead of passing.
        use std::cmp::Ordering::{Equal, Less};
        if !matches!(measured.partial_cmp(&tolerance), Some(Less | Equal)) {
            return Some(AbftViolation { m, n, k, column: j, measured, tolerance });
        }
    }
    None
}

/// Flips `bit` of the `lane`-th significant entry of `c` (entries at or
/// above 10% of the panel max). Mirrors `gpu_sim::apply_flip` without the
/// dependency (la sits below gpu-sim in the crate graph). Returns whether
/// a flip landed (an all-zero panel has nothing significant to corrupt).
fn flip_panel(c: &mut [f64], lane: u64, bit: u32) -> bool {
    let max_abs = c.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
    if max_abs <= 0.0 || !max_abs.is_finite() {
        return false;
    }
    let threshold = 0.1 * max_abs;
    let eligible = c.iter().filter(|x| x.abs() >= threshold).count();
    let pick = (lane % eligible as u64) as usize;
    if let Some((i, _)) = c.iter().enumerate().filter(|(_, x)| x.abs() >= threshold).nth(pick) {
        c[i] = f64::from_bits(c[i].to_bits() ^ (1u64 << bit));
        true
    } else {
        false
    }
}

impl Abft {
    /// `C = alpha * op_a(A) * op_b(B) + beta * C` through the tiled core,
    /// with Huang–Abraham column checksums verified around it. `panel` is
    /// the result's index in its batch — what [`Self::arm_flip`] names.
    /// The multiply itself is the identical [`tile::gemm`] call, so the
    /// no-fault result is bitwise-identical to the unchecked path.
    pub fn gemm(
        &self,
        panel: usize,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        op_a: Op,
        b: &[f64],
        op_b: Op,
        beta: f64,
        c: &mut [f64],
    ) {
        SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            let need = 2 * n + 2 * k;
            if s.len() < need {
                s.resize(need, 0.0);
            }
            let (pre_all, w_all) = s.split_at_mut(2 * n);
            let (pre, pre_abs) = pre_all.split_at_mut(n);
            let (w, w_abs) = w_all.split_at_mut(k);
            if beta != 0.0 {
                for j in 0..n {
                    let col = &c[j * m..j * m + m];
                    pre[j] = col.iter().sum();
                    pre_abs[j] = col.iter().map(|x| x.abs()).sum();
                }
            } else {
                pre[..n].fill(0.0);
                pre_abs[..n].fill(0.0);
            }

            tile::gemm(m, n, k, alpha, a, op_a, b, op_b, beta, c);

            // SdcSite::GemmPanel injection point: corrupt the freshly
            // written result panel before verification, exactly where a
            // device-memory strike during the epilogue would land.
            if let Some((lane, bit)) = self.take_armed(panel) {
                flip_panel(&mut c[..m * n], lane, bit);
            }

            self.verifies.fetch_add(1, Ordering::Relaxed);
            self.verify_flops
                .fetch_add((4 * (m * n + m * k + k * n)) as u64, Ordering::Relaxed);
            if let Some(v) =
                check_columns(m, n, k, alpha, a, op_a, b, op_b, beta, pre, pre_abs, c, w, w_abs)
            {
                self.record_violation(v);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(len: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..len).map(f).collect()
    }

    #[test]
    fn clean_gemm_passes_checksums() {
        let (m, n, k) = (7, 5, 6);
        let a = filled(m * k, |i| (i as f64 * 0.37).sin());
        let b = filled(k * n, |i| (i as f64 * 0.11).cos());
        let mut c = filled(m * n, |i| 0.01 * i as f64);
        let pre = column_sums(m, n, &c);
        let pre_abs: Vec<f64> =
            (0..n).map(|j| c[j * m..j * m + m].iter().map(|x| x.abs()).sum()).collect();
        tile::gemm(m, n, k, 1.3, &a, Op::N, &b, Op::N, 0.7, &mut c);
        let mut w = vec![0.0; k];
        let mut w_abs = vec![0.0; k];
        let v = check_columns(
            m, n, k, 1.3, &a, Op::N, &b, Op::N, 0.7, &pre, &pre_abs, &c, &mut w, &mut w_abs,
        );
        assert!(v.is_none(), "clean multiply must verify: {v:?}");
    }

    #[test]
    fn flipped_result_entry_is_detected() {
        let (m, n, k) = (8, 4, 5);
        let a = filled(m * k, |i| 1.0 + (i % 7) as f64);
        let b = filled(k * n, |i| 0.5 - (i % 3) as f64);
        let mut c = vec![0.0; m * n];
        tile::gemm(m, n, k, 1.0, &a, Op::N, &b, Op::N, 0.0, &mut c);
        assert!(flip_panel(&mut c, 3, 48), "a significant entry exists");
        let pre = vec![0.0; n];
        let mut w = vec![0.0; k];
        let mut w_abs = vec![0.0; k];
        let v = check_columns(
            m, n, k, 1.0, &a, Op::N, &b, Op::N, 0.0, &pre, &pre, &c, &mut w, &mut w_abs,
        );
        let v = v.expect("bit 48 flip must violate the column identity");
        assert!(v.measured > v.tolerance);
    }

    #[test]
    fn checked_multiply_is_bitwise_identical_when_clean() {
        let (m, n, k) = (9, 6, 4);
        let a = filled(m * k, |i| (i as f64).sqrt() - 2.0);
        let b = filled(n * k, |i| 1.0 / (1.0 + i as f64));
        let mut plain = filled(m * n, |i| i as f64 * 1e-3);
        let mut checked = plain.clone();
        tile::gemm(m, n, k, 2.0, &a, Op::N, &b, Op::T, 0.5, &mut plain);
        let abft = Abft::default();
        abft.gemm(0, m, n, k, 2.0, &a, Op::N, &b, Op::T, 0.5, &mut checked);
        assert_eq!(plain, checked, "verification must not touch the result");
        assert_eq!((abft.verifies(), abft.violations()), (1, 0));
    }
}
