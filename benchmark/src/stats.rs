//! Order statistics, the regression-bound comparator and the
//! failed-operation accounting — the three rules every reported number
//! goes through, kept free of I/O so they are unit-tested here.

/// Median of `values` (mean of the two middle samples for an even count).
/// Panics on an empty slice: every caller has at least one rep.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The high end of a timing distribution, with how it was picked.
#[derive(Clone, Debug, PartialEq)]
pub struct HiPick {
    /// The picked sample.
    pub value: f64,
    /// `"p93.3"`-style percentile label, or `"max"`.
    pub label: String,
    /// Samples the pick was made from.
    pub samples: usize,
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile that still has [`MIN_BEYOND`] samples beyond it:
/// the sample of 1-based rank `n - 10`, labelled `100 (n - 10) / n`. With
/// fewer than 20 samples that rank would fall below the median, so the
/// maximum is reported instead and labelled as such.
pub fn hi_percentile(values: &[f64]) -> HiPick {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 * MIN_BEYOND {
        return HiPick {
            value: v[n - 1],
            label: "max".to_string(),
            samples: n,
        };
    }
    let rank = n - MIN_BEYOND;
    let pct = 100.0 * rank as f64 / n as f64;
    HiPick {
        value: v[rank - 1],
        label: format!("p{pct:.1}"),
        samples: n,
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// How far a metric may worsen before it counts as a regression: by more
/// than `rel` of the base value **and** by more than `abs_floor` in the
/// metric's own unit (the floor keeps a 5 ms set-up from failing on 2 ms
/// of scheduler noise; it is 0 for every metric but `setup_s`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    pub rel: f64,
    pub abs_floor: f64,
}

/// Relative worsening of `new` against `base`: positive means worse,
/// negative better, as a share of `base`.
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    delta / base.abs()
}

/// Whether `new` regressed against `base` under `bound`.
pub fn regressed(better: Better, bound: Bound, base: f64, new: f64) -> bool {
    let w = worsening(better, base, new);
    w > bound.rel && (new - base).abs() > bound.abs_floor
}

/// Whether two measurements of the same commit disagree: either one reads
/// as a regression of the other.
pub fn disagree(better: Better, bound: Bound, a: f64, b: f64) -> bool {
    regressed(better, bound, a, b) || regressed(better, bound, b, a)
}

/// Operations attempted and failed. One operation is one budgeted step of
/// one rep; a rep that errors, stops short of its budget or fails a
/// correctness check fails every step of its budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record_rep(&mut self, budget_steps: usize, ok: bool) {
        self.attempted += budget_steps as u64;
        if !ok {
            self.failed += budget_steps as u64;
        }
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn hi_is_max_below_twenty_samples() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        let hi = hi_percentile(&v);
        assert_eq!(
            hi,
            HiPick {
                value: 19.0,
                label: "max".into(),
                samples: 19
            }
        );
    }

    #[test]
    fn hi_keeps_ten_samples_beyond() {
        // 20 samples: rank 10 of 20 is p50 and has exactly 10 above it.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let hi = hi_percentile(&v);
        assert_eq!(hi.value, 10.0);
        assert_eq!(hi.label, "p50.0");
        // 200 samples, shuffled order: rank 190 is p95.
        let mut w: Vec<f64> = (1..=200).map(f64::from).collect();
        w.reverse();
        let hi = hi_percentile(&w);
        assert_eq!(hi.value, 190.0);
        assert_eq!(hi.label, "p95.0");
        assert_eq!(w.iter().filter(|&&x| x > hi.value).count(), MIN_BEYOND);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 12.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn bound_is_relative_without_a_floor() {
        let b = Bound {
            rel: 0.10,
            abs_floor: 0.0,
        };
        assert!(!regressed(Better::Lower, b, 1.0, 1.09));
        assert!(regressed(Better::Lower, b, 1.0, 1.11));
        assert!(!regressed(Better::Lower, b, 1.0, 0.5));
        assert!(regressed(Better::Higher, b, 100.0, 89.0));
        assert!(!regressed(Better::Higher, b, 100.0, 91.0));
    }

    #[test]
    fn setup_floor_needs_both_conditions() {
        let b = Bound {
            rel: 0.25,
            abs_floor: 0.020,
        };
        // +60 % but only 6 ms: under the floor.
        assert!(!regressed(Better::Lower, b, 0.010, 0.016));
        // +30 ms but only 10 %: under the relative bound.
        assert!(!regressed(Better::Lower, b, 0.300, 0.330));
        // +30 % and +30 ms: a regression.
        assert!(regressed(Better::Lower, b, 0.100, 0.130));
    }

    #[test]
    fn disagreement_is_symmetric() {
        let b = Bound {
            rel: 0.10,
            abs_floor: 0.0,
        };
        assert!(disagree(Better::Lower, b, 1.0, 1.2));
        assert!(disagree(Better::Lower, b, 1.2, 1.0));
        assert!(!disagree(Better::Lower, b, 1.0, 1.05));
    }

    #[test]
    fn failed_rep_fails_its_whole_budget() {
        let mut ops = Ops::default();
        ops.record_rep(80, true);
        ops.record_rep(80, false);
        ops.record_rep(80, true);
        assert_eq!(
            ops,
            Ops {
                attempted: 240,
                failed: 80
            }
        );
        assert!((ops.failed_share() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(Ops::default().failed_share(), 0.0);
    }
}
