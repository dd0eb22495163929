//! The sampling-period autotuner.
//!
//! §3.2.1: "First, we parametrize every kernel as far as possible. ...
//! Second, we set up a range of values for the parameters we want to tune.
//! Artificial values, like those exceeding the shared memory, will be
//! eliminated. ... In each sampling period, the scheduler picks up a
//! candidate value and times it. After comparing all the candidates, the
//! scheduler will give an optimal one. In our test, one sampling period
//! consists of forty time steps which will be averaged to eliminate the
//! noise."

/// The paper's sampling-period length (time steps averaged per candidate).
pub const DEFAULT_SAMPLES_PER_PERIOD: usize = 40;

/// Tuner progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TunerPhase {
    /// Still timing candidate `index`.
    Sampling {
        /// Candidate currently being timed.
        index: usize,
    },
    /// All candidates timed; `best` is the winner.
    Done {
        /// Index of the fastest candidate.
        best: usize,
    },
}

/// A sampling-period autotuner over an arbitrary candidate type.
///
/// Candidates must already be *pruned* to feasible configurations (the
/// caller eliminates "artificial values, like those exceeding the shared
/// memory" — in this reproduction, configs the occupancy calculator
/// rejects).
#[derive(Clone, Debug)]
pub struct Autotuner<C> {
    candidates: Vec<C>,
    samples_per_period: usize,
    /// Accumulated time and sample count per candidate.
    totals: Vec<(f64, usize)>,
    phase: TunerPhase,
}

impl<C> Autotuner<C> {
    /// Creates a tuner over a non-empty pruned candidate list.
    pub fn new(candidates: Vec<C>, samples_per_period: usize) -> Self {
        assert!(!candidates.is_empty(), "autotuner needs at least one candidate");
        assert!(samples_per_period >= 1, "sampling period must be positive");
        let n = candidates.len();
        let phase = if n == 1 {
            TunerPhase::Done { best: 0 }
        } else {
            TunerPhase::Sampling { index: 0 }
        };
        Self { candidates, samples_per_period, totals: vec![(0.0, 0); n], phase }
    }

    /// The candidate the caller should use for the *next* time step.
    pub fn current(&self) -> &C {
        &self.candidates[self.current_index()]
    }

    /// Index of the candidate in use.
    fn current_index(&self) -> usize {
        match self.phase {
            TunerPhase::Sampling { index } => index,
            TunerPhase::Done { best } => best,
        }
    }

    /// Records the measured time of one step run with [`current`].
    ///
    /// [`current`]: Autotuner::current
    pub fn record(&mut self, time_s: f64) {
        assert!(time_s.is_finite() && time_s >= 0.0, "invalid sample");
        if let TunerPhase::Sampling { index } = self.phase {
            let slot = &mut self.totals[index];
            slot.0 += time_s;
            slot.1 += 1;
            if slot.1 >= self.samples_per_period {
                if index + 1 < self.candidates.len() {
                    self.phase = TunerPhase::Sampling { index: index + 1 };
                } else {
                    self.phase = TunerPhase::Done { best: self.argmin() };
                }
            }
        }
        // Samples arriving after Done are steady-state steps: ignored.
    }

    fn argmin(&self) -> usize {
        let mut best = 0;
        let mut best_mean = f64::INFINITY;
        for (i, &(total, n)) in self.totals.iter().enumerate() {
            if n > 0 {
                let mean = total / n as f64;
                if mean < best_mean {
                    best_mean = mean;
                    best = i;
                }
            }
        }
        best
    }

    /// Current phase.
    pub fn phase(&self) -> TunerPhase {
        self.phase
    }

    /// Whether tuning has finished.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, TunerPhase::Done { .. })
    }

    /// The winning candidate, once tuning is done.
    pub fn best(&self) -> Option<&C> {
        match self.phase {
            TunerPhase::Done { best } => Some(&self.candidates[best]),
            TunerPhase::Sampling { .. } => None,
        }
    }

    /// Mean measured time per candidate (`None` where unsampled) — the
    /// tuning curves of Figs. 5 and 7.
    pub fn mean_times(&self) -> Vec<Option<f64>> {
        self.totals
            .iter()
            .map(|&(t, n)| if n > 0 { Some(t / n as f64) } else { None })
            .collect()
    }

    /// All candidates.
    pub fn candidates(&self) -> &[C] {
        &self.candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic cost: candidate c takes (c - 7)^2 + 1 ms.
    fn cost(c: u32) -> f64 {
        ((c as f64 - 7.0).powi(2) + 1.0) * 1e-3
    }

    #[test]
    fn finds_the_fastest_candidate() {
        let cands = vec![1u32, 3, 5, 7, 9, 11];
        let mut tuner = Autotuner::new(cands, 5);
        while !tuner.is_done() {
            let c = *tuner.current();
            tuner.record(cost(c));
        }
        assert_eq!(*tuner.best().unwrap(), 7);
    }

    #[test]
    fn consumes_one_period_per_candidate() {
        let mut tuner = Autotuner::new(vec![1u32, 2, 3], 4);
        let mut steps = 0;
        while !tuner.is_done() {
            let c = *tuner.current();
            tuner.record(cost(c));
            steps += 1;
        }
        assert_eq!(steps, 3 * 4);
    }

    #[test]
    fn averaging_rejects_noise() {
        // Candidate 7 is truly faster than 9, but with noise a single
        // sample could mislead; forty averaged samples must not.
        let mut tuner = Autotuner::new(vec![9u32, 7], DEFAULT_SAMPLES_PER_PERIOD);
        let mut rng_state = 12345u64;
        let mut noise = || {
            // xorshift
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state % 1000) as f64 / 1000.0 * 2e-3 // up to 2 ms of noise
        };
        while !tuner.is_done() {
            let c = *tuner.current();
            tuner.record(cost(c) + noise());
        }
        assert_eq!(*tuner.best().unwrap(), 7);
    }

    #[test]
    fn single_candidate_is_immediately_done() {
        let tuner = Autotuner::new(vec![42u32], 40);
        assert!(tuner.is_done());
        assert_eq!(*tuner.best().unwrap(), 42);
    }

    #[test]
    fn steady_state_samples_ignored() {
        let mut tuner = Autotuner::new(vec![1u32, 2], 2);
        for _ in 0..4 {
            let c = *tuner.current();
            tuner.record(cost(c));
        }
        assert!(tuner.is_done());
        let best = tuner.current_index();
        tuner.record(99.0); // post-convergence step; must not change choice
        assert_eq!(tuner.current_index(), best);
    }

    #[test]
    fn mean_times_expose_tuning_curve() {
        let cands = vec![2u32, 7, 12];
        let mut tuner = Autotuner::new(cands, 3);
        while !tuner.is_done() {
            let c = *tuner.current();
            tuner.record(cost(c));
        }
        let curve = tuner.mean_times();
        assert_eq!(curve.len(), 3);
        assert!((curve[0].unwrap() - cost(2)).abs() < 1e-12);
        assert!((curve[1].unwrap() - cost(7)).abs() < 1e-12);
        assert!(curve[1].unwrap() < curve[0].unwrap());
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_rejected() {
        Autotuner::<u32>::new(vec![], 1);
    }

    #[test]
    #[should_panic(expected = "invalid sample")]
    fn nan_sample_rejected() {
        let mut tuner = Autotuner::new(vec![1u32, 2], 1);
        tuner.record(f64::NAN);
    }
}
