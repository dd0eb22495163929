//! Deterministic fault injection for the simulated device.
//!
//! Real CPU-GPU production runs fail in a handful of well-known ways:
//! device allocations exhaust DRAM (the paper hit this at 16^3 Q4-Q3
//! zones), kernel launches sporadically fail, DRAM develops uncorrectable
//! ECC errors, and PCIe transfers time out. A [`FaultPlan`] injects these
//! at configured per-site rates and/or at scheduled operation indices, all
//! drawn from a seeded counter-based generator so a run is exactly
//! reproducible from its seed.
//!
//! Faults are injected *before* the kernel body executes: a failed launch
//! never ran, so retried or CPU-degraded execution stays bit-identical to
//! a fault-free run. The [`RetryPolicy`] governs bounded retries with
//! exponential backoff; backoff is charged to the device clock as idle
//! time, which the power trace bills at idle watts — recovery has a
//! visible, quantified energy cost.

/// Direction of a PCIe transfer, for error attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferDir {
    /// Host to device.
    H2d,
    /// Device to host.
    D2h,
}

impl std::fmt::Display for TransferDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferDir::H2d => write!(f, "h2d"),
            TransferDir::D2h => write!(f, "d2h"),
        }
    }
}

/// A typed device error, attributed to the failing operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GpuError {
    /// Device memory exhausted (real capacity or injected allocator fault).
    Oom {
        /// Device name.
        device: String,
        /// Bytes requested by the failing allocation.
        requested: usize,
        /// Bytes already allocated.
        in_use: usize,
        /// Device DRAM capacity.
        capacity: usize,
    },
    /// A kernel launch failed and retries were exhausted.
    LaunchFailed {
        /// Kernel name.
        kernel: String,
        /// Total attempts made (1 + retries).
        attempts: u32,
    },
    /// An uncorrectable ECC/DRAM error was detected at launch.
    Ecc {
        /// Kernel name.
        kernel: String,
        /// Total attempts made (1 + retries).
        attempts: u32,
    },
    /// A PCIe transfer failed and retries were exhausted.
    Transfer {
        /// Transfer direction.
        direction: TransferDir,
        /// Transfer size in bytes.
        bytes: usize,
        /// Total attempts made (1 + retries).
        attempts: u32,
    },
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::Oom { device, requested, in_use, capacity } => write!(
                f,
                "out of device memory on {device}: requested {requested} B with {in_use} of {capacity} B in use"
            ),
            GpuError::LaunchFailed { kernel, attempts } => {
                write!(f, "kernel launch failed: {kernel} ({attempts} attempts)")
            }
            GpuError::Ecc { kernel, attempts } => {
                write!(f, "uncorrectable ECC error in {kernel} ({attempts} attempts)")
            }
            GpuError::Transfer { direction, bytes, attempts } => {
                write!(f, "PCIe {direction} transfer of {bytes} B failed ({attempts} attempts)")
            }
        }
    }
}

impl std::error::Error for GpuError {}

impl From<GpuError> for String {
    fn from(e: GpuError) -> Self {
        e.to_string()
    }
}

impl GpuError {
    /// Whether retrying the same operation can possibly succeed. OOM is
    /// deterministic (the memory is simply not there); the transient
    /// classes may clear on retry.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, GpuError::Oom { .. })
    }
}

/// The injectable fault classes, one per device operation site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// `alloc` reports device OOM.
    AllocOom,
    /// `launch` fails before the kernel runs.
    LaunchFail,
    /// `launch` detects an uncorrectable ECC/DRAM error.
    EccError,
    /// `h2d` transfer fails.
    H2dFail,
    /// `d2h` transfer fails.
    D2hFail,
}

/// Number of [`FaultKind`] variants (rate/counter array size).
pub const NUM_FAULT_KINDS: usize = 5;

/// Environment variable overriding fault seeds across the whole stack.
///
/// Read in exactly one place ([`fault_seed_from_env`]); every constructor
/// that honors the override goes through it, so `BLAST_FAULT_SEED=42` on a
/// test or example reproduces one specific chaos draw everywhere.
pub const FAULT_SEED_ENV: &str = "BLAST_FAULT_SEED";

/// Parses [`FAULT_SEED_ENV`] if set to a valid `u64`; `None` otherwise.
pub fn fault_seed_from_env() -> Option<u64> {
    std::env::var(FAULT_SEED_ENV).ok().and_then(|v| v.trim().parse::<u64>().ok())
}

impl FaultKind {
    /// Dense index for per-kind arrays.
    pub fn index(self) -> usize {
        match self {
            FaultKind::AllocOom => 0,
            FaultKind::LaunchFail => 1,
            FaultKind::EccError => 2,
            FaultKind::H2dFail => 3,
            FaultKind::D2hFail => 4,
        }
    }
}

/// A fault scheduled at a specific operation index of its site.
///
/// `persistent: false` fails only the first attempt of that operation (a
/// transient glitch a retry clears); `persistent: true` fails every attempt
/// of that operation and every later one — the device is gone for good,
/// which is what drives the solver's CPU fallback.
#[derive(Clone, Copy, Debug)]
pub struct ScheduledFault {
    /// Which site fails.
    pub kind: FaultKind,
    /// 0-based operation index at the site where the fault first fires.
    pub at_op: u64,
    /// Whether the fault persists for all subsequent attempts and ops.
    pub persistent: bool,
}

/// Seeded fault-injection plan: per-site random rates plus scheduled
/// deterministic faults.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for the rate draws; the same seed reproduces the same faults.
    pub seed: u64,
    rates: [f64; NUM_FAULT_KINDS],
    scheduled: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// A plan injecting nothing (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// An empty seeded plan; add rates/schedules with the builders.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Like [`FaultPlan::seeded`], but [`FAULT_SEED_ENV`] overrides
    /// `default_seed` when set.
    pub fn seeded_from_env(default_seed: u64) -> Self {
        Self::seeded(fault_seed_from_env().unwrap_or(default_seed))
    }

    /// Sets the per-operation fault probability of one site.
    pub fn with_rate(mut self, kind: FaultKind, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate out of [0,1]");
        self.rates[kind.index()] = rate;
        self
    }

    /// Schedules a transient fault: the `at_op`-th operation of `kind`
    /// fails once, then its retry succeeds.
    pub fn with_transient(mut self, kind: FaultKind, at_op: u64) -> Self {
        self.scheduled.push(ScheduledFault { kind, at_op, persistent: false });
        self
    }

    /// Schedules a persistent fault: from the `at_op`-th operation of
    /// `kind` onward, every attempt fails (the device is lost).
    pub fn with_persistent(mut self, kind: FaultKind, at_op: u64) -> Self {
        self.scheduled.push(ScheduledFault { kind, at_op, persistent: true });
        self
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.rates.iter().any(|&r| r > 0.0) || !self.scheduled.is_empty()
    }

    /// Decides whether attempt `attempt` of operation `op` at site `kind`
    /// faults. Pure function of `(plan, kind, op, attempt)` — thread
    /// interleaving cannot change the outcome.
    pub fn injects(&self, kind: FaultKind, op: u64, attempt: u32) -> bool {
        for s in &self.scheduled {
            if s.kind != kind {
                continue;
            }
            if s.persistent && op >= s.at_op {
                return true;
            }
            if !s.persistent && op == s.at_op && attempt == 0 {
                return true;
            }
        }
        let rate = self.rates[kind.index()];
        if rate <= 0.0 {
            return false;
        }
        // Independent draw per (site, op, attempt): a retried attempt
        // re-rolls, so transient rate faults clear with probability 1-rate.
        fault_draw(self.seed, kind.index() as u64, op * 64 + attempt as u64) < rate
    }
}

/// Counter-based splitmix64 draw in `[0, 1)`.
///
/// Shared by the fault-plan rate draws and the retry policy's
/// deterministic backoff jitter: a pure function of
/// `(seed, stream, counter)`, so neither thread interleaving nor call
/// order can change an outcome.
pub fn fault_draw(seed: u64, stream: u64, counter: u64) -> f64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ counter.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Draw stream reserved for retry-backoff jitter (disjoint from the
/// [`FaultKind::index`] streams 0..=4 used by rate draws).
const JITTER_STREAM: u64 = 0x0BAC_C0FF;

/// Bounded-retry policy with capped, jittered exponential backoff.
///
/// Backoff is *simulated* time: each failed attempt advances the device
/// clock, and the power trace bills the gap at idle watts, so recovery has
/// a measurable energy cost (see `ResilienceReport` in `powermon`).
///
/// The same type governs two retry ladders: device-operation retries
/// inside `GpuDevice` (its original home) and whole-job retries in
/// `blast-serve` (via the canonical re-export in `blast_core::retry`).
/// The default is the plain uncapped, jitter-free exponential the device
/// always used; job-level users opt into a cap ([`Self::with_cap`]) and
/// deterministic seed-driven jitter ([`Self::with_jitter`]) to avoid
/// retry storms synchronizing across tenants.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (total attempts = 1 + this).
    pub max_retries: u32,
    /// Backoff charged after the first failed attempt, seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied to the backoff after each further failure.
    pub multiplier: f64,
    /// Hard ceiling on a single backoff wait, seconds (applied *after*
    /// jitter, so the cap is absolute). Infinite by default.
    pub max_backoff_s: f64,
    /// Jitter fraction in `[0, 1]`: each wait is scaled by a deterministic
    /// factor in `[1 - jitter, 1 + jitter)` drawn from
    /// [`fault_draw`]`(jitter_seed, _, attempt)`. Zero (the default)
    /// reproduces the exact historical backoff bit-for-bit.
    pub jitter: f64,
    /// Seed of the jitter draws; give each job its own seed so their
    /// retry schedules decorrelate.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // ~CUDA driver-level retry scale: microseconds-to-milliseconds.
        Self {
            max_retries: 3,
            base_backoff_s: 100e-6,
            multiplier: 4.0,
            max_backoff_s: f64::INFINITY,
            jitter: 0.0,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// No retries: the first fault is final.
    pub fn no_retries() -> Self {
        Self { max_retries: 0, ..Self::default() }
    }

    /// Caps every individual backoff wait at `seconds`.
    #[must_use]
    pub fn with_cap(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0, "backoff cap must be positive");
        self.max_backoff_s = seconds;
        self
    }

    /// Enables deterministic jitter: waits scale by `[1 - frac, 1 + frac)`
    /// drawn from `seed` (pure function of `(seed, attempt)`).
    #[must_use]
    pub fn with_jitter(mut self, frac: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "jitter fraction out of [0,1]");
        self.jitter = frac;
        self.jitter_seed = seed;
        self
    }

    /// Backoff charged after failed attempt number `attempt` (0-based):
    /// exponential, then jittered, then capped.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        let mut wait = self.base_backoff_s * self.multiplier.powi(attempt as i32);
        if self.jitter > 0.0 {
            let u = fault_draw(self.jitter_seed, JITTER_STREAM, attempt as u64);
            wait *= 1.0 + self.jitter * (2.0 * u - 1.0);
        }
        wait.min(self.max_backoff_s)
    }

    /// Whether the policy gives up after `retries_done` retries have
    /// already been spent (i.e. no further attempt is allowed).
    pub fn gives_up_after(&self, retries_done: u32) -> bool {
        retries_done >= self.max_retries
    }
}

/// Draw stream reserved for deriving SDC flip parameters (bit position and
/// victim lane) — disjoint from the [`FaultKind::index`] streams 0..=4 and
/// from [`JITTER_STREAM`].
const SDC_STREAM: u64 = 0x5DC_B17F;

/// Where a planned silent bit flip lands.
///
/// The sites mirror the data-motion stations of one hydro step: resident
/// device buffers (the freshly computed accelerations), D2H transfer
/// payloads (the energy-rate vector shipped back to the host), the host
/// state arrays `(v, e, x)` after the step commit, and the operand/result
/// panels of the tiled GEMM hot path (armed on the solver's own
/// `blast_la::Abft`, so it needs `AuditConfig::abft`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SdcSite {
    /// A device-resident buffer (the momentum solve's acceleration vector).
    DeviceBuffer,
    /// A D2H transfer payload (the energy-rate vector).
    TransferPayload,
    /// A committed host state array (`v`, `e` or `x`, selected by the lane).
    HostState,
    /// A GEMM output panel inside the tiled `blast-la` hot path.
    GemmPanel,
}

/// Number of [`SdcSite`] variants.
pub const NUM_SDC_SITES: usize = 4;

impl SdcSite {
    /// Dense index for per-site derivation streams.
    pub fn index(self) -> usize {
        match self {
            SdcSite::DeviceBuffer => 0,
            SdcSite::TransferPayload => 1,
            SdcSite::HostState => 2,
            SdcSite::GemmPanel => 3,
        }
    }

    /// All sites, in index order (campaign sweeps iterate this).
    pub const ALL: [SdcSite; NUM_SDC_SITES] =
        [SdcSite::DeviceBuffer, SdcSite::TransferPayload, SdcSite::HostState, SdcSite::GemmPanel];
}

impl std::fmt::Display for SdcSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SdcSite::DeviceBuffer => write!(f, "device-buffer"),
            SdcSite::TransferPayload => write!(f, "transfer-payload"),
            SdcSite::HostState => write!(f, "host-state"),
            SdcSite::GemmPanel => write!(f, "gemm-panel"),
        }
    }
}

/// One planned silent bit flip.
///
/// `bit` is the IEEE-754 bit to XOR (high mantissa / exponent range — see
/// [`SdcPlan::flip_bit_range`]); `lane` deterministically selects the
/// victim element among the significant entries of the target buffer.
/// A transient flip fires exactly once, at step-attempt ordinal `at_step`;
/// a persistent flip re-fires on every attempt from `at_step` onward (a
/// stuck bit that no in-place redo can clear — the lethal-burst case).
#[derive(Clone, Copy, Debug)]
pub struct SdcFault {
    /// Which data-motion station the flip corrupts.
    pub site: SdcSite,
    /// 0-based step-attempt ordinal at which the flip (first) fires.
    pub at_step: u64,
    /// IEEE-754 bit index to XOR (0 = mantissa LSB, 62 = exponent MSB).
    pub bit: u32,
    /// Selects the victim element among significant entries of the buffer.
    pub lane: u64,
    /// Whether the flip re-fires on every later attempt (stuck bit).
    pub persistent: bool,
}

/// Outcome of applying one flip to a concrete buffer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SdcHit {
    /// Index of the flipped element.
    pub index: usize,
    /// Value before the flip.
    pub before: f64,
    /// Value after the flip.
    pub after: f64,
}

/// Seeded plan of silent-data-corruption bit flips.
///
/// Like [`FaultPlan`], the plan is a pure function of its seed: the bit
/// position and victim lane of each flip are derived from
/// `(seed, site, fault ordinal)` through [`fault_draw`], so a campaign run
/// is exactly replayable from `BLAST_FAULT_SEED`. Fired transient flips
/// are tracked with interior mutability so a rolled-back step redo
/// re-executes clean — exactly how a one-shot particle strike behaves.
#[derive(Clone, Debug, Default)]
pub struct SdcPlan {
    /// Seed of the flip-parameter draws.
    pub seed: u64,
    faults: Vec<SdcFault>,
    fired: std::cell::RefCell<Vec<bool>>,
}

impl SdcPlan {
    /// Bits eligible for injected flips: high mantissa (44..=51, relative
    /// perturbation `2^-8..2^-1`) and exponent (52..=62). Flips below this
    /// range perturb the value by less than ~4e-3 relative and model the
    /// benign strikes the auditor is *allowed* to miss; the campaign gate
    /// is about the detectable ones.
    pub const FLIP_BIT_LO: u32 = 44;
    /// Upper end (inclusive) of the injected flip bit range.
    pub const FLIP_BIT_HI: u32 = 62;

    /// A plan injecting nothing (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// An empty seeded plan; add flips with the builders.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Like [`SdcPlan::seeded`], but [`FAULT_SEED_ENV`] overrides
    /// `default_seed` when set.
    pub fn seeded_from_env(default_seed: u64) -> Self {
        Self::seeded(fault_seed_from_env().unwrap_or(default_seed))
    }

    /// Schedules one transient flip at `site` on step-attempt `at_step`,
    /// with bit and lane derived from the plan seed.
    #[must_use]
    pub fn with_flip(self, site: SdcSite, at_step: u64) -> Self {
        self.push_derived(site, at_step, false)
    }

    /// Schedules a persistent (stuck-bit) flip: it re-fires on every
    /// attempt from `at_step` onward, so no in-place redo can clear it.
    #[must_use]
    pub fn with_persistent_flip(self, site: SdcSite, at_step: u64) -> Self {
        self.push_derived(site, at_step, true)
    }

    /// Schedules a fully explicit flip (tests pin exact bits).
    #[must_use]
    pub fn with_flip_at(mut self, fault: SdcFault) -> Self {
        self.arm(fault);
        self
    }

    /// Adds a flip to an already-installed plan — the serve chaos stream
    /// arms mid-run flips through `Hydro::arm_sdc_fault` this way.
    pub fn arm(&mut self, fault: SdcFault) {
        assert!(fault.bit <= 62, "bit 63 (the sign of a sum) is not a silent flip model");
        self.faults.push(fault);
        self.fired.borrow_mut().push(false);
    }

    fn push_derived(self, site: SdcSite, at_step: u64, persistent: bool) -> Self {
        let ordinal = self.faults.len() as u64;
        let fault = derive_fault(self.seed, site, at_step, ordinal, persistent);
        self.with_flip_at(fault)
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Planned flips (fired or not), for campaign reporting.
    pub fn faults(&self) -> &[SdcFault] {
        &self.faults
    }

    /// Returns the flip to apply at `site` on step-attempt `step`, if any.
    ///
    /// Transient flips are consumed (a later attempt of the same step — a
    /// rollback redo — re-executes clean); persistent flips re-fire on
    /// every attempt from their `at_step` onward.
    pub fn take(&self, site: SdcSite, step: u64) -> Option<SdcFault> {
        let mut fired = self.fired.borrow_mut();
        for (i, f) in self.faults.iter().enumerate() {
            if f.site != site {
                continue;
            }
            if f.persistent && step >= f.at_step {
                return Some(*f);
            }
            if !f.persistent && step == f.at_step && !fired[i] {
                fired[i] = true;
                return Some(*f);
            }
        }
        None
    }
}

/// Derives a concrete [`SdcFault`] from `(seed, site, ordinal)` — the pure
/// function behind [`SdcPlan::with_flip`], exposed so `blast-core` can arm
/// chaos-stream flips with the same replayable derivation.
pub fn derive_fault(
    seed: u64,
    site: SdcSite,
    at_step: u64,
    ordinal: u64,
    persistent: bool,
) -> SdcFault {
    let stream = SDC_STREAM + site.index() as u64;
    let span = (SdcPlan::FLIP_BIT_HI - SdcPlan::FLIP_BIT_LO + 1) as f64;
    let bit = SdcPlan::FLIP_BIT_LO + (fault_draw(seed, stream, 2 * ordinal) * span) as u32;
    let lane = (fault_draw(seed, stream, 2 * ordinal + 1) * (1u64 << 53) as f64) as u64;
    SdcFault { site, at_step, bit: bit.min(SdcPlan::FLIP_BIT_HI), lane, persistent }
}

/// XORs `fault.bit` into one significant element of `buf` and returns what
/// changed, or `None` if the buffer has no significant entry to corrupt
/// (all zeros — a flip on a zero background is outside the model).
///
/// The victim is chosen among entries with `|x| >= 0.1 * max|x|` (the
/// `lane`-th such entry, wrapping), so every injected flip perturbs data
/// that actually participates in the physics instead of vanishing into a
/// denormal nobody reads — the adversarial case a detector must catch.
pub fn apply_flip(buf: &mut [f64], fault: &SdcFault) -> Option<SdcHit> {
    let max_abs = buf.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
    if max_abs <= 0.0 || !max_abs.is_finite() {
        return None;
    }
    let threshold = 0.1 * max_abs;
    let eligible = buf.iter().filter(|x| x.abs() >= threshold).count();
    debug_assert!(eligible > 0);
    let pick = (fault.lane % eligible as u64) as usize;
    let index = buf
        .iter()
        .enumerate()
        .filter(|(_, x)| x.abs() >= threshold)
        .nth(pick)
        .map(|(i, _)| i)?;
    let before = buf[index];
    let after = f64::from_bits(before.to_bits() ^ (1u64 << fault.bit));
    buf[index] = after;
    Some(SdcHit { index, before, after })
}

/// Cumulative fault/recovery counters for one device.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Individual fault events injected (every failed attempt counts).
    pub injected: u64,
    /// Retry attempts performed.
    pub retries: u64,
    /// Operations that succeeded after at least one fault.
    pub recovered: u64,
    /// Operations that returned an error to the caller.
    pub failed: u64,
    /// Simulated seconds spent in retry backoff (billed at idle power).
    pub backoff_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_seed_overrides_the_default() {
        // Sole test touching FAULT_SEED_ENV, so no cross-test races.
        std::env::remove_var(FAULT_SEED_ENV);
        assert_eq!(fault_seed_from_env(), None);
        assert_eq!(FaultPlan::seeded_from_env(7).seed, 7);
        std::env::set_var(FAULT_SEED_ENV, " 42 ");
        assert_eq!(fault_seed_from_env(), Some(42));
        assert_eq!(FaultPlan::seeded_from_env(7).seed, 42);
        std::env::set_var(FAULT_SEED_ENV, "not-a-seed");
        assert_eq!(FaultPlan::seeded_from_env(7).seed, 7, "garbage falls back");
        std::env::remove_var(FAULT_SEED_ENV);
    }

    #[test]
    fn inactive_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for op in 0..100 {
            assert!(!plan.injects(FaultKind::LaunchFail, op, 0));
        }
    }

    #[test]
    fn rate_one_always_injects_rate_zero_never() {
        let plan = FaultPlan::seeded(1).with_rate(FaultKind::EccError, 1.0);
        for op in 0..50 {
            assert!(plan.injects(FaultKind::EccError, op, 0));
            assert!(!plan.injects(FaultKind::LaunchFail, op, 0));
        }
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(7).with_rate(FaultKind::H2dFail, 0.3);
        let b = FaultPlan::seeded(7).with_rate(FaultKind::H2dFail, 0.3);
        let c = FaultPlan::seeded(8).with_rate(FaultKind::H2dFail, 0.3);
        let pattern = |p: &FaultPlan| -> Vec<bool> {
            (0..256).map(|op| p.injects(FaultKind::H2dFail, op, 0)).collect()
        };
        assert_eq!(pattern(&a), pattern(&b));
        assert_ne!(pattern(&a), pattern(&c));
        let hits = pattern(&a).iter().filter(|&&h| h).count();
        assert!(hits > 40 && hits < 120, "rate 0.3 of 256: got {hits}");
    }

    #[test]
    fn transient_schedule_fails_first_attempt_only() {
        let plan = FaultPlan::seeded(0).with_transient(FaultKind::LaunchFail, 3);
        assert!(!plan.injects(FaultKind::LaunchFail, 2, 0));
        assert!(plan.injects(FaultKind::LaunchFail, 3, 0));
        assert!(!plan.injects(FaultKind::LaunchFail, 3, 1), "retry clears it");
        assert!(!plan.injects(FaultKind::LaunchFail, 4, 0));
    }

    #[test]
    fn persistent_schedule_fails_all_later_attempts() {
        let plan = FaultPlan::seeded(0).with_persistent(FaultKind::LaunchFail, 5);
        assert!(!plan.injects(FaultKind::LaunchFail, 4, 3));
        for op in 5..10 {
            for attempt in 0..4 {
                assert!(plan.injects(FaultKind::LaunchFail, op, attempt));
            }
        }
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy {
            max_retries: 3,
            base_backoff_s: 1e-4,
            multiplier: 4.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_s(0), 1e-4);
        assert_eq!(p.backoff_s(1), 4e-4);
        assert_eq!(p.backoff_s(2), 16e-4);
    }

    #[test]
    fn backoff_cap_is_a_hard_ceiling() {
        let p = RetryPolicy::default().with_cap(5e-4);
        assert_eq!(p.backoff_s(0), 1e-4, "below the cap: untouched");
        assert_eq!(p.backoff_s(1), 4e-4);
        assert_eq!(p.backoff_s(2), 5e-4, "16e-4 clamps to the cap");
        assert_eq!(p.backoff_s(9), 5e-4, "deep attempts stay capped");
        // The cap is absolute: even maximal upward jitter cannot pierce it.
        let pj = p.with_jitter(1.0, 123);
        for attempt in 0..16 {
            assert!(pj.backoff_s(attempt) <= 5e-4 + 1e-18);
        }
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_seed_sensitive() {
        let base = RetryPolicy::default();
        let a = base.with_jitter(0.5, 7);
        let b = base.with_jitter(0.5, 7);
        let c = base.with_jitter(0.5, 8);
        let schedule = |p: &RetryPolicy| -> Vec<f64> {
            (0..8).map(|k| p.backoff_s(k)).collect()
        };
        assert_eq!(schedule(&a), schedule(&b), "same seed, same schedule");
        assert_ne!(schedule(&a), schedule(&c), "seed must matter");
        for attempt in 0..8 {
            let raw = base.backoff_s(attempt);
            let j = a.backoff_s(attempt);
            assert!(j >= raw * 0.5 - 1e-18 && j < raw * 1.5, "attempt {attempt}: {j} vs {raw}");
        }
        // jitter = 0 reproduces the historical schedule bit-for-bit.
        assert_eq!(schedule(&base), schedule(&base.with_jitter(0.0, 999)));
    }

    #[test]
    fn give_up_boundary_matches_max_retries() {
        let p = RetryPolicy { max_retries: 2, ..RetryPolicy::default() };
        assert!(!p.gives_up_after(0));
        assert!(!p.gives_up_after(1));
        assert!(p.gives_up_after(2));
        assert!(RetryPolicy::no_retries().gives_up_after(0));
    }

    #[test]
    fn oom_is_not_retryable_but_transients_are() {
        let oom = GpuError::Oom { device: "K20".into(), requested: 1, in_use: 0, capacity: 0 };
        assert!(!oom.is_retryable());
        assert!(GpuError::LaunchFailed { kernel: "k".into(), attempts: 1 }.is_retryable());
        assert!(GpuError::Ecc { kernel: "k".into(), attempts: 1 }.is_retryable());
        let t = GpuError::Transfer { direction: TransferDir::H2d, bytes: 8, attempts: 1 };
        assert!(t.is_retryable());
    }

    #[test]
    fn sdc_plan_is_deterministic_and_seed_sensitive() {
        let a = SdcPlan::seeded(7).with_flip(SdcSite::HostState, 3);
        let b = SdcPlan::seeded(7).with_flip(SdcSite::HostState, 3);
        let c = SdcPlan::seeded(8).with_flip(SdcSite::HostState, 3);
        let fa = a.faults()[0];
        let fb = b.faults()[0];
        let fc = c.faults()[0];
        assert_eq!((fa.bit, fa.lane), (fb.bit, fb.lane), "same seed, same flip");
        assert_ne!((fa.bit, fa.lane), (fc.bit, fc.lane), "seed must matter");
        assert!((SdcPlan::FLIP_BIT_LO..=SdcPlan::FLIP_BIT_HI).contains(&fa.bit));
    }

    #[test]
    fn transient_flip_fires_once_then_redo_is_clean() {
        let plan = SdcPlan::seeded(1).with_flip(SdcSite::DeviceBuffer, 5);
        assert!(plan.take(SdcSite::DeviceBuffer, 4).is_none());
        assert!(plan.take(SdcSite::TransferPayload, 5).is_none(), "wrong site");
        assert!(plan.take(SdcSite::DeviceBuffer, 5).is_some());
        assert!(plan.take(SdcSite::DeviceBuffer, 5).is_none(), "consumed");
        assert!(plan.take(SdcSite::DeviceBuffer, 6).is_none());
    }

    #[test]
    fn persistent_flip_refires_every_attempt() {
        let plan = SdcPlan::seeded(1).with_persistent_flip(SdcSite::HostState, 5);
        assert!(plan.take(SdcSite::HostState, 4).is_none());
        for step in 5..9 {
            assert!(plan.take(SdcSite::HostState, step).is_some(), "step {step}");
        }
    }

    #[test]
    fn apply_flip_targets_a_significant_entry() {
        let fault = SdcFault {
            site: SdcSite::HostState,
            at_step: 0,
            bit: 52,
            lane: 1,
            persistent: false,
        };
        // Entries below 10% of the max are ineligible victims.
        let mut buf = vec![1e-6, 2.0, 1e-9, -1.5, 0.05];
        let hit = apply_flip(&mut buf, &fault).expect("significant entries exist");
        assert!(hit.index == 1 || hit.index == 3, "victim must be significant");
        let ratio = hit.after / hit.before;
        assert!(ratio == 2.0 || ratio == 0.5, "exponent-LSB flip scales by 2 or 1/2");
        assert_eq!(buf[hit.index], hit.after);

        let mut zeros = vec![0.0; 8];
        assert!(apply_flip(&mut zeros, &fault).is_none(), "zero background: no-op");
    }

    #[test]
    fn oom_display_keeps_the_canonical_phrase() {
        let oom = GpuError::Oom { device: "K20".into(), requested: 10, in_use: 5, capacity: 8 };
        let s: String = oom.into();
        assert!(s.contains("out of device memory on K20"));
        assert!(s.contains("requested 10 B with 5 of 8 B in use"));
    }
}
