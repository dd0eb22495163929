//! The canonical home of the workspace's retry policy.
//!
//! [`RetryPolicy`] started life inside gpu-sim, governing device-operation
//! retries (a failed kernel launch backs off and relaunches). The job
//! supervisor (`blast-serve`) needs the *same* ladder one level up — a job
//! that dies to an injected fault backs off and is re-attempted from its
//! last checkpoint — so the type was generalized in place (capped, jittered
//! exponential backoff with deterministic seed-driven jitter) and this
//! module re-exports it as the canonical job-facing surface.
//!
//! Why a re-export instead of a literal move: `blast-core` already depends
//! on `gpu-sim` (the solver owns device handles), so hoisting the type
//! *up* into this crate would invert that edge into a cycle. The struct
//! therefore stays defined in the leaf crate and is published from here;
//! both ladders share one definition, which is the point of the
//! extraction. See DESIGN.md §13.
//!
//! Billing contract: a backoff wait is *simulated idle time*. Device-level
//! retries advance the device clock directly (gpu-sim bills the gap at
//! idle watts); job-level retries go through
//! [`Executor::bill_backoff_wait`](crate::exec::Executor::bill_backoff_wait),
//! which idles both devices and returns the joules charged so the
//! supervisor can attribute them to the retrying tenant.

pub use gpu_sim::fault::{fault_draw, RetryPolicy};

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceCatalog;
    use crate::exec::{ExecMode, Executor};
    use gpu_sim::{CpuSpec, FaultKind, FaultPlan, GpuDevice};
    use std::sync::Arc;

    #[test]
    fn cap_bounds_every_wait_and_the_worst_case_sum() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff_s: 1e-3,
            multiplier: 2.0,
            ..RetryPolicy::default()
        }
        .with_cap(4e-3);
        for attempt in 0..10 {
            assert!(p.backoff_s(attempt) <= 4e-3 + 1e-18, "attempt {attempt}");
        }
        assert_eq!(p.backoff_s(0), 1e-3, "pre-cap waits are untouched");
        assert_eq!(p.backoff_s(1), 2e-3);
        assert_eq!(p.backoff_s(5), 4e-3, "32e-3 clamps");
        let worst: f64 = (0..10).map(|a| p.backoff_s(a)).sum();
        assert!(worst <= 10.0 * 4e-3 + 1e-15);
    }

    #[test]
    fn give_up_is_exact_at_the_retry_budget() {
        let p = RetryPolicy { max_retries: 3, ..RetryPolicy::default() };
        assert!(!p.gives_up_after(2), "third retry is still allowed");
        assert!(p.gives_up_after(3), "fourth is not");
        assert!(p.gives_up_after(99));
    }

    #[test]
    fn backoff_wait_is_billed_at_idle_power_on_both_devices() {
        let gpu = Arc::new(GpuDevice::new(DeviceCatalog::gpu("k20")));
        let ex = Executor::new(
            ExecMode::Gpu { base: false, gpu_pcg: false, mpi_queues: 1 },
            CpuSpec::e5_2670(),
            Some(gpu.clone()),
        );
        let p = RetryPolicy::default().with_jitter(0.25, 42).with_cap(1.0);
        let wait = p.backoff_s(2);
        assert!(wait > 0.0);

        let host0 = ex.host.now();
        let joules = ex.bill_backoff_wait(wait);
        // Both clocks advanced through the gap.
        assert!((ex.host.now() - host0 - wait).abs() < 1e-15);
        assert!((gpu.now() - wait).abs() < 1e-15);
        // And the charge is exactly idle watts x wait on both devices...
        let host_idle_w =
            ex.host.spec().power.idle_pkg_w + ex.host.spec().power.idle_dram_w;
        let idle_w = host_idle_w + gpu.spec().idle_w;
        assert!((joules - wait * idle_w).abs() <= 1e-12 * joules.max(1.0));
        // ...which is what the power traces bill for the gap too (gaps
        // integrate at idle watts), so nothing is lost or double-billed.
        let traced = ex.host.power_trace().energy(0.0, wait)
            + gpu.power_trace().energy(0.0, wait);
        assert!((traced - joules).abs() <= 1e-9 * joules.max(1.0));
    }

    #[test]
    fn device_retry_ladder_bills_the_jittered_backoff_as_idle_time() {
        // A transient launch fault with a jittered policy: the device's
        // retry ladder must charge exactly the policy's (jittered) wait.
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        dev.set_fault_plan(FaultPlan::seeded(3).with_transient(FaultKind::LaunchFail, 0));
        let policy = RetryPolicy::default().with_jitter(0.5, 7).with_cap(1.0);
        dev.set_retry_policy(policy);
        let cfg = gpu_sim::LaunchConfig {
            grid_blocks: 1,
            block_threads: 128,
            shared_bytes: 0,
            regs_per_thread: 32,
        };
        dev.launch("k", &cfg, &gpu_sim::Traffic::default(), || ()).unwrap();
        let stats = dev.fault_stats();
        assert_eq!(stats.retries, 1);
        assert!((stats.backoff_s - policy.backoff_s(0)).abs() < 1e-18);
        assert!(stats.backoff_s != RetryPolicy::default().backoff_s(0), "jitter moved the wait");
    }
}
