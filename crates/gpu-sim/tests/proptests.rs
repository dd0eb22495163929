//! Property-based tests on the device models.

use gpu_sim::{occupancy, GpuDevice, GpuSpec, LaunchConfig, Traffic};
use powermon::WINDOW;
use proptest::prelude::*;
use gpu_sim::DeviceCatalog;

fn specs() -> Vec<GpuSpec> {
    vec![DeviceCatalog::gpu("k20"), GpuSpec::c2050(), GpuSpec::k10()]
}

proptest! {
    #[test]
    fn occupancy_fraction_is_bounded(
        threads in 1u32..2048,
        smem in 0u32..48 * 1024,
        regs in 0u32..255,
        grid in 1u32..100_000,
    ) {
        for spec in specs() {
            let occ = occupancy(&spec, &LaunchConfig::new(grid, threads, smem, regs));
            prop_assert!((0.0..=1.0).contains(&occ.fraction));
            prop_assert!((0.0..=1.0).contains(&occ.device_fill));
        }
    }

    #[test]
    fn more_registers_never_raises_occupancy(
        threads in 32u32..1024,
        r1 in 8u32..120,
        extra in 1u32..100,
    ) {
        let spec = DeviceCatalog::gpu("k20");
        let o1 = occupancy(&spec, &LaunchConfig::new(1000, threads, 0, r1));
        let o2 = occupancy(&spec, &LaunchConfig::new(1000, threads, 0, (r1 + extra).min(255)));
        prop_assert!(o2.fraction <= o1.fraction + 1e-12);
    }

    #[test]
    fn more_shared_memory_never_raises_occupancy(
        threads in 32u32..512,
        s1 in 0u32..24 * 1024,
        extra in 1u32..16 * 1024,
    ) {
        let spec = DeviceCatalog::gpu("k20");
        let o1 = occupancy(&spec, &LaunchConfig::new(1000, threads, s1, 32));
        let o2 = occupancy(&spec, &LaunchConfig::new(1000, threads, s1 + extra, 32));
        prop_assert!(o2.fraction <= o1.fraction + 1e-12);
    }

    #[test]
    fn kernel_power_stays_in_physical_envelope(
        flops in 0.0..1e12f64,
        dram in 0.0..1e10f64,
        l2 in 0.0..1e10f64,
        shared in 0.0..1e10f64,
        local in 0.0..1e10f64,
    ) {
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let cfg = LaunchConfig::new(10_000, 256, 0, 32);
        let t = Traffic { flops, dram_bytes: dram, l2_bytes: l2, shared_bytes: shared, local_bytes: local };
        let stats = dev.model_kernel(&cfg, &t);
        prop_assert!(stats.power_w >= dev.spec().active_floor_w - 1e-9);
        prop_assert!(stats.power_w <= dev.spec().tdp_w + 1e-9);
        prop_assert!(stats.time_s > 0.0);
        // Achieved bandwidths never exceed the machine limits.
        prop_assert!(stats.dram_bw_gbs <= dev.spec().dram_bw_gbs + 1e-9);
        prop_assert!(stats.gflops <= dev.spec().peak_gflops_dp + 1e-9);
    }

    #[test]
    fn more_traffic_never_runs_faster(
        flops in 1e6..1e11f64,
        dram in 1e4..1e9f64,
        scale in 1.01..4.0f64,
    ) {
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let cfg = LaunchConfig::new(10_000, 256, 0, 32);
        let t1 = Traffic { flops, dram_bytes: dram, ..Default::default() };
        let t2 = t1.scale(scale);
        let s1 = dev.model_kernel(&cfg, &t1);
        let s2 = dev.model_kernel(&cfg, &t2);
        prop_assert!(s2.time_s >= s1.time_s);
    }

    #[test]
    fn energy_decomposition_is_additive(
        flops in 1e6..1e10f64,
        dram in 1e4..1e8f64,
    ) {
        // Power x time of a combined kernel >= each component alone would
        // imply (time is a max, energy is a sum): E_combined >= E_parts max.
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let cfg = LaunchConfig::new(10_000, 256, 0, 32);
        let combined = Traffic { flops, dram_bytes: dram, ..Default::default() };
        let only_flops = Traffic { flops, ..Default::default() };
        let sc = dev.model_kernel(&cfg, &combined);
        let sf = dev.model_kernel(&cfg, &only_flops);
        let e_c = sc.power_w * sc.time_s;
        let e_f = sf.power_w * sf.time_s;
        prop_assert!(e_c >= e_f - 1e-12, "adding traffic reduced energy: {e_c} < {e_f}");
    }

    #[test]
    fn clock_advances_by_exactly_the_kernel_time(
        flops in 1e6..1e10f64,
        launches in 1usize..10,
    ) {
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let cfg = LaunchConfig::new(1000, 256, 0, 32);
        let t = Traffic::compute(flops);
        let mut expect = 0.0;
        for _ in 0..launches {
            let (_, stats) = dev.launch("k", &cfg, &t, || ()).expect("no faults injected");
            expect += stats.time_s;
        }
        prop_assert!((dev.now() - expect).abs() < 1e-12 * expect.max(1.0));
        prop_assert_eq!(dev.events().len(), launches);
    }

    #[test]
    fn the_event_window_stays_bounded_and_the_totals_count_every_launch(
        picks in collection::vec(0usize..3, 10_000..2 * WINDOW),
    ) {
        const NAMES: [&str; 3] = ["k_small", "k_mid", "k_big"];
        let dev = GpuDevice::new(DeviceCatalog::gpu("k20"));
        let cfg = LaunchConfig::new(1000, 256, 0, 32);
        let mut want = [(0.0, 0usize); 3];
        for &k in &picks {
            let t = Traffic::compute(1e6 * (1 + 4 * k) as f64);
            let (_, stats) = dev.launch(NAMES[k], &cfg, &t, || ()).expect("no faults injected");
            want[k].0 += stats.time_s;
            want[k].1 += 1;
        }
        prop_assert!(dev.events().len() <= WINDOW);
        let summary = dev.kernel_summary();
        prop_assert_eq!(summary.iter().map(|&(_, _, c)| c).sum::<usize>(), picks.len());
        for (name, seconds, calls) in summary {
            let k = NAMES.iter().position(|&n| n == name).expect("a launched name");
            prop_assert_eq!((seconds.to_bits(), calls), (want[k].0.to_bits(), want[k].1));
        }
    }
}
