//! Fig. 14 — RAPL power of the two E5-2670 packages: one fully loaded with
//! the 3D Q2-Q1 run (8 MPI tasks, no GPU), the other idle.

use powermon::{CpuPowerModel, CpuPowerState, PowerTrace};

use crate::table;

/// The Fig. 14 readings: `(busy pkg, busy dram, idle pkg, idle dram)`.
pub fn measure() -> (f64, f64, f64, f64) {
    let m = CpuPowerModel::e5_2670();
    let busy = m.read(CpuPowerState::Busy, 1.0);
    let idle = m.read(CpuPowerState::Idle, 0.0);
    (busy.pkg_watts, busy.dram_watts, idle.pkg_watts, idle.dram_watts)
}

/// Regenerates Fig. 14 (levels + a sampled trace like the plot).
pub fn report() -> String {
    let m = CpuPowerModel::e5_2670();
    let (bp, bd, ip, id) = measure();
    let rows = vec![
        vec!["package 0 (loaded)".into(), table::f(bp), table::f(bd)],
        vec!["package 1 (idle)".into(), table::f(ip), table::f(id)],
    ];
    let mut out = table::render(
        "Fig. 14 — dual E5-2670 RAPL power during a CPU-only 3D Q2-Q1 run (W)",
        &["package", "pkg_watts", "dram_watts"],
        &rows,
    );
    out.push_str(&format!(
        "\nTDP 115 W; loaded package at {:.0}% of TDP (paper: 95 W = 82%, \
         \"confirms the AMD reports of the normal range of Average CPU Power\").\n",
        100.0 * bp / m.tdp_w
    ));
    // A short sampled trace: load ramps on at t = 2 s and off at t = 12 s.
    let mut trace = PowerTrace::new(m.idle_pkg_w + m.idle_dram_w);
    for (start, dur, watts) in [(0.0, 2.0, ip + id), (2.0, 10.0, bp + bd), (12.0, 3.0, ip + id)] {
        trace.push(start, dur, watts);
    }
    out.push_str("\nSampled package-0 trace (1 s period):\n  t(s)  W\n");
    for (t, w) in trace.sample_series(1.0, 14.0) {
        out.push_str(&format!("  {t:>4.0}  {w:>6.1}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn levels_match_fig14() {
        let (bp, bd, ip, id) = super::measure();
        assert!((bp - 95.0).abs() < 1e-9, "busy pkg {bp}");
        assert!((bd - 15.0).abs() < 1e-9, "busy dram {bd}");
        assert!(ip < 20.0, "idle pkg {ip}");
        assert!(id < 1.0, "idle dram {id}");
    }
}
