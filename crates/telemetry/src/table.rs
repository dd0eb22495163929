//! Plain-text per-phase table exporter — the fixed-width breakdown the
//! `paper_report` / `fig06_kernel_breakdown` binaries print instead of
//! their previous hand-rolled formatting.

use crate::recorder::PhaseTotal;
use std::fmt::Write as _;

/// Renders `totals` as a fixed-width table with a share column (percent
/// of the summed time) and a footer row.
pub fn render_totals(title: &str, totals: &[PhaseTotal]) -> String {
    let sum: f64 = totals.iter().map(|p| p.seconds).sum();
    let name_w = totals
        .iter()
        .map(|p| p.name.len())
        .chain(["phase".len(), "total".len()])
        .max()
        .unwrap_or(5)
        .max(5);
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "  {:<name_w$}  {:>12}  {:>8}  {:>7}",
        "phase", "time (s)", "calls", "share"
    );
    let _ = writeln!(out, "  {:-<name_w$}  {:->12}  {:->8}  {:->7}", "", "", "", "");
    for p in totals {
        let share = if sum > 0.0 { 100.0 * p.seconds / sum } else { 0.0 };
        let _ = writeln!(
            out,
            "  {:<name_w$}  {:>12.6}  {:>8}  {:>6.1}%",
            p.name, p.seconds, p.calls, share
        );
    }
    let calls: u64 = totals.iter().map(|p| p.calls).sum();
    let _ = writeln!(out, "  {:-<name_w$}  {:->12}  {:->8}  {:->7}", "", "", "", "");
    let _ = writeln!(out, "  {:<name_w$}  {:>12.6}  {:>8}  {:>6.1}%", "total", sum, calls, 100.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Telemetry, Track};

    #[test]
    fn table_lists_phases_by_descending_time_with_shares() {
        let t = Telemetry::new();
        t.span(Track::Host, "corner_force", 0.0, 3.0);
        t.span(Track::Host, "cg_solver", 3.0, 1.0);
        let out = render_totals("phase breakdown [host]", &t.phase_totals(Some(Track::Host)));
        let cf = out.find("corner_force").unwrap();
        let cg = out.find("cg_solver").unwrap();
        assert!(cf < cg, "sorted by time desc:\n{out}");
        assert!(out.contains("75.0%"), "{out}");
        assert!(out.contains("25.0%"), "{out}");
        assert!(out.contains("total"), "{out}");
    }

    #[test]
    fn empty_table_renders_zero_total() {
        let t = Telemetry::new();
        let out = render_totals("phase breakdown [all tracks]", &t.phase_totals(None));
        assert!(out.contains("total"));
    }
}
