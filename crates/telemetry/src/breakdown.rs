//! Per-stage sim-time and energy attribution rolled up from span events.
//!
//! A [`StageBreakdown`] aggregates every recorded span into
//! (track, category, stage) rows — the same decomposition the paper argues
//! its wins with (acquisition vs. conversion vs. compute vs. readout) —
//! and renders them as a table or as flat metrics for
//! [`json::emit`](crate::json::emit).

use crate::json::BenchMetric;
use crate::{EventKind, TraceEvent};
use std::fmt::Write as _;

/// Aggregated totals for one (track, category, stage) combination.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTotals {
    /// Track the spans were recorded on, e.g. `session:kernel:sobel-x`.
    pub track: String,
    /// Span category, e.g. `"stage"` or `"request"`.
    pub category: String,
    /// Stage name, e.g. `"mac_rows"` or `"readout"`.
    pub stage: String,
    /// Number of spans aggregated.
    pub count: u64,
    /// Total simulated time in nanoseconds.
    pub sim_ns: f64,
    /// Total attributed energy in picojoules.
    pub energy_pj: f64,
}

/// A rollup of span events into per-stage totals.
///
/// Only [`EventKind::Span`] events contribute; instants and counters carry
/// no duration or energy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageBreakdown {
    rows: Vec<StageTotals>,
}

impl StageBreakdown {
    /// Creates an empty breakdown.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event into the rollup (spans only).
    pub fn record(&mut self, event: &TraceEvent) {
        if let EventKind::Span { dur_ns, energy_pj } = event.kind {
            self.add(
                &event.track,
                &event.category,
                &event.name,
                dur_ns,
                energy_pj,
            );
        }
    }

    /// Adds one span's worth of totals directly.
    pub fn add(&mut self, track: &str, category: &str, stage: &str, sim_ns: f64, energy_pj: f64) {
        // Linear scan: the row set is small (stages × tracks), and the
        // determinism contract bans hash containers in first-party crates.
        if let Some(row) = self
            .rows
            .iter_mut()
            .find(|r| r.track == track && r.category == category && r.stage == stage)
        {
            row.count += 1;
            row.sim_ns += sim_ns;
            row.energy_pj += energy_pj;
        } else {
            self.rows.push(StageTotals {
                track: track.to_string(),
                category: category.to_string(),
                stage: stage.to_string(),
                count: 1,
                sim_ns,
                energy_pj,
            });
        }
    }

    /// The aggregated rows, in insertion (or, after [`sort`](Self::sort),
    /// lexicographic) order.
    #[must_use]
    pub fn rows(&self) -> &[StageTotals] {
        &self.rows
    }

    /// Returns `true` if no spans have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows restricted to one track.
    #[must_use]
    pub fn for_track(&self, track: &str) -> Vec<&StageTotals> {
        self.rows.iter().filter(|r| r.track == track).collect()
    }

    /// A breakdown containing only rows of the given category.
    #[must_use]
    pub fn only_category(&self, category: &str) -> Self {
        Self {
            rows: self
                .rows
                .iter()
                .filter(|r| r.category == category)
                .cloned()
                .collect(),
        }
    }

    /// Total simulated time across all rows, in nanoseconds.
    #[must_use]
    pub fn total_sim_ns(&self) -> f64 {
        self.rows.iter().map(|r| r.sim_ns).sum()
    }

    /// Total attributed energy across all rows, in picojoules.
    #[must_use]
    pub fn total_energy_pj(&self) -> f64 {
        self.rows.iter().map(|r| r.energy_pj).sum()
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &Self) {
        for row in &other.rows {
            if let Some(mine) = self.rows.iter_mut().find(|r| {
                r.track == row.track && r.category == row.category && r.stage == row.stage
            }) {
                mine.count += row.count;
                mine.sim_ns += row.sim_ns;
                mine.energy_pj += row.energy_pj;
            } else {
                self.rows.push(row.clone());
            }
        }
    }

    /// Sorts rows by (track, category, stage) for order-independent output.
    pub fn sort(&mut self) {
        self.rows.sort_by(|a, b| {
            (&a.track, &a.category, &a.stage).cmp(&(&b.track, &b.category, &b.stage))
        });
    }

    /// Renders the rollup as an aligned text table with sim-time and energy
    /// percentages (shares of the whole breakdown).
    #[must_use]
    pub fn table(&self) -> String {
        let total_ns = self.total_sim_ns();
        let total_pj = self.total_energy_pj();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:<12} {:>8} {:>12} {:>7} {:>12} {:>7}",
            "track", "stage", "count", "sim us", "time%", "energy nJ", "enrgy%"
        );
        for row in &self.rows {
            let time_pct = if total_ns > 0.0 {
                100.0 * row.sim_ns / total_ns
            } else {
                0.0
            };
            let energy_pct = if total_pj > 0.0 {
                100.0 * row.energy_pj / total_pj
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<28} {:<12} {:>8} {:>12.3} {:>6.1}% {:>12.3} {:>6.1}%",
                row.track,
                row.stage,
                row.count,
                row.sim_ns / 1e3,
                time_pct,
                row.energy_pj / 1e3,
                energy_pct
            );
        }
        out
    }

    /// Flattens the rollup into metrics for
    /// [`json::emit`](crate::json::emit): per row, sim-time in ns and
    /// energy in pJ.
    #[must_use]
    pub fn to_metrics(&self) -> Vec<BenchMetric> {
        let mut metrics = Vec::with_capacity(self.rows.len() * 2);
        for row in &self.rows {
            let name = |quantity: &str| format!("{}/{}/{quantity}", row.track, row.stage);
            metrics.push(BenchMetric::new(&name("sim_ns"), row.sim_ns, "ns"));
            metrics.push(BenchMetric::new(&name("energy_pj"), row.energy_pj, "pJ"));
        }
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_aggregates_by_track_category_and_stage() {
        let mut b = StageBreakdown::new();
        b.record(&TraceEvent::span("stage", "mac_rows", "s", 0.0, 10.0, 4.0));
        b.record(&TraceEvent::span("stage", "mac_rows", "s", 10.0, 10.0, 4.0));
        b.record(&TraceEvent::span("stage", "readout", "s", 20.0, 5.0, 1.0));
        b.record(&TraceEvent::instant("plan", "plan-hit", "s", 25.0));
        assert_eq!(b.rows().len(), 2);
        assert_eq!(b.rows()[0].count, 2);
        assert!((b.total_sim_ns() - 25.0).abs() < 1e-12);
        assert!((b.total_energy_pj() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn merge_and_sort_are_consistent() {
        let mut a = StageBreakdown::new();
        a.add("t", "stage", "readout", 5.0, 1.0);
        let mut b = StageBreakdown::new();
        b.add("t", "stage", "acquire", 3.0, 2.0);
        b.add("t", "stage", "readout", 5.0, 1.0);
        a.merge(&b);
        a.sort();
        let stages: Vec<&str> = a.rows().iter().map(|r| r.stage.as_str()).collect();
        assert_eq!(stages, vec!["acquire", "readout"]);
        assert_eq!(a.rows()[1].count, 2);
    }

    #[test]
    fn table_and_metrics_render_every_row() {
        let mut b = StageBreakdown::new();
        b.add("session:acquire", "stage", "ca", 100.0, 50.0);
        b.add("session:acquire", "stage", "readout", 300.0, 150.0);
        let table = b.table();
        assert!(table.contains("ca"));
        assert!(table.contains("readout"));
        assert!(table.contains("25.0%"), "ca is 25% of sim time:\n{table}");
        let metrics = b.to_metrics();
        assert_eq!(metrics.len(), 4);
        assert_eq!(metrics[0].name, "session:acquire/ca/sim_ns");
    }

    #[test]
    fn filters_select_rows() {
        let mut b = StageBreakdown::new();
        b.add("a", "stage", "x", 1.0, 1.0);
        b.add("b", "request", "y", 2.0, 2.0);
        assert_eq!(b.for_track("a").len(), 1);
        assert_eq!(b.only_category("request").rows().len(), 1);
        assert!(!b.is_empty());
    }
}
