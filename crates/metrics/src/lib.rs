//! # tetris-metrics
//!
//! Evaluation metrics and report rendering for the Tetris reproduction:
//! the quantities the paper's §5 tables and figures are made of.
//!
//! * [`RunMetrics`] — one-line summary of a simulation run;
//! * `improvement` — per-job JCT improvement of one scheduler over
//!   another and its CDF (Figs. 4, 7);
//! * `slowdown` — fraction/magnitude of jobs slowed versus a fair
//!   baseline (Fig. 9) and relative integral unfairness (§5.3.2);
//! * [`timeline`] — running-task and utilization time series (Figs. 5, 6);
//! * `tightness` — resource tightness probabilities (Tables 3 and 6);
//! * `gantt` — ASCII machine-occupancy charts of a schedule;
//! * `table` — plain-text table rendering shared by the experiment
//!   harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gantt;
mod improvement;
mod slowdown;
mod table;
mod tightness;
pub mod timeline; // Its free functions `render` and `decimate` would be vague at the root.

pub use gantt::Gantt;
pub use improvement::ImprovementSummary;
pub use slowdown::{relative_integral_unfairness, SlowdownSummary};
pub use table::TextTable;
pub use tightness::TightnessTable;

use tetris_sim::SimOutcome;
use tetris_workload::stats;

/// One-line summary of a run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Scheduler name.
    pub scheduler: String,
    /// True if all jobs completed.
    pub completed: bool,
    /// Makespan (seconds).
    pub makespan: f64,
    /// Average job completion time (seconds).
    pub avg_jct: f64,
    /// Median job completion time (seconds).
    pub median_jct: f64,
    /// Mean task stretch (actual / planned duration; 1.0 = no contention).
    pub mean_stretch: f64,
    /// Task placements performed.
    pub placements: u64,
}

impl RunMetrics {
    /// Summarize an outcome.
    pub fn of(outcome: &SimOutcome) -> Self {
        let jcts = outcome.jct_vec();
        RunMetrics {
            scheduler: outcome.scheduler.clone(),
            completed: outcome.completed,
            makespan: outcome.makespan(),
            avg_jct: outcome.avg_jct(),
            median_jct: stats::median(&jcts),
            mean_stretch: outcome.mean_task_stretch(),
            placements: outcome.stats.placements,
        }
    }

    /// Render as a fixed-width row (pairs with [`RunMetrics::header`]).
    pub fn row(&self) -> String {
        format!(
            "{:<28} {:>9} {:>11.1} {:>11.1} {:>11.1} {:>8.2}",
            truncate(&self.scheduler, 28),
            if self.completed { "yes" } else { "NO" },
            self.makespan,
            self.avg_jct,
            self.median_jct,
            self.mean_stretch,
        )
    }

    /// Header matching [`RunMetrics::row`].
    pub fn header() -> String {
        format!(
            "{:<28} {:>9} {:>11} {:>11} {:>11} {:>8}",
            "scheduler", "completed", "makespan_s", "avg_jct_s", "med_jct_s", "stretch"
        )
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}

/// Percentage improvement of `ours` over `baseline`
/// (`100 × (baseline − ours)/baseline`, the paper's §5.1 metric: positive
/// means we are better/smaller).
pub fn pct_improvement(baseline: f64, ours: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        100.0 * (baseline - ours) / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_improvement_signs() {
        assert_eq!(pct_improvement(100.0, 60.0), 40.0);
        assert_eq!(pct_improvement(100.0, 130.0), -30.0);
        assert_eq!(pct_improvement(0.0, 10.0), 0.0);
    }

    #[test]
    fn truncate_keeps_short() {
        assert_eq!(truncate("abc", 5), "abc");
        assert_eq!(truncate("abcdef", 4), "abc…");
    }

    #[test]
    fn header_and_row_align() {
        let m = RunMetrics {
            scheduler: "x".into(),
            completed: true,
            makespan: 1.0,
            avg_jct: 2.0,
            median_jct: 3.0,
            mean_stretch: 1.0,
            placements: 5,
        };
        // Same number of columns when split on whitespace.
        assert_eq!(
            RunMetrics::header().split_whitespace().count(),
            m.row().split_whitespace().count()
        );
    }
}
