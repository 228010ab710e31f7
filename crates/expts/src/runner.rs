//! Deterministic parallel execution of the experiment suite.
//!
//! The worker pool itself lives in `tetris_sim::pool` (hoisted there so
//! the sharded cold-pass scoring loop can share it); this module drives
//! it: workers pull the next experiment off the deque, run it against
//! their own private [`RunCtx`], and send the finished result back tagged
//! with its submission index. The main thread re-orders completions and
//! streams them out in submission order, so `--jobs 8` produces
//! byte-identical reports to `--jobs 1` — parallelism changes only the
//! wall-clock, never the output. That guarantee rests on two facts
//! checked by tests elsewhere: experiments are pure functions of their
//! context (no global state — the old env-var seed channel is gone), and
//! observability never perturbs simulation outcomes.
//!
//! The same pool powers multi-seed sweeps (`reproduce sweep fig4 --seeds
//! 1..8`), which fan one experiment out across seeds and aggregate the
//! per-seed headline metrics into median/p10/p90 rows, and the benchmark
//! emitter (`--bench FILE`), which records per-experiment wall-clock and
//! the merged observability registry as machine-readable JSON.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;
use tetris_metrics::table::TextTable;
use tetris_obs::{MetricsRegistry, MetricsSnapshot};
use tetris_workload::stats::percentile;

use crate::experiments::Experiment;
use crate::setup::Scale;
use crate::{Report, RunCtx};

pub use tetris_sim::pool::{pool_map, pool_map_prioritized};

/// One finished experiment: its report, wall-clock, and the
/// observability metrics its simulations accumulated.
pub struct ExpRun {
    /// Experiment id ("fig4", ...).
    pub id: &'static str,
    /// One-line description.
    pub what: &'static str,
    /// The rendered report + typed metrics.
    pub report: Report,
    /// Wall-clock of this experiment alone.
    pub seconds: f64,
    /// CPU time the worker thread spent inside this experiment. On a
    /// loaded or oversubscribed machine this is smaller than `seconds`;
    /// the gap is time spent descheduled.
    pub cpu_seconds: f64,
    /// Merged registries of every simulation the experiment ran.
    pub metrics: MetricsRegistry,
}

/// CPU time consumed by the calling thread, in seconds.
///
/// Parses utime+stime from `/proc/thread-self/stat` (fields 14/15, in
/// USER_HZ ticks — fixed at 100 on Linux): a safe, dependency-free read
/// that keeps the workspace's `forbid(unsafe_code)` intact, at the cost
/// of 10 ms granularity — ample for experiments measured in seconds.
/// Returns 0 where /proc is unavailable (non-Linux), leaving the field
/// defined but empty.
pub fn thread_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") else {
        return 0.0;
    };
    // comm (field 2) may contain spaces and parens; resume after the
    // *last* closing paren, which lands at field 3 ("state").
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_ascii_whitespace();
    // Counting from field 3 at index 0, utime (field 14) is index 11 and
    // stime (field 15) follows it.
    let (Some(utime), Some(stime)) = (fields.nth(11), fields.next()) else {
        return 0.0;
    };
    let ticks = utime.parse::<f64>().unwrap_or(0.0) + stime.parse::<f64>().unwrap_or(0.0);
    const USER_HZ: f64 = 100.0;
    ticks / USER_HZ
}

/// Run `selected` experiments at `(scale, seed)` on `jobs` workers, with
/// a workload-size multiplier (`--scale`, 1.0 = default sizing).
/// `on_done` fires in registry order as experiments finish.
pub fn run_experiments(
    selected: Vec<Experiment>,
    scale: Scale,
    scale_factor: f64,
    seed: u64,
    jobs: usize,
    mut on_done: impl FnMut(&ExpRun),
) -> Vec<ExpRun> {
    // Longest-first only matters with real parallelism; a single worker
    // keeps registry order so serial output starts streaming immediately.
    let lpt = jobs > 1;
    pool_map_prioritized(
        selected,
        jobs,
        move |e| if lpt { e.cost as u64 } else { 0 },
        move |e, _| {
            // A fresh context per experiment: workers share nothing, and
            // the metrics each absorbs are attributable to one id.
            let ctx = RunCtx::new(scale, seed).scaled(scale_factor);
            let start = Instant::now();
            let cpu_start = thread_cpu_seconds();
            let report = (e.run)(&ctx);
            ExpRun {
                id: e.id,
                what: e.what,
                report,
                seconds: start.elapsed().as_secs_f64(),
                cpu_seconds: thread_cpu_seconds() - cpu_start,
                metrics: ctx.take_metrics(),
            }
        },
        |_, r| on_done(r),
    )
}

/// One seed's leg of a sweep.
pub struct SeedRun {
    /// The master seed this leg ran under.
    pub seed: u64,
    /// The experiment's report at that seed.
    pub report: Report,
    /// Wall-clock of this leg.
    pub seconds: f64,
}

/// Run one experiment across `seeds` on `jobs` workers. `on_done` fires
/// in seed order.
pub fn run_sweep(
    exp: Experiment,
    scale: Scale,
    scale_factor: f64,
    seeds: Vec<u64>,
    jobs: usize,
    mut on_done: impl FnMut(&SeedRun),
) -> Vec<SeedRun> {
    pool_map(
        seeds,
        jobs,
        move |seed, _| {
            let ctx = RunCtx::new(scale, seed).scaled(scale_factor);
            let start = Instant::now();
            let report = (exp.run)(&ctx);
            SeedRun {
                seed,
                report,
                seconds: start.elapsed().as_secs_f64(),
            }
        },
        |_, r| on_done(r),
    )
}

/// Aggregate a sweep's per-seed headline metrics into a median/p10/p90
/// table, one row per metric in the order the experiment reports them.
pub fn aggregate_sweep(runs: &[SeedRun]) -> String {
    let mut t = TextTable::new(vec!["metric", "median", "p10", "p90"]);
    let Some(first) = runs.first() else {
        return t.render();
    };
    for (name, _) in &first.report.metrics {
        let xs: Vec<f64> = runs.iter().filter_map(|r| r.report.get(name)).collect();
        t.row(vec![
            (*name).to_string(),
            format!("{:.3}", percentile(&xs, 0.5)),
            format!("{:.3}", percentile(&xs, 0.1)),
            format!("{:.3}", percentile(&xs, 0.9)),
        ]);
    }
    t.render()
}

/// Schema tag written into every benchmark emission. The record is
/// write-only — no code in the tree reads it back — so a key change
/// bumps the tag and nothing else.
pub const BENCH_SCHEMA: &str = "tetris-reproduce-bench/v3";

/// Machine-readable record of one `reproduce --bench` run.
#[derive(Serialize)]
pub struct BenchReport {
    /// Format tag ([`BENCH_SCHEMA`]).
    pub schema: String,
    /// The experiment ids that ran, in order.
    pub command: Vec<String>,
    /// Scale label ("laptop" / "full").
    pub scale: String,
    /// Master seed.
    pub seed: u64,
    /// Worker-thread count.
    pub jobs: usize,
    /// Wall-clock of the whole suite, queue to last result.
    pub wall_seconds: f64,
    /// Sum of per-experiment wall-clocks — what a serial run would cost.
    pub cpu_seconds: f64,
    /// `cpu_seconds / wall_seconds`: parallel speedup inferred from this
    /// run alone.
    pub speedup_estimate: f64,
    /// Sum of per-experiment *thread CPU* seconds. When this is well
    /// below `cpu_seconds` the workers were descheduled — the machine has
    /// fewer free cores than `jobs`, and adding workers cannot help.
    pub thread_cpu_seconds: f64,
    /// Fraction of worker wall-capacity spent running experiments:
    /// `cpu_seconds / (min(jobs, n_experiments) · wall_seconds)`. Low
    /// utilization with `jobs > 1` means the pool idled waiting for a
    /// straggler.
    pub worker_utilization: f64,
    /// Amdahl/LPT bound on parallel speedup for this suite:
    /// `cpu_seconds / max(per-experiment seconds)` — no worker count can
    /// beat the longest single experiment.
    pub amdahl_bound: f64,
    /// Per-experiment timing and headline metrics, in run order.
    pub experiments: Vec<BenchExperiment>,
    /// Observability registries of every simulation, merged — includes
    /// the heartbeat/schedule latency histograms (Table 8's continuous
    /// counterpart).
    pub obs: MetricsSnapshot,
}

/// One experiment's row in a [`BenchReport`].
#[derive(Serialize)]
pub struct BenchExperiment {
    /// Experiment id.
    pub id: String,
    /// Wall-clock of this experiment alone.
    pub seconds: f64,
    /// Thread CPU seconds the experiment consumed.
    pub cpu_seconds: f64,
    /// The report's typed headline metrics.
    pub metrics: BTreeMap<String, f64>,
}

/// Assemble the benchmark record for a finished suite run from the
/// wall-clock measured around the whole run.
pub fn bench_report(
    runs: &[ExpRun],
    scale: Scale,
    seed: u64,
    jobs: usize,
    wall_seconds: f64,
) -> BenchReport {
    let cpu_seconds: f64 = runs.iter().map(|r| r.seconds).sum();
    let thread_cpu_seconds: f64 = runs.iter().map(|r| r.cpu_seconds).sum();
    let longest = runs.iter().map(|r| r.seconds).fold(0.0, f64::max);
    let workers = jobs.clamp(1, runs.len().max(1));
    let mut merged = MetricsRegistry::new();
    for r in runs {
        merged.merge(&r.metrics);
    }
    BenchReport {
        schema: BENCH_SCHEMA.to_string(),
        command: runs.iter().map(|r| r.id.to_string()).collect(),
        scale: scale.label().to_string(),
        seed,
        jobs,
        wall_seconds,
        cpu_seconds,
        speedup_estimate: cpu_seconds / wall_seconds.max(1e-9),
        thread_cpu_seconds,
        worker_utilization: cpu_seconds / (workers as f64 * wall_seconds.max(1e-9)),
        amdahl_bound: cpu_seconds / longest.max(1e-9),
        experiments: runs
            .iter()
            .map(|r| BenchExperiment {
                id: r.id.to_string(),
                seconds: r.seconds,
                cpu_seconds: r.cpu_seconds,
                metrics: r
                    .report
                    .metrics
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), *v))
                    .collect(),
            })
            .collect(),
        obs: merged.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;

    #[test]
    fn sweep_aggregation_computes_percentiles() {
        let runs: Vec<SeedRun> = (1..=5)
            .map(|seed| SeedRun {
                seed,
                report: Report::new(String::new()).metric("gain", seed as f64),
                seconds: 0.0,
            })
            .collect();
        let table = aggregate_sweep(&runs);
        assert!(table.contains("gain"), "{table}");
        assert!(table.contains("3.000"), "median of 1..5 is 3: {table}");
    }

    #[test]
    fn bench_report_emits_one_schema_and_a_row_per_experiment() {
        let runs = run_experiments(
            vec![experiments::find("table2").unwrap()],
            Scale::Laptop,
            1.0,
            42,
            2,
            |_| {},
        );
        let b = bench_report(&runs, Scale::Laptop, 42, 2, 1.0);
        assert_eq!(b.command, vec!["table2"]);
        assert!(b.cpu_seconds > 0.0);

        // What a consumer of the record reads back: a few of its keys.
        #[derive(serde::Deserialize)]
        struct Doc {
            schema: String,
            experiments: Vec<Row>,
        }
        #[derive(serde::Deserialize)]
        struct Row {
            id: String,
            seconds: f64,
            cpu_seconds: f64,
            metrics: BTreeMap<String, f64>,
        }
        let json = serde_json::to_string_pretty(&b).unwrap();
        let doc: Doc = serde_json::from_str(&json).unwrap();
        assert_eq!(doc.schema, BENCH_SCHEMA);
        assert_eq!(doc.experiments.len(), 1, "one row per experiment");
        let row = &doc.experiments[0];
        assert_eq!(row.id, "table2");
        assert!(row.seconds > 0.0 && row.cpu_seconds >= 0.0);
        assert!(!runs[0].report.metrics.is_empty());
        assert_eq!(row.metrics.len(), runs[0].report.metrics.len());
        for (name, value) in &runs[0].report.metrics {
            assert_eq!(row.metrics.get(*name), Some(value), "{name}");
        }
        assert!(!json.contains("baseline"), "comparison keys are gone");
    }

    #[test]
    fn thread_cpu_time_is_monotonic_and_advances_under_load() {
        let a = thread_cpu_seconds();
        // Burn ~30 ms of CPU (3 USER_HZ ticks) so the counter must move.
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 30 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(x);
        let b = thread_cpu_seconds();
        assert!(b >= a, "thread cpu time went backwards: {a} -> {b}");
        assert!(b > a, "thread cpu time did not advance under load");
    }
}
