//! The metric tables: every name this benchmark reports, with its unit,
//! direction and regression bound. `BENCHMARK.json` at the repo root is
//! these two tables ([`benchmark_json_lists`]) and a unit test keeps the
//! file in step.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's definition. `bound` is the share of the baseline median by
/// which it may get worse before `compare` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Listed under `end_to_end` in `BENCHMARK.json`: every workload reports
    /// it, it is never 0, and the driver rejects a change that worsens it
    /// by more than `bound`.
    pub gated: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        gated: false,
    }
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Lower,
        bound,
        gated: true,
    }
}

/// ISSUE 14's bound on host-time metrics.
pub const HOST_TIME_BOUND: f64 = 0.10;
/// Bound on simulated results and byte counts, which repeat exactly for a
/// seed: any change at all is a changed decision, not noise.
pub const EXACT_BOUND: f64 = 0.001;

/// The end-to-end metrics, timed phase only. The four gated ones come
/// first. `op_wall_ms` and `aux_wall_ms` are the fastest sample of each
/// workload's own two whole operations (README "Gated metrics" says which),
/// because the driver wants every workload to report every gated metric;
/// the rest are ISSUE 14's names, each on the workloads that have it.
pub const E2E: &[MetricDef] = &[
    gated("setup_s", "s", 0.25),
    gated("op_wall_ms", "ms", GATED_TIME_BOUND),
    gated("aux_wall_ms", "ms", GATED_TIME_BOUND),
    gated("peak_rss_mb", "MB", 0.15),
    e2e("run_wall_s", "s", Lower, HOST_TIME_BOUND),
    e2e("tasks_per_s", "1/s", Higher, HOST_TIME_BOUND),
    e2e("sim_makespan_s", "s", Lower, EXACT_BOUND),
    e2e("sim_avg_jct_s", "s", Lower, EXACT_BOUND),
    e2e("sim_slo_violation_frac", "frac", Lower, EXACT_BOUND),
    e2e("decision_cold_p50_ms", "ms", Lower, HOST_TIME_BOUND),
    e2e("decision_cold_p95_ms", "ms", Lower, HOST_TIME_BOUND),
    e2e("decision_warm_p50_us", "us", Lower, HOST_TIME_BOUND),
    e2e("decision_warm_p95_us", "us", Lower, HOST_TIME_BOUND),
    e2e("journaled_run_s", "s", Lower, HOST_TIME_BOUND),
    e2e("crash_recover_s", "s", Lower, HOST_TIME_BOUND),
    e2e("journal_mb", "MB", Lower, EXACT_BOUND),
    e2e("failed_op_frac", "frac", Lower, 0.0),
];

/// Bound on the two gated timings: three times the widest spread they
/// showed over ten seeds on the builder's host (0.064, BASELINE.md), which
/// is the steadiness the driver asks for.
pub const GATED_TIME_BOUND: f64 = 0.20;

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: f64::INFINITY,
        gated: false,
    }
}

/// Per-layer metrics of the traced run. Unbounded: they explain a change,
/// they do not gate one. A workload that does not exercise a layer reports
/// 0 for it — the layer did no work there, which is the prediction a
/// bypass workload exists to check.
pub const PER_LAYER: &[MetricDef] = &[
    layer("workload.generate_ms", "ms", Lower),
    layer("workload.tasks", "count", Lower),
    layer("workload.jobs", "count", Lower),
    layer("sim.engine_self_s", "s", Lower),
    layer("sim.engine_self_frac", "frac", Lower),
    layer("sim.events", "count", Lower),
    layer("sim.events_per_s", "1/s", Higher),
    layer("sim.us_per_event", "us", Lower),
    layer("sim.schedule_calls", "count", Lower),
    layer("sim.placements", "count", Higher),
    layer("sim.rejected_assignments", "count", Lower),
    layer("sim.task_retries", "count", Lower),
    layer("sim.preemptions", "count", Lower),
    layer("sim.state.recompute_full_us", "us", Lower),
    layer("sim.state.live_links", "count", Lower),
    layer("sim.state.flows", "count", Lower),
    layer("core.schedule_s", "s", Lower),
    layer("core.schedule_calls", "count", Lower),
    layer("core.schedule_p50_us", "us", Lower),
    layer("core.schedule_p99_us", "us", Lower),
    layer("core.on_event_s", "s", Lower),
    layer("core.on_event_calls", "count", Lower),
    layer("core.proposals", "count", Lower),
    layer("core.accept_frac", "frac", Higher),
    layer("core.empty_pass_frac", "frac", Lower),
    layer("baselines.schedule_s", "s", Lower),
    layer("baselines.schedule_calls", "count", Lower),
    layer("baselines.schedule_p50_us", "us", Lower),
    layer("baselines.schedule_p99_us", "us", Lower),
    layer("baselines.on_event_s", "s", Lower),
    layer("baselines.on_event_calls", "count", Lower),
    layer("baselines.proposals", "count", Lower),
    layer("baselines.accept_frac", "frac", Higher),
    layer("baselines.empty_pass_frac", "frac", Lower),
    layer("core.align.scores_per_s", "1/s", Higher),
    layer("sim.index.cold_pass_indexed_us", "us", Lower),
    layer("sim.index.cold_pass_linear_us", "us", Lower),
    layer("sim.index.speedup", "x", Higher),
    layer("sim.index.pruned_frac", "frac", Higher),
    layer("sim.index.env_visits_per_query", "count", Lower),
    layer("sim.sharded.cold_wall_ms", "ms", Lower),
    layer("sim.sharded.cold_critical_ms", "ms", Lower),
    layer("sim.sharded.conflict_frac", "frac", Lower),
    layer("sim.sharded.retry_rounds", "count", Lower),
    layer("sim.sharded.run_wall_s", "s", Lower),
    layer("sim.sharded.placed", "count", Higher),
    layer("sim.journal.bare_run_s", "s", Lower),
    layer("sim.journal.overhead_x", "x", Lower),
    layer("sim.journal.wal_only_s", "s", Lower),
    layer("sim.journal.checkpoint_s", "s", Lower),
    layer("sim.journal.records", "count", Lower),
    layer("sim.journal.bytes", "count", Lower),
    layer("sim.journal.checkpoints", "count", Lower),
    layer("sim.journal.bytes_per_checkpoint", "count", Lower),
    layer("sim.journal.verify_s", "s", Lower),
    layer("sim.recovery.restore_replay_s", "s", Lower),
    layer("sim.recovery.live_tail_s", "s", Lower),
    layer("sim.recovery.replayed_batches", "count", Lower),
    layer("sim.recovery.discarded_records", "count", Lower),
    layer("sim.recovery.checkpoint_heartbeat", "count", Lower),
    layer("obs.noop_overhead_frac", "frac", Lower),
    layer("metrics.summarize_ms", "ms", Lower),
    layer("bench.trace_overhead_frac", "frac", Lower),
    layer("bench.spans", "count", Lower),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    E2E.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// `BENCHMARK.json`'s two metric lists. `end_to_end` is the gated part of
/// [`E2E`]. `per_layer` is [`PER_LAYER`] followed by the rest of [`E2E`]:
/// ISSUE 14's end-to-end names that only some workloads have, or that are
/// exact per seed but differ between seeds, or whose medians do not repeat
/// within a bound on this host. The driver cannot gate those, so they are
/// demoted to its unbounded list and `perfbench compare` judges them.
pub fn benchmark_json_lists() -> (Vec<&'static MetricDef>, Vec<&'static MetricDef>) {
    let end_to_end = E2E.iter().filter(|m| m.gated).collect();
    let per_layer = PER_LAYER
        .iter()
        .chain(E2E.iter().filter(|m| !m.gated))
        .collect();
    (end_to_end, per_layer)
}

/// One measured value: the metric, its value, and how many samples the
/// value summarises (1 for a count or a single timing).
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub def: &'static MetricDef,
    pub value: f64,
    pub samples: usize,
}

/// An ordered set of measured values of one table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    pub values: Vec<Measured>,
}

impl MetricSet {
    /// Record `name`, which must be in `table` — a typo is a harness bug.
    pub fn put(&mut self, table: &'static [MetricDef], name: &str, value: f64, samples: usize) {
        let def = table
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        assert!(
            self.get(name).is_none(),
            "metric {name} reported twice by one workload"
        );
        self.values.push(Measured {
            def,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|m| m.def.name == name)
            .map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": "u", "n": samples}, ...}`.
    pub fn to_json(&self) -> Json {
        Json::obj(self.values.iter().map(|m| {
            (
                m.def.name,
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.def.unit)),
                    ("n", Json::Num(m.samples as f64)),
                ]),
            )
        }))
    }

    /// The metrics of `list`, in order, as the driver's
    /// `{"name": {"value", "unit"}}` object, each looked up in `sets`. A
    /// metric this workload did not measure is 0: for a per-layer metric the
    /// layer did no work here; for a gated one the operation failed and the
    /// run is not `correct`.
    pub fn driver_json(list: &[&'static MetricDef], sets: &[&MetricSet]) -> Json {
        Json::obj(list.iter().map(|def| {
            let value = sets.iter().find_map(|s| s.get(def.name)).unwrap_or(0.0);
            (
                def.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
            )
        }))
    }

    pub fn print_table(&self, title: &str) {
        println!("  {title}");
        for m in &self.values {
            println!(
                "    {:<36} {:>16} {:<6} n={:<6} better={}",
                m.def.name,
                format_value(m.value),
                m.def.unit,
                m.samples,
                m.def.better.label()
            );
        }
    }
}

/// Six significant digits for reading; the JSON keeps every digit.
pub fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e6 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
        format!("{v:.digits$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in E2E.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let (end_to_end, per_layer) = benchmark_json_lists();
        assert!(end_to_end.len() <= 16 && per_layer.len() <= 128);
        assert!(end_to_end.iter().all(|m| m.bound <= 0.25));
        assert!(end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(PER_LAYER.iter().all(|m| !m.gated));
    }

    #[test]
    fn format_value_keeps_six_significant_digits() {
        assert_eq!(format_value(1.23456789), "1.23457");
        assert_eq!(format_value(0.000123456789), "0.000123457");
        assert_eq!(format_value(74216.0), "74216");
        assert_eq!(format_value(123456.789), "123457");
        assert_eq!(format_value(0.0), "0");
    }
}
