//! Scale — sublinear cold-pass placement behind the indexed
//! `MachineQuery` (DESIGN.md §13).
//!
//! The paper's Table 8 shows heartbeat *matching* staying cheap because
//! it is incremental; the cold pass — a scheduling round with no freed
//! hint, e.g. a burst of arrivals hitting a packed cluster — still
//! scanned every machine. This experiment measures that pass at cluster
//! sizes where the linear scan hurts: a saturated cluster of 1 k / 10 k /
//! 100 k machines with a 10×-machines pending backlog and four empty
//! machines ([`ColdPassProbe`]), timing one cold `schedule()` of the
//! same `TetrisScheduler` against
//!
//! * **indexed** — `MachineQuery` answered by the per-resource bucketed
//!   free-capacity index (`SimConfig::machine_index = true`), and
//! * **linear** — the flat scan oracle (`machine_index = false`),
//!
//! asserting byte-identical assignment streams every rep.
//!
//! Latencies go to the bench metrics (`cold_pass_*_ms_*`, headline
//! `cold_pass_speedup_100k`); the report text carries only deterministic
//! counts so `reproduce all` output stays byte-stable.
//!
//! [`ColdPassProbe`]: tetris_sim::probe::ColdPassProbe

use tetris_core::{TetrisConfig, TetrisScheduler};
use tetris_metrics::TextTable;
use tetris_obs::{names, Obs};
use tetris_sim::probe::ColdPassProbe;

use super::median;
use crate::{Report, RunCtx};

/// Cluster sizes swept at `--scale 1.0`.
pub const SIZES: [usize; 3] = [1_000, 10_000, 100_000];
/// Pending backlog per machine (100 k machines → 1 M pending tasks).
const PENDING_PER_MACHINE: usize = 10;
/// Timed cold passes per size; the reported latency is the median. Each
/// rep uses fresh schedulers so every pass is genuinely cold.
const REPS: usize = 3;

/// Run the cold-pass scale sweep.
pub fn scale(ctx: &RunCtx) -> Report {
    let mut out = String::new();
    out.push_str(
        "Scale — cold-pass placement cost, indexed MachineQuery vs linear scan.\n\
         A saturated cluster (4 tasks/machine, 4 machines left empty) with a\n\
         10x-machines pending backlog; one cold schedule() per rep per backend\n\
         on identical snapshots, assignment streams asserted identical.\n\
         Latencies land in the bench metrics (cold_pass_indexed_ms_*,\n\
         cold_pass_linear_ms_*, cold_pass_speedup_*); the table below is the\n\
         deterministic part. expectation: the linear pass grows with cluster\n\
         size while the indexed pass tracks the handful of feasible machines,\n\
         so the speedup widens with scale.\n\n",
    );
    let mut t = TextTable::new(vec![
        "machines",
        "pending",
        "free",
        "placed",
        "queries",
        "pruned",
        "returned",
        "env_visits",
    ]);
    let mut report = Report::new(String::new());
    let mut obs = Obs::noop();
    for size in SIZES {
        let n = ((size as f64 * ctx.scale_factor).round() as usize).max(16);
        let probe = ColdPassProbe::new(n, n * PENDING_PER_MACHINE);
        let (mut idx_ns, mut lin_ns) = (Vec::new(), Vec::new());
        let mut placed = 0;
        for _ in 0..REPS {
            let mut idx = TetrisScheduler::new(TetrisConfig::default());
            let mut lin = TetrisScheduler::new(TetrisConfig::default());
            let s = probe.measure(&mut idx, &mut lin);
            idx_ns.push(s.indexed_ns);
            lin_ns.push(s.linear_ns);
            placed = s.placements;
        }
        let st = probe.take_index_stats();
        obs.metrics.counter_add(names::INDEX_QUERIES, st.queries);
        obs.metrics.counter_add(names::INDEX_PRUNED, st.pruned);
        obs.metrics.counter_add(names::INDEX_RETURNED, st.returned);
        obs.metrics
            .counter_add(names::INDEX_ENV_VISITS, st.env_visits);
        let (idx_med, lin_med) = (median(&mut idx_ns), median(&mut lin_ns));
        // Indexed / linear median latency (milliseconds) and the
        // linear-over-indexed speedup, keyed by the unscaled size.
        let k = size / 1000;
        report.push(format!("cold_pass_indexed_ms_{k}k"), idx_med / 1e6);
        report.push(format!("cold_pass_linear_ms_{k}k"), lin_med / 1e6);
        report.push(
            format!("cold_pass_speedup_{k}k"),
            lin_med / idx_med.max(1.0),
        );
        t.row(vec![
            format!("{n}"),
            format!("{}", probe.pending()),
            format!("{}", probe.free().len()),
            format!("{placed}"),
            format!("{}", st.queries),
            format!("{}", st.pruned),
            format!("{}", st.returned),
            format!("{}", st.env_visits),
        ]);
    }
    out.push_str(&t.render());

    ctx.absorb(&obs.metrics);
    report.text = out;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::DEFAULT_SEED;
    use crate::Scale;

    #[test]
    fn scale_reports_sweep_with_identical_decisions() {
        // ColdPassProbe panics if the indexed and linear backends ever
        // propose different assignments, so a completed run *is* the
        // equivalence gate; here we pin report shape and index activity.
        let ctx = RunCtx::new(Scale::Laptop, DEFAULT_SEED).scaled(0.02);
        let r = scale(&ctx);
        assert_eq!(r.metrics.len(), 9, "3 metrics x 3 sweep points");
        for (name, v) in &r.metrics {
            assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
        }
        assert!(r.get("cold_pass_speedup_100k").is_some());
        assert!(!r.text.contains("shard batches"), "{}", r.text);
    }

    #[test]
    fn scale_text_is_deterministic_across_runs() {
        let ctx = RunCtx::new(Scale::Laptop, DEFAULT_SEED).scaled(0.02);
        assert_eq!(scale(&ctx).text, scale(&ctx).text);
    }
}
