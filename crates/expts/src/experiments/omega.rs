//! Omega — sharded multi-scheduler heartbeat scaling (DESIGN.md §14).
//!
//! Sweeps the Omega-style [`ShardedScheduler`] over shards ∈ {1, 2, 4, 8}
//! on the saturated 10 k-machine [`ColdPassProbe`] scenario (4 empty
//! machines, a 10×-machines pending backlog split into 2-task jobs so
//! the candidate set is wide enough to partition), timing one full
//! sharded heartbeat — parallel fan-out, serialized commit, bounded
//! intra-heartbeat retries — per rep.
//!
//! Two internal gates ride along:
//!
//! * `shards = 1` must propose the byte-identical assignment stream as
//!   the bare inner `TetrisScheduler` (the transparent-delegate
//!   contract);
//! * every committed batch must carry as many placements as the free
//!   slots allow regardless of shard count (conflict resolution loses
//!   proposals, never capacity).
//!
//! The timed quantity is the heartbeat's fan-out **critical path**
//! ([`ShardedScheduler::last_heartbeat_critical_ns`]): serial partition
//! bucketing, plus per round the *slowest* shard pass and the serialized
//! commit stage. That is the heartbeat wall-clock of a deployment with
//! one core per shard, and it stays measurable on any host core count —
//! per-pass timings are taken inside each pass, so pool time-sharing on
//! a small host cannot smear them.
//!
//! Latencies and the headline `omega_speedup_10k` (shards=1 over
//! shards=4 heartbeat critical path) go to the bench metrics; the report
//! text carries only deterministic counts — placements, proposals,
//! conflicts, retry rounds — so `reproduce all` output stays
//! byte-stable.
//!
//! [`ColdPassProbe`]: tetris_sim::probe::ColdPassProbe
//! [`ShardedScheduler`]: tetris_sim::ShardedScheduler

use tetris_core::{TetrisConfig, TetrisScheduler};
use tetris_metrics::TextTable;
use tetris_obs::Obs;
use tetris_sim::{probe::ColdPassProbe, SchedulerPolicy, ShardedScheduler, ShardedStats};

use super::median;
use crate::{Report, RunCtx};

/// Shard counts swept.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Machines at `--scale 1.0`.
const MACHINES: usize = 10_000;
/// Pending backlog per machine (10 k machines → 100 k pending tasks).
const PENDING_PER_MACHINE: usize = 10;
/// Tasks per job: small, so the backlog becomes many jobs and the
/// partitioner has something to spread (one scoring candidate per job).
const TASKS_PER_JOB: usize = 2;
/// Timed heartbeats per shard count; the reported latency is the median.
/// Fresh schedulers per rep keep every pass genuinely cold.
const REPS: usize = 3;

fn sharded(shards: usize, seed: u64) -> ShardedScheduler {
    ShardedScheduler::new(shards, seed, |_| {
        Box::new(TetrisScheduler::new(TetrisConfig::default()))
    })
}

/// Run the omega shard-count sweep.
pub fn omega(ctx: &RunCtx) -> Report {
    let mut out = String::new();
    out.push_str(
        "Omega — sharded multi-scheduler: optimistic parallel placement over\n\
         shared cluster state, conflicts resolved at a serialized commit stage\n\
         (DESIGN.md 14). One saturated 10k-machine snapshot (4 machines empty,\n\
         10x-machines backlog in 2-task jobs); per shard count, one full\n\
         sharded heartbeat per rep: parallel per-partition schedule() passes,\n\
         commit in shard order, losing shards retry within the heartbeat.\n\
         Timed as the fan-out critical path (bucketing + slowest pass +\n\
         serialized commit per round) - the heartbeat wall-clock of a\n\
         one-core-per-shard deployment, measurable on any host. Latencies\n\
         land in the bench metrics (omega_heartbeat_ms_s*, headline\n\
         omega_speedup_10k = s1/s4); the table below is the deterministic\n\
         part. expectation: critical path drops with shard count while\n\
         conflicts stay bounded by the free capacity one heartbeat hands out.\n\n",
    );
    let n = ((MACHINES as f64 * ctx.scale_factor).round() as usize).max(16);
    let probe = ColdPassProbe::with_tasks_per_job(n, n * PENDING_PER_MACHINE, TASKS_PER_JOB);

    // Transparent-delegate gate: one shard must be byte-identical to the
    // bare inner policy on the same snapshot.
    {
        let mut one = sharded(1, ctx.seed);
        let mut bare = TetrisScheduler::new(TetrisConfig::default());
        let a = probe.cold_assignments_indexed(&mut one);
        let b = probe.cold_assignments_indexed(&mut bare);
        assert_eq!(
            a, b,
            "shards=1 diverged from the unsharded scheduler's assignment stream"
        );
    }

    let mut t = TextTable::new(vec![
        "shards",
        "placed",
        "committed",
        "conflicts",
        "retry_rounds",
        "retry_peak",
    ]);
    let mut report = Report::new(String::new());
    let mut obs = Obs::noop();
    let mut medians: Vec<(usize, f64)> = Vec::new();
    let mut placed_at_one = None;
    for &shards in &SHARD_COUNTS {
        let mut wall_ns = Vec::new();
        let mut placed = 0usize;
        let mut stats = ShardedStats::default();
        for rep in 0..REPS {
            let mut sched = sharded(shards, ctx.seed);
            placed = probe.cold_schedule_indexed(&mut sched);
            wall_ns.push(sched.last_heartbeat_critical_ns());
            if rep == REPS - 1 {
                stats = sched.stats();
                sched.drain_metrics(&mut obs.metrics);
            }
        }
        // Conflict resolution loses proposals, never capacity: every
        // shard count must fill the same free slots.
        match placed_at_one {
            None => placed_at_one = Some(placed),
            Some(p1) => assert_eq!(
                placed, p1,
                "shards={shards} committed a different placement count"
            ),
        }
        let med = median(&mut wall_ns);
        medians.push((shards, med));
        // Median critical path (milliseconds) and commit conflicts.
        report.push(format!("omega_heartbeat_ms_s{shards}"), med / 1e6);
        report.push(format!("omega_conflicts_s{shards}"), stats.conflicts as f64);
        t.row(vec![
            format!("{shards}"),
            format!("{placed}"),
            format!("{}", stats.committed),
            format!("{}", stats.conflicts),
            format!("{}", stats.retry_rounds),
            format!("{}", stats.retry_rounds_peak),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nmachines {n} | pending {} | free {} | reps {REPS}\n",
        probe.pending(),
        probe.free().len(),
    ));

    let ms = |want: usize| {
        medians
            .iter()
            .find(|(s, _)| *s == want)
            .map(|(_, m)| *m)
            .expect("swept shard count")
    };
    report.push("omega_speedup_10k", ms(1) / ms(4).max(1.0));
    // Conflict rate at shards=4: rejected proposals per commit-stage
    // proposal (deterministic — counts, not latencies).
    let s4_conflicts = report.get("omega_conflicts_s4").unwrap_or(0.0);
    let s4_total = s4_conflicts + placed_at_one.unwrap_or(0) as f64;
    report.push(
        "omega_conflict_rate_s4",
        if s4_total > 0.0 {
            s4_conflicts / s4_total
        } else {
            0.0
        },
    );
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
    fn omega_sweeps_and_reports_headline() {
        // The in-experiment asserts are the real gates (shards=1
        // equivalence, placement-count invariance); here we pin report
        // shape.
        let ctx = RunCtx::new(Scale::Laptop, DEFAULT_SEED).scaled(0.02);
        let r = omega(&ctx);
        assert_eq!(
            r.metrics.len(),
            SHARD_COUNTS.len() * 2 + 2,
            "2 metrics per shard count + speedup + conflict rate"
        );
        assert!(r.get("omega_heartbeat_ms_s8").is_some());
        assert!(r.get("omega_speedup_10k").unwrap() > 0.0);
        let rate = r.get("omega_conflict_rate_s4").unwrap();
        assert!((0.0..=1.0).contains(&rate), "conflict rate {rate}");
        assert!(r.text.contains("conflicts"), "{}", r.text);
    }

    #[test]
    fn omega_text_is_deterministic_across_runs() {
        let ctx = RunCtx::new(Scale::Laptop, DEFAULT_SEED).scaled(0.02);
        assert_eq!(omega(&ctx).text, omega(&ctx).text);
    }
}
