//! Recovery — scheduler crash-recovery by re-execution against a
//! write-ahead decision journal (robustness extension; DESIGN.md §15).
//!
//! The engine journals every commit decision, and nothing else. This
//! experiment kills the scheduler at {¼, ½, ¾} of the run's heartbeats,
//! each point once between batches and once mid-commit, recovers each
//! crashed run by replaying its journal from heartbeat 0 with a fresh
//! policy, and gates on the §15 contract:
//!
//! * **Equivalence** — the recovered outcome is byte-identical (as
//!   serialized JSON) to the same configuration run uninterrupted; an
//!   in-experiment assert fails the suite otherwise.
//! * **Full witness** — recovery replays every batch committed before
//!   the crash, so replay (and the journal) grow with the crash point.
//!
//! A mid-commit kill makes the scheduler die after applying only half of
//! a batch's placements, leaving the journal's last batch torn and
//! uncommitted. The mid-commit kill at ½ runs under the Omega-style
//! [`ShardedScheduler`] so the re-derived commit frontier is exercised
//! where some shard plans landed in the journal and others did not.
//!
//! The report table carries only deterministic counts (crash heartbeat,
//! batches/placements replayed, journal bytes); recovery wall-clock
//! goes to the bench metrics (`recovery_latency_us_p50`) alongside the
//! engine's own `recovery_*` counters, so `reproduce all` output stays
//! byte-stable.
//!
//! [`ShardedScheduler`]: tetris_sim::ShardedScheduler

use tetris_core::{TetrisConfig, TetrisScheduler};
use tetris_metrics::TextTable;
use tetris_obs::Obs;
use tetris_resources::MachineSpec;
use tetris_sim::{
    ClusterConfig, Journal, RunResult, SchedulerCrash, SchedulerPolicy, ShardedScheduler,
    SimConfig, SimOutcome, Simulation,
};
use tetris_workload::{Workload, WorkloadSuiteConfig};

use crate::{Report, RunCtx};

/// Crash points: a fraction of the uninterrupted run's heartbeat count,
/// whether the kill lands mid-commit, and the scheduler's shard count.
const CRASH_POINTS: [((u64, u64), bool, usize); 6] = [
    ((1, 4), false, 1),
    ((1, 4), true, 1),
    ((1, 2), false, 1),
    ((1, 2), true, 2),
    ((3, 4), false, 1),
    ((3, 4), true, 1),
];
/// Cluster size at `--scale 1.0`.
const MACHINES: usize = 40;
/// Jobs at `--scale 1.0`; the CLI multiplier shrinks this for smokes.
const BASE_JOBS: f64 = 60.0;

fn workload(ctx: &RunCtx) -> Workload {
    let n_jobs = ((BASE_JOBS * ctx.scale_factor).round() as usize).max(3);
    WorkloadSuiteConfig {
        n_jobs,
        scale: 0.08,
        arrival_horizon: 300.0,
        machine_profile: MachineSpec::paper_large(),
        ..WorkloadSuiteConfig::default()
    }
    .generate(ctx.seed + 90)
}

fn cluster(ctx: &RunCtx) -> ClusterConfig {
    let n_machines = ((MACHINES as f64 * ctx.scale_factor).round() as usize).max(8);
    ClusterConfig::uniform(n_machines, MachineSpec::paper_large())
}

/// Scheduler construction shared by every run at one sweep point: the
/// crashed process and the recovering process must build the same policy,
/// exactly as a restarted deployment would.
fn build(shards: usize, seed: u64) -> Box<dyn SchedulerPolicy> {
    if shards > 1 {
        Box::new(ShardedScheduler::new(shards, seed, |_| {
            Box::new(TetrisScheduler::new(TetrisConfig::default()))
        }))
    } else {
        Box::new(TetrisScheduler::new(TetrisConfig::default()))
    }
}

fn sim(
    cluster: &ClusterConfig,
    workload: &Workload,
    cfg: SimConfig,
    shards: usize,
) -> Simulation<'static> {
    Simulation::build(cluster.clone(), workload.clone())
        .scheduler(build(shards, cfg.seed))
        .config(cfg)
}

fn wire(o: &SimOutcome) -> String {
    serde_json::to_string(o).expect("outcome serializes")
}

/// Run the crash-recovery sweep.
pub fn recovery(ctx: &RunCtx) -> Report {
    let mut out = String::new();
    out.push_str(
        "Recovery — scheduler crash-recovery by re-execution against a\n\
         write-ahead decision journal (DESIGN.md 15). The scheduler is killed\n\
         at 1/4, 1/2 and 3/4 of the run's heartbeats, each point once between\n\
         batches and once mid-commit (half a batch applied, journal tail\n\
         torn); the mid-commit kill at 1/2 runs the Omega-style sharded\n\
         scheduler. Each crashed run is recovered by replaying its journal\n\
         from heartbeat 0 with a fresh policy and must reproduce the\n\
         uninterrupted run's outcome byte-for-byte (asserted in-experiment),\n\
         after replaying every batch committed before the crash. Recovery\n\
         wall-clock goes to the bench metrics; the table below is the\n\
         deterministic part.\n\n",
    );
    let cluster = cluster(ctx);
    let workload = workload(ctx);
    let mut cfg = SimConfig::default();
    cfg.seed = ctx.seed + 90;

    let mut obs = Obs::noop();

    // Uninterrupted golden runs per scheduler pipeline (the sharded
    // mid-commit point compares against a sharded golden). The golden
    // runs are journaled too: a journal of a completed run must verify,
    // and its committed-batch count is the run's heartbeat count H, which
    // anchors the crash points.
    let mut goldens: Vec<(usize, String, u64)> = Vec::new();
    for shards in [1usize, 2] {
        let mut j = Journal::new();
        let outcome = match sim(&cluster, &workload, cfg.clone(), shards)
            .observe(&mut obs)
            .run_result(Some(&mut j))
        {
            RunResult::Completed(o) => *o,
            RunResult::Crashed { heartbeat } => {
                unreachable!("no crash configured, yet died at heartbeat {heartbeat}")
            }
        };
        let stats = j.verify().expect("golden journal verifies");
        goldens.push((shards, wire(&outcome), stats.committed_batches));
    }
    let golden = |shards: usize| -> (&str, u64) {
        goldens
            .iter()
            .find(|(s, _, _)| *s == shards)
            .map(|(_, w, h)| (w.as_str(), *h))
            .expect("golden run for shard count")
    };

    let mut t = TextTable::new(vec![
        "crash_hb",
        "mid_commit",
        "shards",
        "journal_bytes",
        "replayed",
        "replayed_placements",
        "identical",
    ]);
    let mut latencies: Vec<u64> = Vec::new();
    let mut max_replayed = 0u64;
    let mut points = 0u64;
    for ((num, den), mid_commit, shards) in CRASH_POINTS {
        let (golden_wire, h) = golden(shards);
        let crash_hb = (h * num / den).max(1);

        let mut crash_cfg = cfg.clone();
        crash_cfg.faults.sched_crash = Some(SchedulerCrash {
            at_heartbeat: crash_hb,
            mid_commit,
        });
        let mut j = Journal::new();
        match sim(&cluster, &workload, crash_cfg, shards)
            .observe(&mut obs)
            .run_result(Some(&mut j))
        {
            RunResult::Crashed { heartbeat } => {
                assert_eq!(heartbeat, crash_hb, "crash fired at the wrong heartbeat")
            }
            RunResult::Completed(_) => {
                unreachable!("crash at heartbeat {crash_hb} of {h} never fired")
            }
        }

        // A fresh scheduler process: re-run the same inputs against the
        // journal and continue to completion.
        let rec = sim(&cluster, &workload, cfg.clone(), shards)
            .observe(&mut obs)
            .recover(&j)
            .expect("recovery from the crash journal");
        let identical = wire(&rec.outcome) == golden_wire;
        assert!(
            identical,
            "recovered outcome diverged from the uninterrupted run \
             (crash_hb={crash_hb}, mid_commit={mid_commit}, shards={shards})"
        );
        assert_eq!(
            rec.stats.replayed_batches,
            crash_hb - 1,
            "recovery replays every batch committed before the crash"
        );
        if mid_commit {
            assert!(
                rec.stats.discarded_records > 0,
                "a mid-commit kill must leave a torn batch to discard"
            );
        }
        latencies.push(rec.stats.recovery_wall_us);
        max_replayed = max_replayed.max(rec.stats.replayed_batches);
        points += 1;
        t.row(vec![
            format!("{crash_hb}"),
            String::from(if mid_commit { "yes" } else { "no" }),
            format!("{shards}"),
            format!("{}", j.bytes().len()),
            format!("{}", rec.stats.replayed_batches),
            format!("{}", rec.stats.replayed_placements),
            String::from(if identical { "yes" } else { "NO (BUG)" }),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nheartbeats {} (unsharded golden) | crash points {points} | all recovered exactly\n",
        golden(1).1,
    ));

    let mut report = Report::new(out);
    // Every point passed the byte-identity assert above, or we never got
    // here — the headline records the gate for the bench trend line.
    report.push("recovery_equivalence", 1.0);
    report.push("recovery_points", points as f64);
    report.push("recovery_max_replay_batches", max_replayed as f64);
    latencies.sort_unstable();
    report.push(
        "recovery_latency_us_p50",
        latencies[latencies.len() / 2] as f64,
    );
    ctx.absorb(&obs.metrics);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::DEFAULT_SEED;
    use crate::Scale;

    #[test]
    fn recovery_sweeps_and_reports_headlines() {
        // The in-experiment asserts (byte-identity at every point, every
        // committed batch replayed, torn tails on mid-commit kills) are
        // the real gates; here we pin report shape.
        let ctx = RunCtx::new(Scale::Laptop, DEFAULT_SEED).scaled(0.02);
        let r = recovery(&ctx);
        assert_eq!(r.get("recovery_equivalence"), Some(1.0));
        assert_eq!(r.get("recovery_points"), Some(CRASH_POINTS.len() as f64));
        let max_replay = r.get("recovery_max_replay_batches").unwrap();
        assert!(max_replay > 0.0, "the 3/4 crash replays batches");
        assert!(r.get("recovery_latency_us_p50").is_some());
        assert!(r.text.contains("mid_commit"), "{}", r.text);
        assert!(!r.text.contains("NO (BUG)"), "{}", r.text);
    }

    #[test]
    fn recovery_text_is_deterministic_across_runs() {
        let ctx = RunCtx::new(Scale::Laptop, DEFAULT_SEED).scaled(0.02);
        assert_eq!(recovery(&ctx).text, recovery(&ctx).text);
    }
}
