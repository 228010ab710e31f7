//! Crash recovery rebuilds a seeded policy's rng stream (DESIGN.md §15):
//! `RandomScheduler` draws from its own rng on every call, so where the
//! stream stands at a crash depends on every call before it. Replaying
//! the journal from heartbeat 0 with a freshly seeded policy re-draws the
//! same stream; a differently seeded one diverges from the journal.

use tetris_baselines::RandomScheduler;
use tetris_resources::MachineSpec;
use tetris_sim::{
    ClusterConfig, Journal, RecoveryError, RunResult, SchedulerCrash, SimConfig, SimOutcome,
    Simulation,
};
use tetris_workload::{FacebookTraceConfig, Workload};

const SEED: u64 = 5;

fn workload() -> Workload {
    FacebookTraceConfig {
        n_jobs: 30,
        scale: 0.03,
        mean_interarrival: 4.0,
        ..FacebookTraceConfig::default()
    }
    .generate(21)
}

fn sim(policy_seed: u64, crash: Option<SchedulerCrash>) -> Simulation<'static> {
    let mut cfg = SimConfig::default();
    cfg.seed = 9;
    cfg.faults.sched_crash = crash;
    Simulation::build(
        ClusterConfig::uniform(4, MachineSpec::paper_large()),
        workload(),
    )
    .scheduler(RandomScheduler::seeded(policy_seed))
    .config(cfg)
}

fn wire(o: &SimOutcome) -> String {
    serde_json::to_string(o).expect("outcome serializes")
}

#[test]
fn random_scheduler_recovers_mid_run() {
    let mut journal = Journal::new();
    let golden = sim(SEED, None)
        .run_result(Some(&mut journal))
        .completed()
        .expect("no crash configured");
    let heartbeats = journal.verify().unwrap().committed_batches;
    let crash_at = heartbeats / 2;
    assert!(crash_at > 10, "mid-run is well into the stream");
    for mid_commit in [false, true] {
        let crash = SchedulerCrash {
            at_heartbeat: crash_at,
            mid_commit,
        };
        let mut journal = Journal::new();
        let res = sim(SEED, Some(crash)).run_result(Some(&mut journal));
        assert!(matches!(res, RunResult::Crashed { heartbeat } if heartbeat == crash_at));
        let rec = sim(SEED, None)
            .recover(&journal)
            .expect("recovery succeeds");
        assert_eq!(rec.stats.replayed_batches, crash_at - 1);
        assert_eq!(wire(&rec.outcome), wire(&golden), "mid_commit {mid_commit}");

        // Another stream makes other decisions, and the witness says so.
        let other = sim(SEED + 1, None).recover(&journal);
        assert!(
            matches!(other, Err(RecoveryError::ReplayDivergence { .. })),
            "{other:?}"
        );
    }
}
