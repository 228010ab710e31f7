//! Crash recovery rebuilds what a Learned-estimator Tetris has learned
//! (DESIGN.md §15): the recurring families it has seen complete, which
//! set whether a new job's demands are taken at face value or
//! over-estimated. No view shows that state; replaying the journal from
//! heartbeat 0 re-derives it.

mod common;

use common::{per_heartbeat, watched, Calls};
use tetris_core::{EstimationMode, TetrisConfig, TetrisScheduler};
use tetris_resources::{units::GB, MachineSpec};
use tetris_sim::{ClusterConfig, Journal, RunResult, SchedulerCrash, SimConfig, Simulation};
use tetris_testkit::wire;
use tetris_workload::{JobId, TaskParams, Workload, WorkloadBuilder};

/// When the second run of the family arrives.
const SECOND_RUN_AT: f64 = 120.0;

/// Two runs of one recurring job: the second arrives long after the first
/// finished, under `second_family`.
fn recurring(second_family: &str) -> Workload {
    let mut b = WorkloadBuilder::new();
    for (i, (family, arrival)) in [("nightly", 0.0), (second_family, SECOND_RUN_AT)]
        .into_iter()
        .enumerate()
    {
        let j = b.begin_job(format!("run{i}"), Some(family.to_string()), arrival);
        b.add_stage(j, "scan", vec![], 8, |k| TaskParams {
            cores: 4.0,
            mem: 4.0 * GB,
            duration: 10.0 + k as f64,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
    }
    b.finish()
}

/// Learned estimation that only a known family escapes: the warm-up is
/// longer than any stage.
fn learned_sim(
    workload: Workload,
    crash: Option<SchedulerCrash>,
    calls: &Calls,
) -> Simulation<'static> {
    let mut tc = TetrisConfig::default();
    tc.estimation = EstimationMode::Learned {
        overestimate: 1.5,
        warmup: 100,
    };
    let mut cfg = SimConfig::default();
    cfg.seed = 3;
    cfg.faults.sched_crash = crash;
    let machine = MachineSpec::new()
        .cores(16.0)
        .memory(64.0 * GB)
        .disks(4, 50e6)
        .nic(125e6);
    Simulation::build(ClusterConfig::uniform(1, machine), workload)
        // Only the clock is read here.
        .scheduler(watched(TetrisScheduler::new(tc), |_| false, calls))
        .config(cfg)
}

#[test]
fn recovery_rebuilds_learned_families() {
    let calls = Calls::default();
    let golden = learned_sim(recurring("nightly"), None, &calls).run();
    // The learned family is what sets the second run's pace: under a
    // family never seen before it is over-estimated and runs slower.
    let stranger = learned_sim(recurring("adhoc"), None, &Calls::default()).run();
    assert!(golden.jct(JobId(1)).unwrap() < stranger.jct(JobId(1)).unwrap());

    // Crash as the second run arrives: its first placements need the
    // family learned before the crash.
    let heartbeats = per_heartbeat(&calls);
    let arrival = heartbeats.iter().position(|&(t, _)| t >= SECOND_RUN_AT);
    let crash_at = 1 + arrival.expect("a heartbeat at the second arrival") as u64;
    for mid_commit in [false, true] {
        let crash = SchedulerCrash {
            at_heartbeat: crash_at,
            mid_commit,
        };
        let mut journal = Journal::new();
        let res = learned_sim(recurring("nightly"), Some(crash), &Calls::default())
            .run_result(Some(&mut journal));
        assert!(matches!(res, RunResult::Crashed { heartbeat } if heartbeat == crash_at));
        let rec = learned_sim(recurring("nightly"), None, &Calls::default())
            .recover(&journal)
            .expect("recovery succeeds");
        assert_eq!(rec.stats.replayed_batches, crash_at - 1);
        assert_eq!(wire(&rec.outcome), wire(&golden), "mid_commit {mid_commit}");
    }
}
