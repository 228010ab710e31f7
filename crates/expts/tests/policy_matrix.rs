//! Every registered policy × crash recovery (DESIGN.md §15): a *fresh*
//! policy, replayed from heartbeat 0 against the journal, must carry the
//! run on exactly as the original would have. That holds only if
//! everything a policy keeps across `schedule()` calls is a deterministic
//! function of what it has been shown — re-execution then rebuilds it,
//! reservations, learned state and seeded rng streams included.
//!
//! The matrix is [`SchedName::ALL`], so a policy added to the registry is
//! covered without anyone remembering to list it here.

use tetris_expts::setup::SchedName;
use tetris_resources::MachineSpec;
use tetris_sim::{ClusterConfig, Journal, RunResult, SchedulerCrash, SimConfig, Simulation};
use tetris_workload::{FacebookTraceConfig, Workload};

const CRASH_AT: u64 = 200;

/// A contended Facebook-like trace: jobs overlap heavily on 4 machines,
/// so at the crash several jobs are mid-flight and most slots are held —
/// the state a recovered policy has to rebuild.
fn workload() -> Workload {
    FacebookTraceConfig {
        n_jobs: 60,
        scale: 0.03,
        mean_interarrival: 4.0,
        ..FacebookTraceConfig::default()
    }
    .generate(43)
}

fn sim(sched: SchedName, crash: Option<SchedulerCrash>) -> Simulation<'static> {
    let mut cfg = SimConfig::default();
    cfg.seed = 7;
    cfg.faults.sched_crash = crash;
    Simulation::build(
        ClusterConfig::uniform(4, MachineSpec::paper_large()),
        workload(),
    )
    .scheduler(sched.build(cfg.seed))
    .config(cfg)
}

#[test]
fn every_policy_recovers_to_the_uninterrupted_outcome() {
    for sched in SchedName::ALL {
        let label = sched.label();
        let golden = sim(sched, None).run();
        assert!(golden.completed, "{label}: uninterrupted run timed out");

        let crash = SchedulerCrash {
            at_heartbeat: CRASH_AT,
            mid_commit: false,
        };
        let mut journal = Journal::new();
        let res = sim(sched, Some(crash)).run_result(Some(&mut journal));
        assert!(
            matches!(
                res,
                RunResult::Crashed {
                    heartbeat: CRASH_AT
                }
            ),
            "{label}: run ended before heartbeat {CRASH_AT}"
        );

        let rec = sim(sched, None)
            .recover(&journal)
            .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
        assert_eq!(
            rec.stats.replayed_batches,
            CRASH_AT - 1,
            "{label}: every committed batch witnesses the fresh policy"
        );
        assert_eq!(
            serde_json::to_string(&rec.outcome).expect("outcome serializes"),
            serde_json::to_string(&golden).expect("outcome serializes"),
            "{label}: recovered outcome diverged from the uninterrupted run"
        );
    }
}
