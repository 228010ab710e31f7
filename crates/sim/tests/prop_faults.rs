//! Fault-injection invariants over the shared scenario, narrowed to draws
//! whose machines crash: [`check_invariants`] holds under churn — every
//! task terminal, down machines hosting nothing, every fault transition
//! traced — and a doomed job is abandoned, counted, and settles.

use tetris_resources::{units::GB, MachineSpec};
use tetris_sim::{ClusterConfig, FaultPlan};
use tetris_testkit::{check_invariants, forall, Policy, Scenario};
use tetris_workload::{TaskParams, WorkloadBuilder};

#[test]
fn churn_keeps_every_invariant() {
    let (mut crashes, mut killed, mut suspected) = (0, 0, 0);
    forall("churn_keeps_every_invariant", 24, |s| {
        let s = s.churned();
        let run = s.run();
        check_invariants(&s, &run);
        crashes += run.outcome.stats.machine_crashes;
        killed += run.outcome.stats.crash_killed_attempts;
        suspected += run
            .trace
            .iter()
            .filter(|(_, e)| e.kind() == "MachineSuspected")
            .count();
    });
    assert!(crashes > 0 && killed > 0 && suspected > 0);
}

/// Terminal failure: every machine crash-cycles and each task gets one
/// attempt, so at least one task is abandoned, and the run still settles.
#[test]
fn abandonment_is_terminal_and_counted() {
    let mut b = WorkloadBuilder::new();
    let j = b.begin_job("doomed", None, 0.0);
    b.add_stage(j, "long", vec![], 6, |_| TaskParams {
        cores: 1.0,
        mem: GB,
        duration: 600.0,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 0.0,
    });
    let cluster = ClusterConfig::uniform(2, MachineSpec::paper_small());
    let mut s = Scenario::fixed(cluster, b.finish(), Policy::Greedy);
    s.cfg.seed = 7;
    s.cfg.max_task_attempts = 1;
    s.cfg.faults = FaultPlan {
        crash_frac: 1.0,
        crash_cycles: 3,
        downtime: 30.0,
        window: (10.0, 400.0),
        restart_backoff: 1.0,
        ..FaultPlan::default()
    };
    let run = s.run();
    check_invariants(&s, &run);
    assert!(run.outcome.completed, "abandonment must not wedge the run");
    assert!(run.outcome.stats.tasks_abandoned >= 1);
}
