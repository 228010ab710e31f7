//! The §3.5 starvation-prevention extension, end to end.
//!
//! A single machine runs a churn of small tasks; a large task (14 of 16
//! cores) arrives early but never finds 14 cores free because freed cores
//! are instantly taken by more small tasks. With reservations, Tetris
//! notices the starved task after `patience` seconds, reserves the
//! machine, lets it drain, and runs the large task; without them, the
//! large task waits for the churn to end.

mod common;

use common::{per_heartbeat, watched, Calls};
use tetris_core::{StarvationConfig, TetrisConfig, TetrisScheduler};
use tetris_resources::{units::GB, MachineSpec, ResourceVec};
use tetris_sim::{
    ClusterConfig, Journal, MachineId, RunResult, SchedulerCrash, SimConfig, Simulation,
};
use tetris_testkit::wire;
use tetris_workload::{JobId, PlacementConstraints, TaskParams, Workload, WorkloadBuilder};

fn starvation_workload() -> Workload {
    churn_and_big(2.0 * GB, 8.0 * GB, PlacementConstraints::none())
}

/// Job 0 is a churn of 200 two-core tasks of `churn_mem` each, under
/// `churn_constraints`; job 1, arriving at 5 s, is one 14-core task of
/// `big_mem` with no constraints.
fn churn_and_big(
    churn_mem: f64,
    big_mem: f64,
    churn_constraints: PlacementConstraints,
) -> Workload {
    let mut b = WorkloadBuilder::new();
    let churn = b.begin_job("churn", None, 0.0);
    b.set_constraints(churn, churn_constraints);
    // Durations staggered per task so completions never coincide: freed
    // cores come back two at a time and the large task never sees 14 free.
    b.add_stage(churn, "small", vec![], 200, |i| TaskParams {
        cores: 2.0,
        mem: churn_mem,
        duration: 8.0 + (i % 7) as f64 * 1.3,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 1.0,
    });
    let big = b.begin_job("big", None, 5.0);
    b.add_stage(big, "large", vec![], 1, |_| TaskParams {
        cores: 14.0,
        mem: big_mem,
        duration: 10.0,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 1.0,
    });
    b.finish()
}

fn machine(cores: f64, mem: f64) -> MachineSpec {
    MachineSpec::new()
        .cores(cores)
        .memory(mem)
        .disks(4, 50e6)
        .nic(125e6)
}

fn run(starvation: Option<StarvationConfig>) -> tetris_sim::SimOutcome {
    let cluster = ClusterConfig::uniform(1, machine(16.0, 32.0 * GB));
    run_on(cluster, Vec::new(), starvation_workload(), starvation)
}

/// Pure packing pressure: no SRTF reordering, no fairness restriction.
fn run_on(
    cluster: ClusterConfig,
    machine_taints: Vec<u64>,
    workload: Workload,
    starvation: Option<StarvationConfig>,
) -> tetris_sim::SimOutcome {
    let mut tc = TetrisConfig::default();
    tc.srtf_multiplier = 0.0;
    tc.fairness_knob = 0.0;
    tc.starvation = starvation;
    let mut cfg = SimConfig::default();
    cfg.seed = 1;
    cfg.machine_taints = machine_taints;
    Simulation::build(cluster, workload)
        .scheduler(TetrisScheduler::new(tc))
        .config(cfg)
        .run()
}

#[test]
fn reservation_rescues_the_starved_task() {
    let patience = 60.0;
    let with = run(Some(StarvationConfig {
        patience,
        max_reservations: 1,
    }));
    let without = run(None);
    assert!(with.all_jobs_completed());
    assert!(without.all_jobs_completed());

    let big_with = with.jct(JobId(1)).unwrap();
    let big_without = without.jct(JobId(1)).unwrap();

    // Without reservations the big task waits out most of the churn
    // (200 tasks / 8 concurrent × 10 s ≈ 250 s).
    assert!(
        big_without > 150.0,
        "expected starvation without reservations, big jct = {big_without}"
    );
    // With reservations it runs shortly after the patience threshold:
    // reservation at ~65 s, machine drains ≤ 10 s, task runs 10 s.
    assert!(
        big_with < patience + 40.0,
        "reservation did not rescue the task: big jct = {big_with}"
    );
    assert!(big_with < big_without / 2.0);
}

#[test]
fn reservation_cost_to_everyone_else_is_bounded() {
    let with = run(Some(StarvationConfig {
        patience: 60.0,
        max_reservations: 1,
    }));
    let without = run(None);
    // The churn job pays only the drain window, a small fraction of its
    // total runtime.
    let churn_with = with.jct(JobId(0)).unwrap();
    let churn_without = without.jct(JobId(0)).unwrap();
    assert!(
        churn_with < churn_without * 1.15,
        "churn slowed too much: {churn_with} vs {churn_without}"
    );
}

#[test]
fn no_reservations_when_nothing_starves() {
    // Plenty of room: the large task fits immediately; behaviour must be
    // identical with and without the mechanism.
    let spec = MachineSpec::new()
        .cores(16.0)
        .memory(32.0 * GB)
        .disks(4, 50e6)
        .nic(125e6);
    let mut b = WorkloadBuilder::new();
    let j = b.begin_job("j", None, 0.0);
    b.add_stage(j, "s", vec![], 4, |_| TaskParams {
        cores: 2.0,
        mem: 2.0 * GB,
        duration: 10.0,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 1.0,
    });
    let w = b.finish();
    let run_one = |starve: Option<StarvationConfig>| {
        let mut tc = TetrisConfig::default();
        tc.starvation = starve;
        Simulation::build(ClusterConfig::uniform(2, spec), w.clone())
            .scheduler(TetrisScheduler::new(tc))
            .seed(2)
            .run()
    };
    let a = run_one(Some(StarvationConfig::default()));
    let b_ = run_one(None);
    assert_eq!(a.makespan(), b_.makespan());
    assert_eq!(
        a.tasks.iter().map(|t| t.finish).collect::<Vec<_>>(),
        b_.tasks.iter().map(|t| t.finish).collect::<Vec<_>>()
    );
}

#[test]
fn reserved_vector_is_observable() {
    // API surface: reserved_machines() reports and clears.
    let mut tc = TetrisConfig::default();
    tc.starvation = Some(StarvationConfig::default());
    let s = TetrisScheduler::new(tc);
    assert!(s.reserved_machines().is_empty());
    let _ = ResourceVec::zero();
}

/// Two machines, one tainted: reservations must never hand a task a
/// machine its job's constraints refuse.
#[test]
fn reservation_respects_constraints() {
    // Machine 0: untainted, 16 cores. Machine 1: tainted, 32 cores, so
    // its gap is the smaller one while the churn fills both.
    let cluster = ClusterConfig {
        machines: vec![machine(16.0, 32.0 * GB), machine(32.0, 64.0 * GB)],
    };
    let workload = || {
        churn_and_big(
            2.0 * GB,
            8.0 * GB,
            PlacementConstraints::none().with_tolerations(1),
        )
    };
    let big_host = |o: &tetris_sim::SimOutcome| {
        let big = o.tasks.iter().find(|t| t.job == JobId(1)).unwrap();
        big.machine.unwrap()
    };
    let starvation = StarvationConfig {
        patience: 60.0,
        max_reservations: 1,
    };
    let with = run_on(cluster.clone(), vec![0, 1], workload(), Some(starvation));
    let without = run_on(cluster, vec![0, 1], workload(), None);
    assert!(with.all_jobs_completed() && without.all_jobs_completed());
    assert_eq!(big_host(&without), MachineId(0), "without reservations");
    assert_eq!(big_host(&with), MachineId(0), "with reservations");
}

/// A machine too small for the starved task can look closest to fitting
/// (8 free cores of 8 beat 0 free of 16), but reserving it rescues
/// nothing.
#[test]
fn reservation_picks_a_machine_the_task_fits() {
    // The churn's 6 GB tasks never fit machine 0's 4 GB, so they all run
    // on machine 1, the only machine with room for 14 cores.
    let cluster = ClusterConfig {
        machines: vec![machine(8.0, 4.0 * GB), machine(16.0, 64.0 * GB)],
    };
    let workload = || churn_and_big(6.0 * GB, 2.0 * GB, PlacementConstraints::none());
    let patience = 60.0;
    let with = run_on(
        cluster.clone(),
        Vec::new(),
        workload(),
        Some(StarvationConfig {
            patience,
            max_reservations: 1,
        }),
    );
    let without = run_on(cluster, Vec::new(), workload(), None);
    assert!(with.all_jobs_completed() && without.all_jobs_completed());
    let big_with = with.jct(JobId(1)).unwrap();
    let big_without = without.jct(JobId(1)).unwrap();
    assert!(
        big_with < patience + 40.0,
        "reservation did not rescue the task: big jct = {big_with} (without: {big_without})"
    );
}

/// The reservation scenario under a journal, its Tetris watched for a
/// standing reservation after every call.
fn reserving_sim(crash: Option<SchedulerCrash>, calls: &Calls) -> Simulation<'static> {
    let mut tc = TetrisConfig::default();
    tc.srtf_multiplier = 0.0;
    tc.fairness_knob = 0.0;
    tc.starvation = Some(StarvationConfig {
        patience: 60.0,
        max_reservations: 1,
    });
    let mut cfg = SimConfig::default();
    cfg.seed = 1;
    cfg.faults.sched_crash = crash;
    let policy = watched(
        TetrisScheduler::new(tc),
        |t| !t.reserved_machines().is_empty(),
        calls,
    );
    Simulation::build(
        ClusterConfig::uniform(1, machine(16.0, 32.0 * GB)),
        starvation_workload(),
    )
    .scheduler(policy)
    .config(cfg)
}

/// A scheduler that dies while a §3.5 reservation stands — state no view
/// shows, which a checkpoint once had to carry — comes back through a
/// fresh policy replayed from heartbeat 0: the replay stands the same
/// reservation again, and the run ends exactly as the uninterrupted one.
#[test]
fn recovery_rebuilds_a_standing_reservation() {
    let calls = Calls::default();
    let golden = reserving_sim(None, &calls).run();
    let heartbeats = per_heartbeat(&calls);
    // The first heartbeat that ends with a reservation standing; the
    // crash takes the one after it.
    let reserved_at = 1 + heartbeats
        .iter()
        .position(|&(_, r)| r)
        .expect("a reservation") as u64;
    assert!(heartbeats[reserved_at as usize].1, "it still stands next");
    let crash_at = reserved_at + 1;
    for mid_commit in [false, true] {
        let crash = SchedulerCrash {
            at_heartbeat: crash_at,
            mid_commit,
        };
        let mut journal = Journal::new();
        let res = reserving_sim(Some(crash), &Calls::default()).run_result(Some(&mut journal));
        assert!(matches!(res, RunResult::Crashed { heartbeat } if heartbeat == crash_at));

        let fresh = Calls::default();
        let rec = reserving_sim(None, &fresh)
            .recover(&journal)
            .expect("recovery succeeds");
        assert_eq!(rec.stats.replayed_batches, reserved_at);
        let rebuilt = per_heartbeat(&fresh);
        assert!(
            rebuilt[reserved_at as usize - 1].1,
            "the fresh policy reserved again before the frontier"
        );
        assert_eq!(wire(&rec.outcome), wire(&golden), "mid_commit {mid_commit}");
    }
}
