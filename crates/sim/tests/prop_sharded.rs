//! Property-based invariants of the Omega-style sharded multi-scheduler
//! (DESIGN.md §14): the serialized commit loop never overcommits a
//! machine no matter how the optimistic shard passes collide, full
//! engine runs conserve tasks at every shard count under fault churn,
//! and `shards = 1` is a transparent delegate — byte-identical outcomes
//! to the bare inner scheduler.

use proptest::prelude::*;
use tetris_core::{TetrisConfig, TetrisScheduler};
use tetris_resources::{units::GB, units::MB, MachineSpec};
use tetris_sim::{
    probe::ColdPassProbe, ClusterConfig, FaultPlan, ShardedScheduler, SimConfig, SimOutcome,
    Simulation,
};
use tetris_workload::{TaskParams, Workload, WorkloadBuilder};

fn sharded(shards: usize, seed: u64) -> ShardedScheduler {
    ShardedScheduler::new(shards, seed, |_| {
        Box::new(TetrisScheduler::new(TetrisConfig::default()))
    })
}

/// Random small workload for full engine runs; demands fit the small
/// machine profile so every task is placeable somewhere.
fn arb_workload() -> impl Strategy<Value = Workload> {
    let job = (
        1usize..=4,    // tasks
        0.25f64..=2.0, // cores
        0.5f64..=3.0,  // mem GB
        2.0f64..=20.0, // duration
        0.0f64..=30.0, // arrival
    );
    proptest::collection::vec(job, 1..=5).prop_map(|jobs| {
        let mut b = WorkloadBuilder::new().with_demand_cap(MachineSpec::paper_small().capacity());
        for (ji, (n, cores, mem_gb, dur, arrival)) in jobs.into_iter().enumerate() {
            let j = b.begin_job(format!("j{ji}"), None, arrival);
            let inputs: Vec<_> = (0..n).map(|_| b.stored_input(16.0 * MB)).collect();
            b.add_stage(j, "map", vec![], n, |i| TaskParams {
                cores,
                mem: mem_gb * GB,
                duration: dur,
                cpu_frac: 0.7,
                io_burst: 1.0,
                inputs: vec![inputs[i]],
                output_bytes: 20.0 * MB,
                remote_frac: 1.0,
            });
        }
        b.finish()
    })
}

/// Cycling crash/recover churn so conservation is tested under the
/// fault taxonomy, not just the happy path.
fn churn_plan() -> FaultPlan {
    FaultPlan {
        crash_frac: 0.5,
        crash_cycles: 2,
        downtime: 15.0,
        window: (0.0, 120.0),
        restart_backoff: 2.0,
        flake_lead: 5.0,
        ..FaultPlan::default()
    }
}

fn run(w: Workload, shards: usize, seed: u64, faults: bool) -> SimOutcome {
    let mut cfg = SimConfig::default();
    cfg.seed = seed;
    cfg.max_time = 100_000.0;
    if faults {
        cfg.faults = churn_plan();
        cfg.validate().expect("churn plan must be valid");
    }
    let sim = Simulation::build(ClusterConfig::uniform(4, MachineSpec::paper_small()), w);
    let sim = if shards > 1 {
        sim.scheduler(sharded(shards, seed))
    } else {
        sim.scheduler(TetrisScheduler::new(TetrisConfig::default()))
    };
    sim.config(cfg).run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Commit-loop safety: however the optimistic per-shard passes
    /// collide on the handful of free machines, the serialized commit
    /// stage never admits more work than a machine holds. The cold-pass
    /// scenario runs 1-core/4-GB tasks on empty 4-core/16-GB
    /// `paper_small` machines, so a fifth task on any machine IS an
    /// overcommit; each task may be committed at most once and only
    /// onto one of the scenario's free machines.
    #[test]
    fn commit_loop_never_overcommits(
        n_machines in 16usize..=80,
        pending in 8usize..=160,
        tasks_per_job in 1usize..=4,
        shards in 1usize..=5,
        seed in 0u64..100,
    ) {
        const SLOTS_PER_MACHINE: usize = 4; // paper_small: 4 cores / 1-core tasks
        let probe = ColdPassProbe::with_tasks_per_job(n_machines, pending, tasks_per_job);
        let mut sched = sharded(shards, seed);
        let asg = probe.cold_assignments_indexed(&mut sched);
        let free: std::collections::HashSet<_> = probe.free().iter().copied().collect();
        let mut per_machine = std::collections::HashMap::new();
        let mut seen_tasks = std::collections::HashSet::new();
        for a in &asg {
            prop_assert!(
                free.contains(&a.machine),
                "task {:?} committed to busy machine {:?}",
                a.task,
                a.machine
            );
            prop_assert!(
                seen_tasks.insert(a.task),
                "task {:?} committed twice in one heartbeat",
                a.task
            );
            *per_machine.entry(a.machine).or_insert(0usize) += 1;
        }
        for (m, count) in per_machine {
            prop_assert!(
                count <= SLOTS_PER_MACHINE,
                "machine {m:?} overcommitted: {count} tasks on {SLOTS_PER_MACHINE} slots"
            );
        }
    }

    /// Conservation is shard-count-invariant: at shards ∈ {1, 2, 3} the
    /// engine run terminates under fault churn with every task in a
    /// terminal state (completed or abandoned) and the counters agreeing
    /// with the per-task records. Placements may differ across shard
    /// counts; conservation must not.
    #[test]
    fn terminal_conservation_at_every_shard_count(
        w in arb_workload(),
        seed in 0u64..50,
    ) {
        let total = w.num_tasks();
        for shards in [1usize, 2, 3] {
            let o = run(w.clone(), shards, seed, true);
            prop_assert!(o.completed, "shards={shards}: run must settle every job");
            let completed =
                o.tasks.iter().filter(|t| t.finish.is_some() && !t.abandoned).count();
            let abandoned = o.tasks.iter().filter(|t| t.abandoned).count();
            prop_assert_eq!(
                completed + abandoned,
                total,
                "shards={}: every task completes or is abandoned",
                shards
            );
            prop_assert_eq!(abandoned as u64, o.stats.tasks_abandoned);
        }
    }

    /// Transparent delegate: a `ShardedScheduler` with one shard drives
    /// the engine to the byte-identical outcome of the bare inner
    /// scheduler — same per-task machines, start/finish times, attempt
    /// counts, and makespan.
    #[test]
    fn one_shard_matches_unsharded_engine(
        w in arb_workload(),
        seed in 0u64..50,
    ) {
        let mut cfg = SimConfig::default();
        cfg.seed = seed;
        cfg.max_time = 100_000.0;
        let one = Simulation::build(
            ClusterConfig::uniform(4, MachineSpec::paper_small()),
            w.clone(),
        )
        .scheduler(sharded(1, seed))
        .config(cfg.clone())
        .run();
        let bare = Simulation::build(
            ClusterConfig::uniform(4, MachineSpec::paper_small()),
            w,
        )
        .scheduler(TetrisScheduler::new(TetrisConfig::default()))
        .config(cfg)
        .run();
        prop_assert_eq!(one.completed, bare.completed);
        prop_assert_eq!(one.final_time, bare.final_time);
        prop_assert_eq!(one.tasks.len(), bare.tasks.len());
        for (a, b) in one.tasks.iter().zip(bare.tasks.iter()) {
            prop_assert_eq!(a.uid, b.uid);
            prop_assert_eq!(a.machine, b.machine, "task {:?} machine diverged", a.uid);
            prop_assert_eq!(a.start, b.start, "task {:?} start diverged", a.uid);
            prop_assert_eq!(a.finish, b.finish, "task {:?} finish diverged", a.uid);
            prop_assert_eq!(a.attempts, b.attempts);
        }
    }
}

/// Regression for the retry-accounting audit (commit idempotence): under
/// forced intra-heartbeat contention — 16 commit slots, many more pending
/// tasks, four shards racing — a task is committed at most once however
/// many shards or retry rounds re-propose it. The committed-task guard
/// skips re-proposals without charging the overlay a second time and
/// without counting them as conflicts, so `stats.committed` equals the
/// accepted assignment count exactly, and the pass still fills every free
/// slot (a double charge would leave phantom demand and strand slots).
#[test]
fn reproposals_commit_once_without_double_charging() {
    const SLOTS: usize = 4 * 4; // 4 free paper_small machines × 4 slots
    let probe = ColdPassProbe::with_tasks_per_job(32, 64, 2);
    let mut sched = sharded(4, 11);
    let asg = probe.cold_assignments_indexed(&mut sched);
    let mut seen = std::collections::HashSet::new();
    for a in &asg {
        assert!(seen.insert(a.task), "task {:?} committed twice", a.task);
    }
    let stats = sched.stats();
    assert_eq!(
        stats.committed,
        asg.len() as u64,
        "committed tally disagrees with the accepted assignments"
    );
    assert_eq!(asg.len(), SLOTS, "free slots left stranded");
}
