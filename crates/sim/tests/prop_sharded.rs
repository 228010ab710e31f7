//! The Omega-style sharded multi-scheduler (DESIGN.md §14) over the shared
//! scenario. Sharded draws carry more jobs than one owner block, so shards
//! own different jobs and race for machines: the serialized commit loop
//! must keep every invariant — no machine over-committed, every task
//! terminal under churn, every proposal it passes admitted — however the
//! optimistic passes collide. And one shard is a transparent delegate:
//! byte-identical to the bare policy.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

use tetris_core::{TetrisConfig, TetrisScheduler};
use tetris_obs::Event;
use tetris_resources::MachineSpec;
use tetris_sim::{
    probe::ColdPassProbe, Assignment, ClusterConfig, ClusterView, MachineId, ShardedScheduler,
};
use tetris_testkit::SchedName::{Capacity, Drf, Fair, TetrisCpuMemOnly};
use tetris_testkit::{
    check_invariants, forall, same_outcome, wire, Audited, Policy, Scenario, SchedName,
};
use tetris_workload::{JobId, WorkloadSuiteConfig};

/// §16 breaches in one call: an assignment the view's constraint
/// predicate rules out, or a spread replica stacked in the call while its
/// job is below its floor. The commit stage checks fit only.
fn breaches(view: &ClusterView<'_>, out: &[Assignment]) -> usize {
    let mut earlier: Vec<(JobId, MachineId)> = Vec::new();
    let mut n = 0;
    for a in out {
        let j = view.task_stage(a.task).0;
        n += usize::from(!view.constraints_allow(j, a.machine));
        let Some(floor) = view.job_constraints(j).spread else {
            continue;
        };
        let machines = earlier.iter().filter(|&&(ej, _)| ej == j).count();
        if earlier.contains(&(j, a.machine)) {
            n += usize::from(view.job_spread(j) + machines < floor);
        } else {
            earlier.push((j, a.machine));
        }
    }
    n
}

#[test]
fn racing_shards_keep_every_invariant() {
    let mut conflicts = 0;
    let breached = Rc::new(Cell::new(0));
    forall("racing_shards_keep_every_invariant", 16, |s| {
        let s = Scenario::find(s.draw, |s| s.shards > 1);
        let seen = Rc::clone(&breached);
        let policy = Audited::new(s.policy(), move |_, view, out| {
            seen.set(seen.get() + breaches(view, out));
        });
        let run = s.run_with(policy);
        check_invariants(&s, &run);
        assert_eq!(
            run.outcome.stats.rejected_assignments, 0,
            "a commit was refused"
        );
        // A policy whose fit reads every dimension the commit stage checks
        // loses a proposal only to another shard's placement. The others
        // also lose what over-commits the dimensions they skip, and a
        // preemptive proposal also loses a victim another shard evicted.
        let partial = matches!(
            s.policy,
            Policy::Named(Fair | Capacity | Drf | TetrisCpuMemOnly)
        );
        if !partial && !s.cfg.preemption {
            conflicts += run.conflicts;
        }
    });
    assert!(conflicts > 0, "no two shards raced");
    assert_eq!(breached.get(), 0, "commits broke §16 constraints");
}

/// Sharded Tetris on a saturated draw with preemption on: the commit
/// stage credits a preemptive proposal's victims on its target, so shards
/// preempt, and no victim is evicted by two commits.
#[test]
fn saturated_shards_preempt_each_victim_once() {
    let tetris =
        |s: &Scenario| s.shards == 2 && matches!(s.policy, Policy::Named(SchedName::Tetris));
    let mut s = Scenario::find(3, tetris).saturated();
    s.cfg.preemption = true;
    let run = s.run();
    check_invariants(&s, &run);
    let stats = &run.outcome.stats;
    assert!(stats.preemptions > 0, "no shard preempted");
    assert_eq!(stats.rejected_assignments, 0, "a commit was refused");
    let mut running = HashSet::new();
    for (_, e) in &run.trace {
        match e {
            Event::TaskPlaced { task, .. } => {
                running.insert(*task);
            }
            Event::TaskPreempted { task, reason, .. } if reason == "priority_preemption" => {
                assert!(running.remove(task), "task {task} evicted twice");
            }
            _ => {}
        }
    }
}

#[test]
fn one_shard_matches_the_bare_policy() {
    forall("one_shard_matches_the_bare_policy", 12, |mut s| {
        s.shards = 1;
        let seed = s.cfg.seed;
        let one = ShardedScheduler::new(1, seed, |_| s.policy.build(seed));
        same_outcome(&s.run_with(one), &s.run());
    });
}

/// The retry-accounting audit (commit idempotence): under forced
/// intra-heartbeat contention — 16 commit slots, many more pending tasks,
/// four shards racing — a task is committed at most once however many
/// shards or retry rounds re-propose it. The committed-task guard skips
/// re-proposals without charging the commit ledger a second time and
/// without counting them as conflicts, so `stats.committed` equals the
/// accepted assignment count exactly, and the pass still fills every free
/// slot (a double charge would leave phantom demand and strand slots).
#[test]
fn reproposals_commit_once_without_double_charging() {
    const SLOTS: usize = 4 * 4; // 4 free paper_small machines × 4 slots
    let probe = ColdPassProbe::with_tasks_per_job(32, 64, 2);
    let mut sched = ShardedScheduler::new(4, 11, |_| {
        Box::new(TetrisScheduler::new(TetrisConfig::default()))
    });
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

/// FNV-1a of `bytes`: a stable digest of an outcome's wire form.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A sharded engine run whose jobs span four owner blocks (sixty-four
/// job ids each, `OWNER_BLOCK`), so both shards own work and race for the
/// same machines: the pin of sharded output. Fewer jobs than one block
/// shard nothing, and their output equals an unsharded run's.
#[test]
fn two_shards_over_four_owner_blocks_race_and_keep_their_outcome() {
    let mut suite = WorkloadSuiteConfig::small();
    suite.n_jobs = 200;
    suite.arrival_horizon = 20.0;
    let workload = suite.generate(7);
    let cluster = ClusterConfig::uniform(30, MachineSpec::paper_small());
    let mut s = Scenario::fixed(cluster, workload, Policy::Named(SchedName::Tetris));
    s.cfg.max_time = 50_000.0; // the last job ends near 8 300 s
                               // The jobs each shard proposed a task of; a job has one owner.
    let owned: Vec<Rc<RefCell<HashSet<JobId>>>> = (0..2).map(|_| Rc::default()).collect();
    let shards = ShardedScheduler::new(2, s.cfg.seed, |k| {
        let jobs = Rc::clone(&owned[k]);
        Box::new(Audited::new(
            s.policy.build(s.cfg.seed),
            move |_, view, out| {
                let mut jobs = jobs.borrow_mut();
                jobs.extend(out.iter().map(|a| view.task_stage(a.task).0));
            },
        ))
    });
    let run = s.run_with(shards);
    check_invariants(&s, &run);
    assert!(run.outcome.completed, "the run reached the hard stop");
    assert!(run.conflicts > 0, "the shards never raced");
    for (k, jobs) in owned.iter().enumerate() {
        let placed = run
            .outcome
            .tasks
            .iter()
            .filter(|t| t.start.is_some() && jobs.borrow().contains(&t.job))
            .count();
        assert!(placed > 0, "shard {k} placed nothing");
    }
    let digest = fnv1a(wire(&run.outcome).as_bytes());
    assert_eq!(
        digest, 0xabe4_4a3b_41d9_242c,
        "outcome digest {digest:#018x}"
    );
}
