//! The Omega-style sharded multi-scheduler (DESIGN.md §14) over the shared
//! scenario. Sharded draws carry more jobs than one owner block, so shards
//! own different jobs and race for machines: the serialized commit loop
//! must keep every invariant — no machine over-committed, every task
//! terminal under churn, every proposal it passes admitted — however the
//! optimistic passes collide. And one shard is a transparent delegate:
//! byte-identical to the bare policy.

use std::cell::Cell;
use std::rc::Rc;

use tetris_core::{TetrisConfig, TetrisScheduler};
use tetris_sim::{probe::ColdPassProbe, Assignment, ClusterView, MachineId, ShardedScheduler};
use tetris_testkit::SchedName::{Capacity, Drf, Fair, TetrisCpuMemOnly};
use tetris_testkit::{check_invariants, forall, same_outcome, Audited, Policy, Scenario};
use tetris_workload::JobId;

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
        // loses a proposal only to another shard. The others also lose
        // what over-commits the dimensions they skip, and the commit
        // refuses every preemptive proposal: it does not count the
        // evictions that make room.
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
