//! Every registered policy × §16 placement constraints (DESIGN.md §16):
//! no assignment a policy returns may land on a machine that
//! `ClusterView::constraints_allow` rules out for the task's job, judged
//! against the view that `schedule` was handed. The engine's admission
//! check does not look at constraints, so a policy that skips the
//! predicate places replicas where the spec forbids them.
//!
//! Nor may one call stack a spread-floored job: the view cannot see the
//! call's own earlier picks, so a second replica on a machine that took
//! one earlier in the same call is counted while the job's spread — the
//! view's count plus the call's earlier distinct machines — is below its
//! floor.
//!
//! The input is the `serving` experiment's: the laptop serving mix
//! (spread-floored service waves over a batch backlog) with preemption
//! on, and the same mix again on a cluster with tainted machines that
//! only some jobs tolerate. The matrix is [`SchedName::ALL`], so a policy
//! added to the registry is covered without anyone listing it here, plus
//! the simulator's own `GreedyFifo`.

use std::cell::Cell;
use std::rc::Rc;

use tetris_expts::{RunCtx, SchedName};
use tetris_sim::{Assignment, ClusterView, GreedyFifo, MachineId, SimConfig, Simulation};
use tetris_testkit::Audited;
use tetris_workload::{JobId, ServingMixConfig, Workload};

/// Taint bit carried by every fourth machine in the tainted variant.
const TAINT: u64 = 1;

/// What one policy's run proposed and how much of it broke §16.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    proposed: usize,
    /// On a machine the view's constraint predicate rules out.
    disallowed: usize,
    /// A spread replica stacked on a machine within one call.
    stacked: usize,
}

/// Replicas in `out` placed, while their job is below its spread floor,
/// on a machine that took one of its tasks earlier in the same call.
fn stacked(view: &ClusterView<'_>, out: &[Assignment]) -> usize {
    let mut earlier: Vec<(JobId, MachineId)> = Vec::new();
    let mut n = 0;
    for a in out {
        let j = view.task_stage(a.task).0;
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

/// The serving experiment's workload and config at laptop scale.
fn serving(ctx: &RunCtx) -> (Workload, SimConfig) {
    let w = ServingMixConfig::laptop(1.0).generate(ctx.seed + 33);
    let mut cfg = ctx.sim_config();
    cfg.seed = ctx.seed + 77;
    cfg.preemption = true;
    (w, cfg)
}

/// Every policy's tally on `w` under `cfg`, by label.
fn audit(ctx: &RunCtx, w: &Workload, cfg: &SimConfig) -> Vec<(&'static str, Tally)> {
    let policies = SchedName::ALL
        .iter()
        .map(|&sched| (sched.label(), sched.build(cfg.seed)))
        .chain([("greedy-fifo", Box::new(GreedyFifo::new()) as Box<_>)]);
    policies
        .map(|(label, inner)| {
            let tally = Rc::new(Cell::new(Tally::default()));
            let seen = Rc::clone(&tally);
            let policy = Audited::new(inner, move |_, view, out| {
                let mut t = seen.get();
                t.proposed += out.len();
                t.disallowed += out
                    .iter()
                    .filter(|a| !view.constraints_allow(view.task_stage(a.task).0, a.machine))
                    .count();
                t.stacked += stacked(view, out);
                seen.set(t);
            });
            Simulation::build(ctx.cluster(), w.clone())
                .scheduler(policy)
                .config(cfg.clone())
                .run();
            (label, tally.get())
        })
        .collect()
}

fn assert_all_allowed(rows: &[(&str, Tally)]) {
    assert!(
        rows.iter().all(|(_, t)| t.proposed > 0),
        "a policy placed nothing: {rows:?}"
    );
    let bad: Vec<_> = rows
        .iter()
        .filter(|(_, t)| t.disallowed + t.stacked > 0)
        .collect();
    assert!(bad.is_empty(), "policies breaking §16: {bad:?}");
}

#[test]
fn every_policy_respects_constraints_on_the_serving_mix() {
    let ctx = RunCtx::default();
    let (w, cfg) = serving(&ctx);
    assert_all_allowed(&audit(&ctx, &w, &cfg));
}

#[test]
fn every_policy_respects_taints_on_the_serving_mix() {
    let ctx = RunCtx::default();
    let (mut w, mut cfg) = serving(&ctx);
    cfg.machine_taints = (0..ctx.cluster().len())
        .map(|m| if m % 4 == 0 { TAINT } else { 0 })
        .collect();
    for job in w.jobs_mut().iter_mut().step_by(2) {
        job.constraints.tolerations |= TAINT;
    }
    assert_all_allowed(&audit(&ctx, &w, &cfg));
}
