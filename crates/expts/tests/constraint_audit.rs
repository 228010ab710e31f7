//! Every registered policy × §16 placement constraints (DESIGN.md §16):
//! no assignment a policy returns may land on a machine that
//! `ClusterView::constraints_allow` rules out for the task's job, judged
//! against the view that `schedule` was handed. The engine's admission
//! check does not look at constraints, so a policy that skips the
//! predicate places replicas where the spec forbids them.
//!
//! The input is the `serving` experiment's: the laptop serving mix
//! (spread-floored service waves over a batch backlog) with preemption
//! on, and the same mix again on a cluster with tainted machines that
//! only some jobs tolerate. The matrix is [`SchedName::ALL`], so a policy
//! added to the registry is covered without anyone listing it here.
//!
//! Two spread replicas of one job placed on one machine *within* a single
//! `schedule` call are not counted: the view cannot see the call's own
//! earlier picks, so the predicate is the same for both.

use std::cell::Cell;
use std::rc::Rc;

use tetris_expts::{RunCtx, SchedName};
use tetris_sim::{Assignment, ClusterView, SchedulerEvent, SchedulerPolicy, SimConfig, Simulation};
use tetris_workload::{ServingMixConfig, Workload};

/// Taint bit carried by every fourth machine in the tainted variant.
const TAINT: u64 = 1;

/// Forwards every call to `inner` and counts, in `disallowed`, the
/// returned assignments whose machine the view's constraint predicate
/// rules out.
struct Audit {
    inner: Box<dyn SchedulerPolicy>,
    proposed: Rc<Cell<usize>>,
    disallowed: Rc<Cell<usize>>,
}

impl SchedulerPolicy for Audit {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_event(&mut self, view: &ClusterView<'_>, event: &SchedulerEvent) {
        self.inner.on_event(view, event);
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let out = self.inner.schedule(view);
        self.proposed.set(self.proposed.get() + out.len());
        let bad = out
            .iter()
            .filter(|a| !view.constraints_allow(view.task_stage(a.task).0, a.machine))
            .count();
        self.disallowed.set(self.disallowed.get() + bad);
        out
    }

    fn uses_tracker(&self) -> bool {
        self.inner.uses_tracker()
    }

    fn drain_metrics(&mut self, metrics: &mut tetris_obs::MetricsRegistry) {
        self.inner.drain_metrics(metrics);
    }

    fn export_state(&self) -> Option<String> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &str) {
        self.inner.import_state(state);
    }
}

/// The serving experiment's workload and config at laptop scale.
fn serving(ctx: &RunCtx) -> (Workload, SimConfig) {
    let w = ServingMixConfig::laptop(1.0).generate(ctx.seed + 33);
    let mut cfg = ctx.sim_config();
    cfg.seed = ctx.seed + 77;
    cfg.preemption = true;
    (w, cfg)
}

/// Every policy's `(label, proposed, disallowed)` on `w` under `cfg`.
fn audit(ctx: &RunCtx, w: &Workload, cfg: &SimConfig) -> Vec<(&'static str, usize, usize)> {
    SchedName::ALL
        .iter()
        .map(|&sched| {
            let proposed = Rc::new(Cell::new(0));
            let disallowed = Rc::new(Cell::new(0));
            let policy = Audit {
                inner: sched.build(cfg.seed),
                proposed: Rc::clone(&proposed),
                disallowed: Rc::clone(&disallowed),
            };
            Simulation::build(ctx.cluster(), w.clone())
                .scheduler(policy)
                .config(cfg.clone())
                .run();
            (sched.label(), proposed.get(), disallowed.get())
        })
        .collect()
}

fn assert_all_allowed(rows: &[(&str, usize, usize)]) {
    assert!(
        rows.iter().all(|&(_, proposed, _)| proposed > 0),
        "a policy placed nothing: {rows:?}"
    );
    let bad: Vec<_> = rows.iter().filter(|r| r.2 > 0).collect();
    assert!(
        bad.is_empty(),
        "(policy, proposed, on disallowed machines): {bad:?}"
    );
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
    for job in w.jobs.iter_mut().step_by(2) {
        job.constraints.tolerations |= TAINT;
    }
    assert_all_allowed(&audit(&ctx, &w, &cfg));
}
