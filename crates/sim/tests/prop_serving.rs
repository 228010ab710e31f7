//! Priority preemption (DESIGN.md §16) over saturated draws of the shared
//! scenario: every job arrives in the first five seconds, so high
//! priorities queue behind low ones and evict them where the draw turns
//! preemption on. No preemption inverts priorities and every job settles
//! ([`check_invariants`]), while a probe proposes an eviction each call
//! that the engine must refuse whole. Fixed inputs pin that a saturated
//! cluster does preempt, and what a preemption plans on.

use std::cell::Cell;
use std::rc::Rc;

use tetris_resources::{units::GB, MachineSpec, Resource};
use tetris_sim::{
    plan_priority_preemption, Assignment, ClusterConfig, ClusterView, GreedyFifo, WorkingLedger,
};
use tetris_testkit::{check_invariants, forall, Audited, Policy, Scenario, SchedName};
use tetris_workload::{PriorityClass, TaskParams, WorkloadBuilder};

/// One eviction proposal the engine must refuse: the first pending task
/// of the first active job, onto the first machine running a task of its
/// priority or above, evicting that task (or any task, when preemption is
/// off). Returns whether it proposed.
fn illegal_eviction(view: &ClusterView<'_>, out: &mut Vec<Assignment>) -> bool {
    let Some((j, t)) = view
        .active_jobs()
        .find_map(|j| view.job_pending(j).next().map(|t| (j, t)))
    else {
        return false;
    };
    let placer = view.job_priority(j);
    for m in view.query().iter_all() {
        let victim = view
            .machine_tasks(m)
            .iter()
            .copied()
            .find(|&v| !view.preemption_enabled() || view.task_priority(v) >= placer);
        if let Some(v) = victim {
            out.push(Assignment::new(t, m).with_evictions(vec![v]));
            return true;
        }
    }
    false
}

#[test]
fn preemption_never_inverts_and_conserves_terminal_states() {
    let preemptions = Rc::new(Cell::new(0));
    forall("preemption_never_inverts", 24, |s| {
        let s = s.saturated();
        let probes = Rc::new(Cell::new(0));
        let tally = Rc::clone(&probes);
        let policy = Audited::new(s.policy(), move |_, view, out| {
            tally.set(tally.get() + u64::from(illegal_eviction(view, out)));
        });
        let run = s.run_with(policy);
        check_invariants(&s, &run);
        let stats = &run.outcome.stats;
        assert_eq!(
            stats.rejected_assignments,
            probes.get(),
            "only the probes are refused"
        );
        preemptions.set(preemptions.get() + stats.preemptions);
    });
    assert!(preemptions.get() > 0, "no draw preempted");
}

/// On a saturated cluster a late high-priority arrival preempts, planned
/// by the shared epilogue on top of `GreedyFifo`.
#[test]
fn probe_preempts_on_a_saturated_cluster() {
    const MACHINES: usize = 5;
    let spec = MachineSpec::paper_small();
    let (cores, mem) = (
        spec.capacity().get(Resource::Cpu),
        spec.capacity().get(Resource::Mem),
    );
    let task = |cores, mem, duration| TaskParams {
        cores,
        mem,
        duration,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 0.0,
    };
    let mut b = WorkloadBuilder::new().with_demand_cap(spec.capacity());
    // Low-priority backlog: two machine-filling tasks per machine.
    let j0 = b.begin_job("backlog", None, 0.0);
    b.add_stage(j0, "fill", vec![], 2 * MACHINES, |_| {
        task(cores, mem, 200.0)
    });
    // High-priority latecomer: must evict to start before the backlog drains.
    let j1 = b.begin_job("urgent", None, 5.0);
    b.set_priority(j1, PriorityClass::SERVICE);
    b.add_stage(j1, "serve", vec![], 2, |_| {
        task(cores / 2.0, mem / 2.0, 10.0)
    });
    let cluster = ClusterConfig::uniform(MACHINES, spec);
    let mut s = Scenario::fixed(cluster, b.finish(), Policy::Greedy);
    s.cfg.preemption = true;
    let mut ledger = WorkingLedger::default();
    let policy = Audited::new(Box::new(GreedyFifo::new()), move |_, view, out| {
        ledger.begin(view);
        for a in out.iter() {
            ledger.record(view, a.task, a.machine);
        }
        out.extend(plan_priority_preemption(view, &ledger));
    });
    let run = s.run_with(policy);
    check_invariants(&s, &run);
    assert!(run.outcome.stats.preemptions > 0);
}

/// A preemption is planned on what the call's own placements left: here a
/// Tetris call places a mid-priority task on the one machine, and evicting
/// the backlog then frees too little memory for the urgent task. Planned
/// on the view alone, the eviction would over-commit memory.
#[test]
fn preemption_counts_the_calls_own_placements() {
    let spec = MachineSpec::paper_small();
    let task = |mem, duration| TaskParams {
        cores: 1.0,
        mem: mem * GB,
        duration,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 0.0,
    };
    let mut b = WorkloadBuilder::new().with_demand_cap(spec.capacity());
    for (name, priority, arrival, mem) in [
        ("backlog", 0, 0.0, 8.0),
        ("mid", 3, 10.0, 6.0),
        ("urgent", 5, 10.0, 12.0),
    ] {
        let j = b.begin_job(name, None, arrival);
        b.set_priority(j, PriorityClass(priority));
        b.add_stage(j, "work", vec![], 1, |_| task(mem, 100.0));
    }
    let cluster = ClusterConfig::uniform(1, spec);
    let mut s = Scenario::fixed(cluster, b.finish(), Policy::Named(SchedName::Tetris));
    s.cfg.preemption = true;
    let run = s.run();
    check_invariants(&s, &run);
    assert!(run.outcome.stats.preemptions > 0);
}
