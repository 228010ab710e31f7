//! DRF, Fair and Capacity read no tracker tick, so their runs have none
//! (DESIGN.md §3): the same runs with every tick kept place the same
//! tasks at the same times, and differ only in how many events and
//! schedule calls the engine spent.

use tetris_baselines::{CapacityScheduler, DrfScheduler};
use tetris_obs::Event;
use tetris_resources::{units::GB, MachineSpec};
use tetris_sim::{
    Assignment, ClusterConfig, ClusterView, FaultPlan, SchedulerPolicy, SimConfig, SimOutcome,
    Simulation,
};
use tetris_testkit::{forall, wire, Policy, Run, Scenario, SchedName};
use tetris_workload::{PriorityClass, TaskParams, WorkloadBuilder};

/// Its inner policy, deciding as the inner one does, with the ticks kept.
struct Ticked(Box<dyn SchedulerPolicy>);

impl SchedulerPolicy for Ticked {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        self.0.schedule(view)
    }

    fn uses_tracker(&self) -> bool {
        self.0.uses_tracker()
    }

    fn reads_ticks(&self) -> bool {
        true
    }
}

/// `o` in wire form, its event and schedule-call counts zeroed.
fn decisions(o: &SimOutcome) -> String {
    let mut o = o.clone();
    o.stats.events = 0;
    o.stats.schedule_calls = 0;
    wire(&o)
}

const OPTED_OUT: [SchedName; 3] = [SchedName::Drf, SchedName::Fair, SchedName::Capacity];

/// The drawn scenario with no fault plan, but task failures and
/// preemption as drawn: every job at once, so high priorities evict.
fn crowded(s: &Scenario) -> Scenario {
    let mut s = s.clone().saturated();
    s.cfg.faults = FaultPlan::default();
    s
}

fn reports(run: &Run) -> usize {
    let is_report = |e: &Event| matches!(e, Event::TrackerReport { .. });
    run.trace.iter().filter(|(_, e)| is_report(e)).count()
}

#[test]
fn tickless_runs_place_what_ticked_runs_place() {
    forall("tickless_runs_place_what_ticked_runs_place", 24, |s| {
        let name = OPTED_OUT[s.draw as usize % OPTED_OUT.len()];
        let s = s.with_policy(Policy::Named(name));
        for s in [s.clone().calm(), crowded(&s), s.churned()] {
            assert!(!s.policy().reads_ticks(), "{name:?} keeps its ticks");
            let bare = s.run();
            let ticked = s.run_with(Ticked(s.policy()));
            let (b, t) = (&bare.outcome, &ticked.outcome);
            if s.cfg.faults.enabled() {
                // A fault plan keeps the ticks: the runs are one run.
                assert_eq!(wire(b), wire(t), "{name:?}");
            } else {
                assert_eq!(decisions(b), decisions(t), "{name:?}");
                assert!(b.stats.schedule_calls <= t.stats.schedule_calls);
                assert_eq!(reports(&bare), 0, "{name:?} heard a report");
                assert!(reports(&ticked) > 0);
            }
        }
    });
}

#[test]
fn a_stranded_tickless_run_still_ends_at_the_hard_stop() {
    // One task wants more memory than any machine has: DRF never places
    // it, and the run times out.
    let mut b = WorkloadBuilder::new();
    let j = b.begin_job("too-big", None, 0.0);
    b.add_stage(j, "s", vec![], 2, |i| TaskParams {
        cores: 1.0,
        mem: if i == 0 { GB } else { 1_000.0 * GB },
        duration: 10.0,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 1.0,
    });
    let workload = b.finish();
    for sample_period in [None, Some(50.0)] {
        let mut cfg = SimConfig::default();
        cfg.max_time = 600.0;
        cfg.sample_period = sample_period;
        let run = |policy: Box<dyn SchedulerPolicy>| {
            Simulation::build(
                ClusterConfig::uniform(2, MachineSpec::paper_small()),
                workload.clone(),
            )
            .config(cfg.clone())
            .scheduler(policy)
            .run()
        };
        let bare = run(Box::new(DrfScheduler::new()));
        let ticked = run(Box::new(Ticked(Box::new(DrfScheduler::new()))));
        assert!(!bare.completed, "{sample_period:?}");
        assert_eq!(bare.final_time, cfg.max_time, "{sample_period:?}");
        assert_eq!(bare.final_time, ticked.final_time);
        assert_eq!(bare.samples.len(), ticked.samples.len());
        assert_eq!(decisions(&bare), decisions(&ticked));
        assert!(bare.stats.events < ticked.stats.events);
    }
}

#[test]
fn a_heartbeat_out_of_rounds_wakes_at_the_next_tick() {
    // Thirty-two long batch tasks hold every 2 GB slot of four 16 GB
    // machines when a service of twenty arrives. Capacity serves the
    // batch job first, finds no slot for its requeued head, and preempts
    // for one service task a round: twenty rounds, more than one
    // heartbeat has.
    let mut b = WorkloadBuilder::new();
    let params = |duration| TaskParams {
        cores: 0.1,
        mem: 2.0 * GB,
        duration,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 1.0,
    };
    let batch = b.begin_job("batch", None, 0.0);
    b.add_stage(batch, "fill", vec![], 32, |_| params(500.0));
    let svc = b.begin_job("svc", None, 10.5);
    b.set_priority(svc, PriorityClass::SERVICE);
    b.add_stage(svc, "serve", vec![], 20, |_| params(100.0));
    let workload = b.finish();
    let mut cfg = SimConfig::default();
    cfg.preemption = true;
    let run = |policy: Box<dyn SchedulerPolicy>| {
        Simulation::build(
            ClusterConfig::uniform(4, MachineSpec::paper_small()),
            workload.clone(),
        )
        .config(cfg.clone())
        .scheduler(policy)
        .run()
    };
    let bare = run(Box::new(CapacityScheduler::new()));
    let ticked = run(Box::new(Ticked(Box::new(CapacityScheduler::new()))));
    assert!(bare.all_jobs_completed());
    assert_eq!(bare.stats.preemptions, 20);
    // The last four start at the next whole second, as the tick starts
    // them.
    let starts = |o: &SimOutcome| {
        let tasks = o.tasks.iter().filter(|t| t.job == svc);
        let mut t: Vec<f64> = tasks.filter_map(|t| t.start).collect();
        t.sort_by(f64::total_cmp);
        t
    };
    assert_eq!(starts(&bare)[19], 11.0);
    assert_eq!(decisions(&bare), decisions(&ticked));
}
