//! Property-based invariants of the fault-injection subsystem: every task
//! reaches a terminal state under arbitrary churn plans, down machines
//! host no work (usage drains to zero, nothing is placed on them), and
//! the obs trace covers every fault transition the engine performed.

use proptest::prelude::*;
use tetris_obs::{Event, Obs, VecRecorder};
use tetris_resources::{units::GB, units::MB, MachineSpec};
use tetris_sim::{ClusterConfig, FaultPlan, GreedyFifo, SimConfig, SimOutcome, Simulation};
use tetris_workload::{TaskParams, Workload, WorkloadBuilder};

const N_MACHINES: usize = 4;

/// Random small workload whose demands fit the small machine profile.
fn arb_workload() -> impl Strategy<Value = Workload> {
    let job = (
        1usize..=5,     // tasks
        0.25f64..=2.0,  // cores
        0.25f64..=3.0,  // mem GB
        2.0f64..=25.0,  // duration
        0.0f64..=40.0,  // arrival
        0.0f64..=150.0, // output MB
    );
    proptest::collection::vec(job, 1..=4).prop_map(|jobs| {
        let mut b = WorkloadBuilder::new().with_demand_cap(MachineSpec::paper_small().capacity());
        for (ji, (n, cores, mem_gb, dur, arrival, out_mb)) in jobs.into_iter().enumerate() {
            let j = b.begin_job(format!("j{ji}"), None, arrival);
            let inputs: Vec<_> = (0..n).map(|_| b.stored_input(32.0 * MB)).collect();
            b.add_stage(j, "map", vec![], n, |i| TaskParams {
                cores,
                mem: mem_gb * GB,
                duration: dur,
                cpu_frac: 0.6,
                io_burst: 1.0,
                inputs: vec![inputs[i]],
                output_bytes: out_mb * MB,
                remote_frac: 1.0,
            });
        }
        b.finish()
    })
}

/// Random fault plan: crash/recover cycling with optional flake lead,
/// stragglers, and tracker misbehavior — the full taxonomy.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        (
            0.05f64..=1.0,   // crash_frac
            1u32..=3,        // crash_cycles
            5.0f64..=60.0,   // downtime
            50.0f64..=300.0, // window end
            0.0f64..=10.0,   // restart_backoff
            0.0f64..=30.0,   // flake_lead
        ),
        (
            0.0f64..=1.0, // slowdown_frac
            0.2f64..=1.0, // slowdown_factor
            0.0f64..=0.5, // stale_frac
            0.0f64..=0.5, // misreport_frac
            0.5f64..=1.6, // misreport_factor
        ),
    )
        .prop_map(
            |((cf, cc, dt, wend, backoff, flake), (sf, sfac, stale, mis, misf))| FaultPlan {
                crash_frac: cf,
                crash_cycles: cc,
                downtime: dt,
                window: (0.0, wend),
                restart_backoff: backoff,
                flake_lead: flake,
                slowdown_frac: sf,
                slowdown_factor: sfac,
                slowdown_duration: 30.0,
                stale_frac: stale,
                misreport_frac: mis,
                misreport_factor: misf,
                ..FaultPlan::default()
            },
        )
}

fn run_with_faults(w: Workload, plan: FaultPlan, seed: u64, obs: &mut Obs) -> SimOutcome {
    let mut cfg = SimConfig::default();
    cfg.seed = seed;
    cfg.max_time = 100_000.0;
    cfg.faults = plan;
    cfg.validate().expect("generated plan must be valid");
    Simulation::build(
        ClusterConfig::uniform(N_MACHINES, MachineSpec::paper_small()),
        w,
    )
    .scheduler(GreedyFifo::new())
    .config(cfg)
    .observe(obs)
    .run()
}

/// Per-machine down intervals reconstructed from the trace.
fn down_intervals(events: &[(f64, Event)]) -> Vec<Vec<(f64, f64)>> {
    let mut down_at = vec![None; N_MACHINES];
    let mut out = vec![Vec::new(); N_MACHINES];
    for &(t, ref e) in events {
        match *e {
            Event::MachineDown { machine, .. } => down_at[machine] = Some(t),
            Event::MachineUp { machine } => {
                let start = down_at[machine].take().expect("up without down");
                out[machine].push((start, t));
            }
            _ => {}
        }
    }
    for (m, start) in down_at.into_iter().enumerate() {
        if let Some(s) = start {
            out[m].push((s, f64::INFINITY));
        }
    }
    out
}

fn is_down_at(intervals: &[(f64, f64)], t: f64) -> bool {
    intervals.iter().any(|&(a, b)| t > a && t < b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conservation under churn: every task reaches a terminal state
    /// (completed or abandoned), jobs all finish, and the engine's
    /// counters agree with the per-task records.
    #[test]
    fn every_task_terminal_under_random_churn(
        w in arb_workload(),
        plan in arb_plan(),
        seed in 0u64..50,
    ) {
        let total = w.num_tasks();
        let mut obs = Obs::noop();
        let o = run_with_faults(w, plan, seed, &mut obs);
        prop_assert!(o.completed, "run must terminate with every job settled");
        let completed = o.tasks.iter().filter(|t| t.finish.is_some() && !t.abandoned).count();
        let abandoned = o.tasks.iter().filter(|t| t.abandoned).count();
        prop_assert_eq!(
            completed + abandoned,
            total,
            "every task completes or is abandoned"
        );
        prop_assert_eq!(abandoned as u64, o.stats.tasks_abandoned);
    }

    /// Down machines host nothing: no task is placed on a machine while
    /// it is down, and its sampled usage drains to zero for the whole
    /// downtime (resident flows were killed at the crash).
    #[test]
    fn down_machines_host_nothing(
        w in arb_workload(),
        plan in arb_plan(),
        seed in 0u64..50,
    ) {
        let rec = VecRecorder::shared();
        let mut obs = Obs::with_recorder(Box::new(rec.clone()));
        let o = run_with_faults(w, plan, seed, &mut obs);
        let events = rec.take();
        let down = down_intervals(&events);
        for (t, e) in &events {
            if let Event::TaskPlaced { machine, task, .. } = e {
                prop_assert!(
                    !is_down_at(&down[*machine], *t),
                    "task {task} placed on machine {machine} at {t} while down"
                );
            }
        }
        for s in &o.samples {
            let Some(machines) = &s.machines else { continue };
            for (m, ms) in machines.iter().enumerate() {
                if is_down_at(&down[m], s.t) {
                    // Tolerate ledger dust: releasing killed attempts is
                    // float subtraction, so "zero" is ~1e-6 of a byte.
                    for (r, v) in ms.usage.iter() {
                        prop_assert!(
                            v.abs() < 1e-3,
                            "machine {m} {r:?} usage {v} at {} while down",
                            s.t
                        );
                    }
                    prop_assert_eq!(ms.running, 0);
                }
            }
        }
    }

    /// Trace coverage: every fault transition the engine performed is in
    /// the trace, and counts match the engine's stats — crashes pair with
    /// recoveries, suspect transitions pair with clears (a machine can
    /// end the run suspect, so clears may lag by at most the fleet size).
    #[test]
    fn trace_covers_every_fault_transition(
        w in arb_workload(),
        plan in arb_plan(),
        seed in 0u64..50,
    ) {
        let rec = VecRecorder::shared();
        let mut obs = Obs::with_recorder(Box::new(rec.clone()));
        let o = run_with_faults(w, plan, seed, &mut obs);
        let events = rec.take();
        let count = |f: &dyn Fn(&Event) -> bool| events.iter().filter(|(_, e)| f(e)).count() as u64;
        let downs = count(&|e| matches!(e, Event::MachineDown { .. }));
        let ups = count(&|e| matches!(e, Event::MachineUp { .. }));
        prop_assert_eq!(downs, o.stats.machine_crashes, "every crash is traced");
        // The run ends when the workload settles, which can leave machines
        // mid-downtime — so recoveries trail crashes by at most the fleet.
        prop_assert!(
            ups <= downs && downs - ups <= N_MACHINES as u64,
            "recoveries pair with crashes ({downs} downs vs {ups} ups)"
        );
        let suspects = count(&|e| matches!(e, Event::MachineSuspected { .. }));
        let cleared = count(&|e| matches!(e, Event::MachineCleared { .. }));
        prop_assert!(
            suspects >= cleared && suspects <= cleared + N_MACHINES as u64,
            "suspect transitions pair with clears ({suspects} vs {cleared})"
        );
        let killed = events
            .iter()
            .filter_map(|(_, e)| match e {
                Event::MachineDown { killed, .. } => Some(*killed as u64),
                _ => None,
            })
            .sum::<u64>();
        prop_assert_eq!(killed, o.stats.crash_killed_attempts);
    }
}

/// Terminal-failure regression: a cluster where every machine crash-cycles
/// and the attempt budget is tight must abandon at least one task and
/// still terminate with every job settled.
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
    let w = b.finish();
    let mut cfg = SimConfig::default();
    cfg.seed = 7;
    cfg.max_time = 100_000.0;
    cfg.max_task_attempts = 1;
    cfg.faults = FaultPlan {
        crash_frac: 1.0,
        crash_cycles: 3,
        downtime: 30.0,
        window: (10.0, 400.0),
        restart_backoff: 1.0,
        ..FaultPlan::default()
    };
    let o = Simulation::build(ClusterConfig::uniform(2, MachineSpec::paper_small()), w)
        .scheduler(GreedyFifo::new())
        .config(cfg)
        .run();
    assert!(o.completed, "abandonment must not wedge the run");
    assert!(
        o.stats.tasks_abandoned >= 1,
        "tight attempt budget under total churn must abandon something"
    );
    for t in &o.tasks {
        assert!(t.finish.is_some(), "task {:?} has no terminal state", t.uid);
    }
}
