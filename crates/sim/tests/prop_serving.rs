//! Property tests for the §16 typed spec layer: priority preemption and
//! placement constraints (DESIGN.md §16).
//!
//! Three invariants, all under random mixed-priority workloads with
//! random constraints (affinity, anti-affinity, spread floors, taints)
//! and random fault churn:
//!
//! * **no priority inversion** — every applied priority preemption
//!   evicts a victim whose job priority is *strictly below* the placing
//!   job's, even when the policy proposes adversarial eviction lists
//!   (the engine rejects invalid ones whole, nothing is torn down);
//! * **terminal-state conservation** — with preemption, churn and
//!   constraints all active, every run still settles: all jobs finish,
//!   every task record is terminal, and the preemption counter agrees
//!   with the emitted `TaskPreempted(priority_preemption)` events;
//! * **constrained-vs-oracle identity** — `MachineQuery::fits_constrained`
//!   (indexed and linear alike) returns exactly the machines a scan of
//!   view primitives (`available` + `constraints_allow` over considered
//!   machines) selects, on every scheduling round.

use proptest::prelude::*;
use tetris_obs::{Event, Obs, VecRecorder};
use tetris_resources::{units::GB, MachineSpec, ResourceVec};
use tetris_sim::{
    plan_priority_preemption, Assignment, ClusterConfig, ClusterView, FaultPlan, GreedyFifo,
    MachineId, SchedulerEvent, SchedulerPolicy, SimConfig, Simulation, WorkingLedger,
};
use tetris_workload::{
    JobId, PlacementConstraints, PriorityClass, TaskParams, Workload, WorkloadBuilder,
};

const N_MACHINES: usize = 5;

/// One generated job: sizing plus the typed spec knobs under test.
type JobTuple = (usize, f64, f64, f64, f64, u8, usize, usize, u64);

/// Random mixed-priority workload with random constraints. Constraint
/// references point at the *previous* job so validation always holds;
/// spread floors stay below the machine count so nothing deadlocks.
fn arb_workload() -> impl Strategy<Value = Workload> {
    let job = (
        1usize..=4,    // tasks
        0.25f64..=2.0, // cores
        0.25f64..=3.0, // mem GB
        2.0f64..=20.0, // duration
        0.0f64..=30.0, // arrival
        0u8..=9,       // priority class
        0usize..=4,    // constraint kind
        1usize..=3,    // spread floor
        0u64..=3,      // toleration mask
    );
    proptest::collection::vec(job, 2..=5).prop_map(|jobs: Vec<JobTuple>| {
        let mut b = WorkloadBuilder::new().with_demand_cap(MachineSpec::paper_small().capacity());
        for (ji, (n, cores, mem_gb, dur, arrival, prio, kind, spread, tol)) in
            jobs.into_iter().enumerate()
        {
            let j = b.begin_job(format!("j{ji}"), None, arrival);
            b.set_priority(j, PriorityClass(prio));
            let cons = match kind {
                1 if ji > 0 => PlacementConstraints::none().with_affinity(JobId(ji - 1)),
                2 if ji > 0 => PlacementConstraints::none().with_anti_affinity(JobId(ji - 1)),
                3 => PlacementConstraints::none().with_spread(spread),
                4 => PlacementConstraints::none().with_tolerations(tol),
                _ => PlacementConstraints::none(),
            };
            b.set_constraints(j, cons);
            b.add_stage(j, "work", vec![], n, |_| TaskParams {
                cores,
                mem: mem_gb * GB,
                duration: dur,
                cpu_frac: 1.0,
                io_burst: 1.0,
                inputs: vec![],
                output_bytes: 0.0,
                remote_frac: 0.0,
            });
        }
        b.finish()
    })
}

/// Random taint assignment: at most two of the five machines tainted, so
/// zero-toleration jobs always have somewhere to land.
fn arb_taints() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        Just(Vec::new()),
        (0usize..N_MACHINES, 1u64..=3, 0usize..N_MACHINES, 1u64..=3).prop_map(|(a, ma, bm, mb)| {
            let mut t = vec![0u64; N_MACHINES];
            t[a] = ma;
            t[bm] = mb;
            // Keep at least three machines untainted.
            t
        }),
    ]
}

/// Crash churn: machines cycle down and back up, moving tasks through
/// the preemption/requeue paths while constraints keep filtering.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (0.0f64..=0.6, 1u32..=2, 5.0f64..=40.0, 50.0f64..=200.0).prop_map(|(cf, cc, dt, wend)| {
        FaultPlan {
            crash_frac: cf,
            crash_cycles: cc,
            downtime: dt,
            window: (0.0, wend),
            ..FaultPlan::default()
        }
    })
}

fn config(seed: u64, plan: FaultPlan, taints: Vec<u64>, machine_index: bool) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.seed = seed;
    cfg.max_time = 50_000.0;
    cfg.faults = plan;
    cfg.preemption = true;
    cfg.machine_taints = taints;
    cfg.machine_index = machine_index;
    cfg.validate().expect("generated config must be valid");
    cfg
}

/// Map every task uid to its owning job id (spec-side, for checking
/// event streams without a view).
fn job_of_task(w: &Workload) -> Vec<JobId> {
    let mut map = vec![JobId(0); w.num_tasks()];
    for (ji, j) in w.jobs.iter().enumerate() {
        for s in &j.stages {
            for t in &s.tasks {
                map[t.uid.index()] = JobId(ji);
            }
        }
    }
    map
}

/// Greedy policy that exercises the preemption machinery from both
/// sides: the shared [`plan_priority_preemption`] epilogue (legal by
/// construction) plus one *adversarial* eviction proposal per call — the
/// first running task anywhere, evicted for the first pending task,
/// with no regard for priority order. The engine must apply it only
/// when the victim's priority is strictly below the placer's.
struct EvictProbe {
    inner: GreedyFifo,
    /// What `inner` placed this call, for the epilogue.
    ledger: WorkingLedger,
}

impl SchedulerPolicy for EvictProbe {
    fn name(&self) -> &str {
        "evict-probe"
    }

    fn on_event(&mut self, view: &ClusterView<'_>, event: &SchedulerEvent) {
        self.inner.on_event(view, event);
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let mut out = self.inner.schedule(view);
        self.ledger.begin(view);
        for a in &out {
            self.ledger.record(view, a.task, a.machine);
        }
        if let Some(pre) = plan_priority_preemption(view, &self.ledger) {
            out.push(pre);
        }
        // Adversarial proposal: pending head of the first active job,
        // evicting the first running task found. Often illegal (equal or
        // higher victim priority, or the task already placed above) —
        // the engine's validation, not this policy, is under test.
        'probe: for j in view.active_jobs() {
            let Some(t) = view.job_pending(j).next() else {
                continue;
            };
            for m in view.query().iter_all() {
                if let Some(&v) = view.machine_tasks(m).first() {
                    out.push(Assignment::new(t, m).with_evictions(vec![v]));
                    break 'probe;
                }
            }
        }
        out
    }
}

/// Wraps [`GreedyFifo`] and audits `fits_constrained` against the
/// primitive-scan oracle for every active job on every round.
struct ConstraintAudit {
    inner: GreedyFifo,
    rounds: u64,
}

impl ConstraintAudit {
    fn audit(&mut self, view: &ClusterView<'_>) {
        let query = view.query();
        let considered: Vec<MachineId> = query
            .iter_all()
            .filter(|&m| !view.is_down(m) && !view.is_suspect(m))
            .collect();
        let mut avail_env = ResourceVec::zero();
        for &m in &considered {
            avail_env = avail_env.max(&view.available(m).clamp_non_negative());
        }
        let probes = [
            ResourceVec::zero(),
            ResourceVec::splat(0.25),
            avail_env * 0.5,
            avail_env * 1.5,
        ];
        for j in view.active_jobs() {
            let cons = view.job_constraints(j);
            for d in &probes {
                let oracle: Vec<MachineId> = considered
                    .iter()
                    .copied()
                    .filter(|&m| d.fits_within(&view.available(m)) && view.constraints_allow(j, m))
                    .collect();
                assert_eq!(
                    query.fits_constrained(d, j, cons),
                    oracle,
                    "fits_constrained({d:?}, {j:?}, {cons:?})"
                );
            }
        }
        self.rounds += 1;
    }
}

impl SchedulerPolicy for ConstraintAudit {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        self.audit(view);
        self.inner.schedule(view)
    }
}

/// Non-vacuity pin for the properties below: on a deterministically
/// saturated cluster, a late high-priority arrival *does* preempt — so
/// the inversion/conservation proptests exercise live preemptions, not
/// an idle path.
#[test]
fn probe_preempts_on_a_saturated_cluster() {
    let mut b = WorkloadBuilder::new().with_demand_cap(MachineSpec::paper_small().capacity());
    let cap = MachineSpec::paper_small().capacity();
    let (cores, mem) = (
        cap.get(tetris_resources::Resource::Cpu),
        cap.get(tetris_resources::Resource::Mem),
    );
    // Low-priority backlog: 2 machine-filling tasks per machine's worth.
    let j0 = b.begin_job("backlog", None, 0.0);
    b.add_stage(j0, "fill", vec![], 2 * N_MACHINES, |_| TaskParams {
        cores,
        mem,
        duration: 200.0,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 0.0,
    });
    // High-priority latecomer: must evict to start before the backlog drains.
    let j1 = b.begin_job("urgent", None, 5.0);
    b.set_priority(j1, PriorityClass::SERVICE);
    b.add_stage(j1, "serve", vec![], 2, |_| TaskParams {
        cores: cores / 2.0,
        mem: mem / 2.0,
        duration: 10.0,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 0.0,
    });
    let o = Simulation::build(
        ClusterConfig::uniform(N_MACHINES, MachineSpec::paper_small()),
        b.finish(),
    )
    .scheduler(EvictProbe {
        inner: GreedyFifo::new(),
        ledger: WorkingLedger::default(),
    })
    .config(config(0, FaultPlan::default(), Vec::new(), true))
    .run();
    assert!(o.completed);
    assert!(
        o.stats.preemptions > 0,
        "saturated cluster + high-priority arrival must preempt"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No priority inversion + terminal-state conservation: every applied
    /// preemption (epilogue-planned or adversarially proposed) evicts
    /// strictly downward, every job still settles, and the counter
    /// matches the event stream.
    #[test]
    fn preemption_never_inverts_and_conserves_terminal_states(
        w in arb_workload(),
        taints in arb_taints(),
        plan in arb_plan(),
        seed in 0u64..32,
    ) {
        let uid_job = job_of_task(&w);
        let rec = VecRecorder::shared();
        let mut obs = Obs::with_recorder(Box::new(rec.clone()));
        let o = Simulation::build(
            ClusterConfig::uniform(N_MACHINES, MachineSpec::paper_small()),
            w.clone(),
        )
        .scheduler(EvictProbe {
            inner: GreedyFifo::new(),
            ledger: WorkingLedger::default(),
        })
        .config(config(seed, plan, taints, true))
        .observe(&mut obs)
        .run();

        // Conservation: the run settles with every record terminal.
        prop_assert!(o.completed, "run must terminate with every job settled");
        for j in &o.jobs {
            prop_assert!(j.finish.is_some(), "job {:?} never finished", j.id);
        }
        for t in &o.tasks {
            prop_assert!(
                t.finish.is_some() || t.abandoned,
                "task {:?} is not terminal", t.uid
            );
        }

        // No inversion: victims are strictly lower-priority than their
        // preemptor, and the counter matches the event stream.
        let mut preemptions = 0u64;
        for (_, e) in rec.take() {
            if let Event::TaskPreempted { task, reason, priority, preempted_by, .. } = e {
                if reason != "priority_preemption" {
                    prop_assert!(priority.is_none() && preempted_by.is_none());
                    continue;
                }
                preemptions += 1;
                let victim_prio = w.jobs[uid_job[task].index()].priority;
                prop_assert_eq!(priority, Some(victim_prio.0), "event priority is the victim's");
                let by = preempted_by.expect("priority preemptions name their preemptor");
                let placer_prio = w.jobs[uid_job[by].index()].priority;
                prop_assert!(
                    victim_prio < placer_prio,
                    "inversion: task {} (p{}) evicted by task {} (p{})",
                    task, victim_prio.0, by, placer_prio.0
                );
            }
        }
        prop_assert_eq!(o.stats.preemptions, preemptions);
    }

    /// `fits_constrained` equals the primitive-scan oracle on both query
    /// backends, round after round, while churn and placements move the
    /// running state the predicates read.
    #[test]
    fn constrained_query_matches_oracle_on_both_backends(
        w in arb_workload(),
        taints in arb_taints(),
        plan in arb_plan(),
        seed in 0u64..32,
    ) {
        for machine_index in [true, false] {
            let o = Simulation::build(
                ClusterConfig::uniform(N_MACHINES, MachineSpec::paper_small()),
                w.clone(),
            )
            .scheduler(ConstraintAudit { inner: GreedyFifo::new(), rounds: 0 })
            .config(config(seed, plan.clone(), taints.clone(), machine_index))
            .run();
            prop_assert!(o.completed, "index={machine_index}: run must settle");
        }
    }
}
