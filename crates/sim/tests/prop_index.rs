//! Property-based equivalence of the indexed `MachineQuery` backend and
//! the linear-scan oracle (DESIGN.md §13).
//!
//! Two angles, both under random workloads × random fault churn (the
//! churn is what moves machines between availability buckets, flips the
//! considered flag, and stales the per-bucket max caches):
//!
//! * **query-level** — an auditing policy recomputes every `MachineQuery`
//!   answer from view primitives (`iter_all` + `available`/`capacity`/
//!   `is_down`/`is_suspect`) on every scheduling round of an indexed run
//!   and asserts the answers match: envelopes exactly, unconstrained
//!   `fits_constrained` exactly (on both backends), floor candidates as a
//!   sorted considered superset of the truly-feasible set;
//! * **outcome-level** — the same simulation run twice, index on and
//!   off, must produce byte-identical per-task placement histories.

use proptest::prelude::*;
use tetris_resources::{units::GB, units::MB, MachineSpec, Resource, ResourceVec};
use tetris_sim::{
    Assignment, ClusterConfig, ClusterView, FaultPlan, GreedyFifo, MachineId, SchedulerPolicy,
    SimConfig, SimOutcome, Simulation,
};
use tetris_workload::{TaskParams, Workload, WorkloadBuilder};

const N_MACHINES: usize = 5;

/// Random small workload whose demands fit the small machine profile.
fn arb_workload() -> impl Strategy<Value = Workload> {
    let job = (
        1usize..=4,     // tasks
        0.25f64..=2.0,  // cores
        0.25f64..=3.0,  // mem GB
        2.0f64..=20.0,  // duration
        0.0f64..=30.0,  // arrival
        0.0f64..=100.0, // output MB
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

/// Random fault plan: crashes, slowdowns and tracker misbehavior — every
/// lever that touches the index's refresh paths (ledger moves, crash
/// flags, suspicion flips).
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        0.0f64..=1.0,    // crash_frac
        1u32..=2,        // crash_cycles
        5.0f64..=40.0,   // downtime
        50.0f64..=200.0, // window end
        0.0f64..=0.5,    // stale_frac
        0.0f64..=0.5,    // misreport_frac
        0.5f64..=1.6,    // misreport_factor
    )
        .prop_map(|(cf, cc, dt, wend, stale, mis, misf)| FaultPlan {
            crash_frac: cf,
            crash_cycles: cc,
            downtime: dt,
            window: (0.0, wend),
            stale_frac: stale,
            misreport_frac: mis,
            misreport_factor: misf,
            ..FaultPlan::default()
        })
}

fn config(seed: u64, plan: FaultPlan, machine_index: bool) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.seed = seed;
    cfg.max_time = 50_000.0;
    cfg.faults = plan;
    cfg.machine_index = machine_index;
    cfg.validate().expect("generated plan must be valid");
    cfg
}

/// The decision-carrying slice of an outcome: what ran where, when.
type Placement = (Option<MachineId>, Option<f64>, Option<f64>, bool);

fn placements(o: &SimOutcome) -> Vec<Placement> {
    o.tasks
        .iter()
        .map(|t| (t.machine, t.start, t.finish, t.abandoned))
        .collect()
}

/// Wraps [`GreedyFifo`] and audits every `MachineQuery` method against a
/// linear recomputation from view primitives before delegating.
struct QueryAudit {
    inner: GreedyFifo,
    /// The backend the run was configured with (asserted per round).
    indexed: bool,
    rounds_audited: u64,
}

impl QueryAudit {
    fn new(indexed: bool) -> Self {
        QueryAudit {
            inner: GreedyFifo::new(),
            indexed,
            rounds_audited: 0,
        }
    }

    fn audit(&mut self, view: &ClusterView<'_>) {
        let query = view.query();
        assert_eq!(
            query.indexed(),
            self.indexed,
            "audit run on the wrong backend"
        );
        let considered: Vec<MachineId> = query
            .iter_all()
            .filter(|&m| !view.is_down(m) && !view.is_suspect(m))
            .collect();
        assert_eq!(query.considered_count(), considered.len());

        let mut cap_env = ResourceVec::zero();
        let mut avail_env = ResourceVec::zero();
        for &m in &considered {
            cap_env = cap_env.max(&view.capacity(m));
            avail_env = avail_env.max(&view.available(m).clamp_non_negative());
        }
        assert_eq!(query.capacity_envelope(), cap_env, "capacity envelope");
        assert_eq!(
            query.availability_envelope(),
            avail_env,
            "availability envelope must be exact, not a bound"
        );

        // `fits_constrained` (§16) is exact on both backends. This
        // workload carries no constraints and the config no taints, so
        // the predicate must be vacuous: the answer is the plain
        // availability fit, recomputed here from view primitives. (The
        // constrained cases are prop_serving's oracle test.) Probe
        // demands bracket the envelope so both pruned and unpruned shapes
        // are exercised.
        let probes = [
            ResourceVec::zero(),
            ResourceVec::splat(0.25),
            avail_env * 0.5,
            avail_env * 1.5,
            cap_env,
        ];
        for d in &probes {
            let oracle: Vec<MachineId> = considered
                .iter()
                .copied()
                .filter(|&m| d.fits_within(&view.available(m)))
                .collect();
            for j in view.active_jobs() {
                assert_eq!(
                    query.fits_constrained(d, j, view.job_constraints(j)),
                    oracle,
                    "unconstrained fits_constrained({d:?})"
                );
            }
        }

        // Floor candidates: a sorted, considered superset of the machines
        // whose true availability meets the CPU+memory floors.
        for (fc, fm) in [
            (0.0, 0.0),
            (1.0, GB),
            (avail_env.get(Resource::Cpu), avail_env.get(Resource::Mem)),
        ] {
            let mut got = Vec::new();
            query.floor_candidates_into(fc, fm, &mut got);
            assert!(got.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
            for &m in &got {
                assert!(
                    !view.is_down(m) && !view.is_suspect(m),
                    "floor result must be considered"
                );
            }
            for &m in &considered {
                let a = view.available(m);
                if a.get(Resource::Cpu) >= fc && a.get(Resource::Mem) >= fm {
                    assert!(
                        got.binary_search(&m).is_ok(),
                        "machine {m:?} meets floors ({fc}, {fm}) but was pruned"
                    );
                }
            }
        }
        self.rounds_audited += 1;
    }
}

impl SchedulerPolicy for QueryAudit {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        self.audit(view);
        self.inner.schedule(view)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every query answer — indexed, and the linear arm it is pinned
    /// against — matches the primitive oracle on every scheduling round,
    /// while churn exercises the refresh paths.
    #[test]
    fn indexed_queries_match_linear_oracle_under_churn(
        w in arb_workload(),
        plan in arb_plan(),
        seed in 0u64..32,
    ) {
        for indexed in [true, false] {
            let o = Simulation::build(
                ClusterConfig::uniform(N_MACHINES, MachineSpec::paper_small()),
                w.clone(),
            )
            .scheduler(QueryAudit::new(indexed))
            .config(config(seed, plan.clone(), indexed))
            .run();
            prop_assert!(o.completed, "run must terminate with every job settled");
        }
    }

    /// The index is invisible to decisions: identical per-task placement
    /// histories with the index on and off.
    #[test]
    fn outcomes_identical_with_index_on_and_off(
        w in arb_workload(),
        plan in arb_plan(),
        seed in 0u64..32,
    ) {
        let run = |machine_index: bool| {
            Simulation::build(
                ClusterConfig::uniform(N_MACHINES, MachineSpec::paper_small()),
                w.clone(),
            )
            .scheduler(GreedyFifo::new())
            .config(config(seed, plan.clone(), machine_index))
            .run()
        };
        let on = run(true);
        let off = run(false);
        prop_assert_eq!(placements(&on), placements(&off));
        prop_assert_eq!(on.final_time, off.final_time);
        prop_assert_eq!(on.completed, off.completed);
    }
}
