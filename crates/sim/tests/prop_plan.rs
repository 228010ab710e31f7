//! The placement plan depends on the host only through what the host
//! holds of the task's input.
//!
//! Claim (`ClusterView::task_reads_locally`): on every machine that holds
//! none of a task's input — no replica of a stored block, no output of an
//! upstream shuffle stage — `ClusterView::plan` returns the *same value*:
//! all inputs remote, sources fixed by `replicas[uid % len]` and the
//! stage's output map, fan-in truncation included. Tetris's `blocked`
//! memo (DESIGN.md §9) skips machines on the strength of it, so it is
//! pinned here, field for field, for every runnable task on every
//! scheduling round of runs whose shuffle stages have both fewer and more
//! sources than `shuffle_fanin`.
//!
//! The same audit carries one dirty `PlacementPlan` through every
//! `plan_into` call of a run and checks it against the allocating `plan`.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use tetris_resources::{units::GB, units::MB, MachineSpec};
use tetris_sim::{
    Assignment, ClusterConfig, ClusterView, MachineId, PlacementPlan, SchedulerPolicy, SimConfig,
    Simulation,
};
use tetris_workload::gen::{TaskParams, WorkloadBuilder};
use tetris_workload::{InputSource, InputSpec, Workload};

const N_MACHINES: usize = 8;
const FANIN: usize = 3;

/// One generated job: a map stage over stored blocks feeding a reduce
/// stage that shuffles from it.
#[derive(Debug, Clone)]
struct JobShape {
    /// Map tasks — with [`SpreadAudit`] also the number of machines the
    /// stage leaves output on, so 1..=8 straddles [`FANIN`].
    maps: usize,
    /// Stored inputs per map task, drawn from a pool of `pool` blocks
    /// (small pools make two inputs share a replica holder).
    inputs_per_map: usize,
    pool: usize,
    /// Give every map task one extra zero-byte stored input.
    zero_byte_input: bool,
    reduces: usize,
    /// Reduce tasks also read a stored block (mixed inputs).
    mixed: bool,
}

fn arb_job() -> impl Strategy<Value = JobShape> {
    (
        1usize..=N_MACHINES,
        1usize..=3,
        1usize..=6,
        proptest::bool::ANY,
        1usize..=3,
        proptest::bool::ANY,
    )
        .prop_map(
            |(maps, inputs_per_map, pool, zero_byte_input, reduces, mixed)| JobShape {
                maps,
                inputs_per_map,
                pool,
                zero_byte_input,
                reduces,
                mixed,
            },
        )
}

fn build(jobs: &[JobShape]) -> Workload {
    let mut b = WorkloadBuilder::new().with_demand_cap(MachineSpec::paper_small().capacity());
    for (ji, shape) in jobs.iter().enumerate() {
        let j = b.begin_job(format!("j{ji}"), None, ji as f64);
        let pool: Vec<_> = (0..shape.pool).map(|_| b.new_block()).collect();
        let stored = |k: usize, bytes: f64| InputSpec {
            source: InputSource::Stored(pool[k % pool.len()]),
            bytes,
        };
        let map = b.add_stage(j, "map", vec![], shape.maps, |i| {
            let mut inputs: Vec<_> = (0..shape.inputs_per_map)
                .map(|k| stored(i + 2 * k, (8 + 4 * k) as f64 * MB))
                .collect();
            if shape.zero_byte_input {
                inputs.push(stored(i + 1, 0.0));
            }
            TaskParams {
                cores: 0.5,
                mem: 0.25 * GB,
                duration: 4.0,
                cpu_frac: 0.5,
                io_burst: 1.0,
                inputs,
                // Uneven outputs, so fan-in truncation has a real order.
                output_bytes: (5 + 3 * i) as f64 * MB,
                remote_frac: 1.0,
            }
        });
        b.add_stage(j, "reduce", vec![map], shape.reduces, |i| {
            let mut inputs = vec![InputSpec {
                source: InputSource::Shuffle { stage: map },
                bytes: 6.0 * MB,
            }];
            if shape.mixed {
                inputs.push(stored(i, 10.0 * MB));
            }
            TaskParams {
                cores: 0.5,
                mem: 0.25 * GB,
                duration: 4.0,
                cpu_frac: 0.5,
                io_burst: 1.0,
                inputs,
                output_bytes: 0.0,
                remote_frac: 1.0,
            }
        });
    }
    b.finish()
}

/// What one run's audit covered, so the deterministic test can show the
/// property was not checked vacuously.
#[derive(Debug, Default)]
struct Coverage {
    /// (task, machine) pairs compared against the task's reference plan.
    same_plan_checks: u64,
    /// Machines some task reads locally from.
    local_machines: u64,
    /// Non-local reference plans of shuffle readers with fewer remote
    /// sources than the fan-in bound / with as many (more, truncated).
    shuffle_under_fanin: u64,
    shuffle_at_fanin: u64,
}

/// Audits every runnable task on every round, then places task `t` on
/// machine `t mod n` without a fit check (over-allocation is the
/// policy's call, and spreading is what gives map stages many output
/// machines) — or on the next machine along where no remote read is
/// empty: the engine refuses to start a flow that carries no bytes, so a
/// zero-byte input can be planned anywhere but placed only where it is
/// local or shares its source with a real read.
#[derive(Default)]
struct SpreadAudit {
    /// Reused across every `plan_into` of the run, never cleared.
    dirty: PlacementPlan,
    /// Shared with the caller: the engine owns the policy.
    seen: Rc<RefCell<Coverage>>,
}

impl SpreadAudit {
    fn audit(&mut self, view: &ClusterView<'_>) {
        let machines: Vec<MachineId> = view.query().iter_all().collect();
        let mut seen = self.seen.borrow_mut();
        for j in view.active_jobs() {
            for t in view.job_pending(j) {
                let mut reference: Option<PlacementPlan> = None;
                for &m in &machines {
                    let plan = view.plan(t, m);
                    view.plan_into(t, m, &mut self.dirty);
                    assert_eq!(
                        self.dirty, plan,
                        "plan_into({t:?}, {m:?}) into a used buffer"
                    );
                    if view.task_reads_locally(t, m) {
                        seen.local_machines += 1;
                        continue;
                    }
                    assert_eq!(plan.local_read_bytes, 0.0, "{t:?} reads locally on {m:?}");
                    match &reference {
                        None => {
                            if view.task(t).reads_shuffle() {
                                if plan.remote.len() < FANIN {
                                    seen.shuffle_under_fanin += 1;
                                } else {
                                    seen.shuffle_at_fanin += 1;
                                }
                            }
                            reference = Some(plan);
                        }
                        Some(r) => {
                            seen.same_plan_checks += 1;
                            assert_eq!(&plan, r, "{t:?} plans differently on non-local {m:?}");
                        }
                    }
                }
            }
        }
    }
}

impl SchedulerPolicy for SpreadAudit {
    fn name(&self) -> &str {
        "spread-audit"
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        self.audit(view);
        view.active_jobs()
            .flat_map(|j| view.job_pending(j))
            .map(|t| {
                let host = (0..N_MACHINES)
                    .map(|k| MachineId((t.index() + k) % N_MACHINES))
                    .find(|&m| view.plan(t, m).remote_reads.iter().all(|&(_, b)| b > 0.0))
                    .expect("a replica holder of the empty input reads it locally");
                Assignment::new(t, host)
            })
            .collect()
    }
}

fn run(workload: Workload, seed: u64) -> Coverage {
    let mut cfg = SimConfig::default();
    cfg.seed = seed;
    cfg.shuffle_fanin = FANIN;
    cfg.max_time = 50_000.0;
    let policy = SpreadAudit::default();
    let seen = Rc::clone(&policy.seen);
    let outcome = Simulation::build(
        ClusterConfig::uniform(N_MACHINES, MachineSpec::paper_small()),
        workload,
    )
    .scheduler(policy)
    .config(cfg)
    .run();
    assert!(outcome.all_jobs_completed());
    seen.take()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn non_local_hosts_share_one_plan(
        jobs in proptest::collection::vec(arb_job(), 1..=3),
        seed in 0u64..1000,
    ) {
        run(build(&jobs), seed);
    }
}

/// The generator's corners on fixed inputs, with the coverage counted: a
/// wide map stage (six sources, over the fan-in bound, two machines left
/// without output), a narrow one (two sources), one whose readers mix a
/// stored block in, and zero-byte inputs throughout.
#[test]
fn audit_covers_both_sides_of_the_fanin_bound() {
    let shape = |maps, mixed| JobShape {
        maps,
        inputs_per_map: 2,
        pool: 4,
        zero_byte_input: true,
        reduces: 2,
        mixed,
    };
    let jobs = [shape(6, false), shape(2, false), shape(3, true)];
    let seen = run(build(&jobs), 11);
    assert!(seen.same_plan_checks > 0, "{seen:?}");
    assert!(seen.local_machines > 0, "{seen:?}");
    assert!(seen.shuffle_under_fanin > 0, "{seen:?}");
    assert!(seen.shuffle_at_fanin > 0, "{seen:?}");
}
