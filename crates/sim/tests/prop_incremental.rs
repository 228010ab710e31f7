//! Property test for the incremental scheduling path.
//!
//! Random workloads × random fault plans × 1–4 shards drive random
//! interleavings of everything that moves Tetris's cache keys — job
//! arrivals, task placements and finishes, failure retries, crash kills
//! and abandonments, restarts after backoff, replica moves on machine
//! down/up, tracker flakes and suspicion flips — through the incremental
//! Tetris policy and through [`ColdTetris`], the same policy with every
//! cache dropped before each call. Nothing is delivered to either: each
//! reads the view's epochs or ignores them. Sharded, each shard's Tetris
//! validates its caches through its scoped view. The two runs must be
//! indistinguishable: identical trace event streams (which carry every
//! assignment and its score breakdown) and identical outcomes.

use proptest::prelude::*;
use tetris_core::{ColdTetris, EstimationMode, TetrisConfig, TetrisScheduler};
use tetris_obs::{Event, Obs, VecRecorder};
use tetris_resources::MachineSpec;
use tetris_sim::{
    ClusterConfig, SchedulerPolicy, ShardedScheduler, SimConfig, SimOutcome, Simulation,
};
use tetris_workload::WorkloadSuiteConfig;

/// Everything that varies across cases: the workload draw, the cluster,
/// the fault plan, the scheduler's estimation mode and its shard count.
#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    n_jobs: usize,
    machines: usize,
    crash_frac: f64,
    crash_cycles: u32,
    downtime: f64,
    flake_lead: f64,
    restart_backoff: f64,
    noisy_estimates: bool,
    shards: usize,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        0u64..1_000,
        2usize..=6,
        3usize..=6,
        prop_oneof![Just(0.0), 0.1f64..=0.5],
        1u32..=2,
        20.0f64..=120.0,
        prop_oneof![Just(0.0), 10.0f64..=40.0],
        prop_oneof![Just(0.0), Just(5.0)],
        prop_oneof![Just(false), Just(true)],
        1usize..=4,
    )
        .prop_map(
            |(
                seed,
                n_jobs,
                machines,
                crash_frac,
                crash_cycles,
                downtime,
                flake_lead,
                restart_backoff,
                noisy_estimates,
                shards,
            )| Case {
                seed,
                n_jobs,
                machines,
                crash_frac,
                crash_cycles,
                downtime,
                flake_lead,
                restart_backoff,
                noisy_estimates,
                shards,
            },
        )
}

fn run_case(case: &Case, sched: Box<dyn SchedulerPolicy>) -> (SimOutcome, Vec<(f64, Event)>) {
    let w = WorkloadSuiteConfig::scaled(case.n_jobs, 0.05).generate(case.seed);
    let mut cfg = SimConfig::default();
    cfg.seed = case.seed;
    cfg.max_time = 100_000.0;
    if case.crash_frac > 0.0 {
        cfg.faults.crash_frac = case.crash_frac;
        cfg.faults.crash_cycles = case.crash_cycles;
        cfg.faults.downtime = case.downtime;
        cfg.faults.window = (10.0, 500.0);
        cfg.faults.flake_lead = case.flake_lead;
        cfg.faults.restart_backoff = case.restart_backoff;
    }
    let rec = VecRecorder::shared();
    let mut obs = Obs::with_recorder(Box::new(rec.clone()));
    let outcome = Simulation::build(
        ClusterConfig::uniform(case.machines, MachineSpec::paper_large()),
        w,
    )
    .scheduler(sched)
    .config(cfg)
    .observe(&mut obs)
    .run();
    (outcome, rec.take())
}

/// Zero the only wall-clock-dependent trace field.
fn normalize(events: Vec<(f64, Event)>) -> Vec<(f64, Event)> {
    events
        .into_iter()
        .map(|(t, e)| match e {
            Event::HeartbeatProcessed {
                pending_tasks,
                placements,
                ..
            } => (
                t,
                Event::HeartbeatProcessed {
                    pending_tasks,
                    placements,
                    wall_ns: 0,
                },
            ),
            other => (t, other),
        })
        .collect()
}

fn tetris_cfg(case: &Case) -> TetrisConfig {
    let mut cfg = TetrisConfig::default();
    if case.noisy_estimates {
        // Non-Exact estimation disables the candidate cache; the policy
        // must still match the oracle through the fallback path.
        cfg.estimation = EstimationMode::Noisy { sigma: 0.3 };
    }
    cfg
}

/// `case.shards` shards of what `make` builds (one shard is the bare
/// policy's delegate).
fn sharded<P: SchedulerPolicy + Send + 'static>(
    case: &Case,
    make: impl Fn() -> P,
) -> Box<dyn SchedulerPolicy> {
    Box::new(ShardedScheduler::new(case.shards, case.seed, |_| {
        Box::new(make())
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_tetris_is_byte_identical_to_oracle(case in arb_case()) {
        let inc = sharded(&case, || TetrisScheduler::new(tetris_cfg(&case)));
        let oracle = sharded(&case, || ColdTetris(TetrisScheduler::new(tetris_cfg(&case))));
        let (o_inc, e_inc) = run_case(&case, inc);
        let (o_oracle, e_oracle) = run_case(&case, oracle);

        let inc_json = serde_json::to_string(&o_inc).unwrap();
        let oracle_json = serde_json::to_string(&o_oracle).unwrap();
        prop_assert_eq!(inc_json, oracle_json, "outcome diverged: {:?}", case);

        let e_inc = normalize(e_inc);
        let e_oracle = normalize(e_oracle);
        prop_assert_eq!(
            e_inc.len(),
            e_oracle.len(),
            "event counts diverged: {:?}",
            case
        );
        for (i, (a, b)) in e_inc.iter().zip(e_oracle.iter()).enumerate() {
            prop_assert_eq!(a, b, "event #{} diverged: {:?}", i, case);
        }
        // Placements must exist, or the comparison is vacuous.
        prop_assert!(
            e_inc.iter().any(|(_, e)| matches!(e, Event::TaskPlaced { .. })),
            "no placements traced: {:?}",
            case
        );
    }
}
