//! Golden equivalence suite for the event-hot-path performance pass.
//!
//! The optimized schedulers reuse warm scratch buffers (`ScheduleScratch`,
//! generation-stamped sets, candidate arenas) and take availability-based
//! shortcuts (the SRTF quick prefilter). Both are only legal if they are
//! *invisible*: every decision — assignments, score breakdowns, event
//! order, job/task outcomes — must be identical to the unoptimized
//! reference path. This suite pins that across ≥3 seeds × 2 workload
//! shapes for:
//!
//! * `TetrisScheduler` with warm (reused) scratch vs the same scheduler
//!   with its scratch dropped before every `schedule()` call;
//! * `SrtfScheduler::new()` (envelope prefilter) vs
//!   `SrtfScheduler::exhaustive()` (checks every machine).
//!
//! Comparison is over the full observability event stream — which carries
//! per-placement `DecisionScores` — with the one wall-clock field
//! (`HeartbeatProcessed::wall_ns`) zeroed, plus a structural fingerprint
//! of the outcome (per-job finishes, per-task placements).
//!
//! The event-driven API adds a third axis: Tetris, the one policy with
//! event-invalidated state (per-job candidate caches), is pinned against
//! itself behind the [`MarkAllDirty`] adapter — which swallows events, so
//! the inner policy never syncs and recomputes everything from the view —
//! on fault-free runs, under machine crash/recover churn (the event arms a
//! quiet run never exercises) *and* under priority preemption (where the
//! engine frees machines between the rounds of one heartbeat). The
//! baselines are stateless — wrapper and wrapped are the same code — so
//! they have no leg here; `crates/expts/tests/policy_matrix.rs` covers
//! every registered policy against crash recovery instead.

use tetris::prelude::*;
use tetris::sim::{ClusterView, MarkAllDirty, SimConfig};
use tetris::workload::ServingMixConfig;
use tetris_obs::{Event, Obs, VecRecorder};

const SEEDS: [u64; 3] = [11, 42, 77];

/// Tetris whose scratch is dropped before every call: the cold reference.
struct ColdScratchTetris(TetrisScheduler);

impl SchedulerPolicy for ColdScratchTetris {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn uses_tracker(&self) -> bool {
        self.0.uses_tracker()
    }
    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        self.0.reset_scratch();
        self.0.schedule(view)
    }
}

fn cluster() -> ClusterConfig {
    ClusterConfig::uniform(8, MachineSpec::paper_large())
}

/// The two workload shapes: the synthetic deployment suite (map/reduce
/// DAGs, staggered arrivals) and the Facebook-like trace (heavy-tailed
/// job sizes, recurring families).
fn workloads(seed: u64) -> Vec<(&'static str, Workload)> {
    let suite = WorkloadSuiteConfig::small().generate(seed);
    let mut fb_cfg = FacebookTraceConfig::default();
    fb_cfg.n_jobs = 30;
    fb_cfg.scale = 0.05;
    fb_cfg.mean_interarrival = 10.0;
    let facebook = fb_cfg.generate(seed);
    vec![("suite", suite), ("facebook", facebook)]
}

/// Run one policy over a workload with the event stream recorded.
fn traced_run(
    sched: Box<dyn SchedulerPolicy>,
    cluster: ClusterConfig,
    w: &Workload,
    cfg: &SimConfig,
) -> (SimOutcome, Vec<(f64, Event)>) {
    let rec = VecRecorder::shared();
    let mut obs = Obs::with_recorder(Box::new(rec.clone()));
    let outcome = Simulation::build(cluster, w.clone())
        .scheduler(sched)
        .config(cfg.clone())
        .observe(&mut obs)
        .run();
    (outcome, rec.take())
}

fn quiet_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.seed = seed;
    cfg
}

/// Machine churn: a quarter of the cluster crash/recover-cycles, with
/// flaky trackers leading each crash — drives the `TaskPreempted` /
/// `TaskAbandoned` / `MachineDown` / `MachineUp` / `MachineSuspected` /
/// `MachineCleared` event arms through every policy under test.
fn churn_cfg(seed: u64) -> SimConfig {
    let mut cfg = quiet_cfg(seed);
    cfg.faults.crash_frac = 0.25;
    cfg.faults.crash_cycles = 2;
    cfg.faults.downtime = 60.0;
    cfg.faults.window = (20.0, 600.0);
    cfg.faults.flake_lead = 30.0;
    cfg
}

/// Priority preemption on: service waves evict batch tasks, so the engine
/// itself frees machines between the rounds of one heartbeat.
fn preempt_cfg(seed: u64) -> SimConfig {
    let mut cfg = quiet_cfg(seed);
    cfg.preemption = true;
    cfg
}

/// Zero the only wall-clock-dependent field so streams compare exactly.
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

/// Structural fingerprint of an outcome: everything decision-dependent,
/// nothing wall-clock-dependent.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    completed: bool,
    final_time: f64,
    jobs: Vec<(Option<f64>, Option<f64>)>,
    tasks: Vec<(Option<usize>, Option<f64>, Option<f64>)>,
    placements: u64,
    events: u64,
}

fn fingerprint(o: &SimOutcome) -> Fingerprint {
    Fingerprint {
        completed: o.completed,
        final_time: o.final_time,
        jobs: o.jobs.iter().map(|j| (j.first_start, j.finish)).collect(),
        tasks: o
            .tasks
            .iter()
            .map(|t| (t.machine.map(|m| m.index()), t.start, t.finish))
            .collect(),
        placements: o.stats.placements,
        events: o.stats.events,
    }
}

/// Core assertion: two policies produce identical decisions on `w`.
fn assert_equivalent(
    label: &str,
    seed: u64,
    w: &Workload,
    optimized: Box<dyn SchedulerPolicy>,
    reference: Box<dyn SchedulerPolicy>,
) {
    assert_equivalent_cfg(
        label,
        seed,
        cluster(),
        w,
        &quiet_cfg(seed),
        optimized,
        reference,
    );
}

/// [`assert_equivalent`] on an explicit cluster and simulation config
/// (fault plans, preemption, ...). Returns the optimized run's outcome
/// for callers that pin absolute numbers too.
fn assert_equivalent_cfg(
    label: &str,
    seed: u64,
    cluster: ClusterConfig,
    w: &Workload,
    cfg: &SimConfig,
    optimized: Box<dyn SchedulerPolicy>,
    reference: Box<dyn SchedulerPolicy>,
) -> SimOutcome {
    let (o_opt, e_opt) = traced_run(optimized, cluster.clone(), w, cfg);
    let (o_ref, e_ref) = traced_run(reference, cluster, w, cfg);

    assert_eq!(
        fingerprint(&o_opt),
        fingerprint(&o_ref),
        "{label}/seed {seed}: outcome diverged"
    );
    let e_opt = normalize(e_opt);
    let e_ref = normalize(e_ref);
    assert_eq!(
        e_opt.len(),
        e_ref.len(),
        "{label}/seed {seed}: event counts diverged"
    );
    for (i, (a, b)) in e_opt.iter().zip(e_ref.iter()).enumerate() {
        assert_eq!(
            a, b,
            "{label}/seed {seed}: event #{i} diverged (scores/order must be identical)"
        );
    }
    // The streams must actually carry decision scores, otherwise this
    // test silently compares nothing.
    let scored = e_opt
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                Event::TaskPlaced {
                    combined_score: Some(_),
                    ..
                }
            )
        })
        .count();
    if label.starts_with("tetris") {
        assert!(
            scored > 0,
            "{label}/seed {seed}: no scored placements recorded"
        );
    }
    o_opt
}

#[test]
fn tetris_warm_scratch_matches_cold_reference() {
    for seed in SEEDS {
        for (wname, w) in workloads(seed) {
            assert_equivalent(
                &format!("tetris/{wname}"),
                seed,
                &w,
                Box::new(TetrisScheduler::new(TetrisConfig::default())),
                Box::new(ColdScratchTetris(TetrisScheduler::new(
                    TetrisConfig::default(),
                ))),
            );
        }
    }
}

#[test]
fn srtf_prefilter_matches_exhaustive_reference() {
    for seed in SEEDS {
        for (wname, w) in workloads(seed) {
            assert_equivalent(
                &format!("srtf/{wname}"),
                seed,
                &w,
                Box::new(SrtfScheduler::new()),
                Box::new(SrtfScheduler::exhaustive()),
            );
        }
    }
}

#[test]
fn packing_only_warm_scratch_matches_cold_reference() {
    // A second Tetris operating point (no SRTF term, no fairness) drives
    // different branches through the candidate loop and the banned set.
    for seed in SEEDS {
        for (wname, w) in workloads(seed) {
            assert_equivalent(
                &format!("tetris-packing/{wname}"),
                seed,
                &w,
                Box::new(TetrisScheduler::new(TetrisConfig::packing_only())),
                Box::new(ColdScratchTetris(TetrisScheduler::new(
                    TetrisConfig::packing_only(),
                ))),
            );
        }
    }
}

/// Event-synced Tetris and its mark-all-dirty reference twin.
fn tetris_pair() -> (Box<dyn SchedulerPolicy>, Box<dyn SchedulerPolicy>) {
    (
        Box::new(TetrisScheduler::new(TetrisConfig::default())),
        Box::new(MarkAllDirty(TetrisScheduler::new(TetrisConfig::default()))),
    )
}

#[test]
fn incremental_policies_match_mark_all_dirty_oracle() {
    for seed in SEEDS {
        for (wname, w) in workloads(seed) {
            let (inc, oracle) = tetris_pair();
            assert_equivalent(&format!("tetris-inc/{wname}"), seed, &w, inc, oracle);
        }
    }
}

#[test]
fn incremental_policies_match_oracle_under_machine_churn() {
    // Crashes preempt and abandon tasks, take machines down and up, and
    // flake trackers — the full event taxonomy. A cache entry that
    // survives an event it should not diverges here.
    for seed in SEEDS {
        for (wname, w) in workloads(seed) {
            let (inc, oracle) = tetris_pair();
            assert_equivalent_cfg(
                &format!("tetris-inc-churn/{wname}"),
                seed,
                cluster(),
                &w,
                &churn_cfg(seed),
                inc,
                oracle,
            );
        }
    }
}

#[test]
fn incremental_tetris_matches_oracle_under_preemption() {
    // Evictions free machines between two rounds of one heartbeat. Both
    // twins must see the same freed-machine hints there — the list is
    // fixed for the heartbeat (`ClusterView::freed_machines`).
    // The contended serving mix of `perfbench serving_preempt`: four
    // diurnal services over a saturating batch backlog on 40 machines.
    let cluster = ClusterConfig::uniform(40, MachineSpec::paper_large());
    let w = ServingMixConfig::laptop(2.0).generate(42);
    for seed in [1].into_iter().chain(SEEDS) {
        let (inc, oracle) = tetris_pair();
        let o = assert_equivalent_cfg(
            "tetris-inc-preempt/serving",
            seed,
            cluster.clone(),
            &w,
            &preempt_cfg(seed),
            inc,
            oracle,
        );
        assert!(
            o.stats.preemptions > 0,
            "seed {seed}: nothing was preempted"
        );
        if seed == 1 {
            // The shipped decisions are the pinned side: making the twins
            // agree moved the oracle, not the policy.
            assert_eq!((o.stats.preemptions, o.stats.placements), (693, 2548));
        }
    }
}
