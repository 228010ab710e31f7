//! Golden equivalence suite for the event-hot-path performance pass.
//!
//! The optimized schedulers reuse warm state (Tetris's per-job candidate
//! caches and per-layer buffers, generation-stamped sets, candidate
//! arenas) and take availability-based shortcuts (SRTF's quick reject
//! and its per-call memo of demands that fit nowhere). Both are only
//! legal if they are *invisible*: every decision — assignments, score
//! breakdowns, event order, job/task outcomes — must be identical to the
//! unoptimized reference path. This suite pins that across ≥3 seeds × 2
//! workload shapes for:
//!
//! * `TetrisScheduler` vs [`ColdTetris`], the same scheduler with every
//!   cache and buffer dropped before each `schedule()` call;
//! * `SrtfScheduler` vs [`PlainSrtf`], the policy written here from the
//!   public view API alone: a candidate list a task, sorted by
//!   suspicion, every machine planned — quiet, under machine churn, and
//!   on the constrained serving mix.
//!
//! Comparison is over the full observability event stream — which carries
//! per-placement `DecisionScores` — with the one wall-clock field
//! (`HeartbeatProcessed::wall_ns`) zeroed, plus a structural fingerprint
//! of the outcome (per-job finishes, per-task placements).
//!
//! Tetris's caches are keyed on the view's job and replica epochs, so the
//! Tetris pair also runs under machine crash/recover churn (which moves
//! replicas and kills, abandons and restarts tasks) *and* under priority
//! preemption (where the engine frees machines between the rounds of one
//! heartbeat): a cache entry that outlives a change it depends on
//! diverges here. The other baselines keep no state across calls and take
//! no shortcut, so they have no leg here;
//! `crates/expts/tests/policy_matrix.rs` covers every registered policy
//! against crash recovery instead.

use tetris::prelude::*;
use tetris::scheduler::{job_remaining_work, ColdTetris};
use tetris::sim::{MachineId, SimConfig, WorkingLedger};
use tetris::workload::ServingMixConfig;
use tetris_obs::{Event, Obs, VecRecorder};

const SEEDS: [u64; 3] = [11, 42, 77];

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

/// SRTF-only as the paper states it, with no shortcut: jobs by remaining
/// work, and each pending task placed on the first machine whose full
/// plan fits, trying its data-local machines and then all machines by
/// id, suspect machines after trusted ones and down machines never. The
/// shipping `SrtfScheduler` must match it decision for decision.
#[derive(Default)]
struct PlainSrtf {
    ledger: WorkingLedger,
}

impl SchedulerPolicy for PlainSrtf {
    fn name(&self) -> &str {
        "srtf"
    }

    fn uses_tracker(&self) -> bool {
        true
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let reference = view.total_capacity() / view.num_machines().max(1) as f64;
        let mut jobs: Vec<_> = view
            .active_jobs()
            .map(|j| (j, job_remaining_work(view, j, &reference)))
            .collect();
        jobs.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        self.ledger.begin(view);
        let mut out = Vec::new();
        let mut preferred = Vec::new();
        for (j, _) in jobs {
            for t in view.job_pending(j) {
                view.preferred_machines_into(t, &mut preferred);
                let mut candidates: Vec<MachineId> = preferred
                    .iter()
                    .copied()
                    .chain(view.query().iter_all())
                    .filter(|&m| !view.is_down(m))
                    .collect();
                candidates.sort_by_key(|&m| view.is_suspect(m));
                let ledger = &mut self.ledger;
                if let Some(m) = candidates
                    .into_iter()
                    .find(|&m| ledger.allows(view, j, m) && ledger.try_place(view, t, m).is_ok())
                {
                    out.push(Assignment::new(t, m));
                }
            }
        }
        out
    }
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
/// flaky trackers leading each crash — kills, abandonments, restarts,
/// replica moves and suspicion flips through every policy under test.
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
                Box::new(ColdTetris(TetrisScheduler::new(TetrisConfig::default()))),
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
                Box::new(PlainSrtf::default()),
            );
        }
    }
}

#[test]
fn srtf_matches_reference_under_machine_churn() {
    // Flaky trackers lead each crash, so suspect machines exist and the
    // walk's suspect-last order decides placements; crashed machines
    // leave the walk while they are down.
    for seed in SEEDS {
        for (wname, w) in workloads(seed) {
            assert_equivalent_cfg(
                &format!("srtf-churn/{wname}"),
                seed,
                cluster(),
                &w,
                &churn_cfg(seed),
                Box::new(SrtfScheduler::new()),
                Box::new(PlainSrtf::default()),
            );
        }
    }
}

/// The serving mix on 20 machines in two shapes: as generated (service
/// waves with a spread floor over a batch backlog), and with each service
/// job also anti-affine to the one before it, so that both constraints
/// reach the ledger's `allows` during the walk.
fn serving_shapes(seed: u64) -> Vec<(&'static str, Workload)> {
    let spread = ServingMixConfig::laptop(0.5).generate(seed);
    let mut anti = spread.clone();
    let mut last_service = None;
    for job in anti.jobs_mut() {
        if job.class.is_service() {
            if let Some(prev) = last_service {
                job.constraints.anti_affinity.push(prev);
            }
            last_service = Some(job.id);
        }
    }
    vec![("spread", spread), ("anti-affinity", anti)]
}

#[test]
fn srtf_matches_reference_on_constrained_serving_mix() {
    let cluster = ClusterConfig::uniform(20, MachineSpec::paper_large());
    for seed in SEEDS {
        let outcomes: Vec<_> = serving_shapes(seed)
            .into_iter()
            .map(|(shape, w)| {
                assert_equivalent_cfg(
                    &format!("srtf-serving/{shape}"),
                    seed,
                    cluster.clone(),
                    &w,
                    &quiet_cfg(seed),
                    Box::new(SrtfScheduler::new()),
                    Box::new(PlainSrtf::default()),
                )
            })
            .collect();
        // The added anti-affinity must move a decision, or the second
        // shape compares what the first already did.
        assert_ne!(
            fingerprint(&outcomes[0]).tasks,
            fingerprint(&outcomes[1]).tasks,
            "seed {seed}: anti-affinity changed no placement"
        );
    }
}

#[test]
fn packing_only_warm_scratch_matches_cold_reference() {
    // A second Tetris operating point (no SRTF term, no fairness) drives
    // different branches through the candidate loop and the fit lists.
    for seed in SEEDS {
        for (wname, w) in workloads(seed) {
            assert_equivalent(
                &format!("tetris-packing/{wname}"),
                seed,
                &w,
                Box::new(TetrisScheduler::new(TetrisConfig::packing_only())),
                Box::new(ColdTetris(TetrisScheduler::new(
                    TetrisConfig::packing_only(),
                ))),
            );
        }
    }
}

/// Incremental Tetris and its cold-rebuild reference twin.
fn tetris_pair() -> (Box<dyn SchedulerPolicy>, Box<dyn SchedulerPolicy>) {
    (
        Box::new(TetrisScheduler::new(TetrisConfig::default())),
        Box::new(ColdTetris(TetrisScheduler::new(TetrisConfig::default()))),
    )
}

#[test]
fn incremental_policies_match_oracle_under_machine_churn() {
    // Crashes kill, abandon and restart tasks, move block replicas, and
    // flake trackers. A cache entry that outlives a change it depends on
    // diverges here.
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
            assert_eq!((o.stats.preemptions, o.stats.placements), (757, 2612));
        }
    }
}
