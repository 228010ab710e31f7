//! Observability contract tests: the trace is well-formed and complete,
//! and attaching it never perturbs the simulation.

use tetris_core::{TetrisConfig, TetrisScheduler};
use tetris_obs::{names, Event, JsonlRecorder, Obs, PlacementProvenance, VecRecorder};
use tetris_resources::MachineSpec;
use tetris_sim::{
    Assignment, ClusterConfig, ClusterView, GreedyFifo, MarkAllDirty, SchedulerEvent,
    SchedulerPolicy, ShardedScheduler, SimConfig, SimOutcome, Simulation,
};
use tetris_workload::{Workload, WorkloadSuiteConfig};

fn cluster() -> ClusterConfig {
    ClusterConfig::uniform(4, MachineSpec::paper_large())
}

#[test]
fn jsonl_trace_is_well_formed_and_taskplaced_matches_placements() {
    let w = WorkloadSuiteConfig::small().generate(11);
    let rec = VecRecorder::shared();
    // VecRecorder for counting; a JSONL pass below checks the wire format.
    let mut vec_obs = Obs::with_recorder(Box::new(rec.clone()));
    let outcome = Simulation::build(cluster(), w.clone())
        .scheduler(GreedyFifo::new())
        .seed(11)
        .observe(&mut vec_obs)
        .run();
    assert!(outcome.all_jobs_completed());

    let events = rec.take();
    assert!(!events.is_empty());
    let placed = events
        .iter()
        .filter(|(_, e)| matches!(e, Event::TaskPlaced { .. }))
        .count() as u64;
    assert_eq!(
        placed, outcome.stats.placements,
        "every applied assignment must be traced exactly once"
    );
    let arrivals = events
        .iter()
        .filter(|(_, e)| matches!(e, Event::JobArrived { .. }))
        .count();
    assert_eq!(arrivals, w.jobs.len());
    let completed = events
        .iter()
        .filter(|(_, e)| matches!(e, Event::TaskCompleted { .. }))
        .count();
    assert_eq!(
        completed,
        w.jobs.iter().map(|j| j.num_tasks()).sum::<usize>()
    );
    // Timestamps are non-decreasing and heartbeats carry nonzero wall time.
    assert!(events.windows(2).all(|p| p[0].0 <= p[1].0));
    assert!(events
        .iter()
        .any(|(_, e)| matches!(e, Event::HeartbeatProcessed { wall_ns, .. } if *wall_ns > 0)));

    // Same run through the JSONL sink: every line parses back.
    let path = std::env::temp_dir().join(format!("tetris-obs-test-{}.jsonl", std::process::id()));
    {
        let mut obs2 = Obs::with_recorder(Box::new(JsonlRecorder::create(&path).unwrap()));
        Simulation::build(cluster(), w)
            .scheduler(GreedyFifo::new())
            .seed(11)
            .observe(&mut obs2)
            .run();
    }
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut parsed = 0u64;
    for line in text.lines() {
        let rec: tetris_obs::event::TraceRecord = serde_json::from_str(line).unwrap();
        assert!(rec.t >= 0.0);
        parsed += 1;
    }
    assert_eq!(parsed, events.len() as u64);

    // The metrics registry agrees with the engine's own stats.
    assert_eq!(
        vec_obs.metrics.counter(names::PLACEMENTS),
        outcome.stats.placements
    );
    let hb = vec_obs.metrics.histogram(names::HEARTBEAT_NS).unwrap();
    assert!(hb.count() > 0);
    assert!(hb.quantile(0.5).unwrap() > 0);
}

#[test]
fn noop_and_traced_runs_produce_identical_outcomes() {
    let w = WorkloadSuiteConfig::small().generate(13);
    let mut cfg = SimConfig::default();
    cfg.seed = 13;
    // Exercise the failure path too, so TaskPreempted events flow.
    cfg.task_failure_prob = 0.05;

    let plain = Simulation::build(cluster(), w.clone())
        .scheduler(GreedyFifo::new())
        .config(cfg.clone())
        .run();

    let rec = VecRecorder::shared();
    let mut obs = Obs::with_recorder(Box::new(rec.clone()));
    let traced = Simulation::build(cluster(), w)
        .scheduler(GreedyFifo::new())
        .config(cfg)
        .observe(&mut obs)
        .run();

    // Byte-identical serialized outcomes: observability must not perturb
    // the simulation in any way.
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&traced).unwrap()
    );
    // And the traced run did actually trace (including retries).
    let events = rec.take();
    assert!(events
        .iter()
        .any(|(_, e)| matches!(e, Event::TaskPlaced { .. })));
    if traced.stats.task_failures > 0 {
        assert_eq!(
            events
                .iter()
                .filter(|(_, e)| matches!(e, Event::TaskPreempted { .. }))
                .count() as u64,
            traced.stats.task_failures
        );
        assert_eq!(
            obs.metrics.counter(names::TASK_RETRIES),
            traced.stats.task_failures
        );
    }
}

fn tetris() -> TetrisScheduler {
    TetrisScheduler::new(TetrisConfig::default())
}

/// Run `policy` over `w` under a verbose in-memory trace; returns the
/// outcome and the provenance of every `TaskPlaced` event that has one.
fn verbose_run(
    w: &Workload,
    policy: Box<dyn SchedulerPolicy>,
) -> (SimOutcome, Vec<PlacementProvenance>) {
    let rec = VecRecorder::shared();
    let mut obs = Obs::with_recorder(Box::new(rec.clone()));
    obs.set_verbose(true);
    let outcome = Simulation::build(cluster(), w.clone())
        .scheduler(policy)
        .seed(7)
        .observe(&mut obs)
        .run();
    let provs = rec
        .take()
        .into_iter()
        .filter_map(|(_, e)| match e {
            Event::TaskPlaced { provenance, .. } => provenance.map(|p| *p),
            _ => None,
        })
        .collect();
    (outcome, provs)
}

#[test]
fn verbose_tracing_attaches_provenance_without_perturbing_the_run() {
    let w = WorkloadSuiteConfig::small().generate(7);
    // Each input pairs the policy run verbosely with the same policy run
    // unobserved: bare Tetris, the event-suppressing oracle wrapper, and
    // the sharded driver (whose decisions differ from bare Tetris, hence
    // its own baseline).
    type Make = fn() -> Box<dyn SchedulerPolicy>;
    let inputs: [(&str, Make); 3] = [
        ("tetris", || Box::new(tetris())),
        ("mark-all-dirty", || Box::new(MarkAllDirty(tetris()))),
        ("sharded", || {
            Box::new(ShardedScheduler::new(2, 7, |_| Box::new(tetris())))
        }),
    ];
    for (label, make) in inputs {
        let plain = Simulation::build(cluster(), w.clone())
            .scheduler(make())
            .seed(7)
            .run();
        let (verbose, provs) = verbose_run(&w, make());

        // Provenance capture is read-only bookkeeping: the verbose run
        // must be byte-identical to the unobserved one.
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&verbose).unwrap(),
            "{label}"
        );
        assert!(
            !provs.is_empty(),
            "{label}: verbose Tetris runs must attach provenance"
        );
        // A contended cluster sees multiple candidates compete for the
        // same machine, so some placement records runner-ups with full
        // scores.
        assert!(
            provs.iter().any(|p| p.rejected.len() >= 2),
            "{label}: expected a placement with at least two rejected candidates"
        );
        for p in &provs {
            assert!(p.candidates as usize > p.rejected.len() || p.rejected.is_empty());
            for r in &p.rejected {
                assert!(r.alignment.is_some() && r.srtf.is_some());
                assert!(r.score.is_finite());
            }
        }
        // Incremental-cache provenance: once synced, later rounds hit the
        // cache.
        assert!(provs
            .iter()
            .any(|p| p.cache_hits > 0 || p.cache_rebuilds > 0));
    }

    // Default traces carry no provenance at all.
    let rec2 = VecRecorder::shared();
    let mut obs2 = Obs::with_recorder(Box::new(rec2.clone()));
    Simulation::build(cluster(), w)
        .scheduler(tetris())
        .seed(7)
        .observe(&mut obs2)
        .run();
    assert!(rec2.take().iter().all(|(_, e)| !matches!(
        e,
        Event::TaskPlaced {
            provenance: Some(_),
            ..
        }
    )));
}

/// A wrapper that forwards only what decides placements — the shape of
/// `perfbench`'s `Timed<P>` — and leaves every other trait method at its
/// default.
struct Forwarding<P>(P);

impl<P: SchedulerPolicy> SchedulerPolicy for Forwarding<P> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn on_event(&mut self, view: &ClusterView<'_>, event: &SchedulerEvent) {
        self.0.on_event(view, event);
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        self.0.schedule(view)
    }

    fn uses_tracker(&self) -> bool {
        self.0.uses_tracker()
    }
}

#[test]
fn wrappers_are_observability_transparent() {
    let w = WorkloadSuiteConfig::small().generate(7);
    let plain = Simulation::build(cluster(), w.clone())
        .scheduler(tetris())
        .seed(7)
        .run();
    let (wrapped, provs) = verbose_run(&w, Box::new(Forwarding(tetris())));
    // Provenance rides on the assignments `schedule` returns, so a wrapper
    // that knows nothing about it cannot drop it.
    assert!(
        provs.iter().any(|p| !p.rejected.is_empty()),
        "wrapped verbose run lost its provenance"
    );
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&wrapped).unwrap()
    );
}

#[test]
fn telemetry_sampler_is_deterministic_and_sane() {
    use tetris_obs::TimeSeries;
    let w = WorkloadSuiteConfig::small().generate(13);
    let run = || {
        let rec = VecRecorder::shared();
        let mut obs = Obs::with_recorder(Box::new(rec));
        obs.set_timeseries(TimeSeries::in_memory());
        let outcome = Simulation::build(cluster(), w.clone())
            .scheduler(GreedyFifo::new())
            .seed(13)
            .observe(&mut obs)
            .run();
        assert!(outcome.all_jobs_completed());
        let samples = obs.take_timeseries().unwrap().into_samples();
        (outcome, samples)
    };
    let (outcome, a) = run();
    let (_, b) = run();
    // One sample per heartbeat, pure function of simulated state: repeated
    // runs yield identical streams (no wall clocks anywhere).
    assert_eq!(a, b);
    assert!(!a.is_empty());
    assert!(a.windows(2).all(|p| p[0].t <= p[1].t));
    for s in &a {
        for v in [
            s.alloc.cpu,
            s.alloc.mem,
            s.alloc.max(),
            s.fragmentation,
            s.packing_efficiency,
        ] {
            assert!((0.0..=1.0 + 1e-9).contains(&v), "out of range: {v}");
        }
    }
    // The stream actually saw the workload: some sample has running tasks
    // and nonzero allocation.
    assert!(a.iter().any(|s| s.running_tasks > 0 && s.alloc.max() > 0.0));
    // Telemetry never perturbs the run either.
    let plain = Simulation::build(cluster(), w)
        .scheduler(GreedyFifo::new())
        .seed(13)
        .run();
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&outcome).unwrap()
    );
}
