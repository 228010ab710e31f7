//! Cross-crate integration tests: the paper's headline claims, exercised
//! through the umbrella crate's public API exactly as a downstream user
//! would.

use tetris::{metrics::SlowdownSummary, prelude::*, sim::GreedyFifo};

fn cluster() -> ClusterConfig {
    ClusterConfig::uniform(20, MachineSpec::paper_large())
}

fn suite(seed: u64) -> Workload {
    WorkloadSuiteConfig::scaled(50, 0.08).generate(seed)
}

fn run(w: &Workload, sched: Box<dyn SchedulerPolicy>, seed: u64) -> tetris::sim::SimOutcome {
    Simulation::build(cluster(), w.clone())
        .scheduler(sched)
        .seed(seed)
        .run()
}

#[test]
fn headline_tetris_beats_slot_and_drf_schedulers() {
    // The validated experiment configuration (20 machines, 50 jobs,
    // seed 42 — the same point EXPERIMENTS.md reports).
    let w = suite(42);
    let tetris = run(
        &w,
        Box::new(TetrisScheduler::new(TetrisConfig::default())),
        42,
    );
    let fair = run(&w, Box::new(FairScheduler::new()), 42);
    let cap = run(&w, Box::new(CapacityScheduler::new()), 42);
    let drf = run(&w, Box::new(DrfScheduler::new()), 42);
    assert!(tetris.all_jobs_completed());

    for base in [&fair, &cap, &drf] {
        let imp = ImprovementSummary::compare(&tetris, base);
        assert!(
            imp.median() > 5.0,
            "median JCT gain vs {} too small: {:.1}%",
            base.scheduler,
            imp.median()
        );
        assert!(
            imp.avg_jct > 5.0,
            "avg JCT gain vs {} too small: {:.1}%",
            base.scheduler,
            imp.avg_jct
        );
    }
}

#[test]
fn makespan_gains_with_all_jobs_at_time_zero() {
    let mut w = suite(3);
    for j in w.jobs_mut() {
        j.arrival = 0.0;
    }
    let tetris = run(
        &w,
        Box::new(TetrisScheduler::new(TetrisConfig::default())),
        3,
    );
    let drf = run(&w, Box::new(DrfScheduler::new()), 3);
    let cap = run(&w, Box::new(CapacityScheduler::new()), 3);
    assert!(
        tetris.makespan() < drf.makespan(),
        "tetris {:.0} vs drf {:.0}",
        tetris.makespan(),
        drf.makespan()
    );
    assert!(
        tetris.makespan() < cap.makespan(),
        "tetris {:.0} vs capacity {:.0}",
        tetris.makespan(),
        cap.makespan()
    );
}

#[test]
fn tetris_tasks_run_unstretched_baselines_contend() {
    let w = suite(3);
    let tetris = run(
        &w,
        Box::new(TetrisScheduler::new(TetrisConfig::default())),
        3,
    );
    let cap = run(&w, Box::new(CapacityScheduler::new()), 3);
    // Tetris allocates peak demands and never over-allocates → its tasks
    // run at their planned rates. The slot scheduler over-allocates and
    // its tasks contend.
    assert!(
        tetris.mean_task_stretch() < 1.10,
        "{}",
        tetris.mean_task_stretch()
    );
    assert!(cap.mean_task_stretch() > 1.3, "{}", cap.mean_task_stretch());
}

#[test]
fn upper_bound_dominates_every_policy() {
    let w = suite(4);
    let ub = UpperBoundScheduler::new().simulate(&w, cluster().total_capacity());
    assert!(ub.complete());
    for sched in [
        Box::new(TetrisScheduler::new(TetrisConfig::default())) as Box<dyn SchedulerPolicy>,
        Box::new(FairScheduler::new()),
        Box::new(DrfScheduler::new()),
        Box::new(GreedyFifo::new()),
    ] {
        let o = run(&w, sched, 4);
        assert!(
            ub.avg_jct() <= o.avg_jct() * 1.001,
            "upper bound {:.1} lost to {} at {:.1}",
            ub.avg_jct(),
            o.scheduler,
            o.avg_jct()
        );
    }
}

#[test]
fn fairness_knob_bounds_slowdowns() {
    let w = suite(5);
    let fair = run(&w, Box::new(FairScheduler::new()), 5);
    let mut unfair_cfg = TetrisConfig::default();
    unfair_cfg.fairness_knob = 0.0;
    let mut fair_cfg = TetrisConfig::default();
    fair_cfg.fairness_knob = 0.75;
    let unfair = run(&w, Box::new(TetrisScheduler::new(unfair_cfg)), 5);
    let fairish = run(&w, Box::new(TetrisScheduler::new(fair_cfg)), 5);
    let s_unfair = SlowdownSummary::compare(&unfair, &fair);
    let s_fairish = SlowdownSummary::compare(&fairish, &fair);
    // Raising f must not increase the fraction of jobs slowed (much).
    assert!(
        s_fairish.frac_slowed <= s_unfair.frac_slowed + 0.05,
        "f=0.75 slowed {:.2}, f=0 slowed {:.2}",
        s_fairish.frac_slowed,
        s_unfair.frac_slowed
    );
}

#[test]
fn trace_roundtrip_preserves_simulation_results() {
    let w = suite(6);
    let json = tetris::workload::trace::to_json(&w, "integration test").unwrap();
    let back = tetris::workload::trace::from_json(&json).unwrap().workload;
    let a = run(
        &w,
        Box::new(TetrisScheduler::new(TetrisConfig::default())),
        6,
    );
    let b = run(
        &back,
        Box::new(TetrisScheduler::new(TetrisConfig::default())),
        6,
    );
    assert_eq!(a.makespan(), b.makespan());
    assert_eq!(
        a.tasks.iter().map(|t| t.finish).collect::<Vec<_>>(),
        b.tasks.iter().map(|t| t.finish).collect::<Vec<_>>()
    );
}

#[test]
fn facebook_trace_runs_under_all_schedulers() {
    let w = FacebookTraceConfig {
        n_jobs: 40,
        scale: 0.04,
        ..FacebookTraceConfig::default()
    }
    .generate(7);
    for sched in [
        Box::new(TetrisScheduler::new(TetrisConfig::default())) as Box<dyn SchedulerPolicy>,
        Box::new(FairScheduler::new()),
        Box::new(CapacityScheduler::new()),
        Box::new(DrfScheduler::new()),
        Box::new(SrtfScheduler::new()),
        Box::new(RandomScheduler::seeded(7)),
    ] {
        let name = sched.name().to_string();
        let o = run(&w, sched, 7);
        assert!(
            o.all_jobs_completed(),
            "{name} failed to complete the trace"
        );
    }
}

#[test]
fn slot_baseline_costs_the_engine_few_events_per_placement() {
    // DRF over-allocates disk and network, so every placement and every
    // completion moves the rates of its neighbours. The queue holds one
    // completion a flow and re-times it in place: 8.0 events a placement
    // here, where a queue that kept each superseded completion until it
    // surfaced made 44.
    let w = FacebookTraceConfig {
        n_jobs: 120,
        scale: 0.03,
        mean_interarrival: 12.0,
        ..FacebookTraceConfig::default()
    }
    .generate(43);
    let o = run(&w, Box::new(DrfScheduler::new()), 42);
    assert!(o.all_jobs_completed());
    let per_placement = o.stats.events as f64 / o.stats.placements as f64;
    assert!(
        per_placement <= 10.0,
        "{per_placement:.1} events a placement"
    );
}

#[test]
fn estimation_mode_still_completes_and_stays_close_to_oracle() {
    use tetris::scheduler::EstimationMode;
    let w = FacebookTraceConfig {
        n_jobs: 40,
        scale: 0.04,
        ..FacebookTraceConfig::default()
    }
    .generate(8);
    let oracle = run(
        &w,
        Box::new(TetrisScheduler::new(TetrisConfig::default())),
        8,
    );
    let mut cfg = TetrisConfig::default();
    cfg.estimation = EstimationMode::Learned {
        overestimate: 1.5,
        warmup: 3,
    };
    let learned = run(&w, Box::new(TetrisScheduler::new(cfg)), 8);
    assert!(learned.all_jobs_completed());
    // Over-estimation costs some efficiency but must stay in the same
    // ballpark (the tracker reclaims what over-estimates leave idle).
    assert!(
        learned.avg_jct() < oracle.avg_jct() * 1.5,
        "learned {:.1} vs oracle {:.1}",
        learned.avg_jct(),
        oracle.avg_jct()
    );
}
