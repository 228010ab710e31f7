//! Cross-crate observability checks: Tetris placements carry score
//! breakdowns in the trace, baselines stay unscored, and both runs feed
//! the same heartbeat histograms.

use tetris::prelude::*;
use tetris::sim::GreedyFifo;
use tetris_obs::{names, Event, Obs, VecRecorder};

fn cluster() -> ClusterConfig {
    ClusterConfig::uniform(6, MachineSpec::paper_large())
}

fn traced_run(
    sched: Box<dyn SchedulerPolicy>,
    seed: u64,
) -> (tetris::sim::SimOutcome, Obs, Vec<(f64, Event)>) {
    let w = WorkloadSuiteConfig::small().generate(seed);
    let rec = VecRecorder::shared();
    let mut obs = Obs::with_recorder(Box::new(rec.clone()));
    let outcome = Simulation::build(cluster(), w)
        .scheduler(sched)
        .seed(seed)
        .observe(&mut obs)
        .run();
    let events = rec.take();
    (outcome, obs, events)
}

#[test]
fn tetris_placements_carry_scores_baselines_do_not() {
    let (outcome, _, events) =
        traced_run(Box::new(TetrisScheduler::new(TetrisConfig::default())), 17);
    assert!(outcome.all_jobs_completed());
    let scored: Vec<_> = events
        .iter()
        .filter_map(|(_, e)| match e {
            Event::TaskPlaced {
                alignment_score,
                srtf_score,
                combined_score,
                considered_machines,
                ..
            } => Some((
                alignment_score,
                srtf_score,
                combined_score,
                considered_machines,
            )),
            _ => None,
        })
        .collect();
    assert_eq!(scored.len() as u64, outcome.stats.placements);
    // Tetris annotates (almost) every placement; reservation redemptions
    // are placed by right, not by score, so allow a small unscored tail.
    let with_scores = scored.iter().filter(|(a, ..)| a.is_some()).count();
    assert!(
        with_scores * 2 > scored.len(),
        "{with_scores}/{} scored",
        scored.len()
    );
    // A scored placement is scored in full.
    assert!(scored
        .iter()
        .filter(|(a, ..)| a.is_some())
        .all(|(_, s, c, m)| s.is_some() && c.is_some() && m.is_some()));
    // Considered machines is the candidate set size, bounded by the cluster.
    assert!(scored
        .iter()
        .filter_map(|(.., m)| m.as_ref())
        .all(|&m| m >= 1 && m as usize <= cluster().len()));

    let (_, _, base_events) = traced_run(Box::new(GreedyFifo::new()), 17);
    assert!(base_events.iter().all(|(_, e)| match e {
        Event::TaskPlaced {
            alignment_score, ..
        } => alignment_score.is_none(),
        _ => true,
    }));
}

#[test]
fn heartbeat_histograms_fill_for_every_policy() {
    for sched in [
        Box::new(TetrisScheduler::new(TetrisConfig::default())) as Box<dyn SchedulerPolicy>,
        Box::new(FairScheduler::new()),
        Box::new(DrfScheduler::new()),
    ] {
        let name = sched.name().to_string();
        let (_, obs, _) = traced_run(sched, 23);
        let hb = obs
            .metrics
            .histogram(names::HEARTBEAT_NS)
            .unwrap_or_else(|| panic!("{name}: no heartbeat histogram"));
        assert!(hb.count() > 0, "{name}");
        assert!(
            hb.quantile(0.99).unwrap() >= hb.quantile(0.5).unwrap(),
            "{name}"
        );
        let sched_h = obs.metrics.histogram(names::SCHEDULE_NS).unwrap();
        // A heartbeat makes one or more schedule calls, each individually
        // no longer than the whole pass.
        assert!(sched_h.count() >= hb.count(), "{name}");
        assert!(
            obs.metrics.counter(names::PLACEMENTS) > 0,
            "{name}: no placements counted"
        );
    }
}

/// DRF reads no tracker tick, so its run has no report: no
/// `TrackerReport` event and no `tracker_reports` count. What `trace-tool`
/// reads — the JSONL records and the telemetry series — reads back whole,
/// and summarises as any other run's.
#[test]
fn a_drf_trace_has_no_tracker_reports_and_reads_back() {
    let path = std::env::temp_dir().join(format!("tetris-drf-{}.jsonl", std::process::id()));
    let recorder = tetris_obs::JsonlRecorder::create(&path).expect("temp file opens");
    let mut obs = Obs::with_recorder(Box::new(recorder));
    obs.set_timeseries(tetris_obs::TimeSeries::in_memory());
    let outcome = Simulation::build(cluster(), WorkloadSuiteConfig::small().generate(29))
        .scheduler(DrfScheduler::new())
        .seed(29)
        .observe(&mut obs)
        .run();
    obs.flush();
    assert!(outcome.all_jobs_completed());
    let snapshot = obs.metrics.snapshot();
    assert!(!snapshot.counters.contains_key(names::TRACKER_REPORTS));
    assert!(!snapshot.gauges.contains_key(names::TRACKER_USAGE_FRAC));

    let text = std::fs::read_to_string(&path).expect("trace reads");
    std::fs::remove_file(&path).ok();
    let records: Vec<tetris_obs::TraceRecord> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("every line is a record"))
        .collect();
    assert!(!records
        .iter()
        .any(|r| matches!(r.event, Event::TrackerReport { .. })));
    let placed = records
        .iter()
        .filter(|r| matches!(r.event, Event::TaskPlaced { .. }))
        .count();
    assert_eq!(placed as u64, outcome.stats.placements);

    let samples = obs.take_timeseries().expect("attached").into_samples();
    assert!(!samples.is_empty());
    let summary = tetris_obs::SeriesSummary::compute(&samples).render();
    assert!(summary.contains("packing_efficiency"), "{summary}");
}
