//! The `--trace` / `--metrics` / `--timeseries` instrumented reference
//! run.
//!
//! `reproduce --trace run.jsonl --metrics run.json` executes the §5.1
//! deployment suite under Tetris with a [`tetris_obs::Obs`] context
//! attached: every scheduling decision streams to the JSONL trace, the
//! metrics registry accumulates counters and latency histograms (the
//! continuous version of the paper's Table-8 heartbeat measurement), and
//! an end-of-run table summarises both. A second, unobserved run of the
//! same configuration cross-checks that attaching observability did not
//! perturb the simulation.
//!
//! Three telemetry extensions ride on the same run:
//!
//! * `--trace-verbose` attaches decision provenance to every `TaskPlaced`
//!   event — the top rejected candidates with their alignment/SRTF/
//!   combined scores plus the incremental-policy cache state — consumed by
//!   `trace-tool explain`. Off by default, so default traces stay
//!   byte-identical.
//! * `--timeseries FILE.jsonl` streams one [`tetris_obs::TelemetrySample`]
//!   per heartbeat (utilization, fragmentation, packing efficiency,
//!   backlog, suspect machines); the samples also land in the metrics
//!   snapshot, and the summary table gains the series' headline stats plus
//!   an end-of-run packing-efficiency comparison against the one-big-bin
//!   `upper_bound` oracle.
//! * `--crash-frac F` injects churn-style machine crash/recover cycles so
//!   the telemetry curves can be read against cluster churn.
//! * `--journal FILE` attaches the write-ahead decision journal
//!   (DESIGN.md §15) to the run, `--checkpoint-every K` sets its snapshot
//!   cadence, and `--crash-at N` kills the scheduler at heartbeat N and
//!   recovers it from that journal. The recovered outcome feeds the same
//!   traced-vs-control identity cross-check, so a crashed run only passes
//!   if recovery reproduced the uninterrupted run byte-for-byte.
//!   `--outcome FILE.json` writes the final `SimOutcome` so shell smokes
//!   can `cmp` a recovered run against an uninterrupted one.

use tetris_baselines::UpperBoundScheduler;
use tetris_core::{TetrisConfig, TetrisScheduler};
use tetris_metrics::table::TextTable;
use tetris_obs::timeseries::SeriesSummary;
use tetris_obs::{names, Histogram, JsonlRecorder, NoopRecorder, Obs, Recorder, TimeSeries};
use tetris_sim::{
    Journal, RecoveryStats, RunResult, SchedulerCrash, SchedulerPolicy, ShardedScheduler,
    Simulation,
};

use crate::setup::{self, SchedName};
use crate::RunCtx;

/// What the instrumented run should produce (all outputs optional).
#[derive(Debug, Clone, Default)]
pub struct InstrumentOpts {
    /// JSONL decision-trace path.
    pub trace: Option<String>,
    /// Metrics-snapshot path.
    pub metrics: Option<String>,
    /// Attach decision provenance to `TaskPlaced` events (needs `trace`).
    pub verbose: bool,
    /// JSONL telemetry time-series path.
    pub timeseries: Option<String>,
    /// Fraction of machines undergoing crash/recover cycles, in [0,1].
    pub crash_frac: f64,
    /// Omega-style scheduler shard count (DESIGN.md §14). `0` and `1`
    /// both mean the plain single-scheduler path; `> 1` wraps the
    /// reference scheduler in a [`ShardedScheduler`] — optimistic
    /// parallel per-partition passes over shared state, conflicts
    /// resolved at a serialized commit stage — and surfaces the conflict
    /// counters and per-shard pass latencies in the summary table.
    pub shards: usize,
    /// Write-ahead decision-journal path (DESIGN.md §15). The journal is
    /// kept for the whole run and saved here after it (and any recovery)
    /// finishes.
    pub journal: Option<String>,
    /// Checkpoint cadence of the journal in scheduling heartbeats
    /// (`None` keeps [`tetris_sim::SimConfig`]'s default; needs
    /// `journal`).
    pub checkpoint_every: Option<u64>,
    /// Kill the scheduler at this heartbeat (1-based), then recover from
    /// the journal and continue to completion (needs `journal`).
    pub crash_at: Option<u64>,
    /// Write the run's final `SimOutcome` as compact JSON to this path.
    pub outcome: Option<String>,
}

/// Fault-plan shape used when `--crash-frac` is nonzero: the `churn`
/// experiment's cycling profile (crash/recover cycles with a flake lead
/// so the tracker's suspicion score gets a warning window).
const CRASH_CYCLES: u32 = 3;
const CRASH_DOWNTIME: f64 = 150.0;
const CRASH_WINDOW: (f64, f64) = (60.0, 1500.0);
const CRASH_FLAKE_LEAD: f64 = 90.0;

/// Run the reference configuration (suite workload, Tetris scheduler)
/// with observability attached, writing the requested artifacts. Returns
/// the rendered summary report.
pub fn instrumented_run(ctx: &RunCtx, opts: &InstrumentOpts) -> Result<String, String> {
    let cluster = ctx.cluster();
    let workload = ctx.suite();
    let mut cfg = ctx.sim_config();
    if opts.crash_frac > 0.0 {
        cfg.faults.crash_frac = opts.crash_frac;
        cfg.faults.crash_cycles = CRASH_CYCLES;
        cfg.faults.downtime = CRASH_DOWNTIME;
        cfg.faults.window = CRASH_WINDOW;
        cfg.faults.flake_lead = CRASH_FLAKE_LEAD;
    }
    if let Some(k) = opts.checkpoint_every {
        cfg.checkpoint_every = k;
    }
    // The scheduler crash goes on the traced run only; the control run
    // stays uninterrupted so the identity cross-check doubles as the
    // recovery-equivalence gate.
    let mut traced_cfg = cfg.clone();
    if let Some(n) = opts.crash_at {
        traced_cfg.faults.sched_crash = Some(SchedulerCrash {
            at_heartbeat: n,
            mid_commit: false,
        });
    }
    let sched = SchedName::Tetris;
    let shards = opts.shards.max(1);
    // Both the traced run and the unobserved control run must go through
    // the same construction path, sharded or not — the identity
    // cross-check below is only meaningful against the same pipeline.
    let build = |seed: u64| -> Box<dyn SchedulerPolicy> {
        if shards > 1 {
            Box::new(ShardedScheduler::new(shards, seed, |_| {
                Box::new(TetrisScheduler::new(TetrisConfig::default()))
            }))
        } else {
            sched.build(seed)
        }
    };

    let recorder: Box<dyn Recorder> = match &opts.trace {
        Some(path) => {
            Box::new(JsonlRecorder::create(path).map_err(|e| format!("cannot create {path}: {e}"))?)
        }
        None => Box::new(NoopRecorder),
    };
    let mut obs = Obs::with_recorder(recorder);
    obs.set_verbose(opts.verbose);
    match &opts.timeseries {
        Some(path) => {
            let sink =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            obs.set_timeseries(TimeSeries::streaming(Box::new(std::io::BufWriter::new(
                sink,
            ))));
        }
        // Collect in memory anyway when a metrics snapshot wants the
        // samples.
        None if opts.metrics.is_some() => obs.set_timeseries(TimeSeries::in_memory()),
        None => {}
    }

    let mut journal = opts.journal.as_ref().map(|_| Journal::new());
    let result = Simulation::build(cluster.clone(), workload.clone())
        .scheduler(build(cfg.seed))
        .config(traced_cfg)
        .observe(&mut obs)
        .run_result(journal.as_mut());
    let mut crash_heartbeat = None;
    let mut recovery: Option<RecoveryStats> = None;
    let traced = match result {
        RunResult::Completed(outcome) => *outcome,
        RunResult::Crashed { heartbeat } => {
            crash_heartbeat = Some(heartbeat);
            let j = journal
                .as_ref()
                .expect("the CLI rejects --crash-at without --journal");
            // A fresh scheduler process: new builder, crash-free config,
            // state rebuilt from the journal alone.
            let rec = Simulation::build(cluster.clone(), workload.clone())
                .scheduler(build(cfg.seed))
                .config(cfg.clone())
                .observe(&mut obs)
                .recover(j)
                .map_err(|e| format!("recovery from the journal failed: {e}"))?;
            recovery = Some(rec.stats);
            rec.outcome
        }
    };
    obs.flush();
    let samples = obs
        .take_timeseries()
        .map(TimeSeries::into_samples)
        .unwrap_or_default();

    // The no-recorder control run: observability must be a pure read.
    let plain = setup::run_observed(
        ctx,
        Simulation::build(cluster.clone(), workload.clone())
            .scheduler(build(cfg.seed))
            .config(cfg.clone()),
    );
    let identical = serde_json::to_string(&plain).map_err(|e| e.to_string())?
        == serde_json::to_string(&traced).map_err(|e| e.to_string())?;

    if let Some(path) = &opts.metrics {
        let mut snap = obs.metrics.snapshot();
        snap.timeseries = samples.clone();
        let json = serde_json::to_string_pretty(&snap).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    // Save the journal and re-verify the bytes that actually hit disk:
    // the strict reader must accept what the engine wrote.
    let journal_stats = match (&opts.journal, &journal) {
        (Some(path), Some(j)) => {
            j.save(std::path::Path::new(path))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            Some(
                Journal::load(std::path::Path::new(path))
                    .map_err(|e| format!("cannot read back {path}: {e}"))?
                    .verify()
                    .map_err(|e| format!("journal {path} failed verification: {e}"))?,
            )
        }
        _ => None,
    };
    if let Some(path) = &opts.outcome {
        let json = serde_json::to_string(&traced).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    let mut t = TextTable::new(vec!["metric", "value"]);
    t.row(vec!["scheduler".into(), sched.label().to_string()]);
    if shards > 1 {
        t.row(vec!["scheduler shards".into(), shards.to_string()]);
    }
    t.row(vec!["machines".into(), cluster.len().to_string()]);
    t.row(vec!["jobs".into(), workload.jobs.len().to_string()]);
    if opts.crash_frac > 0.0 {
        t.row(vec!["crash frac".into(), format!("{:.2}", opts.crash_frac)]);
        t.row(vec![
            "machine crashes".into(),
            traced.stats.machine_crashes.to_string(),
        ]);
    }
    if let Some(hb) = crash_heartbeat {
        t.row(vec!["scheduler crash heartbeat".into(), hb.to_string()]);
    }
    if let Some(rs) = &recovery {
        t.row(vec![
            "recovered from checkpoint".into(),
            rs.checkpoint_heartbeat.to_string(),
        ]);
        t.row(vec![
            "replayed batches".into(),
            rs.replayed_batches.to_string(),
        ]);
        t.row(vec![
            "replayed placements".into(),
            rs.replayed_placements.to_string(),
        ]);
        t.row(vec![
            "recovery wall (us)".into(),
            rs.recovery_wall_us.to_string(),
        ]);
        if rs.discarded_records > 0 {
            t.row(vec![
                "discarded journal records".into(),
                rs.discarded_records.to_string(),
            ]);
        }
    }
    if let Some(js) = &journal_stats {
        t.row(vec!["journal records".into(), js.records.to_string()]);
        t.row(vec!["journal bytes".into(), js.bytes.to_string()]);
        t.row(vec![
            "journal checkpoints".into(),
            js.checkpoints.to_string(),
        ]);
    }
    t.row(vec![
        "makespan (s)".into(),
        format!("{:.1}", traced.makespan()),
    ]);
    t.row(vec![
        "avg JCT (s)".into(),
        format!("{:.1}", traced.avg_jct()),
    ]);
    // End-of-run packing efficiency against the fluid one-big-bin oracle
    // (§3.1's upper bound): how close the whole run came to the best any
    // packing could do on this workload.
    let oracle = UpperBoundScheduler::new().simulate(&workload, cluster.total_capacity());
    if oracle.complete() && traced.makespan() > 0.0 {
        t.row(vec![
            "oracle makespan (s)".into(),
            format!("{:.1}", oracle.makespan()),
        ]);
        t.row(vec![
            "packing efficiency vs oracle".into(),
            format!("{:.3}", (oracle.makespan() / traced.makespan()).min(1.0)),
        ]);
    }
    for name in [
        names::ENGINE_EVENTS,
        names::PLACEMENTS,
        names::PLACEMENT_PLANS,
        names::RECOMPUTE_VISITS,
        names::FLOW_RETIMES,
        names::REJECTED_ASSIGNMENTS,
        names::TASK_RETRIES,
        names::TRACKER_REPORTS,
    ] {
        t.row(vec![name.into(), obs.metrics.counter(name).to_string()]);
    }
    if shards > 1 {
        // The sharded driver's commit-stage outcome: rejected proposals
        // and how many intra-heartbeat retry rounds they triggered.
        for name in [names::SCHED_CONFLICTS, names::CONFLICT_RETRY_ROUNDS] {
            t.row(vec![name.into(), obs.metrics.counter(name).to_string()]);
        }
        t.row(vec![
            names::CONFLICT_RETRY_PEAK.into(),
            format!(
                "{:.0}",
                obs.metrics.gauge(names::CONFLICT_RETRY_PEAK).unwrap_or(0.0)
            ),
        ]);
    }
    for name in [names::HEARTBEAT_NS, names::SCHEDULE_NS] {
        if let Some(h) = obs.metrics.histogram(name) {
            t.row(vec![format!("{name} (us)"), hist_us(h)]);
        }
    }
    // Per-shard pass wall-times, already in µs (only the sharded driver
    // records these).
    if let Some(h) = obs.metrics.histogram(names::SHARD_HEARTBEAT_US) {
        t.row(vec![
            format!("{} (us)", names::SHARD_HEARTBEAT_US),
            tetris_obs::summary::histogram_line(h, 1.0, ""),
        ]);
    }
    t.row(vec![
        "noop run identical".to_string(),
        String::from(if identical { "yes" } else { "NO (BUG)" }),
    ]);

    let mut out = String::new();
    if let Some(path) = &opts.trace {
        out.push_str(&format!("trace      -> {path}\n"));
    }
    if let Some(path) = &opts.metrics {
        out.push_str(&format!("metrics    -> {path}\n"));
    }
    if let Some(path) = &opts.timeseries {
        out.push_str(&format!("timeseries -> {path}\n"));
    }
    if let Some(path) = &opts.journal {
        out.push_str(&format!("journal    -> {path}\n"));
    }
    if let Some(path) = &opts.outcome {
        out.push_str(&format!("outcome    -> {path}\n"));
    }
    out.push('\n');
    out.push_str(&t.render());
    if !samples.is_empty() {
        out.push_str("\ntelemetry\n");
        out.push_str(&SeriesSummary::compute(&samples).render());
    }
    if !identical {
        return Err(format!(
            "observed run diverged from unobserved control run\n{out}"
        ));
    }
    Ok(out)
}

fn hist_us(h: &Histogram) -> String {
    tetris_obs::summary::histogram_line(h, 1e3, "")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(trace: &std::path::Path, metrics: &std::path::Path) -> InstrumentOpts {
        InstrumentOpts {
            trace: Some(trace.to_str().unwrap().into()),
            metrics: Some(metrics.to_str().unwrap().into()),
            ..InstrumentOpts::default()
        }
    }

    #[test]
    fn instrumented_run_writes_parseable_outputs() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("tetris-instr-{}.jsonl", std::process::id()));
        let metrics = dir.join(format!("tetris-instr-{}.json", std::process::id()));
        let report = instrumented_run(&RunCtx::default(), &opts(&trace, &metrics)).unwrap();
        assert!(report.contains("noop run identical"), "{report}");
        assert!(report.contains("yes"), "{report}");

        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            let rec: tetris_obs::event::TraceRecord = serde_json::from_str(line).unwrap();
            // Default traces never carry provenance.
            assert!(!line.contains("\"provenance\""), "{line}");
            let _ = rec;
        }

        let snap: tetris_obs::MetricsSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(snap.counters["placements"] > 0);
        let hb = &snap.histograms["heartbeat_ns"];
        assert!(hb.count > 0);
        assert!(hb.p50.unwrap() > 0 && hb.p99.unwrap() > 0);
        // --metrics implies in-memory telemetry: one sample per heartbeat.
        assert!(!snap.timeseries.is_empty());
        assert!(snap.timeseries.windows(2).all(|p| p[0].t <= p[1].t));

        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn sharded_run_is_deterministic_and_surfaces_conflict_metrics() {
        // shards=2 routes the reference run through the Omega-style
        // sharded driver. The in-run identity cross-check (traced vs
        // unobserved control) is the determinism gate; here we also pin
        // that the commit-stage metrics reach the summary table.
        let o = InstrumentOpts {
            shards: 2,
            ..InstrumentOpts::default()
        };
        let report = instrumented_run(&RunCtx::default(), &o).unwrap();
        assert!(report.contains("noop run identical"), "{report}");
        assert!(!report.contains("NO (BUG)"), "{report}");
        assert!(report.contains("scheduler shards"), "{report}");
        assert!(report.contains(names::SCHED_CONFLICTS), "{report}");
        assert!(report.contains(names::CONFLICT_RETRY_ROUNDS), "{report}");
        assert!(report.contains(names::SHARD_HEARTBEAT_US), "{report}");
    }

    #[test]
    fn journaled_crash_recovers_to_the_uninterrupted_outcome() {
        // Kill the scheduler at heartbeat 5, recover from the journal,
        // and lean on the in-run identity cross-check: instrumented_run
        // errors out unless the recovered outcome is byte-identical to
        // the uninterrupted control run.
        let dir = std::env::temp_dir();
        let journal = dir.join(format!("tetris-instr-{}.wal", std::process::id()));
        let outcome = dir.join(format!("tetris-instr-rec-{}.json", std::process::id()));
        let o = InstrumentOpts {
            journal: Some(journal.to_str().unwrap().into()),
            checkpoint_every: Some(3),
            crash_at: Some(5),
            outcome: Some(outcome.to_str().unwrap().into()),
            ..InstrumentOpts::default()
        };
        let report = instrumented_run(&RunCtx::default(), &o).unwrap();
        assert!(report.contains("scheduler crash heartbeat"), "{report}");
        assert!(report.contains("recovered from checkpoint"), "{report}");
        assert!(report.contains("replayed batches"), "{report}");
        assert!(report.contains("journal records"), "{report}");
        assert!(!report.contains("NO (BUG)"), "{report}");

        // The saved journal round-trips through the strict reader.
        let stats = tetris_sim::Journal::load(&journal)
            .unwrap()
            .verify()
            .unwrap();
        assert!(stats.checkpoints >= 1);
        // Replay is bounded by the checkpoint interval on a clean journal.
        let line = report
            .lines()
            .find(|l| l.contains("replayed batches"))
            .unwrap();
        let replayed: u64 = line
            .split_whitespace()
            .last()
            .unwrap()
            .parse()
            .expect("numeric cell");
        assert!(
            replayed <= 3,
            "replay must be <= checkpoint interval: {line}"
        );

        // The outcome file is the recovered run's SimOutcome, parseable
        // and complete — shell smokes `cmp` it against a crash-free one.
        let text = std::fs::read_to_string(&outcome).unwrap();
        let parsed: tetris_sim::SimOutcome = serde_json::from_str(text.trim()).unwrap();
        assert!(parsed.stats.placements > 0);

        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(&outcome).ok();
    }

    #[test]
    fn journaled_run_without_crash_writes_a_verifiable_journal() {
        let dir = std::env::temp_dir();
        let journal = dir.join(format!("tetris-instr-nc-{}.wal", std::process::id()));
        let o = InstrumentOpts {
            journal: Some(journal.to_str().unwrap().into()),
            checkpoint_every: Some(4),
            ..InstrumentOpts::default()
        };
        let report = instrumented_run(&RunCtx::default(), &o).unwrap();
        assert!(report.contains("journal records"), "{report}");
        assert!(!report.contains("scheduler crash heartbeat"), "{report}");
        let stats = tetris_sim::Journal::load(&journal)
            .unwrap()
            .verify()
            .unwrap();
        assert!(stats.committed_batches > 0);
        assert!(stats.placements > 0);
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn verbose_run_attaches_provenance_and_streams_timeseries() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("tetris-instr-v-{}.jsonl", std::process::id()));
        let ts = dir.join(format!("tetris-instr-ts-{}.jsonl", std::process::id()));
        let o = InstrumentOpts {
            trace: Some(trace.to_str().unwrap().into()),
            metrics: None,
            verbose: true,
            timeseries: Some(ts.to_str().unwrap().into()),
            ..InstrumentOpts::default()
        };
        let report = instrumented_run(&RunCtx::default(), &o).unwrap();
        assert!(report.contains("telemetry"), "{report}");
        assert!(report.contains("fragmentation"), "{report}");

        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(
            text.contains("\"provenance\""),
            "verbose trace must carry provenance"
        );
        assert!(text.contains("\"rejected\""));

        let ts_text = std::fs::read_to_string(&ts).unwrap();
        assert!(!ts_text.is_empty());
        for line in ts_text.lines() {
            let _: tetris_obs::TelemetrySample = serde_json::from_str(line).unwrap();
        }

        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&ts).ok();
    }
}
