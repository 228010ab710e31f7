//! `durable_run`: a journaled run, a scheduler crash three quarters of the
//! way through it, and recovery from the journal alone. The only workload
//! where `sim::journal`, `sim::recovery` and the vendored serde path do
//! the work (> 99 % of its wall); every other workload bypasses them.
//!
//! Sized at 10 machines / 307 tasks, a journaled run of about 0.27 s and
//! 19 MB, 80x the bare run. ISSUE 14's size (820 tasks: 1.7 s, 109 MB, 140x)
//! fits six iterations into a measuring window, too few for a fastest
//! sample that repeats on the builder's host (README "Noise"); the laptop
//! suite at the same checkpoint cadence is 14 s and 1.5 GB of RSS per run.

use tetris_sim::{
    ClusterConfig, Journal, JournalStats, RecoveryStats, RunResult, SchedulerCrash,
    SchedulerPolicy, SimConfig, SimOutcome, Simulation,
};
use tetris_workload::{Workload, WorkloadSuiteConfig};

use super::{
    cluster, outcome_digest, outcome_problems, policy_layer_metrics, tetris, timed, timed_setups,
    workload_layer_metrics, Ops, Opts, WorkloadResult, GENERATOR_SEED,
};
use crate::stats;
use crate::trace::{self_by_name, spanned_if, SharedTracer, Timed, Tracer, CORE};

struct Input {
    cluster: ClusterConfig,
    workload: Workload,
    cfg: SimConfig,
    generate_s: f64,
    /// The bare run: what every journaled, recovered or traced run must
    /// reproduce.
    reference: SimOutcome,
    digest: u64,
    /// Heartbeat the scheduler dies at: 3/4 of the run's committed batches.
    crash_at: u64,
}

/// Tetris, under `Timed` when there is a tracer.
fn policy(tracer: Option<&SharedTracer>) -> Box<dyn SchedulerPolicy> {
    match tracer {
        Some(t) => Box::new(Timed::new(tetris(), t.clone(), &CORE)),
        None => Box::new(tetris()),
    }
}

fn sim(
    cluster: &ClusterConfig,
    workload: &Workload,
    cfg: &SimConfig,
    tracer: Option<&SharedTracer>,
) -> Simulation<'static> {
    Simulation::build(cluster.clone(), workload.clone())
        .scheduler(policy(tracer))
        .config(cfg.clone())
}

impl Input {
    fn sim(&self, cfg: &SimConfig, tracer: Option<&SharedTracer>) -> Simulation<'static> {
        sim(&self.cluster, &self.workload, cfg, tracer)
    }
}

/// One checked journaled run.
struct Journaled {
    run_s: f64,
    journal: Journal,
    /// The strict scan's time and counts, when it was asked for and passed.
    verified: Option<(f64, JournalStats)>,
}

/// A journaled run to completion and, with `verify`, the journal's strict
/// scan after the run's clock has stopped. The scan decodes every
/// checkpoint and costs as much as the run, so the timed iterations leave
/// it to the set-ups and the traced operation.
fn journaled_run(
    input: &Input,
    cfg: &SimConfig,
    verify: bool,
    ops: &mut Ops,
    tracer: Option<&SharedTracer>,
) -> Journaled {
    let mut journal = Journal::new();
    let (result, run_s) = timed(|| {
        spanned_if(tracer, "sim.journal.run", || {
            input.sim(cfg, tracer).run_result(Some(&mut journal))
        })
    });
    let mut problems = match result {
        RunResult::Completed(o) => outcome_problems(&o, Some(input.digest)),
        RunResult::Crashed { heartbeat } => {
            vec![format!(
                "crashed at heartbeat {heartbeat} with no crash configured"
            )]
        }
    };
    let mut verified = None;
    if verify {
        let (scan, verify_s) =
            timed(|| spanned_if(tracer, "sim.journal.verify", || journal.verify()));
        match scan {
            Ok(stats) => verified = Some((verify_s, stats)),
            Err(e) => problems.push(format!("journal does not verify: {e}")),
        }
    }
    ops.record("journaled run", problems);
    Journaled {
        run_s,
        journal,
        verified,
    }
}

/// The same run with the scheduler dying at `input.crash_at`: the journal
/// it leaves behind, all a recovery has to go on.
fn crashed_journal(input: &Input, ops: &mut Ops, tracer: Option<&SharedTracer>) -> Option<Journal> {
    let mut crashing = input.cfg.clone();
    crashing.faults.sched_crash = Some(SchedulerCrash {
        at_heartbeat: input.crash_at,
        mid_commit: false,
    });
    let mut journal = Journal::new();
    let sim = input.sim(&crashing, tracer);
    let result = spanned_if(tracer, "sim.journal.run", || {
        sim.run_result(Some(&mut journal))
    });
    match result {
        RunResult::Crashed { heartbeat } if heartbeat == input.crash_at => {
            ops.record("crashed run", vec![]);
            Some(journal)
        }
        other => {
            ops.record(
                "crashed run",
                vec![format!(
                    "a crash was set at heartbeat {}, the run ended as {}",
                    input.crash_at,
                    match other {
                        RunResult::Crashed { heartbeat } => format!("crashed at {heartbeat}"),
                        RunResult::Completed(_) => "completed".into(),
                    }
                )],
            );
            None
        }
    }
}

/// One checked recovery.
struct Recovery {
    /// Seconds of the whole `recover()` call: scan, restore, replay and
    /// the live tail to completion.
    recover_s: f64,
    stats: RecoveryStats,
}

/// Recover from a crashed run's journal.
fn recover(
    input: &Input,
    journal: &Journal,
    ops: &mut Ops,
    tracer: Option<&SharedTracer>,
) -> Option<Recovery> {
    let (recovered, recover_s) = timed(|| {
        spanned_if(tracer, "sim.recover", || {
            input.sim(&input.cfg, tracer).recover(journal)
        })
    });
    match recovered {
        Ok(rec) => {
            ops.record(
                "recover",
                outcome_problems(&rec.outcome, Some(input.digest)),
            );
            Some(Recovery {
                recover_s,
                stats: rec.stats,
            })
        }
        Err(e) => {
            ops.record("recover", vec![format!("recovery failed: {e}")]);
            None
        }
    }
}

pub fn run(opts: &Opts) -> WorkloadResult {
    let mut r = WorkloadResult::new("durable_run");

    let ((input, setup_ops), setup) = timed_setups(|| {
        let (workload, generate_s) = timed(|| {
            WorkloadSuiteConfig::scaled(opts.size(10, 6), if opts.smoke { 0.03 } else { 0.05 })
                .generate(GENERATOR_SEED)
        });
        let cluster = cluster(opts.size(10, 4));
        let mut cfg = SimConfig::default();
        cfg.seed = opts.seed;
        let reference = sim(&cluster, &workload, &cfg, None).run();
        let mut input = Input {
            digest: outcome_digest(&reference),
            cluster,
            workload,
            cfg,
            generate_s,
            reference,
            crash_at: 0,
        };
        let mut ops = Ops::default();
        ops.record("bare run", outcome_problems(&input.reference, None));
        // How many heartbeats the run commits places the crash. The count
        // does not depend on the checkpoint cadence, so it is read from a
        // journal with the periodic snapshots switched off: 1/80 the cost.
        let wal = journaled_run(&input, &wal_only(&input.cfg), true, &mut ops, None);
        let batches = wal.verified.map_or(0, |(_, st)| st.committed_batches);
        input.crash_at = (batches * 3 / 4).max(1);
        (input, ops)
    });
    r.ops = setup_ops;
    r.outcome_digest = Some(input.digest);

    // One iteration: (a) the journaled run, (b) recovery from the crashed
    // run's journal. The crashed run itself is deterministic and untimed,
    // so it is made once and every iteration recovers from its journal.
    let (mut journaled_s, mut recover_s) = (Vec::new(), Vec::new());
    let mut journal_bytes = 0;
    let mut crashed = None;
    let budget = opts.budget(1);
    while budget.more(journaled_s.len()) {
        let j = journaled_run(&input, &input.cfg, false, &mut r.ops, None);
        journaled_s.push(j.run_s);
        journal_bytes = j.journal.bytes().len();
        drop(j); // before the crashed run's journal is built
        if crashed.is_none() {
            crashed = crashed_journal(&input, &mut r.ops, None);
        }
        if let Some(journal) = &crashed {
            if let Some(rec) = recover(&input, journal, &mut r.ops, None) {
                recover_s.push(rec.recover_s);
            }
        }
        r.mark_peak_rss();
    }
    drop(crashed);

    r.e2e(
        "journaled_run_s",
        stats::median(&journaled_s),
        journaled_s.len(),
    );
    r.e2e("journal_mb", journal_bytes as f64 / 1e6, 1);
    r.e2e("sim_makespan_s", input.reference.makespan(), 1);
    r.e2e("sim_avg_jct_s", input.reference.avg_jct(), 1);
    if !recover_s.is_empty() {
        r.e2e(
            "crash_recover_s",
            stats::median(&recover_s),
            recover_s.len(),
        );
    }
    // One variant: the ten-seed spread of these two is 3-5 % as it is.
    let fastest_ms = |xs: &[f64]| (!xs.is_empty()).then(|| (stats::min(xs) * 1e3, xs.len()));
    r.gated_ops(fastest_ms(&journaled_s), fastest_ms(&recover_s));
    r.finish_timed(setup);

    if opts.traced {
        traced_phase(&input, opts, &mut r);
    }
    r
}

/// The config with every periodic snapshot pushed past the end of the run:
/// what is journaled is the genesis checkpoint and the decision records.
fn wal_only(cfg: &SimConfig) -> SimConfig {
    let mut cfg = cfg.clone();
    cfg.checkpoint_every = u64::MAX;
    cfg
}

fn traced_phase(input: &Input, opts: &Opts, r: &mut WorkloadResult) {
    let tracer = Tracer::shared();
    // An untraced journaled run right before the traced one: the overhead
    // is read from neighbours in time, not against the timed phase.
    let plain_s = journaled_run(input, &input.cfg, false, &mut r.ops, None).run_s;
    let op = tracer.borrow_mut().next_op();
    // The traced operation: the timed phase's iteration, crash included,
    // under `Timed`, plus the journal's strict scan.
    let spans = Some(&tracer);
    let mut traced = journaled_run(input, &input.cfg, true, &mut r.ops, spans);
    traced.journal = Journal::new(); // free it before the crashed run's is built
    let recovery = crashed_journal(input, &mut r.ops, spans)
        .and_then(|journal| recover(input, &journal, &mut r.ops, spans));

    let tr = tracer.borrow();
    let by_name = self_by_name(tr.spans(), Some(op));
    policy_layer_metrics(r, &tr, (op, &by_name), &CORE, None);
    r.layer("bench.spans", by_name.values().map(|v| v.0 as f64).sum(), 1);
    drop(tr);
    r.layer("bench.trace_overhead_frac", traced.run_s / plain_s - 1.0, 1);
    workload_layer_metrics(r, &input.workload, input.generate_s);

    // `sim::journal`: three runs that differ only in what is journaled.
    tracer.borrow_mut().next_op();
    let bare_reps = opts.size(9, 3);
    let bare_s: Vec<f64> = (0..bare_reps)
        .map(|_| {
            let (o, s) = timed(|| {
                spanned_if(Some(&tracer), "sim.run", || {
                    input.sim(&input.cfg, None).run()
                })
            });
            r.ops
                .record("bare run", outcome_problems(&o, Some(input.digest)));
            s
        })
        .collect();
    // All three read as their fastest sample, so that the ratio and the
    // difference below compare code, not the moments the runs were made in.
    let bare_run_s = stats::min(&bare_s);
    let journaled_run_s = plain_s.min(traced.run_s);
    let wal_s: Vec<f64> = (0..bare_reps)
        .map(|_| journaled_run(input, &wal_only(&input.cfg), false, &mut r.ops, None).run_s)
        .collect();
    let wal_only_s = stats::min(&wal_s);
    r.layer("sim.journal.bare_run_s", bare_run_s, bare_reps);
    r.layer("sim.journal.overhead_x", journaled_run_s / bare_run_s, 2);
    r.layer("sim.journal.wal_only_s", wal_only_s, bare_reps);
    r.layer("sim.journal.checkpoint_s", journaled_run_s - wal_only_s, 2);
    if let Some((verify_s, st)) = traced.verified {
        r.layer("sim.journal.verify_s", verify_s, 1);
        r.layer("sim.journal.records", st.records as f64, 1);
        r.layer("sim.journal.bytes", st.bytes as f64, 1);
        r.layer("sim.journal.checkpoints", st.checkpoints as f64, 1);
        r.layer(
            "sim.journal.bytes_per_checkpoint",
            st.bytes as f64 / st.checkpoints.max(1) as f64,
            1,
        );
    }
    if let Some(Recovery {
        recover_s: crash_recover_s,
        stats: st,
        ..
    }) = recovery
    {
        let restore_replay_s = st.recovery_wall_us as f64 / 1e6;
        r.layer("sim.recovery.restore_replay_s", restore_replay_s, 1);
        r.layer(
            "sim.recovery.live_tail_s",
            crash_recover_s - restore_replay_s,
            1,
        );
        r.layer(
            "sim.recovery.replayed_batches",
            st.replayed_batches as f64,
            1,
        );
        r.layer(
            "sim.recovery.discarded_records",
            st.discarded_records as f64,
            1,
        );
        r.layer(
            "sim.recovery.checkpoint_heartbeat",
            st.checkpoint_heartbeat as f64,
            1,
        );
    }
    r.spans = tracer.borrow_mut().take_spans();
}
