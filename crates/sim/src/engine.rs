//! The simulation engine: builder + event loop.

use std::borrow::Cow;
use std::time::Instant;

use tetris_obs::{names, Event, Obs};
use tetris_resources::ResourceVec;
use tetris_workload::{TaskUid, Workload};

use crate::cluster::{ClusterConfig, MachineId};
use crate::config::SimConfig;
use crate::events::{EventKind, EventQueue};
use crate::fault::FaultKind;
use crate::journal::{Journal, JournalRecord, JOURNAL_VERSION};
use crate::outcome::{EngineStats, JobRecord, MachineSample, Sample, SimOutcome, TaskRecord};
use crate::recovery::{
    run_fingerprint, CheckpointState, Recovered, RecoveryError, ReplayPlan, RunResult,
};
use crate::state::{DirtySet, Phase, SimState, TaskCompletion};
use crate::time::SimTime;
use crate::view::{ClusterView, SchedulerEvent, SchedulerPolicy};
use tetris_workload::JobId;

/// Cap on re-invocations of the policy within one scheduling round; guards
/// against a policy that keeps returning assignments the engine rejects.
const MAX_SCHEDULE_ROUNDS: usize = 16;

/// Interned preemption-reason tags: `&'static str` into the event's `Cow`
/// field, so emitting a retry allocates nothing for the reason.
const REASON_FAILURE_RETRY: &str = "failure_retry";
const REASON_MACHINE_CRASH: &str = "machine_crash";
const REASON_PRIORITY_PREEMPTION: &str = "priority_preemption";

/// Builder for one simulation run.
///
/// ```
/// use tetris_sim::{ClusterConfig, Simulation, GreedyFifo};
/// use tetris_resources::MachineSpec;
/// use tetris_workload::WorkloadSuiteConfig;
///
/// let cluster = ClusterConfig::uniform(4, MachineSpec::paper_large());
/// let jobs = WorkloadSuiteConfig::small().generate(7);
/// let outcome = Simulation::build(cluster, jobs)
///     .scheduler(GreedyFifo::new())
///     .seed(7)
///     .run();
/// assert!(outcome.all_jobs_completed());
/// ```
pub struct Simulation<'o> {
    cluster: ClusterConfig,
    workload: Workload,
    cfg: SimConfig,
    policy: Option<Box<dyn SchedulerPolicy>>,
    obs: Option<&'o mut Obs>,
}

impl Simulation<'static> {
    /// Start configuring a run of `workload` on `cluster`.
    pub fn build(cluster: ClusterConfig, workload: Workload) -> Self {
        Simulation {
            cluster,
            workload,
            cfg: SimConfig::default(),
            policy: None,
            obs: None,
        }
    }
}

impl<'o> Simulation<'o> {
    /// Set the scheduling policy (required). Accepts both concrete
    /// policies and `Box<dyn SchedulerPolicy>` (heterogeneous sweeps)
    /// through one entry point.
    #[must_use]
    pub fn scheduler(mut self, p: impl Into<Box<dyn SchedulerPolicy>>) -> Self {
        self.policy = Some(p.into());
        self
    }

    /// Replace the whole config.
    #[must_use]
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Shorthand: set the simulator seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Attach an observability context: decision events go to its
    /// recorder, heartbeat timings and counters to its metrics registry.
    /// Observability never perturbs the run — the outcome is identical
    /// with or without it (enforced by an integration test).
    #[must_use]
    pub fn observe<'b>(self, obs: &'b mut Obs) -> Simulation<'b> {
        Simulation {
            cluster: self.cluster,
            workload: self.workload,
            cfg: self.cfg,
            policy: self.policy,
            obs: Some(obs),
        }
    }

    /// Run to completion (or the hard stop) and return the outcome.
    ///
    /// # Panics
    /// On invalid configuration or workload — these are programming errors
    /// in experiment setup, not runtime conditions to recover from. Also
    /// panics if the fault plan configures a
    /// [`SchedulerCrash`](crate::SchedulerCrash): a crash is a
    /// [`RunResult`], so callers expecting one use
    /// [`Simulation::run_result`].
    pub fn run(self) -> SimOutcome {
        assert!(
            self.cfg.faults.sched_crash.is_none(),
            "sched_crash configured: use run_result(), which can report the crash"
        );
        match self
            .run_core(None, None, None)
            .expect("no replay: recovery errors are impossible")
        {
            RunResult::Completed(outcome) => *outcome,
            RunResult::Crashed { .. } => unreachable!("sched_crash asserted off above"),
        }
    }

    /// Run like [`Simulation::run`], optionally appending every engine
    /// event and commit decision to a write-ahead `journal`, and report
    /// how the run ended instead of panicking when the fault plan's
    /// [`SchedulerCrash`](crate::SchedulerCrash) fires (DESIGN.md §15).
    pub fn run_result(self, journal: Option<&mut Journal>) -> RunResult {
        self.run_core(journal, None, None)
            .expect("no replay: recovery errors are impossible")
    }

    /// Recover a crashed run from its journal: restore the most recent
    /// checkpoint, deterministically replay the committed batches past it,
    /// then continue live to completion. The recovered outcome is
    /// byte-identical to what the uninterrupted run would have produced.
    ///
    /// The builder must describe the run the journal was written by
    /// (cluster, workload, seed) — recovery refuses on fingerprint
    /// mismatch. A configured `sched_crash` is ignored: recovery always
    /// runs to the end. Torn trailing records (a mid-commit crash's
    /// artifact) are discarded, never replayed.
    pub fn recover(self, journal: &Journal) -> Result<Recovered, RecoveryError> {
        let fingerprint = run_fingerprint(&self.cluster, &self.workload, self.cfg.seed);
        let (cp, samples, mut plan) = crate::recovery::plan_recovery(journal, fingerprint)?;
        match self.run_core(None, Some(&mut plan), Some((cp, samples)))? {
            RunResult::Completed(outcome) => Ok(Recovered {
                outcome: *outcome,
                stats: plan.stats,
            }),
            RunResult::Crashed { .. } => unreachable!("resumed runs ignore sched_crash"),
        }
    }

    /// The engine loop behind [`run`](Simulation::run),
    /// [`run_result`](Simulation::run_result) and
    /// [`recover`](Simulation::recover): optionally journaling (live runs),
    /// optionally substituting journaled decisions for policy calls
    /// (`replay`), optionally starting from a restored checkpoint instead
    /// of a fresh state (`resume`).
    fn run_core(
        self,
        mut journal: Option<&mut Journal>,
        mut replay: Option<&mut ReplayPlan>,
        resume: Option<(CheckpointState<'static>, Vec<Sample>)>,
    ) -> Result<RunResult, RecoveryError> {
        let mut policy = self.policy.expect("Simulation requires a scheduler");
        self.cfg.validate().expect("invalid SimConfig");
        self.workload
            .validate_for_cluster(self.cluster.len())
            .expect("invalid workload");
        assert!(!self.cluster.is_empty());
        assert!(
            self.cfg.machine_taints.is_empty()
                || self.cfg.machine_taints.len() == self.cluster.len(),
            "machine_taints defines {} entries for a {}-machine cluster",
            self.cfg.machine_taints.len(),
            self.cluster.len()
        );

        // Without an attached context the engine observes into a local
        // noop one (discarded at the end), so the loop below never
        // branches on "is observability on". `observing` gates only the
        // extra state walks (pending-task counts) that would otherwise
        // cost time for nobody.
        let observing = self.obs.is_some();
        let mut local_obs;
        let obs: &mut Obs = match self.obs {
            Some(o) => o,
            None => {
                local_obs = Obs::noop();
                &mut local_obs
            }
        };

        // Verbose tracing asks policies, through the views `schedule`
        // sees, to attach decision provenance (rejected candidates, cache
        // bookkeeping) to each assignment. This is pure extra bookkeeping
        // on the policy side — capture must never change which
        // assignments are produced (the noop-identity test covers the
        // default path; `schedule_equivalence` the policies).
        let verbose = obs.verbose();

        let tracker_aware = policy.uses_tracker();

        // The journal header carries a fingerprint of the builder's
        // inputs, computed before they are consumed below. Recovery
        // refuses a journal whose fingerprint disagrees with its builder.
        let fingerprint = journal
            .is_some()
            .then(|| run_fingerprint(&self.cluster, &self.workload, self.cfg.seed));
        // A scheduler crash fires only on a live run: recovering *from* a
        // crash must reach the end, whatever the builder's plan says.
        let sched_crash = if resume.is_some() {
            None
        } else {
            self.cfg.faults.sched_crash
        };
        debug_assert!(
            journal.is_none() || resume.is_none(),
            "journaling a resumed run is not supported"
        );

        let mut dirty = DirtySet::default();
        let (mut state, mut queue, mut stats, mut samples, mut heartbeats) = match resume {
            // A restored checkpoint was taken at a batch boundary: the
            // dirty set was empty and every pending event (including the
            // next TrackerReport and remaining fault schedule) is inside
            // its event-queue snapshot, so no re-seeding happens here.
            Some((mut cp, samples)) => {
                // Persistent policy state (reservations, learned demand
                // families) rides in the checkpoint; hand it back before
                // the policy sees any event or schedule call, so replayed
                // heartbeats re-derive the original decisions.
                if let Some(ps) = cp.policy_state.take() {
                    policy.import_state(&ps);
                }
                let heartbeat = cp.heartbeat;
                let (state, queue, stats) = cp
                    .restore(self.cluster, self.workload, self.cfg)
                    .map_err(|msg| RecoveryError::ReplayDivergence {
                        heartbeat,
                        msg: msg.into(),
                    })?;
                (state, queue, stats, samples, heartbeat)
            }
            None => {
                let mut state = SimState::new(self.cluster, self.workload, self.cfg);
                let mut queue = EventQueue::new();

                // Seed the queue.
                for job in &state.workload.jobs {
                    queue.push(
                        SimTime::from_secs(job.arrival),
                        EventKind::JobArrival(job.id),
                    );
                }
                for (i, e) in state.cfg.external_loads.iter().enumerate() {
                    queue.push(SimTime::from_secs(e.start), EventKind::ExternalStart(i));
                    queue.push(
                        SimTime::from_secs(e.start + e.duration),
                        EventKind::ExternalEnd(i),
                    );
                }
                if state.cfg.sample_period.is_some() {
                    queue.push(SimTime::ZERO, EventKind::Sample);
                }
                queue.push(
                    SimTime::from_secs(state.cfg.tracker_period),
                    EventKind::TrackerReport,
                );
                // Fault plan expansion draws from the sim RNG *after* all other
                // seeding, and only when enabled: a disabled plan draws nothing
                // and pushes nothing, keeping fault-free runs byte-identical.
                if state.cfg.faults.enabled() {
                    let plan = state.cfg.faults.clone();
                    let expanded =
                        plan.expand(state.machines.len(), state.cfg.max_time, &mut state.rng);
                    state.tracker_modes = expanded.tracker_modes.clone();
                    state.tracker_modes_baseline = expanded.tracker_modes;
                    for (t, k) in expanded.events {
                        let kind = match k {
                            FaultKind::Down(m) => EventKind::MachineDown(MachineId(m)),
                            FaultKind::Up(m) => EventKind::MachineUp(MachineId(m)),
                            FaultKind::SlowStart(m) => EventKind::SlowdownStart(MachineId(m)),
                            FaultKind::SlowEnd(m) => EventKind::SlowdownEnd(MachineId(m)),
                            FaultKind::Flake(m) => EventKind::TrackerFlake(MachineId(m)),
                        };
                        queue.push(SimTime::from_secs(t), kind);
                    }
                }
                (state, queue, EngineStats::default(), Vec::new(), 0u64)
            }
        };

        // Journal prologue: identify the run, then a genesis checkpoint so
        // recovery always has a snapshot to restore, however early the
        // crash.
        let mut checkpoints_written = 0u64;
        // Samples already in the journal (as `Samples` records).
        let mut samples_journaled = 0usize;
        if let Some(j) = journal.as_deref_mut() {
            j.append(&JournalRecord::RunHeader {
                version: JOURNAL_VERSION,
                seed: state.cfg.seed,
                fingerprint: fingerprint.expect("fingerprint computed when journaling"),
                checkpoint_every: state.cfg.checkpoint_every,
            });
            j.append(&JournalRecord::Checkpoint {
                heartbeat: heartbeats,
                state: Box::new(CheckpointState::capture(
                    &state,
                    &queue,
                    &stats,
                    samples_journaled,
                    heartbeats,
                    policy.export_state(),
                )),
            });
            checkpoints_written += 1;
        }

        let max_t = state.cfg.max_sim_time();
        let mut timed_out = false;
        let mut tracker_transitions: Vec<(MachineId, bool)> = Vec::new();
        // Scheduler events accumulated while processing one batch,
        // delivered just before the batch's scheduling rounds. Reused
        // across batches.
        let mut sched_events: Vec<SchedulerEvent> = Vec::new();

        while let Some(time) = queue.peek_time() {
            if time > max_t {
                state.now = max_t;
                timed_out = state.jobs_remaining > 0;
                break;
            }
            state.now = time;

            // One batch: the events queued for this instant as it opens
            // (what a handler pushes at `now` waits for the next), less
            // the completions a handler cancels before their turn.
            let fence = queue.next_seq();
            let mut want_schedule = false;
            let mut want_sample = false;
            sched_events.clear();
            while let Some(ev) = queue.pop_due(time, fence) {
                stats.events += 1;
                obs.metrics.counter_inc(names::ENGINE_EVENTS);
                match ev.kind {
                    EventKind::JobArrival(j) => {
                        state.job_arrives(j);
                        sched_events.push(SchedulerEvent::JobArrived { job: j });
                        obs.emit(state.now.as_secs(), || {
                            let spec = &state.workload.jobs[j.index()];
                            Event::JobArrived {
                                job: j.index(),
                                name: spec.name.clone(),
                                tasks: spec.num_tasks(),
                            }
                        });
                        want_schedule = true;
                    }
                    EventKind::FlowDone { flow } => {
                        if let Some(task) = state.flow_done(flow, &mut dirty, &mut queue) {
                            let done = state.task_complete(task, &mut dirty);
                            push_completion_event(&mut sched_events, &state, task, done);
                            observe_completion(obs, &state, task, done);
                            want_schedule = true;
                        }
                    }
                    EventKind::TaskDone { task, gen } => {
                        // Zero-flow tasks: gen is the attempt number at
                        // placement; ignore stale retries.
                        let current = matches!(&state.tasks[task.index()].phase, crate::state::Phase::Running(info) if info.gen == gen);
                        if current {
                            let done = state.task_complete(task, &mut dirty);
                            push_completion_event(&mut sched_events, &state, task, done);
                            observe_completion(obs, &state, task, done);
                            want_schedule = true;
                        }
                    }
                    EventKind::TrackerReport => {
                        tracker_transitions.clear();
                        state.tracker_report(&mut tracker_transitions);
                        for &(m, suspect) in &tracker_transitions {
                            if suspect {
                                obs.metrics.counter_inc(names::FAULT_SUSPECTED);
                                obs.emit(state.now.as_secs(), || Event::MachineSuspected {
                                    machine: m.index(),
                                });
                            } else {
                                obs.metrics.counter_inc(names::FAULT_CLEARED);
                                obs.emit(state.now.as_secs(), || Event::MachineCleared {
                                    machine: m.index(),
                                });
                            }
                        }
                        obs.metrics.counter_inc(names::TRACKER_REPORTS);
                        if observing {
                            obs.metrics.gauge_set(
                                names::TRACKER_USAGE_FRAC,
                                state.tracker_usage_fraction(),
                            );
                        }
                        obs.emit(state.now.as_secs(), || Event::TrackerReport {
                            machines: state.machines.len(),
                        });
                        if state.jobs_remaining > 0 {
                            let next = state.now.after_secs(state.cfg.tracker_period);
                            queue.push(next, EventKind::TrackerReport);
                        }
                        want_schedule = true;
                    }
                    EventKind::Sample => {
                        // Taken after the scheduling phase below, so wave
                        // boundaries don't under-count running tasks.
                        want_sample = true;
                        if let Some(p) = state.cfg.sample_period {
                            if state.jobs_remaining > 0 {
                                queue.push(state.now.after_secs(p), EventKind::Sample);
                            }
                        }
                    }
                    EventKind::ExternalStart(i) => {
                        state.set_external(i, true, &mut dirty);
                        want_schedule = true;
                    }
                    EventKind::ExternalEnd(i) => {
                        state.set_external(i, false, &mut dirty);
                        want_schedule = true;
                    }
                    EventKind::MachineDown(m) => {
                        let rep = state.machine_crash(m, &mut dirty, &mut queue);
                        stats.machine_crashes += 1;
                        stats.crash_killed_attempts +=
                            (rep.requeued.len() + rep.abandoned.len()) as u64;
                        stats.lost_task_seconds += rep.lost_task_seconds;
                        obs.metrics.counter_inc(names::FAULT_CRASHES);
                        obs.metrics.counter_add(
                            names::FAULT_LOST_TASK_SECONDS,
                            rep.lost_task_seconds.round() as u64,
                        );
                        obs.metrics
                            .counter_add(names::FAULT_RETRIES, rep.requeued.len() as u64);
                        obs.metrics
                            .counter_add(names::FAULT_ABANDONED, rep.abandoned.len() as u64);
                        obs.metrics
                            .counter_add(names::FAULT_EVACUATIONS, rep.evacuations as u64);
                        // Scheduler events carry the *host* of each killed
                        // attempt (remote readers run elsewhere); the trace
                        // events below keep attributing to the crashed
                        // machine, matching the pre-event trace format.
                        for &(uid, host) in &rep.requeued {
                            sched_events.push(SchedulerEvent::TaskPreempted {
                                job: JobId(state.task_loc[uid.index()].0),
                                task: uid,
                                machine: host,
                            });
                            obs.emit(state.now.as_secs(), || Event::TaskPreempted {
                                job: state.workload.task(uid).expect("task").job.index(),
                                task: uid.index(),
                                machine: m.index(),
                                reason: REASON_MACHINE_CRASH.into(),
                                priority: None,
                                preempted_by: None,
                            });
                        }
                        for &(uid, host) in &rep.abandoned {
                            sched_events.push(SchedulerEvent::TaskAbandoned {
                                job: JobId(state.task_loc[uid.index()].0),
                                task: uid,
                                machine: host,
                            });
                            obs.emit(state.now.as_secs(), || Event::TaskAbandoned {
                                job: state.workload.task(uid).expect("task").job.index(),
                                task: uid.index(),
                                attempts: state.tasks[uid.index()].attempts,
                            });
                        }
                        sched_events.push(SchedulerEvent::MachineDown { machine: m });
                        obs.emit(state.now.as_secs(), || Event::MachineDown {
                            machine: m.index(),
                            killed: rep.requeued.len() + rep.abandoned.len(),
                            requeued: rep.requeued.len(),
                            abandoned: rep.abandoned.len(),
                            lost_task_seconds: rep.lost_task_seconds,
                            evacuations: rep.evacuations,
                        });
                        want_schedule = true;
                    }
                    EventKind::MachineUp(m) => {
                        state.machine_recover(m);
                        sched_events.push(SchedulerEvent::MachineUp { machine: m });
                        obs.metrics.counter_inc(names::FAULT_RECOVERIES);
                        obs.emit(state.now.as_secs(), || Event::MachineUp {
                            machine: m.index(),
                        });
                        want_schedule = true;
                    }
                    EventKind::SlowdownStart(m) => {
                        let factor = state.cfg.faults.slowdown_factor;
                        state.set_slowdown(m, factor, &mut dirty);
                        obs.metrics.counter_inc(names::FAULT_SLOWDOWNS);
                        obs.emit(state.now.as_secs(), || Event::SlowdownStart {
                            machine: m.index(),
                            factor,
                        });
                        want_schedule = true;
                    }
                    EventKind::SlowdownEnd(m) => {
                        state.set_slowdown(m, 1.0, &mut dirty);
                        obs.emit(state.now.as_secs(), || Event::SlowdownEnd {
                            machine: m.index(),
                        });
                        want_schedule = true;
                    }
                    EventKind::TrackerFlake(m) => {
                        // The doomed machine's tracker goes stale ahead of
                        // its crash; suspicion builds via the ordinary
                        // stale-report detection in `tracker_report`.
                        state.tracker_modes[m.index()] = crate::fault::TrackerMode::Stale;
                        obs.metrics.counter_inc(names::FAULT_FLAKES);
                        obs.emit(state.now.as_secs(), || Event::TrackerFlaky {
                            machine: m.index(),
                        });
                    }
                    EventKind::TaskRestart(task) => {
                        if state.task_restart(task) {
                            sched_events.push(SchedulerEvent::TaskRunnable {
                                job: JobId(state.task_loc[task.index()].0),
                                task,
                            });
                            obs.metrics.counter_inc(names::FAULT_BACKOFF_WAITS);
                            want_schedule = true;
                        }
                    }
                }
            }

            state.recompute_dirty(&mut dirty, &mut queue);

            let did_heartbeat = want_schedule && state.jobs_remaining > 0;
            if did_heartbeat {
                heartbeats += 1;
                // Crash point (a): between batches. Nothing of this
                // heartbeat reaches the journal — recovery resumes exactly
                // at its commit frontier.
                if let Some(c) = sched_crash {
                    if !c.mid_commit && heartbeats == c.at_heartbeat {
                        return Ok(RunResult::Crashed {
                            heartbeat: heartbeats,
                        });
                    }
                }
                let crash_mid_commit =
                    sched_crash.is_some_and(|c| c.mid_commit && heartbeats == c.at_heartbeat);
                if let Some(j) = journal.as_deref_mut() {
                    j.append(&JournalRecord::BatchStart {
                        heartbeat: heartbeats,
                        now_us: state.now.0,
                    });
                }
                // When recovering, the batch journaled for this heartbeat
                // rides along as a witness: the rounds below re-invoke the
                // policy as usual (its checkpointed state makes every
                // decision deterministic) and each applied placement is
                // checked against the journal. Committed batches chain
                // gaplessly from the restored checkpoint, so any
                // misalignment means the journal belongs to a different
                // run (or its payloads lie) — a typed error, never a
                // silent divergence.
                let mut replay_batch = match replay.as_deref_mut() {
                    Some(p) if !p.batches.is_empty() => {
                        let b = p.batches.pop_front().expect("checked non-empty");
                        if b.heartbeat != heartbeats {
                            return Err(RecoveryError::ReplayDivergence {
                                heartbeat: heartbeats,
                                msg: format!(
                                    "journal holds batch {} at engine heartbeat {heartbeats}",
                                    b.heartbeat
                                ),
                            });
                        }
                        if b.now_us != state.now.0 {
                            return Err(RecoveryError::ReplayDivergence {
                                heartbeat: heartbeats,
                                msg: format!(
                                    "journaled batch time {}µs, engine at {}µs",
                                    b.now_us, state.now.0
                                ),
                            });
                        }
                        Some(b)
                    }
                    _ => None,
                };
                // Deliver the batch's scheduler events before the rounds'
                // schedule calls — the protocol documented on
                // [`SchedulerEvent`].
                {
                    let view = ClusterView::new(&state, tracker_aware);
                    for e in &sched_events {
                        policy.on_event(&view, e);
                    }
                    obs.metrics
                        .counter_add(names::SCHED_EVENTS, sched_events.len() as u64);
                }
                // The freed-machine hints are fixed for the heartbeat
                // (contract and measured reason on
                // `ClusterView::freed_machines`): frees the rounds below
                // cause themselves — priority evictions — are dropped.
                let hints = state.freed_hint.len();
                // One "resources freed → pick tasks" pass: the heartbeat
                // of a real cluster scheduler. Timed end-to-end into the
                // continuous version of the paper's Table-8 measurement.
                let pending_before =
                    observing.then(|| ClusterView::new(&state, tracker_aware).num_pending());
                let placed_before = stats.placements;
                let calls_before = stats.schedule_calls;
                let rejected_before = stats.rejected_assignments;
                let heartbeat_start = Instant::now();
                for round in 0..MAX_SCHEDULE_ROUNDS {
                    let schedule_start = Instant::now();
                    let assignments = {
                        let view = ClusterView::new(&state, tracker_aware).capturing(verbose);
                        stats.schedule_calls += 1;
                        policy.schedule(&view)
                    };
                    obs.metrics.observe(
                        names::SCHEDULE_NS,
                        schedule_start.elapsed().as_nanos() as u64,
                    );
                    if assignments.is_empty() {
                        break;
                    }
                    // Crash point (b): mid-commit. Only the first half of
                    // this heartbeat's first-round placements reach the
                    // journal and no commit record does — with a sharded
                    // policy, that is some shards' plans journaled and
                    // others lost. Recovery discards the torn batch and
                    // re-derives the frontier at the last commit.
                    let cut = if round == 0 && crash_mid_commit {
                        assignments.len() / 2
                    } else {
                        usize::MAX
                    };
                    let mut applied = 0usize;
                    let mut placed = false;
                    for a in assignments {
                        // Priority-preemption guard (DESIGN.md §16):
                        // honoring an eviction list requires preemption
                        // enabled, every victim still running on the
                        // target machine, and victim job priority
                        // *strictly below* the placing job's — the
                        // engine-enforced no-priority-inversion
                        // invariant. One invalid victim rejects the
                        // assignment whole; nothing is torn down first.
                        let evictions_valid = a.evict.is_empty()
                            || (state.cfg.preemption && {
                                let placer =
                                    state.workload.jobs[state.task_loc[a.task.index()].0].priority;
                                a.evict.iter().all(|&v| {
                                    matches!(
                                        &state.tasks[v.index()].phase,
                                        Phase::Running(info) if info.machine == a.machine
                                    ) && state.workload.jobs[state.task_loc[v.index()].0].priority
                                        < placer
                                })
                            });
                        if evictions_valid && state.assignment_valid(a.task, a.machine) {
                            if applied >= cut {
                                return Ok(RunResult::Crashed {
                                    heartbeat: heartbeats,
                                });
                            }
                            applied += 1;
                            // Replay cross-check: the restored policy must
                            // re-derive exactly the journaled decision
                            // sequence, placement by placement.
                            if let Some(b) = replay_batch.as_mut() {
                                let expected = b.expected.pop_front();
                                if expected != Some((round as u32, a.task, a.machine)) {
                                    return Err(RecoveryError::ReplayDivergence {
                                        heartbeat: heartbeats,
                                        msg: format!(
                                            "policy placed task {} on machine {} in round \
                                             {round}, journal expected {expected:?}",
                                            a.task.index(),
                                            a.machine.index(),
                                        ),
                                    });
                                }
                            }
                            if let Some(j) = journal.as_deref_mut() {
                                j.append(&JournalRecord::Placement {
                                    task: a.task,
                                    machine: a.machine,
                                    round: round as u32,
                                });
                            }
                            // Evictions land before the placement. They
                            // are *not* journaled: replay re-invokes the
                            // policy live, which re-derives the same
                            // eviction lists, and a torn mid-commit
                            // batch is discarded wholesale — so partial
                            // eviction application can never leak into
                            // recovery.
                            for &v in &a.evict {
                                let vjob = JobId(state.task_loc[v.index()].0);
                                let Some((_lost, host)) =
                                    state.preempt_task(v, &mut dirty, &mut queue)
                                else {
                                    continue;
                                };
                                stats.preemptions += 1;
                                obs.metrics.counter_inc(names::PREEMPTIONS);
                                {
                                    let view = ClusterView::new(&state, tracker_aware);
                                    policy.on_event(
                                        &view,
                                        &SchedulerEvent::TaskPreempted {
                                            job: vjob,
                                            task: v,
                                            machine: host,
                                        },
                                    );
                                }
                                obs.metrics.counter_inc(names::SCHED_EVENTS);
                                let vprio = state.workload.jobs[vjob.index()].priority.0;
                                obs.emit(state.now.as_secs(), || Event::TaskPreempted {
                                    job: vjob.index(),
                                    task: v.index(),
                                    machine: host.index(),
                                    reason: REASON_PRIORITY_PREEMPTION.into(),
                                    priority: Some(vprio),
                                    preempted_by: Some(a.task.index()),
                                });
                            }
                            state.apply_assignment(a.task, a.machine, &mut dirty, &mut queue);
                            stats.placements += 1;
                            obs.metrics.counter_inc(names::PLACEMENTS);
                            placed = true;
                            {
                                let view = ClusterView::new(&state, tracker_aware);
                                policy.on_event(
                                    &view,
                                    &SchedulerEvent::TaskPlaced {
                                        job: JobId(state.task_loc[a.task.index()].0),
                                        task: a.task,
                                        machine: a.machine,
                                    },
                                );
                            }
                            obs.metrics.counter_inc(names::SCHED_EVENTS);
                            obs.emit(state.now.as_secs(), || {
                                let job = state.workload.task(a.task).expect("task").job;
                                // Present only for non-default priority:
                                // all-batch traces stay byte-identical.
                                let p = state.workload.jobs[job.index()].priority.0;
                                Event::TaskPlaced {
                                    job: job.index(),
                                    task: a.task.index(),
                                    machine: a.machine.index(),
                                    alignment_score: a.scores.map(|s| s.alignment),
                                    srtf_score: a.scores.map(|s| s.srtf),
                                    combined_score: a.scores.map(|s| s.combined),
                                    considered_machines: a.scores.map(|s| s.considered_machines),
                                    // Default traces stay byte-identical
                                    // whatever a policy attaches.
                                    provenance: a.provenance.filter(|_| verbose),
                                    priority: (p != 0).then_some(p),
                                }
                            });
                        } else {
                            stats.rejected_assignments += 1;
                            obs.metrics.counter_inc(names::REJECTED_ASSIGNMENTS);
                        }
                    }
                    state.freed_hint.truncate(hints);
                    state.recompute_dirty(&mut dirty, &mut queue);
                    if !placed {
                        break;
                    }
                }
                // Batch-end cross-check: everything the journal committed
                // for this heartbeat was re-derived, and the policy's
                // call/rejection tallies match the commit record — the
                // recovered `EngineStats` is byte-identical to the
                // uninterrupted run's or recovery fails loudly.
                if let Some(b) = replay_batch.take() {
                    if !b.expected.is_empty() {
                        return Err(RecoveryError::ReplayDivergence {
                            heartbeat: heartbeats,
                            msg: format!(
                                "{} journaled placements were not re-derived by the policy",
                                b.expected.len()
                            ),
                        });
                    }
                    let calls = stats.schedule_calls - calls_before;
                    let rejected = stats.rejected_assignments - rejected_before;
                    if calls != b.schedule_calls || rejected != b.rejected {
                        return Err(RecoveryError::ReplayDivergence {
                            heartbeat: heartbeats,
                            msg: format!(
                                "replayed batch made {calls} schedule calls ({} journaled) \
                                 and {rejected} rejections ({} journaled)",
                                b.schedule_calls, b.rejected
                            ),
                        });
                    }
                }
                if crash_mid_commit {
                    // The policy produced nothing to tear this heartbeat —
                    // die anyway, before the commit record, so the batch
                    // still reads as uncommitted.
                    return Ok(RunResult::Crashed {
                        heartbeat: heartbeats,
                    });
                }
                if let Some(j) = journal.as_deref_mut() {
                    // The commit makes the batch durable. Its deltas let
                    // recovery cross-check the replayed policy's tallies
                    // without trusting them.
                    j.append(&JournalRecord::BatchCommit {
                        heartbeat: heartbeats,
                        placements: stats.placements - placed_before,
                        schedule_calls: stats.schedule_calls - calls_before,
                        rejected: stats.rejected_assignments - rejected_before,
                    });
                }
                let wall_ns = heartbeat_start.elapsed().as_nanos() as u64;
                obs.metrics.observe(names::HEARTBEAT_NS, wall_ns);
                if let Some(pending) = pending_before {
                    obs.metrics.gauge_set(names::PENDING_TASKS, pending as f64);
                    obs.emit(state.now.as_secs(), || Event::HeartbeatProcessed {
                        pending_tasks: pending,
                        placements: stats.placements - placed_before,
                        wall_ns,
                    });
                }
                // Hints are consumed by the whole scheduling loop, not per
                // round, so a policy can keep focusing on freed machines
                // across its re-invocations.
                state.freed_hint.clear();

                // Telemetry time-series: one sample per heartbeat, taken
                // after the scheduling pass so each point describes the
                // cluster the *next* decision will see. Gated on an
                // attached collector; the computation is a pure read of
                // ledger state (no wall clock, no RNG), so the stream is
                // byte-identical across runs.
                if obs.sampling() {
                    let sample = crate::telemetry::sample_cluster(&state);
                    obs.record_sample(sample);
                }

                // The commit frontier is reached the moment the last
                // journaled batch is consumed; everything after runs live.
                if let Some(p) = replay.as_deref_mut() {
                    finish_replay(p, &mut obs.metrics);
                }
            }

            if want_sample {
                samples.push(take_sample(&state));
            }

            // Periodic checkpoint, at the batch boundary the snapshot
            // contract requires (dirty set drained, samples current): a
            // resumed run re-enters the loop exactly here.
            if did_heartbeat && heartbeats % state.cfg.checkpoint_every == 0 {
                if let Some(j) = journal.as_deref_mut() {
                    // History is journaled once: the samples taken since
                    // the previous checkpoint go ahead of this one, which
                    // stores only their running count.
                    if samples.len() > samples_journaled {
                        j.append(&JournalRecord::Samples {
                            samples: Cow::Borrowed(&samples[samples_journaled..]),
                        });
                        samples_journaled = samples.len();
                    }
                    j.append(&JournalRecord::Checkpoint {
                        heartbeat: heartbeats,
                        state: Box::new(CheckpointState::capture(
                            &state,
                            &queue,
                            &stats,
                            samples_journaled,
                            heartbeats,
                            policy.export_state(),
                        )),
                    });
                    checkpoints_written += 1;
                }
            }

            if state.jobs_remaining == 0 {
                break;
            }
        }

        if state.jobs_remaining > 0 {
            timed_out = true;
        }

        // Drain the free-capacity index's hit/prune counters into the
        // registry (zero-gated: runs without indexed queries — or with
        // the index disabled — add no names to the snapshot).
        let idx_stats = state.index.take_stats();
        if idx_stats.queries > 0 {
            obs.metrics
                .counter_add(names::INDEX_QUERIES, idx_stats.queries);
        }
        if idx_stats.pruned > 0 {
            obs.metrics
                .counter_add(names::INDEX_PRUNED, idx_stats.pruned);
        }
        if idx_stats.returned > 0 {
            obs.metrics
                .counter_add(names::INDEX_RETURNED, idx_stats.returned);
        }
        if idx_stats.env_visits > 0 {
            obs.metrics
                .counter_add(names::INDEX_ENV_VISITS, idx_stats.env_visits);
        }
        let plans = state.plans.swap(0, std::sync::atomic::Ordering::Relaxed);
        for (name, count) in [
            (names::PLACEMENT_PLANS, plans),
            (names::RECOMPUTE_VISITS, state.recompute_visits),
            (names::FLOW_RETIMES, state.flow_retimes),
        ] {
            if count > 0 {
                obs.metrics.counter_add(name, count);
            }
        }
        // Let the policy contribute its own accumulated metrics (e.g. the
        // sharded driver's conflict counters) — zero-gated like the index
        // drain above, so non-reporting policies add no snapshot names.
        policy.drain_metrics(&mut obs.metrics);

        // A recovery whose journal held no batches past the checkpoint
        // never entered a heartbeat replay — close it out here.
        if let Some(p) = replay {
            finish_replay(p, &mut obs.metrics);
        }
        // Journal accounting (zero-gated by journaling itself: runs
        // without a journal add no names to the snapshot).
        if let Some(j) = journal.as_deref() {
            obs.metrics
                .counter_add(names::JOURNAL_RECORDS, j.appended_records());
            obs.metrics
                .counter_add(names::JOURNAL_BYTES, j.bytes().len() as u64);
            obs.metrics
                .counter_add(names::CHECKPOINTS, checkpoints_written);
        }

        obs.flush();
        let scheduler = policy.name().to_string();
        Ok(RunResult::Completed(Box::new(finalize(
            state, scheduler, samples, stats, timed_out,
        ))))
    }
}

/// Close out a replay once its batches are exhausted: stamp the recovery
/// wall clock (restore begin → frontier reached) and publish the
/// recovery counters. Idempotent past the first call.
fn finish_replay(p: &mut ReplayPlan, metrics: &mut tetris_obs::MetricsRegistry) {
    if p.replay_done || !p.batches.is_empty() {
        return;
    }
    p.replay_done = true;
    p.stats.recovery_wall_us = p.started.elapsed().as_micros() as u64;
    metrics.counter_add(names::RECOVERY_REPLAYED_BATCHES, p.stats.replayed_batches);
    metrics.counter_add(
        names::RECOVERY_REPLAYED_PLACEMENTS,
        p.stats.replayed_placements,
    );
    if p.stats.discarded_records > 0 {
        metrics.counter_add(names::RECOVERY_DISCARDED_RECORDS, p.stats.discarded_records);
    }
    metrics.observe(names::RECOVERY_LATENCY_US, p.stats.recovery_wall_us);
}

/// Push the [`SchedulerEvent`] matching a [`TaskCompletion`], if any.
fn push_completion_event(
    out: &mut Vec<SchedulerEvent>,
    state: &SimState,
    task: TaskUid,
    done: TaskCompletion,
) {
    let job = JobId(state.task_loc[task.index()].0);
    match done {
        TaskCompletion::Stale => {}
        TaskCompletion::Requeued { machine } => {
            out.push(SchedulerEvent::TaskPreempted { job, task, machine });
        }
        TaskCompletion::Finished { machine, .. } => {
            out.push(SchedulerEvent::TaskFinished { job, task, machine });
        }
    }
}

/// Emit the trace event and counters matching a [`TaskCompletion`].
fn observe_completion(obs: &mut Obs, state: &SimState, task: TaskUid, done: TaskCompletion) {
    let t = state.now.as_secs();
    match done {
        TaskCompletion::Stale => {}
        TaskCompletion::Requeued { machine } => {
            obs.metrics.counter_inc(names::TASK_RETRIES);
            obs.emit(t, || Event::TaskPreempted {
                job: state.workload.task(task).expect("task").job.index(),
                task: task.index(),
                machine: machine.index(),
                reason: REASON_FAILURE_RETRY.into(),
                priority: None,
                preempted_by: None,
            });
        }
        TaskCompletion::Finished {
            machine, attempts, ..
        } => {
            obs.emit(t, || Event::TaskCompleted {
                job: state.workload.task(task).expect("task").job.index(),
                task: task.index(),
                machine: machine.index(),
                attempts,
            });
        }
    }
}

fn take_sample(state: &SimState) -> Sample {
    let mut cluster_allocated = ResourceVec::zero();
    let mut cluster_usage = ResourceVec::zero();
    let mut running = 0usize;
    let mut machines = state
        .cfg
        .record_machine_samples
        .then(|| Vec::with_capacity(state.machines.len()));
    for ms in &state.machines {
        let usage = ms.usage(&state.flows);
        cluster_allocated += ms.allocated;
        cluster_usage += usage;
        running += ms.running;
        if let Some(v) = machines.as_mut() {
            v.push(MachineSample {
                allocated: ms.allocated,
                usage,
                running: ms.running,
            });
        }
    }
    let per_job_alloc = state
        .cfg
        .record_job_samples
        .then(|| state.jobs.iter().map(|j| j.allocated).collect());
    Sample {
        t: state.now.as_secs(),
        running_tasks: running,
        cluster_allocated,
        cluster_usage,
        machines,
        per_job_alloc,
    }
}

fn finalize(
    state: SimState,
    scheduler: String,
    samples: Vec<Sample>,
    stats: EngineStats,
    timed_out: bool,
) -> SimOutcome {
    let jobs: Vec<JobRecord> = state
        .workload
        .jobs
        .iter()
        .enumerate()
        .map(|(ji, spec)| {
            let js = &state.jobs[ji];
            JobRecord {
                id: spec.id,
                name: spec.name.clone(),
                family: spec.family.clone(),
                arrival: spec.arrival,
                first_start: js.first_start.map(SimTime::as_secs),
                finish: js.finish.map(SimTime::as_secs),
                num_tasks: spec.num_tasks(),
            }
        })
        .collect();

    let mut stats = stats;
    stats.task_failures = state
        .tasks
        .iter()
        .map(|t| (t.attempts.saturating_sub(1)) as u64)
        .sum();
    stats.tasks_abandoned = state.tasks_abandoned;

    let tasks: Vec<TaskRecord> = state
        .workload
        .tasks()
        .map(|spec| {
            let ts = &state.tasks[spec.uid.index()];
            TaskRecord {
                uid: spec.uid,
                job: spec.job,
                machine: ts.machine,
                start: ts.start.map(SimTime::as_secs),
                finish: ts.finish.map(SimTime::as_secs),
                ideal_duration: spec.ideal_duration(),
                planned_duration: ts.planned,
                attempts: ts.attempts,
                abandoned: matches!(ts.phase, Phase::Abandoned),
            }
        })
        .collect();

    SimOutcome {
        scheduler,
        completed: !timed_out,
        final_time: state.now.as_secs(),
        jobs,
        tasks,
        samples,
        stats,
    }
}

/// A deliberately naive reference policy: first-fit in task-uid order over
/// machines in id order, honouring full six-dimension feasibility. Useful
/// as a sanity baseline and for engine tests; not one of the paper's
/// comparators.
#[derive(Debug, Default, Clone)]
pub struct GreedyFifo {
    _private: (),
}

impl GreedyFifo {
    /// New instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SchedulerPolicy for GreedyFifo {
    fn name(&self) -> &str {
        "greedy-fifo"
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<crate::view::Assignment> {
        let query = view.query();
        let mut avail: Vec<ResourceVec> = query.iter_all().map(|m| view.available(m)).collect();
        let mut out = Vec::new();
        for j in view.active_jobs() {
            for t in view.job_pending(j) {
                for m in query.iter_all() {
                    let plan = view.plan(t, m);
                    // Full feasibility: local demand at the host and
                    // disk/net-out demand at every remote input source.
                    let fits = plan.local.fits_within(&avail[m.index()])
                        && plan
                            .remote
                            .iter()
                            .all(|(src, dem)| dem.fits_within(&avail[src.index()]));
                    if fits {
                        avail[m.index()] -= plan.local;
                        for (src, dem) in &plan.remote {
                            avail[src.index()] -= *dem;
                        }
                        out.push(crate::view::Assignment::new(t, m));
                        break;
                    }
                }
            }
        }
        out
    }
}
