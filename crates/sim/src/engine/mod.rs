//! The simulation engine: the builder and the event loop, which batches
//! events by instant. One `impl Engine` block a file (DESIGN.md "Engine
//! and view layers"): `dispatch` turns one popped event into state
//! changes, its heartbeat request and trace output; `heartbeat` runs the
//! policy's rounds and applies what they return. Durability is the
//! [`DecisionLog`]'s: the engine calls it at fixed points.

use tetris_obs::{names, Obs};
use tetris_workload::Workload;

use crate::cluster::{ClusterConfig, MachineId};
use crate::config::SimConfig;
use crate::events::EventKind;
use crate::fault::FaultKind;
use crate::journal::Journal;
use crate::outcome::{finalize, take_sample, EngineStats, Sample, SimOutcome};
use crate::recovery::{run_fingerprint, DecisionLog, Recovered, RecoveryError, RunResult};
use crate::state::SimState;
use crate::time::SimTime;
use crate::tracker::REPORT_PERIOD_SECS;
use crate::view::SchedulerPolicy;

mod dispatch;
mod heartbeat;

use dispatch::Wants;

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
        self.run_core(&mut DecisionLog::Off)
            .expect("no replay: recovery errors are impossible")
            .completed()
            .expect("sched_crash asserted off above")
    }

    /// Run like [`Simulation::run`], optionally appending every engine
    /// event and commit decision to a write-ahead `journal`, and report
    /// how the run ended instead of panicking when the fault plan's
    /// [`SchedulerCrash`](crate::SchedulerCrash) fires (DESIGN.md §15).
    pub fn run_result(self, journal: Option<&mut Journal>) -> RunResult {
        let mut log = match journal {
            Some(j) => DecisionLog::write(j, self.fingerprint(), self.cfg.seed),
            None => DecisionLog::Off,
        };
        self.run_core(&mut log)
            .expect("no replay: recovery errors are impossible")
    }

    /// Recover a crashed run from its journal: re-run this builder's
    /// inputs from heartbeat 0 with its (fresh) policy, checking every
    /// committed batch against the journal, then continue live to
    /// completion. The recovered outcome is byte-identical to what the
    /// uninterrupted run would have produced.
    ///
    /// The builder must describe the run the journal was written by
    /// (cluster, workload, seed) — recovery refuses on fingerprint
    /// mismatch. A configured `sched_crash` is ignored: recovery always
    /// runs to the end. Torn trailing records (a mid-commit crash's
    /// artifact) are discarded, never replayed.
    pub fn recover(mut self, journal: &Journal) -> Result<Recovered, RecoveryError> {
        let mut log = DecisionLog::replay(journal, self.fingerprint())?;
        self.cfg.faults.sched_crash = None;
        let outcome = self
            .run_core(&mut log)?
            .completed()
            .expect("resumed runs ignore sched_crash");
        Ok(Recovered {
            outcome,
            stats: log.recovery_stats(),
        })
    }

    fn fingerprint(&self) -> u64 {
        run_fingerprint(&self.cluster, &self.workload, self.cfg.seed)
    }

    /// The engine loop behind [`run`](Simulation::run),
    /// [`run_result`](Simulation::run_result) and
    /// [`recover`](Simulation::recover), journaling, replaying or neither
    /// as `log` says.
    fn run_core(self, log: &mut DecisionLog<'_>) -> Result<RunResult, RecoveryError> {
        let policy = self.policy.expect("Simulation requires a scheduler");
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
        // noop one (discarded at the end), so the loop never branches on
        // "is observability on". `observing` gates only the work that
        // would otherwise cost time for nobody: the pending-task gauge and
        // the heartbeat and schedule clocks.
        let observing = self.obs.is_some();
        let mut local_obs;
        let obs: &mut Obs = match self.obs {
            Some(o) => o,
            None => {
                local_obs = Obs::noop();
                &mut local_obs
            }
        };

        // Suspicion moves only at reports, and only under a fault plan:
        // without one, a policy that reads no ticks gets none. A policy
        // that uses the tracker gets them whatever it says: its view reads
        // what the reports refresh.
        let ticks = policy.uses_tracker() || policy.reads_ticks() || self.cfg.faults.enabled();
        let mut engine = Engine {
            tracker_aware: policy.uses_tracker(),
            state: seeded(self.cluster, self.workload, self.cfg, ticks),
            stats: EngineStats::default(),
            samples: Vec::new(),
            heartbeats: 0,
            policy,
            obs,
            observing,
            transitions: Vec::new(),
        };
        let max_t = engine.state.cfg.max_sim_time();

        while let Some(time) = engine.state.queue.peek_time() {
            if time > max_t {
                engine.state.now = max_t;
                break;
            }
            engine.state.now = time;

            // One batch: the events queued for this instant as it opens
            // (what a handler pushes at `now` waits for the next), less
            // the completions a handler cancels before their turn.
            let fence = engine.state.queue.next_seq();
            let (mut want_schedule, mut want_sample) = (false, false);
            while let Some(ev) = engine.state.queue.pop_due(time, fence) {
                match engine.dispatch(ev.kind) {
                    Wants::Heartbeat => want_schedule = true,
                    Wants::Sample => want_sample = true,
                    Wants::Nothing => {}
                }
            }
            engine.state.recompute_dirty();

            let did_heartbeat = want_schedule && engine.state.jobs_remaining > 0;
            if did_heartbeat {
                engine.heartbeats += 1;
                if engine.heartbeat(log)?.is_break() {
                    return Ok(RunResult::Crashed {
                        heartbeat: engine.heartbeats,
                    });
                }
            }
            // Taken after the scheduling phase, so wave boundaries don't
            // under-count running tasks.
            if want_sample {
                engine.samples.push(take_sample(&engine.state));
            }
            if engine.state.jobs_remaining == 0 {
                break;
            }
        }
        // Work that can never be placed ends the run at the hard stop. The
        // ticks keep the queue busy until then; a run without them can
        // drain it first.
        if engine.state.jobs_remaining > 0 {
            engine.state.now = max_t;
        }

        let (state, obs) = (engine.state, engine.obs);
        // Drain the free-capacity index's hit/prune counters and the
        // state's own tallies into the registry, zero-gated: a run without
        // indexed queries (or with the index disabled) adds no names.
        let index = state.index.take_stats();
        let plans = state.plans.swap(0, std::sync::atomic::Ordering::Relaxed);
        for (name, count) in [
            (names::INDEX_QUERIES, index.queries),
            (names::INDEX_PRUNED, index.pruned),
            (names::INDEX_RETURNED, index.returned),
            (names::INDEX_ENV_VISITS, index.env_visits),
            (names::PLACEMENT_PLANS, plans),
            (names::RECOMPUTE_VISITS, state.recompute_visits),
            (names::FLOW_RETIMES, state.flow_retimes),
        ] {
            if count > 0 {
                obs.metrics.counter_add(name, count);
            }
        }
        // Let the policy contribute its own accumulated metrics (e.g. the
        // sharded driver's conflict counters), zero-gated the same way.
        engine.policy.drain_metrics(&mut obs.metrics);
        log.finish(&mut obs.metrics);

        obs.flush();
        let (scheduler, timed_out) = (engine.policy.name().to_string(), state.jobs_remaining > 0);
        let outcome = finalize(state, scheduler, engine.samples, engine.stats, timed_out);
        Ok(RunResult::Completed(Box::new(outcome)))
    }
}

/// A fresh state with its queue seeded: every job arrival, external load,
/// the first sample, the first tracker report if the run has `ticks`, and
/// the fault plan.
fn seeded(cluster: ClusterConfig, workload: Workload, cfg: SimConfig, ticks: bool) -> SimState {
    let mut state = SimState::new(cluster, workload, cfg);
    state.tracker_ticks = ticks;
    for job in &state.workload.jobs {
        let arrival = SimTime::from_secs(job.arrival);
        state.queue.push(arrival, EventKind::JobArrival(job.id));
    }
    for (i, e) in state.cfg.external_loads.iter().enumerate() {
        let start = SimTime::from_secs(e.start);
        let end = SimTime::from_secs(e.start + e.duration);
        state.queue.push(start, EventKind::ExternalStart(i));
        state.queue.push(end, EventKind::ExternalEnd(i));
    }
    if state.cfg.sample_period.is_some() {
        state.queue.push(SimTime::ZERO, EventKind::Sample);
    }
    if ticks {
        let first_report = SimTime::from_secs(REPORT_PERIOD_SECS);
        state.queue.push(first_report, EventKind::TrackerReport);
    }
    // Fault plan expansion draws from the sim RNG *after* all other
    // seeding, and only when enabled: a disabled plan draws nothing and
    // pushes nothing, keeping fault-free runs byte-identical.
    if state.cfg.faults.enabled() {
        let plan = state.cfg.faults.clone();
        let expanded = plan.expand(state.machines.len(), state.cfg.max_time, &mut state.rng);
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
            state.queue.push(SimTime::from_secs(t), kind);
        }
    }
    state
}

/// A run in progress: the state, its counters and the policy, with the
/// buffers the loop reuses across batches.
struct Engine<'o> {
    state: SimState,
    stats: EngineStats,
    samples: Vec<Sample>,
    /// Scheduling heartbeats run so far.
    heartbeats: u64,
    policy: Box<dyn SchedulerPolicy>,
    tracker_aware: bool,
    obs: &'o mut Obs,
    /// An observability context is attached: gates the gauges and clocks
    /// only a reader pays for.
    observing: bool,
    /// Suspicion transitions of the last tracker report.
    transitions: Vec<(MachineId, bool)>,
}
