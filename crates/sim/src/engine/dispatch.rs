//! One popped event: the state change it makes, whether it asks for a
//! heartbeat, and the trace output and counters it leaves.

use tetris_obs::{names, Event};
use tetris_workload::TaskUid;

use super::Engine;
use crate::events::EventKind;
use crate::fault::TrackerMode;
use crate::state::TaskCompletion;
use crate::tracker::REPORT_PERIOD_SECS;

/// Interned preemption-reason tags: `&'static str` into the event's `Cow`
/// field, so emitting a retry allocates nothing for the reason.
const REASON_FAILURE_RETRY: &str = "failure_retry";
const REASON_MACHINE_CRASH: &str = "machine_crash";

/// What an event asks of the end of its batch.
pub(super) enum Wants {
    Nothing,
    /// A scheduling heartbeat: something the policy's answer depends on
    /// changed.
    Heartbeat,
    /// A utilization sample, taken after the batch's heartbeat.
    Sample,
}

impl Engine<'_> {
    /// Apply one popped event.
    pub(super) fn dispatch(&mut self, kind: EventKind) -> Wants {
        self.stats.events += 1;
        self.obs.metrics.counter_inc(names::ENGINE_EVENTS);
        let now = self.state.now.as_secs();
        match kind {
            EventKind::JobArrival(j) => {
                self.state.job_arrives(j);
                let spec = &self.state.workload.jobs[j.index()];
                self.obs.emit(now, || Event::JobArrived {
                    job: j.index(),
                    name: spec.name.clone(),
                    tasks: spec.num_tasks(),
                });
                Wants::Heartbeat
            }
            EventKind::FlowDone { flow } => match self.state.flow_done(flow) {
                Some(task) => self.complete(task),
                None => Wants::Nothing,
            },
            EventKind::TaskDone { task, gen } => {
                // Zero-flow tasks: gen is the attempt number at placement;
                // ignore stale retries.
                match self.state.attempt(task) {
                    Some(info) if info.gen == gen => self.complete(task),
                    _ => Wants::Nothing,
                }
            }
            EventKind::TrackerReport => {
                self.transitions.clear();
                self.state.tracker_report(&mut self.transitions);
                for &(m, suspect) in &self.transitions {
                    let machine = m.index();
                    if suspect {
                        self.obs.metrics.counter_inc(names::FAULT_SUSPECTED);
                        self.obs.emit(now, || Event::MachineSuspected { machine });
                    } else {
                        self.obs.metrics.counter_inc(names::FAULT_CLEARED);
                        self.obs.emit(now, || Event::MachineCleared { machine });
                    }
                }
                self.obs.metrics.counter_inc(names::TRACKER_REPORTS);
                if self.observing {
                    let frac = self.state.tracker_usage_fraction();
                    self.obs.metrics.gauge_set(names::TRACKER_USAGE_FRAC, frac);
                }
                let machines = self.state.machines.len();
                self.obs.emit(now, || Event::TrackerReport { machines });
                if self.state.jobs_remaining > 0 {
                    let next = self.state.now.after_secs(REPORT_PERIOD_SECS);
                    self.state.queue.push(next, EventKind::TrackerReport);
                }
                Wants::Heartbeat
            }
            EventKind::Wake => Wants::Heartbeat,
            EventKind::Sample => {
                if let Some(p) = self.state.cfg.sample_period {
                    if self.state.jobs_remaining > 0 {
                        let next = self.state.now.after_secs(p);
                        self.state.queue.push(next, EventKind::Sample);
                    }
                }
                Wants::Sample
            }
            EventKind::ExternalStart(i) => {
                self.state.set_external(i, true);
                Wants::Heartbeat
            }
            EventKind::ExternalEnd(i) => {
                self.state.set_external(i, false);
                Wants::Heartbeat
            }
            EventKind::MachineDown(m) => {
                let rep = self.state.machine_crash(m);
                let killed = rep.requeued.len() + rep.abandoned.len();
                self.stats.machine_crashes += 1;
                self.stats.crash_killed_attempts += killed as u64;
                self.stats.lost_task_seconds += rep.lost_task_seconds;
                let metrics = &mut self.obs.metrics;
                metrics.counter_inc(names::FAULT_CRASHES);
                let lost = rep.lost_task_seconds.round() as u64;
                metrics.counter_add(names::FAULT_LOST_TASK_SECONDS, lost);
                metrics.counter_add(names::FAULT_RETRIES, rep.requeued.len() as u64);
                metrics.counter_add(names::FAULT_ABANDONED, rep.abandoned.len() as u64);
                metrics.counter_add(names::FAULT_EVACUATIONS, rep.evacuations as u64);
                // The trace attributes every killed attempt to the crashed
                // machine, those of remote readers hosted elsewhere too.
                for &task in &rep.requeued {
                    let job = self.state.job_of(task);
                    self.obs.emit(now, || Event::TaskPreempted {
                        job: job.index(),
                        task: task.index(),
                        machine: m.index(),
                        reason: REASON_MACHINE_CRASH.into(),
                        priority: None,
                        preempted_by: None,
                    });
                }
                for &task in &rep.abandoned {
                    let job = self.state.job_of(task);
                    let attempts = self.state.attempts(task);
                    self.obs.emit(now, || Event::TaskAbandoned {
                        job: job.index(),
                        task: task.index(),
                        attempts,
                    });
                }
                self.obs.emit(now, || Event::MachineDown {
                    machine: m.index(),
                    killed,
                    requeued: rep.requeued.len(),
                    abandoned: rep.abandoned.len(),
                    lost_task_seconds: rep.lost_task_seconds,
                    evacuations: rep.evacuations,
                });
                Wants::Heartbeat
            }
            EventKind::MachineUp(m) => {
                self.state.machine_recover(m);
                self.obs.metrics.counter_inc(names::FAULT_RECOVERIES);
                let machine = m.index();
                self.obs.emit(now, || Event::MachineUp { machine });
                Wants::Heartbeat
            }
            EventKind::SlowdownStart(m) => {
                let factor = self.state.cfg.faults.slowdown_factor;
                self.state.set_slowdown(m, factor);
                self.obs.metrics.counter_inc(names::FAULT_SLOWDOWNS);
                let machine = m.index();
                self.obs
                    .emit(now, || Event::SlowdownStart { machine, factor });
                Wants::Heartbeat
            }
            EventKind::SlowdownEnd(m) => {
                self.state.set_slowdown(m, 1.0);
                let machine = m.index();
                self.obs.emit(now, || Event::SlowdownEnd { machine });
                Wants::Heartbeat
            }
            EventKind::TrackerFlake(m) => {
                // The doomed machine's tracker goes stale ahead of its
                // crash; suspicion builds via the ordinary stale-report
                // detection in `tracker_report`.
                self.state.tracker_modes[m.index()] = TrackerMode::Stale;
                self.obs.metrics.counter_inc(names::FAULT_FLAKES);
                let machine = m.index();
                self.obs.emit(now, || Event::TrackerFlaky { machine });
                Wants::Nothing
            }
            EventKind::TaskRestart(task) => {
                if !self.state.task_restart(task) {
                    return Wants::Nothing;
                }
                self.obs.metrics.counter_inc(names::FAULT_BACKOFF_WAITS);
                Wants::Heartbeat
            }
        }
    }

    /// A running task's attempt ended: finished for good, or re-queued by
    /// the failure model.
    fn complete(&mut self, task: TaskUid) -> Wants {
        let done = self.state.task_complete(task);
        let job = self.state.job_of(task);
        let now = self.state.now.as_secs();
        match done {
            TaskCompletion::Stale => {}
            TaskCompletion::Requeued { machine } => {
                self.obs.metrics.counter_inc(names::TASK_RETRIES);
                self.obs.emit(now, || Event::TaskPreempted {
                    job: job.index(),
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
                self.obs.emit(now, || Event::TaskCompleted {
                    job: job.index(),
                    task: task.index(),
                    machine: machine.index(),
                    attempts,
                });
            }
        }
        Wants::Heartbeat
    }
}
