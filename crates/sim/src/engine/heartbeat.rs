//! One scheduling heartbeat: the policy's rounds, the guard an assignment
//! passes before it is applied, and the application itself.

use std::ops::ControlFlow;
use std::time::Instant;

use tetris_obs::{names, Event};

use super::Engine;
use crate::events::EventKind;
use crate::recovery::{DecisionLog, RecoveryError};
use crate::state::evictions_allowed;
use crate::time::SimTime;
use crate::tracker::REPORT_PERIOD_SECS;
use crate::view::{Assignment, ClusterView};

/// Cap on re-invocations of the policy within one scheduling round; guards
/// against a policy that keeps returning assignments the engine rejects.
const MAX_SCHEDULE_ROUNDS: usize = 16;

/// Interned preemption-reason tag (see `dispatch`).
const REASON_PRIORITY_PREEMPTION: &str = "priority_preemption";

impl Engine<'_> {
    /// One "resources freed → pick tasks" pass, the heartbeat of a real
    /// cluster scheduler: call the policy round after round until a round
    /// places nothing. Timed end-to-end into the continuous version of the
    /// paper's Table-8 measurement. Breaks if the fault plan's scheduler
    /// crash fires.
    pub(super) fn heartbeat(
        &mut self,
        log: &mut DecisionLog<'_>,
    ) -> Result<ControlFlow<()>, RecoveryError> {
        let heartbeat = self.heartbeats;
        let crash = self.state.cfg.faults.sched_crash;
        let crash = crash.filter(|c| c.at_heartbeat == heartbeat);
        // Crash point (a): between batches. Nothing of this heartbeat
        // reaches the journal — recovery resumes exactly at its commit
        // frontier.
        if crash.is_some_and(|c| !c.mid_commit) {
            return Ok(ControlFlow::Break(()));
        }
        let mid_commit = crash.is_some();
        log.batch_start(heartbeat, self.state.now)?;
        // The freed-machine hints are fixed for the heartbeat (contract
        // and measured reason on `ClusterView::freed_machines`): frees the
        // rounds cause themselves — priority evictions — are dropped.
        let hints = self.state.freed_hint.len();
        let pending_before = self.observing.then(|| self.state.num_pending());
        let before = self.stats.clone();
        let verbose = self.obs.verbose();
        // The clock is read only for an attached context: unobserved, the
        // timings would go to a registry nobody reads.
        let heartbeat_start = self.observing.then(Instant::now);
        // A round that placed nothing: the policy has said all it will
        // until something changes.
        let mut settled = false;
        'rounds: for round in 0..MAX_SCHEDULE_ROUNDS {
            let schedule_start = self.observing.then(Instant::now);
            let assignments = {
                let view = ClusterView::new(&self.state, self.tracker_aware).capturing(verbose);
                self.stats.schedule_calls += 1;
                self.policy.schedule(&view)
            };
            if let Some(start) = schedule_start {
                let schedule_ns = start.elapsed().as_nanos() as u64;
                self.obs.metrics.observe(names::SCHEDULE_NS, schedule_ns);
            }
            if assignments.is_empty() {
                settled = true;
                break;
            }
            // Crash point (b): mid-commit. Only the first half of this
            // heartbeat's first-round placements reach the journal and no
            // commit record does — with a sharded policy, that is some
            // shards' plans journaled and others lost. Recovery discards
            // the torn batch and re-derives the frontier at the last
            // commit.
            let cut = if round == 0 && mid_commit {
                assignments.len() / 2
            } else {
                usize::MAX
            };
            let mut applied = 0usize;
            for a in assignments {
                if !self.admissible(&a) {
                    self.stats.rejected_assignments += 1;
                    self.obs.metrics.counter_inc(names::REJECTED_ASSIGNMENTS);
                    continue;
                }
                if applied == cut {
                    break 'rounds;
                }
                applied += 1;
                log.placement(round as u32, a.task, a.machine)?;
                self.apply(a, verbose);
            }
            self.state.freed_hint.truncate(hints);
            self.state.recompute_dirty();
            if applied == 0 {
                settled = true;
                break;
            }
        }
        if mid_commit {
            // Torn at the cut above or, when the policy produced too
            // little to tear, whole: either way the scheduler dies before
            // the commit record, so the batch reads as uncommitted.
            return Ok(ControlFlow::Break(()));
        }
        log.commit(heartbeat, &before, &self.stats, &mut self.obs.metrics)?;
        if !settled && !self.state.tracker_ticks {
            // Out of rounds with placements still coming: the next tracker
            // report would heartbeat again, so a run without reports wakes
            // itself at that instant.
            let period = SimTime::from_secs(REPORT_PERIOD_SECS).as_micros();
            let next = SimTime((self.state.now.as_micros() / period + 1) * period);
            self.state.queue.push(next, EventKind::Wake);
        }
        if let (Some(start), Some(pending_tasks)) = (heartbeat_start, pending_before) {
            let wall_ns = start.elapsed().as_nanos() as u64;
            self.obs.metrics.observe(names::HEARTBEAT_NS, wall_ns);
            let placements = self.stats.placements - before.placements;
            let now = self.state.now.as_secs();
            let obs = &mut self.obs;
            obs.metrics
                .gauge_set(names::PENDING_TASKS, pending_tasks as f64);
            obs.emit(now, || Event::HeartbeatProcessed {
                pending_tasks,
                placements,
                wall_ns,
            });
        }
        // Hints are consumed by the whole scheduling loop, not per round,
        // so a policy can keep focusing on freed machines across its
        // re-invocations.
        self.state.freed_hint.clear();

        // Telemetry time-series: one sample per heartbeat, taken after the
        // scheduling pass so each point describes the cluster the *next*
        // decision will see. Gated on an attached collector; the
        // computation is a pure read of ledger state (no wall clock, no
        // RNG), so the stream is byte-identical across runs.
        if self.obs.sampling() {
            let sample = crate::telemetry::sample_cluster(&self.state);
            self.obs.record_sample(sample);
        }
        Ok(ControlFlow::Continue(()))
    }

    /// The engine's guard on one assignment: the task may run on the
    /// machine, and its eviction list passes the §16 rule
    /// (`state::evictions_allowed`). One invalid victim rejects the
    /// assignment whole; nothing is torn down first.
    fn admissible(&self, a: &Assignment) -> bool {
        let view = ClusterView::new(&self.state, self.tracker_aware);
        evictions_allowed(&view, a) && self.state.assignment_valid(a.task, a.machine)
    }

    /// Apply one admitted assignment: evict its victims, place its task,
    /// and narrate each step to the trace.
    fn apply(&mut self, a: Assignment, verbose: bool) {
        let now = self.state.now.as_secs();
        // Evictions land before the placement. They are *not* journaled:
        // replay re-invokes the policy live, which re-derives the same
        // eviction lists, and a torn mid-commit batch is discarded
        // wholesale — so partial eviction application can never leak into
        // recovery.
        for &v in &a.evict {
            let job = self.state.job_of(v);
            let Some((_lost, host)) = self.state.preempt_task(v) else {
                continue;
            };
            self.stats.preemptions += 1;
            self.obs.metrics.counter_inc(names::PREEMPTIONS);
            let priority = self.state.workload.jobs[job.index()].priority.0;
            self.obs.emit(now, || Event::TaskPreempted {
                job: job.index(),
                task: v.index(),
                machine: host.index(),
                reason: REASON_PRIORITY_PREEMPTION.into(),
                priority: Some(priority),
                preempted_by: Some(a.task.index()),
            });
        }
        self.state.apply_assignment(a.task, a.machine);
        self.stats.placements += 1;
        self.obs.metrics.counter_inc(names::PLACEMENTS);
        let job = self.state.job_of(a.task);
        // Present only for non-default priority: all-batch traces stay
        // byte-identical.
        let priority = self.state.workload.jobs[job.index()].priority.0;
        self.obs.emit(now, || Event::TaskPlaced {
            job: job.index(),
            task: a.task.index(),
            machine: a.machine.index(),
            alignment_score: a.scores.map(|s| s.alignment),
            srtf_score: a.scores.map(|s| s.srtf),
            combined_score: a.scores.map(|s| s.combined),
            considered_machines: a.scores.map(|s| s.considered_machines),
            // Default traces stay byte-identical whatever a policy
            // attaches.
            provenance: a.provenance.filter(|_| verbose),
            priority: (priority != 0).then_some(priority),
        });
    }
}

#[cfg(test)]
mod tests {
    use tetris_resources::MachineSpec;
    use tetris_workload::{PriorityClass, TaskUid, WorkloadBuilder};

    use crate::cluster::{ClusterConfig, MachineId};
    use crate::config::SimConfig;
    use crate::engine::Simulation;
    use crate::state::tests::params;
    use crate::view::{Assignment, ClusterView, SchedulerPolicy};

    // Builder order fixes the uids: job `low` (priority 0) holds tasks
    // 0–2, job `peer` (priority 5) task 3, job `urgent` (priority 5,
    // arriving at 10 s) task 4.
    const LOW_M0: TaskUid = TaskUid(0);
    const LOW_M1: TaskUid = TaskUid(1);
    const LOW_PENDING: TaskUid = TaskUid(2);
    const PEER_M0: TaskUid = TaskUid(3);
    const URGENT: TaskUid = TaskUid(4);

    /// Places `low`'s first task on machine 0, its second on machine 1
    /// and `peer`'s task on machine 0, and holds `low`'s third back. Its
    /// first sight of `urgent` is one proposal onto machine 0 evicting
    /// `evict`; after it, every pending task goes to machine 1 so the run
    /// ends.
    struct Scripted {
        evict: Vec<TaskUid>,
        proposed: bool,
    }

    impl SchedulerPolicy for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }

        fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
            let pending: Vec<TaskUid> = view
                .active_jobs()
                .flat_map(|j| view.job_pending(j))
                .collect();
            if pending.contains(&URGENT) && !self.proposed {
                self.proposed = true;
                let a = Assignment::new(URGENT, MachineId(0));
                return vec![a.with_evictions(self.evict.clone())];
            }
            if !self.proposed {
                let homes = [(LOW_M0, 0), (LOW_M1, 1), (PEER_M0, 0)];
                return homes
                    .into_iter()
                    .filter(|(t, _)| pending.contains(t))
                    .map(|(t, m)| Assignment::new(t, MachineId(m)))
                    .collect();
            }
            pending
                .into_iter()
                .map(|t| Assignment::new(t, MachineId(1)))
                .collect()
        }
    }

    /// (rejected assignments, preemptions) of the run that proposes
    /// `evict` for `urgent`.
    fn propose(evict: Vec<TaskUid>, preemption: bool) -> (u64, u64) {
        let mut b = WorkloadBuilder::new();
        for (name, priority, arrival, n) in [
            ("low", 0, 0.0, 3),
            ("peer", 5, 0.0, 1),
            ("urgent", 5, 10.0, 1),
        ] {
            let j = b.begin_job(name, None, arrival);
            b.set_priority(j, PriorityClass(priority));
            b.add_stage(j, "s", vec![], n, |_| params(1.0, 100.0, vec![]));
        }
        let mut cfg = SimConfig::default();
        cfg.preemption = preemption;
        let outcome = Simulation::build(
            ClusterConfig::uniform(2, MachineSpec::paper_small()),
            b.finish(),
        )
        .scheduler(Scripted {
            evict,
            proposed: false,
        })
        .config(cfg)
        .run();
        assert!(outcome.all_jobs_completed());
        (
            outcome.stats.rejected_assignments,
            outcome.stats.preemptions,
        )
    }

    #[test]
    fn the_engine_admits_only_evictions_the_rule_allows() {
        let refused = (1, 0);
        assert_eq!(propose(vec![PEER_M0], true), refused, "equal priority");
        assert_eq!(propose(vec![LOW_M1], true), refused, "on another host");
        assert_eq!(propose(vec![LOW_PENDING], true), refused, "not running");
        assert_eq!(propose(vec![LOW_M0], false), refused, "preemption off");
        assert_eq!(
            propose(vec![LOW_M0, PEER_M0], true),
            refused,
            "one bad victim"
        );
        assert_eq!(propose(vec![LOW_M0], true), (0, 1), "a valid list");
    }
}
