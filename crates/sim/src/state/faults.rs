//! Fault and preemption surgery: tear a running attempt down (a crash
//! kill or a priority preemption), crash and recover machines along with
//! the re-replication a crash starts (paper §4.3), and end a restart
//! backoff.

use rand::Rng;
use tetris_resources::{Resource, ResourceVec, NUM_RESOURCES};
use tetris_workload::TaskUid;

use super::{Phase, RunInfo, SimState};
use crate::cluster::MachineId;
use crate::config::ExternalLoad;
use crate::events::EventKind;
use crate::time::SimTime;

/// What a machine crash did, so the engine can trace and count it. The
/// victims include remote readers of the crashed machine's disks, which
/// run elsewhere.
#[derive(Debug, Clone, Default)]
pub(crate) struct CrashReport {
    /// Tasks whose attempt was lost but which will run again (directly
    /// runnable or in backoff).
    pub requeued: Vec<TaskUid>,
    /// Tasks permanently failed (attempt cap reached).
    pub abandoned: Vec<TaskUid>,
    /// Sum over killed attempts of seconds of progress lost.
    pub lost_task_seconds: f64,
    /// Blocks re-replicated off the dead machine.
    pub evacuations: usize,
}

impl SimState {
    /// Tear down a running task's attempt (machine crash): invalidate its
    /// flows, release every ledger the attempt charged, and decide its
    /// fate — abandoned when out of attempts, backoff-delayed restart when
    /// `restart_backoff > 0`, immediately runnable otherwise.
    ///
    /// Returns `None` if the task was not actually running, else
    /// `Some((abandoned, lost_task_seconds))`.
    pub(crate) fn kill_task(&mut self, uid: TaskUid) -> Option<(bool, f64)> {
        self.teardown_attempt(uid)?;
        let now = self.now;
        let backoff = self.cfg.faults.restart_backoff;
        let t = &mut self.tasks[uid.index()];
        let lost = t.start.map_or(0.0, |s| now.secs_since(s));
        t.machine = None;
        let abandoned = t.attempts >= self.cfg.max_task_attempts;
        if abandoned {
            // Out of attempts: permanently failed, but still terminal so
            // the owning stage/job completes instead of hanging.
            t.phase = Phase::Abandoned;
            t.finish = Some(now);
            self.tasks_abandoned += 1;
            let (ji, si, _) = self.loc(uid);
            self.note_task_terminal(ji, si);
        } else if backoff > 0.0 {
            t.phase = Phase::Backoff;
            let restart = now.after_secs(backoff);
            self.queue.push(restart, EventKind::TaskRestart(uid));
        } else {
            self.requeue(uid);
        }
        Some((abandoned, lost))
    }

    /// Priority preemption (DESIGN.md §16): tear down a running attempt
    /// and requeue the task immediately. Unlike [`SimState::kill_task`],
    /// the lost attempt is *not* charged against `max_task_attempts` (the
    /// eviction is the scheduler's choice, not the task's failure — a
    /// repeatedly preempted task must never be abandoned) and no crash
    /// backoff applies — the victim is pending again within the same
    /// scheduling round.
    ///
    /// Returns `None` if the task was not actually running, else
    /// `Some((lost_task_seconds, host_machine))`.
    pub(crate) fn preempt_task(&mut self, uid: TaskUid) -> Option<(f64, MachineId)> {
        let host = self.teardown_attempt(uid)?.machine;
        let now = self.now;
        let t = &mut self.tasks[uid.index()];
        let lost = t.start.map_or(0.0, |s| now.secs_since(s));
        t.machine = None;
        // The attempt counter was bumped at placement; hand it back.
        t.attempts = t.attempts.saturating_sub(1);
        self.requeue(uid);
        Some((lost, host))
    }

    /// Shared attempt teardown behind [`SimState::kill_task`] and
    /// [`SimState::preempt_task`]: retire the attempt's live flows and
    /// release every ledger it charged. The task's phase is left
    /// `Runnable`; callers refine it. Returns `None` (phase untouched) if
    /// the task was not running.
    fn teardown_attempt(&mut self, uid: TaskUid) -> Option<Box<RunInfo>> {
        let info = self.take_attempt(uid, Phase::Runnable)?;
        for &fid in &info.flows {
            if !self.flows[fid.0].done {
                self.retire_flow(fid);
            }
        }
        self.release_attempt(uid, &info);
        self.touch_job(self.loc(uid).0); // kill or preemption
        Some(info)
    }

    /// Crash a machine: kill every resident task attempt *and* every
    /// remote attempt with a flow traversing this machine (readers of its
    /// disks lose their input stream), zero its tracker state, and kick
    /// off re-replication of the blocks it held.
    pub(crate) fn machine_crash(&mut self, machine: MachineId) -> CrashReport {
        let mi = machine.index();
        self.machines[mi].down = true;
        self.machines[mi].slowdown = 1.0;

        // Victims: tasks hosted here plus any task with a flow on one of
        // this machine's links (remote readers), deduped and in TaskUid
        // order for determinism.
        let mut victims: Vec<TaskUid> = self.machines[mi].running_tasks.clone();
        for ri in 0..NUM_RESOURCES {
            for &fid in &self.machines[mi].link_flows[ri] {
                victims.push(self.flows[fid.0].task);
            }
        }
        victims.sort_unstable();
        victims.dedup();

        let mut report = CrashReport::default();
        for uid in victims {
            if let Some((abandoned, lost)) = self.kill_task(uid) {
                report.lost_task_seconds += lost;
                if abandoned {
                    report.abandoned.push(uid);
                } else {
                    report.requeued.push(uid);
                }
            }
        }

        // The tracker stops hearing from the machine.
        let ms = &mut self.machines[mi];
        ms.usage_reported = ResourceVec::zero();
        ms.external_reported = ResourceVec::zero();
        ms.recent.clear();

        // Abort external transfers through the dead machine: its links
        // carry nothing while it is down, and the transfer does not resume
        // on recovery. A re-replication stream dies on *both* ends — once
        // one side is gone the surviving peer's effort is moot (pairs sit
        // at consecutive dynamic indices, source first).
        let n_static = self.cfg.external_loads.len();
        for idx in 0..n_static + self.dynamic_loads.len() {
            let owner = if idx < n_static {
                self.cfg.external_loads[idx].machine
            } else {
                self.dynamic_loads[idx - n_static].machine
            };
            if owner != machine || self.external_cancelled[idx] {
                continue;
            }
            self.set_external(idx, false);
            self.external_cancelled[idx] = true;
            if idx >= n_static {
                let peer = n_static + ((idx - n_static) ^ 1);
                self.set_external(peer, false);
                self.external_cancelled[peer] = true;
            }
        }

        report.evacuations = self.evacuate_blocks(machine);
        self.touch_replicas();
        // Crash fallout touches many machines (victim kills released
        // remote ledgers, the dead machine's flags flipped); a crash is
        // already O(cluster) work, so refresh the whole index.
        self.index_rebuild();
        report
    }

    /// Re-replicate blocks lost to a crash (paper §4.3: evacuation shows
    /// up as external DiskRead+NetOut load at the surviving source and
    /// NetIn+DiskWrite at the new home). Transfers are serialized so each
    /// crash adds at most one concurrent transfer stream. Returns the
    /// number of blocks re-replicated.
    fn evacuate_blocks(&mut self, machine: MachineId) -> usize {
        let n = self.machines.len();
        let now_secs = self.now.secs_since(SimTime::ZERO);
        let bw = self.cfg.faults.rerep_bandwidth;
        let duration = self.cfg.faults.rerep_bytes / bw;
        let mut evacuations = 0usize;
        for bi in 0..self.blocks.len() {
            let Some(pos) = self.blocks[bi].iter().position(|&m| m == machine) else {
                continue;
            };
            if self.blocks[bi].len() == 1 {
                // Sole replica: nothing to copy from. The block becomes
                // readable again when the machine recovers; until then
                // placement treats the dead machine as its (only) source.
                continue;
            }
            self.blocks.remove(bi, pos);
            if !self.cfg.faults.evacuate {
                continue;
            }
            let sources: Vec<MachineId> = self.blocks[bi]
                .iter()
                .copied()
                .filter(|m| !self.machines[m.index()].down)
                .collect();
            let dests: Vec<MachineId> = (0..n)
                .map(MachineId)
                .filter(|m| !self.machines[m.index()].down && !self.blocks[bi].contains(m))
                .collect();
            if sources.is_empty() || dests.is_empty() {
                continue;
            }
            let src = sources[self.rng.gen_range(0..sources.len())];
            let dest = dests[self.rng.gen_range(0..dests.len())];
            self.blocks.insert(bi, dest);

            // One transfer at a time: the k-th evacuated block starts
            // after the previous one finishes.
            let start = now_secs + evacuations as f64 * duration;
            let src_load = ResourceVec::zero()
                .with(Resource::DiskRead, bw)
                .with(Resource::NetOut, bw);
            let dest_load = ResourceVec::zero()
                .with(Resource::NetIn, bw)
                .with(Resource::DiskWrite, bw);
            for (m, load) in [(src, src_load), (dest, dest_load)] {
                let idx = self.cfg.external_loads.len() + self.dynamic_loads.len();
                self.dynamic_loads.push(ExternalLoad {
                    machine: m,
                    start,
                    duration,
                    load,
                });
                self.external_active.push(false);
                self.external_cancelled.push(false);
                let begins = SimTime::from_secs(start);
                let ends = SimTime::from_secs(start + duration);
                self.queue.push(begins, EventKind::ExternalStart(idx));
                self.queue.push(ends, EventKind::ExternalEnd(idx));
            }
            evacuations += 1;
        }
        evacuations
    }

    /// Bring a crashed machine back: it starts reporting again with a
    /// clean tracker slate (suspicion is retained so flapping machines
    /// stay suspect until they prove themselves with good reports).
    pub(crate) fn machine_recover(&mut self, machine: MachineId) {
        // A reboot resets the tracker agent: transient pre-crash flaking
        // ends here (planned stale/misreporting modes persist).
        self.tracker_modes[machine.index()] = self.tracker_modes_baseline[machine.index()];
        let ms = &mut self.machines[machine.index()];
        ms.down = false;
        ms.recent.clear();
        ms.usage_reported = ResourceVec::zero();
        ms.external_reported = ResourceVec::zero();
        ms.stale_streak = 0;
        self.freed_hint.push(machine);
        self.index_touch(machine.index());
        self.touch_replicas();
    }

    /// A crash-lost task finishes its restart backoff. Returns true if it
    /// became runnable (false if it is no longer waiting one out).
    pub(crate) fn task_restart(&mut self, uid: TaskUid) -> bool {
        if !matches!(self.tasks[uid.index()].phase, Phase::Backoff) {
            return false;
        }
        self.requeue(uid);
        self.touch_job(self.loc(uid).0); // restart
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{mk_state, one_task_workload, params};
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::config::SimConfig;
    use crate::state::TaskCompletion;
    use tetris_resources::{units::MB, MachineSpec};
    use tetris_workload::{JobId, PlacementConstraints, Workload, WorkloadBuilder};

    /// Arrive the job and start its first task on machine 0.
    fn running(st: &mut SimState) {
        st.job_arrives(JobId(0));
        st.apply_assignment(TaskUid(0), MachineId(0));
        st.recompute_dirty();
    }

    /// One task reading one stored block of `bytes`.
    fn one_reader(bytes: f64) -> Workload {
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let input = b.stored_input(bytes);
        b.add_stage(j, "s", vec![], 1, |_| params(1.0, 10.0, vec![input]));
        b.finish()
    }

    #[test]
    fn crash_kills_resident_task_and_requeues() {
        let mut st = mk_state(one_task_workload(2.0, 10.0));
        st.cfg.faults.restart_backoff = 0.0;
        running(&mut st);
        st.now = SimTime::from_secs(3.0);
        let rep = st.machine_crash(MachineId(0));
        assert_eq!(rep.requeued, vec![TaskUid(0)]);
        assert!(rep.abandoned.is_empty());
        assert!((rep.lost_task_seconds - 3.0).abs() < 1e-9);
        // Attempt fully torn down: runnable again, ledgers released,
        // machine offers nothing, queued FlowDone is stale.
        assert!(matches!(st.tasks[0].phase, Phase::Runnable));
        assert_eq!(st.jobs[0].stages[0].pending, vec![TaskUid(0)]);
        assert!(st.machines[0].allocated.is_zero());
        assert!(st.machines[0].down);
        assert!(st.availability(MachineId(0), false).is_zero());
        assert!(st.availability(MachineId(0), true).is_zero());
        assert!(!st.assignment_valid(TaskUid(0), MachineId(0)));
        assert!(st.assignment_valid(TaskUid(0), MachineId(1)));
        assert!(st.flows[0].done);
        // Recovery restores availability.
        st.machine_recover(MachineId(0));
        assert!(!st.machines[0].down);
        assert_eq!(st.availability(MachineId(0), false).get(Resource::Cpu), 4.0);
    }

    #[test]
    fn crash_respects_restart_backoff() {
        let mut st = mk_state(one_task_workload(2.0, 10.0));
        st.cfg.faults.restart_backoff = 7.5;
        running(&mut st);
        st.now = SimTime::from_secs(1.0);
        let rep = st.machine_crash(MachineId(0));
        assert_eq!(rep.requeued, vec![TaskUid(0)]);
        assert!(matches!(st.tasks[0].phase, Phase::Backoff));
        assert!(st.jobs[0].stages[0].pending.is_empty());
        // The restart event fires after the backoff.
        let restart = loop {
            let ev = st.queue.pop().expect("restart event queued");
            if let EventKind::TaskRestart(uid) = ev.kind {
                break (ev.time, uid);
            }
        };
        assert_eq!(restart, (SimTime::from_secs(8.5), TaskUid(0)));
        st.now = restart.0;
        assert!(st.task_restart(TaskUid(0)));
        assert!(matches!(st.tasks[0].phase, Phase::Runnable));
        assert_eq!(st.jobs[0].stages[0].pending, vec![TaskUid(0)]);
        // A second restart for the same task is stale.
        assert!(!st.task_restart(TaskUid(0)));
    }

    #[test]
    fn kills_restarts_and_preemptions_move_the_job_epoch() {
        let mut st = mk_state(one_task_workload(2.0, 10.0));
        st.cfg.faults.restart_backoff = 7.5;
        running(&mut st);
        let mut last = st.jobs[0].epoch;
        let mut moved = |st: &SimState| {
            let before = std::mem::replace(&mut last, st.jobs[0].epoch);
            before != last
        };
        assert!(st.preempt_task(TaskUid(0)).is_some());
        assert!(moved(&st), "preemption");
        st.apply_assignment(TaskUid(0), MachineId(0));
        assert!(moved(&st), "placement");
        assert_eq!(st.kill_task(TaskUid(0)), Some((false, 0.0)));
        assert!(matches!(st.tasks[0].phase, Phase::Backoff));
        assert!(moved(&st), "a kill into backoff");
        assert!(st.task_restart(TaskUid(0)));
        assert!(moved(&st), "restart");
        assert!(!st.task_restart(TaskUid(0)));
        assert!(!moved(&st), "a stale restart");
        // A crash and a recovery of a machine the job does not use move
        // the replica epoch, not the job's.
        let replica_epoch = st.replica_epoch;
        st.machine_crash(MachineId(1));
        assert_ne!(st.replica_epoch, replica_epoch);
        let replica_epoch = st.replica_epoch;
        st.machine_recover(MachineId(1));
        assert_ne!(st.replica_epoch, replica_epoch);
        assert!(!moved(&st), "a crash and recovery elsewhere");
    }

    #[test]
    fn a_spread_jobs_host_count_follows_every_start_and_stop() {
        // Six one-core replicas of a spread job on three machines. Every
        // completion fails while an attempt is left, a crash backs off.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("svc", None, 0.0);
        b.set_constraints(j, PlacementConstraints::none().with_spread(2));
        b.add_stage(j, "replicas", vec![], 6, |_| params(1.0, 10.0, vec![]));
        let cluster = ClusterConfig::uniform(3, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.task_failure_prob = 0.999_999;
        cfg.max_task_attempts = 2;
        cfg.faults.restart_backoff = 5.0;
        let mut st = SimState::new(cluster, b.finish(), cfg);
        st.job_arrives(j);
        let t = TaskUid;
        let (m0, m1, m2) = (MachineId(0), MachineId(1), MachineId(2));
        let hosts = |st: &SimState| {
            let recount = (0..3).filter(|&m| st.hosts_job(MachineId(m), j)).count();
            assert_eq!(st.jobs[0].hosts, recount, "the count is the recount");
            recount
        };
        // Placement: a machine counts once, however many replicas it runs.
        st.apply_assignment(t(0), m0);
        st.apply_assignment(t(1), m0);
        assert_eq!(hosts(&st), 1);
        st.apply_assignment(t(2), m1);
        assert_eq!(hosts(&st), 2);
        // Failure retry: a machine leaves the count with its last replica.
        assert!(matches!(
            st.task_complete(t(1)),
            TaskCompletion::Requeued { .. }
        ));
        assert_eq!(hosts(&st), 2, "m0 still runs task 0");
        assert!(matches!(
            st.task_complete(t(2)),
            TaskCompletion::Requeued { .. }
        ));
        assert_eq!(hosts(&st), 1);
        // Finish: task 2's second attempt is its last, and completes.
        st.apply_assignment(t(2), m2);
        assert_eq!(hosts(&st), 2);
        assert!(matches!(
            st.task_complete(t(2)),
            TaskCompletion::Finished { .. }
        ));
        assert_eq!(hosts(&st), 1);
        // Priority preemption.
        assert!(st.preempt_task(t(0)).is_some());
        assert_eq!(hosts(&st), 0);
        // A crash of m1 backs task 0 off and abandons task 1, at its
        // second attempt; m2 keeps task 3.
        st.apply_assignment(t(0), m1);
        st.apply_assignment(t(1), m1);
        st.apply_assignment(t(3), m2);
        assert_eq!(hosts(&st), 2);
        let rep = st.machine_crash(m1);
        assert_eq!((rep.requeued, rep.abandoned), (vec![t(0)], vec![t(1)]));
        assert_eq!(hosts(&st), 1);
        // Restart: task 0 joins task 3 on m2, task 4 takes m0, and the
        // recovered m1 takes task 5.
        assert!(st.task_restart(t(0)));
        st.apply_assignment(t(0), m2);
        assert_eq!(hosts(&st), 1);
        st.apply_assignment(t(4), m0);
        assert_eq!(hosts(&st), 2);
        st.machine_recover(m1);
        st.apply_assignment(t(5), m1);
        assert_eq!(hosts(&st), 3);
    }

    #[test]
    fn the_pending_count_follows_every_list_change() {
        // Three tasks, then two behind them. Every completion fails while
        // an attempt is left.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let first = b.add_stage(j, "map", vec![], 3, |_| params(1.0, 10.0, vec![]));
        b.add_stage(j, "reduce", vec![first], 2, |_| params(1.0, 10.0, vec![]));
        let cluster = ClusterConfig::uniform(3, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.task_failure_prob = 0.999_999;
        cfg.max_task_attempts = 2;
        cfg.faults.restart_backoff = 0.0;
        let mut st = SimState::new(cluster, b.finish(), cfg);
        let t = TaskUid;
        let (m0, m1, m2) = (MachineId(0), MachineId(1), MachineId(2));
        let pending = |st: &SimState| {
            let walk: usize = st.jobs[0].stages.iter().map(|s| s.pending.len()).sum();
            assert_eq!(st.pending_total, walk, "the count is the walk");
            st.num_pending()
        };
        assert_eq!(pending(&st), 0);
        // Unlock: the root stage's three tasks.
        st.job_arrives(j);
        assert_eq!(pending(&st), 3);
        // Placement.
        st.apply_assignment(t(0), m0);
        st.apply_assignment(t(1), m1);
        st.apply_assignment(t(2), m2);
        assert_eq!(pending(&st), 0);
        // Failure retry.
        assert!(matches!(
            st.task_complete(t(0)),
            TaskCompletion::Requeued { .. }
        ));
        assert_eq!(pending(&st), 1);
        // Preemption.
        assert!(st.preempt_task(t(1)).is_some());
        assert_eq!(pending(&st), 2);
        // Crash requeue, without a backoff.
        assert_eq!(st.machine_crash(m2).requeued, vec![t(2)]);
        assert_eq!(pending(&st), 3);
        // A crash into a backoff, then the restart.
        st.machine_recover(m2);
        st.cfg.faults.restart_backoff = 5.0;
        st.apply_assignment(t(1), m2);
        assert_eq!(pending(&st), 2);
        st.machine_crash(m2);
        assert_eq!(pending(&st), 2, "a backed-off task is not pending");
        assert!(st.task_restart(t(1)));
        assert_eq!(pending(&st), 3);
        // Finishing the root stage unlocks the next one's two tasks.
        for (uid, m) in [(t(0), m0), (t(1), m1), (t(2), m0)] {
            st.apply_assignment(uid, m);
        }
        assert_eq!(pending(&st), 0);
        for uid in [t(0), t(1), t(2)] {
            assert!(matches!(
                st.task_complete(uid),
                TaskCompletion::Finished { .. }
            ));
        }
        assert_eq!(pending(&st), 2);
    }

    #[test]
    fn crash_abandons_task_out_of_attempts_and_job_terminates() {
        let w = one_task_workload(2.0, 10.0);
        let cluster = ClusterConfig::uniform(2, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.max_task_attempts = 1;
        let mut st = SimState::new(cluster, w, cfg);
        running(&mut st);
        st.now = SimTime::from_secs(2.0);
        let rep = st.machine_crash(MachineId(0));
        assert_eq!(rep.abandoned, vec![TaskUid(0)]);
        assert!(rep.requeued.is_empty());
        // Terminal-failure audit: the job still reaches a terminal state.
        assert!(matches!(st.tasks[0].phase, Phase::Abandoned));
        assert_eq!(st.tasks_abandoned, 1);
        assert_eq!(st.jobs_remaining, 0);
        assert_eq!(st.jobs[0].finish, Some(SimTime::from_secs(2.0)));
    }

    #[test]
    fn crash_kills_remote_reader_and_evacuates_blocks() {
        // A task reads a block from a remote source; the *source* crashes:
        // the reader's attempt dies and the block is re-replicated.
        let cluster = ClusterConfig::uniform(4, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.replication = 2;
        cfg.faults.restart_backoff = 0.0;
        let mut st = SimState::new(cluster, one_reader(100.0 * MB), cfg);
        st.job_arrives(JobId(0));
        let replicas = st.blocks[0].to_vec();
        let host = (0..4)
            .map(MachineId)
            .find(|m| !replicas.contains(m))
            .expect("non-replica host");
        st.apply_assignment(TaskUid(0), host);
        st.recompute_dirty();
        // The deterministic replica choice for uid 0 is replicas[0].
        let src = replicas[0];
        st.now = SimTime::from_secs(1.0);
        let (job_epoch, replica_epoch) = (st.jobs[0].epoch, st.replica_epoch);
        let rep = st.machine_crash(src);
        // The reader lost its input stream even though its host is fine.
        assert_eq!(rep.requeued, vec![TaskUid(0)]);
        // Both epochs moved: the reader's job lost an attempt, and the
        // crash moved block replicas.
        assert_ne!(st.jobs[0].epoch, job_epoch);
        assert_ne!(st.replica_epoch, replica_epoch);
        assert!(matches!(st.tasks[0].phase, Phase::Runnable));
        assert!(st.machines[host.index()].allocated.is_zero());
        // Block evacuated: the dead machine no longer appears as a
        // replica, replication is restored, and the copy shows up as a
        // pair of dynamic external loads (source + destination).
        assert_eq!(rep.evacuations, 1);
        assert!(!st.blocks[0].contains(&src));
        assert_eq!(st.blocks[0].len(), 2);
        assert_eq!(st.dynamic_loads.len(), 2);
        let placed = st.placement_plan(TaskUid(0), host);
        assert!(placed
            .remote_reads
            .iter()
            .all(|(m, _)| !st.machines[m.index()].down));
    }

    #[test]
    fn sole_replica_survives_crash_without_evacuation() {
        let cluster = ClusterConfig::uniform(3, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.replication = 1;
        let mut st = SimState::new(cluster, one_reader(10.0 * MB), cfg);
        let only = st.blocks[0][0];
        let rep = st.machine_crash(only);
        // Nothing to copy from: the replica entry is retained so the
        // block is readable again after recovery.
        assert_eq!(rep.evacuations, 0);
        assert_eq!(st.blocks[0], vec![only]);
        assert!(st.dynamic_loads.is_empty());
    }

    #[test]
    fn evacuation_keeps_every_block_ascending_within_its_replication() {
        // 300 blocks, three replicas each on six machines; machines crash
        // one after another and none recovers. After every crash each
        // block is strictly ascending with one to three replicas, and a
        // down machine is left only as a block's sole replica.
        for evacuate in [true, false] {
            let mut w = one_task_workload(1.0, 1.0);
            w.num_blocks = 300;
            let cluster = ClusterConfig::uniform(6, MachineSpec::paper_small());
            let mut cfg = SimConfig::default();
            cfg.replication = 3;
            cfg.faults.evacuate = evacuate;
            let mut st = SimState::new(cluster, w, cfg);
            let mut sole_kept = 0;
            for m in 0..6 {
                st.machine_crash(MachineId(m));
                assert_eq!(st.blocks.len(), 300);
                for reps in st.blocks.iter() {
                    let case = format!("evacuate {evacuate}, after crash {m}: {reps:?}");
                    assert!(reps.windows(2).all(|p| p[0] < p[1]), "{case}");
                    assert!((1..=3).contains(&reps.len()), "{case}");
                    if reps.iter().any(|r| st.machines[r.index()].down) {
                        assert_eq!(reps.len(), 1, "{case}");
                        sole_kept += 1;
                    }
                }
            }
            assert!(
                sole_kept > 0,
                "evacuate {evacuate}: some block lost all but one"
            );
        }
    }
}
