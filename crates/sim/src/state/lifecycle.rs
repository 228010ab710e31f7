//! Task and stage lifecycle: a job's arrival unlocks its root stages, a
//! placement charges the ledgers and starts the attempt's flows, and a
//! completion releases them and either finishes the task (unlocking the
//! stages that waited on its own) or, after a failure roll, requeues it.
//! The release and the requeue are also the last steps of a kill or a
//! preemption (`faults`).

use rand::Rng;
use tetris_resources::Resource;
use tetris_workload::{JobId, TaskUid};

use super::{Phase, RunInfo, SimState};
use crate::cluster::MachineId;
use crate::events::EventKind;

/// What [`SimState::task_complete`] did, so the engine can emit the
/// matching trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TaskCompletion {
    /// The task was not actually running; nothing changed.
    Stale,
    /// The failure model re-queued the attempt: the task lost its slot on
    /// `machine` and went back to pending.
    Requeued {
        /// Machine the failed attempt was running on.
        machine: MachineId,
    },
    /// The task finished for good.
    Finished {
        /// Machine the final attempt ran on.
        machine: MachineId,
        /// Attempts used.
        attempts: u32,
        /// True if this completion finished the whole job.
        job_finished: bool,
    },
}

impl SimState {
    /// Mark a job arrived and unlock its root stages.
    pub(crate) fn job_arrives(&mut self, job: JobId) {
        let ji = job.index();
        self.jobs[ji].arrived = true;
        self.touch_job(ji); // arrival
        let root_stages: Vec<usize> = self.workload.jobs[ji]
            .stages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.deps.is_empty())
            .map(|(i, _)| i)
            .collect();
        for si in root_stages {
            self.unlock_stage(ji, si);
        }
    }

    fn unlock_stage(&mut self, ji: usize, si: usize) {
        let stage = &mut self.jobs[ji].stages[si];
        if stage.unlocked {
            return;
        }
        stage.unlocked = true;
        stage.pending = std::mem::take(&mut stage.locked);
        let now = self.now;
        for &uid in &stage.pending {
            let t = &mut self.tasks[uid.index()];
            t.phase = Phase::Runnable;
            t.runnable_since = Some(now);
        }
        self.pending_total += stage.pending.len();
    }

    /// Check an assignment is applicable: the task is pending/runnable and
    /// the machine exists. Feasibility against capacity is deliberately
    /// *not* checked here — whether to over-allocate is the policy's
    /// decision, and letting baselines over-allocate is the point of the
    /// reproduction.
    pub(crate) fn assignment_valid(&self, task: TaskUid, machine: MachineId) -> bool {
        machine.index() < self.machines.len()
            && !self.machines[machine.index()].down
            && task.index() < self.tasks.len()
            && matches!(self.tasks[task.index()].phase, Phase::Runnable)
    }

    /// Place a runnable task on a machine: build flows, charge ledgers,
    /// schedule completion events.
    pub(crate) fn apply_assignment(&mut self, uid: TaskUid, machine: MachineId) {
        debug_assert!(self.assignment_valid(uid, machine));
        let mut plan = std::mem::take(&mut self.applied_plan);
        self.placement_plan_into(uid, machine, &mut plan);
        let (ji, si, _) = self.loc(uid);
        let spec = self.spec(uid);
        let d = spec.demand;
        let cpu_work = spec.cpu_work;
        let output_bytes = spec.output_bytes;
        let d_dr = d.get(Resource::DiskRead);

        // Build flows.
        let mut flows = Vec::new();
        if cpu_work > 0.0 {
            let links = vec![(machine, Resource::Cpu)];
            flows.push(self.add_flow(uid, machine, d.get(Resource::Cpu), links, cpu_work));
        }
        if output_bytes > 0.0 {
            let cap = d.get(Resource::DiskWrite);
            let links = vec![(machine, Resource::DiskWrite)];
            flows.push(self.add_flow(uid, machine, cap, links, output_bytes));
        }
        if plan.local_read_bytes > 0.0 {
            let links = vec![(machine, Resource::DiskRead)];
            flows.push(self.add_flow(uid, machine, d_dr, links, plan.local_read_bytes));
        }
        for (&(src, bytes), &(src2, dem)) in plan.remote_reads.iter().zip(&plan.remote) {
            debug_assert_eq!(src, src2);
            let links = vec![
                (src, Resource::DiskRead),
                (src, Resource::NetOut),
                (machine, Resource::NetIn),
            ];
            flows.push(self.add_flow(uid, machine, dem.get(Resource::DiskRead), links, bytes));
        }

        // Charge demand ledgers. A spread job counts the machine if it
        // is the first of the job's running tasks there.
        let new_host = self.counts_hosts(ji) && !self.hosts_job(machine, JobId(ji));
        let (now, ticks) = (self.now, self.tracker_ticks);
        let ms = &mut self.machines[machine.index()];
        ms.allocated += plan.local;
        if ticks {
            ms.recent.push((now, plan.local));
        }
        ms.running += 1;
        ms.running_tasks.push(uid);
        if plan.local.get(Resource::Mem) > 0.0 {
            self.dirty.insert_mem(machine.index());
        }
        for &(m, dem) in &plan.remote {
            let ms = &mut self.machines[m.index()];
            ms.allocated += dem;
            if ticks {
                ms.recent.push((now, dem));
            }
        }
        self.index_touch(machine.index());
        for &(m, _) in &plan.remote {
            self.index_touch(m.index());
        }

        // Job/stage bookkeeping.
        self.touch_job(ji); // placement
        let job = &mut self.jobs[ji];
        job.allocated += plan.local;
        job.running += 1;
        job.hosts += usize::from(new_host);
        job.first_start = Some(job.first_start.unwrap_or(now));
        let stage = &mut job.stages[si];
        stage.running += 1;
        let pos = stage
            .pending
            .iter()
            .position(|&t| t == uid)
            .expect("pending task not in its stage's pending list");
        stage.pending.swap_remove(pos);
        self.pending_total -= 1;

        // Task bookkeeping.
        let t = &mut self.tasks[uid.index()];
        t.attempts += 1;
        t.start = Some(now);
        t.machine = Some(machine);
        t.planned = Some(plan.est_duration);
        let flows_left = flows.len();
        let gen = t.attempts as u64;
        t.phase = Phase::Running(Box::new(RunInfo {
            machine,
            flows,
            flows_left,
            local_alloc: plan.local,
            remote_alloc: plan.remote.clone(),
            gen,
        }));

        if flows_left == 0 {
            // Zero-work task: completes immediately.
            self.queue.push(now, EventKind::TaskDone { task: uid, gen });
        }
        self.applied_plan = plan;
    }

    /// Take the running attempt of `uid` out of its phase, which becomes
    /// `then`; `None`, the phase untouched, if the task is not running.
    pub(super) fn take_attempt(&mut self, uid: TaskUid, then: Phase) -> Option<Box<RunInfo>> {
        let phase = &mut self.tasks[uid.index()].phase;
        match std::mem::replace(phase, then) {
            Phase::Running(info) => Some(info),
            other => {
                *phase = other;
                None
            }
        }
    }

    /// Release every ledger an attempt charged: the host's and each
    /// source's allocation, the host's running set, the job and stage
    /// counters. Hints the host, then the sources, as freed. How every
    /// attempt ends — completed, failed, killed or preempted.
    pub(super) fn release_attempt(&mut self, uid: TaskUid, info: &RunInfo) {
        let (ji, si, _) = self.loc(uid);
        let host = info.machine;
        let ms = &mut self.machines[host.index()];
        ms.allocated = (ms.allocated - info.local_alloc).clamp_non_negative();
        ms.running -= 1;
        ms.running_tasks.retain(|&t| t != uid);
        if info.local_alloc.get(Resource::Mem) > 0.0 {
            self.dirty.insert_mem(host.index());
        }
        self.freed_hint.push(host);
        for &(m, dem) in &info.remote_alloc {
            let ms = &mut self.machines[m.index()];
            ms.allocated = (ms.allocated - dem).clamp_non_negative();
            self.freed_hint.push(m);
        }
        self.index_touch(host.index());
        for &(m, _) in &info.remote_alloc {
            self.index_touch(m.index());
        }
        // A spread job leaves the host with its last running task there.
        let left_host = self.counts_hosts(ji) && !self.hosts_job(host, JobId(ji));
        let job = &mut self.jobs[ji];
        job.allocated = (job.allocated - info.local_alloc).clamp_non_negative();
        job.running -= 1;
        job.hosts -= usize::from(left_host);
        job.stages[si].running -= 1;
    }

    /// Whether job `ji` keeps `JobState::hosts`: it has a spread floor.
    /// Batch jobs never pay for the count.
    fn counts_hosts(&self, ji: usize) -> bool {
        self.workload.jobs[ji].constraints.spread.is_some()
    }

    /// Return a task to runnable as of now, at the back of its stage's
    /// pending list: a failed attempt's retry, a kill without backoff, a
    /// preemption, a backoff's end.
    pub(super) fn requeue(&mut self, uid: TaskUid) {
        let (ji, si, _) = self.loc(uid);
        let t = &mut self.tasks[uid.index()];
        t.phase = Phase::Runnable;
        t.runnable_since = Some(self.now);
        self.jobs[ji].stages[si].pending.push(uid);
        self.pending_total += 1;
    }

    /// Complete (or fail-and-retry) a task whose work is all done.
    /// Reports what happened so the engine can trace it.
    pub(crate) fn task_complete(&mut self, uid: TaskUid) -> TaskCompletion {
        let Some(info) = self.take_attempt(uid, Phase::Finished) else {
            return TaskCompletion::Stale;
        };
        self.release_attempt(uid, &info);
        self.touch_job(self.loc(uid).0); // finish or failure retry
        let host = info.machine;

        // Failure roll: rerun the task from scratch.
        let attempts = self.tasks[uid.index()].attempts;
        if self.cfg.task_failure_prob > 0.0
            && attempts < self.cfg.max_task_attempts
            && self.rng.gen::<f64>() < self.cfg.task_failure_prob
        {
            self.tasks[uid.index()].machine = None;
            self.requeue(uid);
            return TaskCompletion::Requeued { machine: host };
        }

        // Genuine completion.
        let (ji, si, _) = self.loc(uid);
        self.completions += 1;
        self.tasks[uid.index()].finish = Some(self.now);
        let out = self.spec(uid).output_bytes;
        if out > 0.0 {
            let stage = &mut self.jobs[ji].stages[si];
            // A finished stage's map is ranked once (`rank_stage`).
            debug_assert!(stage.finished < stage.total, "output after stage end");
            let outs = &mut stage.out_by_machine;
            match outs.binary_search_by_key(&host, |&(m, _)| m) {
                Ok(i) => outs[i].1 += out,
                Err(i) => outs.insert(i, (host, out)),
            }
            stage.total_out += out;
        }
        let job_finished = self.note_task_terminal(ji, si);
        TaskCompletion::Finished {
            machine: host,
            attempts,
            job_finished,
        }
    }

    /// Account one task of `(ji, si)` reaching a terminal state (finished
    /// or abandoned): bump the finished counters, unlock downstream stages
    /// whose dependencies are all complete, and finish the job when its
    /// last task terminates. Returns true iff the job finished.
    pub(super) fn note_task_terminal(&mut self, ji: usize, si: usize) -> bool {
        let job = &mut self.jobs[ji];
        job.finished_tasks += 1;
        let stage = &mut job.stages[si];
        stage.finished += 1;
        let stage_done = stage.finished == stage.total;

        if stage_done {
            self.rank_stage(ji, si);
            // Unlock downstream stages whose deps are all complete.
            let to_unlock: Vec<usize> = self.workload.jobs[ji]
                .stages
                .iter()
                .enumerate()
                .filter(|(di, ds)| {
                    !self.jobs[ji].stages[*di].unlocked
                        && ds.deps.contains(&si)
                        && ds.deps.iter().all(|&dep| {
                            self.jobs[ji].stages[dep].finished == self.jobs[ji].stages[dep].total
                        })
                })
                .map(|(di, _)| di)
                .collect();
            for di in to_unlock {
                self.unlock_stage(ji, di);
            }
        }

        let job = &mut self.jobs[ji];
        let job_finished = job.finished_tasks == job.total_tasks;
        if job_finished {
            job.finish = Some(self.now);
            self.jobs_remaining -= 1;
        }
        job_finished
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{mk_state, one_task_workload, params};
    use super::super::Replicas;
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::config::SimConfig;
    use crate::time::SimTime;
    use tetris_resources::{units::MB, MachineSpec, ResourceVec};
    use tetris_workload::WorkloadBuilder;

    /// True if the completion finished its whole job.
    fn job_finished(c: TaskCompletion) -> bool {
        matches!(
            c,
            TaskCompletion::Finished {
                job_finished: true,
                ..
            }
        )
    }

    #[test]
    fn arrival_unlocks_root_stage() {
        let mut st = mk_state(one_task_workload(1.0, 10.0));
        assert!(matches!(st.tasks[0].phase, Phase::Blocked));
        st.job_arrives(JobId(0));
        assert!(matches!(st.tasks[0].phase, Phase::Runnable));
        assert_eq!(st.jobs[0].stages[0].pending, vec![TaskUid(0)]);
    }

    #[test]
    fn flow_done_completes_task() {
        let mut st = mk_state(one_task_workload(1.0, 5.0));
        st.job_arrives(JobId(0));
        st.apply_assignment(TaskUid(0), MachineId(0));
        st.recompute_dirty();
        let ev = st.queue.pop().unwrap();
        st.now = ev.time;
        let done = match ev.kind {
            EventKind::FlowDone { flow } => st.flow_done(flow),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(done, Some(TaskUid(0)));
        let done = st.task_complete(TaskUid(0));
        assert!(job_finished(done));
        assert_eq!(st.jobs_remaining, 0);
        assert_eq!(st.jobs[0].finish, Some(SimTime::from_secs(5.0)));
        // Ledger fully released.
        assert!(st.machines[0].allocated.is_zero());
    }

    #[test]
    fn task_failure_requeues() {
        let w = one_task_workload(1.0, 5.0);
        let cluster = ClusterConfig::uniform(2, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.task_failure_prob = 0.999_999;
        cfg.max_task_attempts = 2;
        let mut st = SimState::new(cluster, w, cfg);
        st.job_arrives(JobId(0));
        st.apply_assignment(TaskUid(0), MachineId(0));
        st.recompute_dirty();
        st.now = SimTime::from_secs(5.0);
        // First completion fails (attempts=1 < max 2) → requeued.
        let done = st.task_complete(TaskUid(0));
        assert_eq!(
            done,
            TaskCompletion::Requeued {
                machine: MachineId(0)
            }
        );
        assert!(matches!(st.tasks[0].phase, Phase::Runnable));
        assert_eq!(st.jobs[0].stages[0].pending, vec![TaskUid(0)]);
        // Second attempt hits the attempt cap and must complete.
        st.apply_assignment(TaskUid(0), MachineId(0));
        let done = st.task_complete(TaskUid(0));
        assert!(job_finished(done));
    }

    #[test]
    fn each_job_transition_moves_the_job_epoch_and_nothing_else_does() {
        let w = one_task_workload(1.0, 5.0);
        let cluster = ClusterConfig::uniform(2, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.task_failure_prob = 0.999_999;
        cfg.max_task_attempts = 2;
        let mut st = SimState::new(cluster, w, cfg);
        let replica_epoch = st.replica_epoch;
        let mut last = st.jobs[0].epoch;
        let mut moved = |st: &SimState| {
            let before = std::mem::replace(&mut last, st.jobs[0].epoch);
            before != last
        };
        st.job_arrives(JobId(0));
        assert!(moved(&st), "arrival");
        st.apply_assignment(TaskUid(0), MachineId(0));
        assert!(moved(&st), "placement");
        st.recompute_dirty();
        assert!(!moved(&st), "a rate recompute");
        assert!(matches!(
            st.task_complete(TaskUid(0)),
            TaskCompletion::Requeued { .. }
        ));
        assert!(moved(&st), "requeue");
        st.apply_assignment(TaskUid(0), MachineId(1));
        assert!(moved(&st), "placement");
        assert!(job_finished(st.task_complete(TaskUid(0))));
        assert!(moved(&st), "finish");
        assert!(matches!(
            st.task_complete(TaskUid(0)),
            TaskCompletion::Stale
        ));
        assert!(!moved(&st), "a stale completion");
        assert_eq!(st.replica_epoch, replica_epoch);
    }

    #[test]
    fn every_exit_releases_the_attempt_alike() {
        // One task on machine 0 reading a block stored there and one
        // stored on machine 1, holding 1 GB: the attempt charges the host
        // (memory included) and a remote source. Completion, a crash kill
        // and a preemption must each hand back exactly what it charged.
        let placed = || {
            let mut b = WorkloadBuilder::new();
            let j = b.begin_job("j", None, 0.0);
            let inputs = vec![b.stored_input(100.0 * MB), b.stored_input(50.0 * MB)];
            b.add_stage(j, "s", vec![], 1, |_| params(1.0, 10.0, inputs.clone()));
            let cluster = ClusterConfig::uniform(3, MachineSpec::paper_small());
            let mut st = SimState::new(cluster, b.finish(), SimConfig::default());
            st.blocks = Replicas::from_lists(&[&[MachineId(0)], &[MachineId(1)]]);
            st.job_arrives(JobId(0));
            st.apply_assignment(TaskUid(0), MachineId(0));
            st.recompute_dirty();
            let (host, src) = (&st.machines[0], &st.machines[1]);
            assert!(host.allocated.get(Resource::Mem) > 0.0);
            assert!(host.allocated.get(Resource::DiskRead) > 0.0);
            assert!(src.allocated.get(Resource::NetOut) > 0.0);
            st
        };
        let complete = |st: &mut SimState| {
            while let Some(ev) = st.queue.pop() {
                st.now = ev.time;
                if let EventKind::FlowDone { flow } = ev.kind {
                    if let Some(t) = st.flow_done(flow) {
                        assert!(job_finished(st.task_complete(t)));
                    }
                }
                st.recompute_dirty();
            }
        };
        let kill = |st: &mut SimState| assert!(st.kill_task(TaskUid(0)).is_some());
        let preempt = |st: &mut SimState| assert!(st.preempt_task(TaskUid(0)).is_some());
        let exits: [&dyn Fn(&mut SimState); 3] = [&complete, &kill, &preempt];
        let released: Vec<_> = exits
            .iter()
            .map(|exit| {
                let mut st = placed();
                exit(&mut st);
                let machine = |m: &crate::state::MachineState| {
                    let tasks = m.running_tasks.clone();
                    (m.allocated, m.running, tasks, m.link_demand)
                };
                let machines: Vec<_> = st.machines.iter().map(machine).collect();
                let (job, stage) = (&st.jobs[0], &st.jobs[0].stages[0]);
                let counters = (job.running, job.allocated, stage.running);
                (machines, counters, st.freed_hint.clone())
            })
            .collect();
        assert_eq!(released[0], released[1]);
        assert_eq!(released[0], released[2]);
        let (machines, counters, freed) = &released[0];
        assert!(machines.iter().all(|(allocated, running, _, demand)| {
            allocated.is_zero() && *running == 0 && demand.iter().all(|&d| d == 0.0)
        }));
        assert_eq!(*counters, (0, ResourceVec::zero(), 0));
        assert_eq!(*freed, [MachineId(0), MachineId(1)]);
    }
}
