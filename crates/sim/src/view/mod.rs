//! The scheduler-facing API: [`SchedulerPolicy`], [`Assignment`] and
//! [`ClusterView`].
//!
//! One file a concern (DESIGN.md "Engine and view layers"): `policy` holds
//! the trait and what crosses it, this file the view, `query` the
//! machine-selection layer, the constraint predicate and the shared
//! preemption planner, and `ledger` the working ledger a `schedule` call
//! charges its placements to.
//!
//! The protocol says one thing (DESIGN.md §11): *the view informs, and
//! says what changed.* The engine asks for decisions through
//! [`SchedulerPolicy::schedule`] and hands over nothing but a view of the
//! state as it stands. A policy may cache what is expensive to derive
//! from a job (candidate lists, remaining-work scores) provided it stamps
//! each entry with the epochs the view reports —
//! [`ClusterView::job_epoch`], which moves with the job's progress or
//! pending queues, and [`ClusterView::replica_epoch`], which moves when
//! block replicas may have — and rebuilds the entry when either differs.
//! Its answers must stay byte-identical to a rebuild from nothing (pinned
//! by `tests/schedule_equivalence.rs` against `tetris_core::ColdTetris`).
//! It must not keep a private copy of anything the view already answers —
//! free slots, active jobs, freed machines.
//!
//! The view exposes *reported* information — peak demands, machine
//! availability ledgers, tracker reports — never simulation ground truth
//! like actual flow rates, mirroring what a real cluster scheduler can
//! observe.

use tetris_resources::ResourceVec;
use tetris_workload::{JobId, PlacementConstraints, PriorityClass, TaskSpec, TaskUid};

use crate::cluster::MachineId;
use crate::state::{Phase, PlacementPlan, SimState};

mod ledger;
mod policy;
mod query;

pub use ledger::{PlanFailure, WorkingLedger};
pub use policy::{Assignment, SchedulerEvent, SchedulerPolicy, StageProgress};
pub use query::{plan_priority_preemption, MachineQuery};

/// Most tasks one preemptive assignment may evict
/// ([`ClusterView::max_evictions`]).
const MAX_EVICTIONS_PER_ASSIGNMENT: usize = 8;

/// The job-partition lens a sharded heartbeat applies to a view: the
/// shard's owned jobs and the commit stage's ledger of what earlier
/// shards/rounds of this heartbeat committed (see `crate::sharded`).
///
/// A scoped view narrows job enumeration to the shard's owned partition
/// and reads availability through the commit ledger, so an inner
/// policy sees a consistent "my jobs, remaining capacity" world without
/// knowing it runs sharded. Machine-level facts (capacity, down/suspect
/// flags, freed hints) stay global — every shard may place anywhere.
#[derive(Clone, Copy)]
pub(crate) struct ShardScope<'a> {
    /// The commit stage's ledger of this heartbeat.
    pub ledger: &'a WorkingLedger,
    /// The shard's active owned jobs in id order, pre-bucketed by the
    /// sharded driver once per heartbeat so each shard's job enumeration
    /// costs O(partition), not O(cluster jobs) — without this, every
    /// shard re-scans the whole job table per pass and the fan-out
    /// cannot beat one scheduler no matter how many cores run it.
    pub jobs: &'a [JobId],
}

/// Read-only snapshot interface over the simulation state.
#[derive(Clone, Copy)]
pub struct ClusterView<'a> {
    state: &'a SimState,
    tracker_aware: bool,
    capture: bool,
    scope: Option<ShardScope<'a>>,
}

impl<'a> ClusterView<'a> {
    pub(crate) fn new(state: &'a SimState, tracker_aware: bool) -> Self {
        ClusterView {
            state,
            tracker_aware,
            capture: false,
            scope: None,
        }
    }

    /// This view with provenance capture requested (the engine passes
    /// `obs.verbose()` on the views it hands to `schedule`).
    pub(crate) fn capturing(mut self, on: bool) -> Self {
        self.capture = on;
        self
    }

    /// True when the caller traces verbosely: policies should attach a
    /// [`PlacementProvenance`](tetris_obs::PlacementProvenance) to each
    /// [`Assignment`] they return. Capture
    /// is write-only bookkeeping — it must never change which assignments
    /// are produced. Policies without provenance ignore the flag.
    pub fn capture_provenance(&self) -> bool {
        self.capture
    }

    /// This view narrowed to one shard's job partition, with availability
    /// read through `scope`'s commit ledger. The result borrows for the
    /// ledger's (possibly shorter) lifetime — `&'a SimState` shrinks
    /// covariantly.
    pub(crate) fn scoped<'b>(&self, scope: ShardScope<'b>) -> ClusterView<'b>
    where
        'a: 'b,
    {
        ClusterView {
            scope: Some(scope),
            ..*self
        }
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.state.now.as_secs()
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.state.machines.len()
    }

    /// Capacity of a machine (zero while it is crashed: a down machine
    /// offers no hardware, so slot counts derived from capacity go to
    /// zero too).
    pub fn capacity(&self, m: MachineId) -> ResourceVec {
        let ms = &self.state.machines[m.index()];
        if ms.down {
            return ResourceVec::zero();
        }
        ms.capacity
    }

    /// True while the machine is crashed (fault injection). Down machines
    /// have zero capacity/availability and reject assignments.
    pub fn is_down(&self, m: MachineId) -> bool {
        self.state.machines[m.index()].down
    }

    /// True if the machine's tracker reports are currently suspect
    /// (missed, implausible, or frozen reports — see `tracker`). Policies
    /// should deprioritize suspect machines rather than blacklist them:
    /// graceful degradation, not capacity loss (DESIGN.md §10).
    pub fn is_suspect(&self, m: MachineId) -> bool {
        self.state.machines[m.index()].suspicion >= crate::tracker::SUSPECT_THRESHOLD
    }

    /// Scheduler-visible availability of a machine: capacity minus the
    /// demand ledger (minus tracker-reported external usage for
    /// tracker-aware policies). Negative components mean someone
    /// over-allocated. Shard-scoped views read what the commit stage's
    /// ledger leaves of it once racing shards' commits are charged.
    pub fn available(&self, m: MachineId) -> ResourceVec {
        let a = || self.state.availability(m, self.tracker_aware);
        match self.scope {
            Some(s) => s.ledger.residual(m, a),
            None => a(),
        }
    }

    /// Aggregate cluster capacity.
    pub fn total_capacity(&self) -> ResourceVec {
        self.state.total_capacity
    }

    /// Uids of the tasks currently running on a machine, in placement
    /// order (for slot accounting by slot-based policies).
    pub fn machine_tasks(&self, m: MachineId) -> &[TaskUid] {
        &self.state.machines[m.index()].running_tasks
    }

    /// Machines whose availability changed since the last heartbeat (a
    /// hint; may contain duplicates).
    ///
    /// The list is *fixed for the heartbeat*: every `schedule` call of one
    /// heartbeat sees the same hints, and frees the engine itself causes
    /// while applying a round (priority evictions) are not appended.
    /// Measured reason: appending them turns a cold heartbeat's follow-up
    /// rounds into warm passes over the evicted-from machines only, which
    /// moves `reproduce serving` Tetris from 0.2 % to 6.1 % SLO violations
    /// (up to 17.7 % in one wave).
    pub fn freed_machines(&self) -> &[MachineId] {
        &self.state.freed_hint
    }

    /// Jobs that have arrived and not finished, in id order. Shard-scoped
    /// views yield only the shard's owned partition.
    ///
    /// Allocation-free: the iterator borrows the underlying state (not the
    /// view), so it can outlive the `&self` borrow.
    pub fn active_jobs(&self) -> impl Iterator<Item = JobId> + 'a {
        // Scoped views iterate their partition list (O(partition));
        // unscoped ones scan the job table. The two halves of the chain
        // are mutually exclusive — `take(0)` empties the scan when the
        // list exists — and both yield id order, so the chain does too.
        // The list re-checks `is_active` for free exactness, though
        // activity cannot change within the heartbeat that built it.
        let state = self.state;
        let list: Option<&'a [JobId]> = self.scope.map(|s| s.jobs);
        let scan_take = if list.is_some() { 0 } else { usize::MAX };
        state
            .jobs
            .iter()
            .enumerate()
            .take(scan_take)
            .filter(|(_, j)| j.is_active())
            .map(|(i, _)| JobId(i))
            .chain(
                list.unwrap_or(&[])
                    .iter()
                    .copied()
                    .filter(move |&j| state.jobs[j.index()].is_active()),
            )
    }

    /// Job arrival time (seconds).
    pub fn job_arrival(&self, j: JobId) -> f64 {
        self.state.workload.jobs[j.index()].arrival
    }

    /// Recurring-job family of a job, if any (for demand estimation from
    /// prior runs, §4.1). Borrowed — `schedule()` is called per event, so
    /// cloning here would allocate on every decision.
    pub fn job_family(&self, j: JobId) -> Option<&'a str> {
        self.state.workload.jobs[j.index()].family.as_deref()
    }

    /// Sum of local peak demands of the job's currently running tasks —
    /// the job's current allocation, used for fair-share deficits.
    pub fn job_allocated(&self, j: JobId) -> ResourceVec {
        self.state.jobs[j.index()].allocated
    }

    /// The job's epoch: it moves whenever the job's progress or pending
    /// queues do — arrival, a placement, a finish, a requeue or
    /// preemption, an abandonment, a restart — and at no other time. A
    /// policy that caches what it derives from a job keys the entry on
    /// this value (module docs).
    pub fn job_epoch(&self, j: JobId) -> u64 {
        self.state.jobs[j.index()].epoch
    }

    /// The replica epoch: it moves when a machine crashes or recovers,
    /// since block re-replication then moves the locality preferences of
    /// every task ([`ClusterView::preferred_machines_into`]).
    pub fn replica_epoch(&self) -> u64 {
        self.state.replica_epoch
    }

    /// Number of running tasks of the job (slot-based fairness counts
    /// these).
    pub fn job_running(&self, j: JobId) -> usize {
        self.state.jobs[j.index()].running
    }

    /// Runnable, unplaced tasks of the job, in stage order.
    pub fn job_pending(&self, j: JobId) -> impl Iterator<Item = TaskUid> + 'a {
        self.state.jobs[j.index()]
            .stages
            .iter()
            .flat_map(|s| s.pending.iter().copied())
    }

    /// Zero-copy view of the job's pending tasks, one slice per stage with
    /// pending work, in stage order. Slices are stable for the duration of
    /// one `schedule()` invocation (the engine applies assignments only
    /// after the policy returns).
    pub fn job_pending_stages(
        &self,
        j: JobId,
    ) -> impl Iterator<Item = (usize, &'a [TaskUid])> + 'a {
        self.state.jobs[j.index()]
            .stages
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.pending.is_empty())
            .map(|(si, s)| (si, s.pending.as_slice()))
    }

    /// True iff the job has at least one runnable, unplaced task.
    pub fn job_has_pending(&self, j: JobId) -> bool {
        self.state.jobs[j.index()]
            .stages
            .iter()
            .any(|s| !s.pending.is_empty())
    }

    /// The pending slice of one stage (empty slice if none).
    pub fn stage_pending_slice(&self, j: JobId, si: usize) -> &[TaskUid] {
        &self.state.jobs[j.index()].stages[si].pending
    }

    /// A representative unscheduled task of a stage: the first pending one
    /// for unlocked stages, the stage's first task for locked ones, `None`
    /// if the stage has no unscheduled work. Tasks of a stage are
    /// statistically similar (§4.1), so one representative suffices for
    /// remaining-work scoring without walking the whole stage.
    pub fn stage_representative(&self, j: JobId, si: usize) -> Option<&TaskSpec> {
        let stage = &self.state.jobs[j.index()].stages[si];
        if stage.unlocked {
            stage.pending.first().map(|&uid| self.task(uid))
        } else {
            self.state.workload.jobs[j.index()].stages[si].tasks.first()
        }
    }

    /// Per-stage progress of a job.
    pub fn stage_progress(&self, j: JobId) -> impl Iterator<Item = StageProgress> + 'a {
        let js = &self.state.jobs[j.index()];
        let n = js.stages.len();
        js.stages
            .iter()
            .enumerate()
            .map(move |(si, s)| StageProgress {
                total: s.total,
                finished: s.finished,
                running: s.running,
                pending: s.pending.len(),
                // The end of the job is a barrier too (§3.5).
                feeds_barrier: s.feeds_downstream || si == n - 1,
                unlocked: s.unlocked,
            })
    }

    /// Fill `out` with the job's per-stage progress (reusable scratch form
    /// of [`ClusterView::stage_progress`] for indexed access on hot paths).
    pub fn stage_progress_into(&self, j: JobId, out: &mut Vec<StageProgress>) {
        out.clear();
        out.extend(self.stage_progress(j));
    }

    /// Static spec of a task (peak demands, work, inputs).
    pub fn task(&self, uid: TaskUid) -> &TaskSpec {
        self.state.spec(uid)
    }

    /// Owning job and stage of a task.
    pub fn task_stage(&self, uid: TaskUid) -> (JobId, usize) {
        let (j, s, _) = self.state.task_loc[uid.index()];
        (JobId(j), s)
    }

    /// The host and the local allocation of the task's running attempt,
    /// `None` if it is not running: what evicting it frees, and where.
    pub fn running_on(&self, uid: TaskUid) -> Option<(MachineId, ResourceVec)> {
        match &self.state.tasks[uid.index()].phase {
            Phase::Running(info) => Some((info.machine, info.local_alloc)),
            _ => None,
        }
    }

    /// Whether the task is currently runnable (pending placement).
    pub fn is_runnable(&self, uid: TaskUid) -> bool {
        matches!(self.state.tasks[uid.index()].phase, Phase::Runnable)
    }

    /// Seconds the task has been runnable without being placed (0 if it is
    /// not currently pending). Basis for starvation detection (§3.5).
    pub fn task_pending_age(&self, uid: TaskUid) -> f64 {
        let t = &self.state.tasks[uid.index()];
        match (&t.phase, t.runnable_since) {
            (Phase::Runnable, Some(since)) => self.state.now.secs_since(since),
            _ => 0.0,
        }
    }

    /// Resolve the placement-adjusted demands and estimated duration of
    /// running `task` on `machine` (paper §3.2 "Incorporating task
    /// placement").
    pub fn plan(&self, task: TaskUid, machine: MachineId) -> PlacementPlan {
        self.state.placement_plan(task, machine)
    }

    /// [`ClusterView::plan`] into a caller-owned plan (every field
    /// overwritten, its vectors reused): the form for a policy that plans
    /// in its inner loop and keeps one scratch plan.
    pub fn plan_into(&self, task: TaskUid, machine: MachineId, plan: &mut PlacementPlan) {
        self.state.placement_plan_into(task, machine, plan)
    }

    /// True if `task` placed on `machine` could read any input from the
    /// machine's own disks: it holds a replica of a stored input, or
    /// output of a shuffle input's upstream stage. On every machine where
    /// this is false [`ClusterView::plan`] returns the *same value*, so a
    /// plan that failed there on a remote source fails on all of them for
    /// as long as that source's availability does not grow.
    pub fn task_reads_locally(&self, task: TaskUid, machine: MachineId) -> bool {
        self.state.task_reads_locally(task, machine)
    }

    /// Fill `out` with the machines holding a replica of at least one of
    /// the task's stored input blocks (locality preferences), sorted and
    /// deduplicated. Caller-buffer form so hot paths can reuse one
    /// allocation across tasks and schedule calls.
    pub fn preferred_machines_into(&self, task: TaskUid, out: &mut Vec<MachineId>) {
        out.clear();
        self.preferred_machines_append(task, out);
    }

    /// As [`ClusterView::preferred_machines_into`] but appending to `out`
    /// (only the appended tail is sorted/deduped), returning the appended
    /// range — the arena form used by schedulers that keep all candidates'
    /// preference lists in one buffer.
    pub fn preferred_machines_append(
        &self,
        task: TaskUid,
        out: &mut Vec<MachineId>,
    ) -> (usize, usize) {
        let start = out.len();
        let spec = self.state.spec(task);
        for input in &spec.inputs {
            if let tetris_workload::InputSource::Stored(b) = input.source {
                out.extend_from_slice(&self.state.blocks[b.index()]);
            }
        }
        out[start..].sort_unstable();
        let mut w = start;
        for r in start..out.len() {
            if w == start || out[w - 1] != out[r] {
                out[w] = out[r];
                w += 1;
            }
        }
        out.truncate(w);
        (start, w - start)
    }

    /// Priority class of a job. Higher classes may preempt strictly lower
    /// ones when `SimConfig::preemption` is on.
    pub fn job_priority(&self, j: JobId) -> PriorityClass {
        self.state.workload.jobs[j.index()].priority
    }

    /// Priority class of a task's owning job (for victim selection).
    pub fn task_priority(&self, uid: TaskUid) -> PriorityClass {
        self.job_priority(self.state.job_of(uid))
    }

    /// Placement constraints of a job (affinity / anti-affinity / spread /
    /// taint tolerations). [`PlacementConstraints::has_any`] is the cheap
    /// fast-path test policies use to skip constraint filtering entirely
    /// on unconstrained (all-batch) workloads.
    pub fn job_constraints(&self, j: JobId) -> &'a PlacementConstraints {
        &self.state.workload.jobs[j.index()].constraints
    }

    /// True when the run allows priority preemption
    /// (`SimConfig::preemption`).
    pub fn preemption_enabled(&self) -> bool {
        self.state.cfg.preemption
    }

    /// Cap on victims per preemptive assignment: a guard against one
    /// placement flushing a whole machine.
    pub fn max_evictions(&self) -> usize {
        MAX_EVICTIONS_PER_ASSIGNMENT
    }

    /// Taint mask of a machine (0 when the run defines no taints).
    pub fn machine_taint(&self, m: MachineId) -> u64 {
        self.state.cfg.machine_taint(m.index())
    }

    /// Total number of pending runnable tasks across active (owned, on
    /// scoped views) jobs.
    pub fn num_pending(&self) -> usize {
        match self.scope {
            None => self.state.num_pending(),
            Some(_) => self
                .active_jobs()
                .flat_map(|j| self.state.jobs[j.index()].stages.iter())
                .map(|s| s.pending.len())
                .sum(),
        }
    }
}
