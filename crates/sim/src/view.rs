//! The scheduler-facing API: [`SchedulerPolicy`], [`SchedulerEvent`],
//! [`Assignment`] and [`ClusterView`].
//!
//! The protocol says one thing (DESIGN.md §11): *events name which cached,
//! job-derived state to invalidate; every fact the view exposes is read
//! from the view.* Whenever scheduling-relevant state changes, the engine
//! first delivers the typed [`SchedulerEvent`]s naming *what* changed
//! through [`SchedulerPolicy::on_event`], then asks for decisions through
//! [`SchedulerPolicy::schedule`]. A policy may ignore events entirely —
//! the default `on_event` is a no-op, which is the "mark all dirty"
//! contract: `schedule` then derives everything it needs from the view.
//! A policy that *does* consume events may cache what is expensive to
//! derive from a job (candidate lists, remaining-work scores) and rebuild
//! only the entries an event named, provided its answers stay
//! byte-identical to its own mark-all-dirty behaviour (pinned by
//! `tests/schedule_equivalence.rs` and the [`MarkAllDirty`] oracle). It
//! must not keep a private copy of anything the view already answers —
//! free slots, active jobs, freed machines: a copy built from events is
//! empty on a policy attached mid-run (crash recovery) and goes stale
//! wherever the engine mutates state without narrating it.
//!
//! The view exposes *reported* information — peak demands, machine
//! availability ledgers, tracker reports — never simulation ground truth
//! like actual flow rates, mirroring what a real cluster scheduler can
//! observe.

use tetris_obs::{DecisionScores, PlacementProvenance};
use tetris_resources::ResourceVec;
use tetris_workload::{JobId, PlacementConstraints, PriorityClass, TaskSpec, TaskUid};

use crate::cluster::MachineId;
use crate::sharded::{owner_shard, CommitOverlay};
use crate::state::{Phase, PlacementPlan, SimState};

/// Most tasks one preemptive assignment may evict
/// ([`ClusterView::max_evictions`]).
const MAX_EVICTIONS_PER_ASSIGNMENT: usize = 8;

/// A scheduling decision: run `task` on `machine`, optionally after
/// evicting strictly-lower-priority running tasks from it (priority
/// preemption, DESIGN.md §16).
///
/// Scoring policies (Tetris) attach a [`DecisionScores`] breakdown so the
/// trace can explain *why* each placement won; slot baselines leave it
/// `None`. Under verbose tracing ([`ClusterView::capture_provenance`])
/// policies also attach the decision's [`PlacementProvenance`]. Scores
/// and provenance are observability payload only — the engine ignores
/// them when applying the assignment. The eviction list is *not*
/// advisory: the engine tears each victim down (requeueing it without
/// charging an attempt) before applying the placement, after verifying
/// that every victim runs on `machine` and has strictly lower priority
/// than `task`'s job — an assignment with an invalid victim is rejected
/// whole.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The task to place (must currently be runnable).
    pub task: TaskUid,
    /// The machine to place it on.
    pub machine: MachineId,
    /// Optional score breakdown for decision tracing.
    pub scores: Option<DecisionScores>,
    /// Losing candidates and cache bookkeeping behind this decision.
    /// Filled only when the view asked for it
    /// ([`ClusterView::capture_provenance`]); boxed so the default path
    /// pays one pointer.
    pub provenance: Option<Box<PlacementProvenance>>,
    /// Running tasks to evict from `machine` before placing (empty for
    /// ordinary placements; only honored when `SimConfig::preemption` is
    /// on).
    pub evict: Vec<TaskUid>,
}

impl Assignment {
    /// Assignment without score annotations (baselines).
    pub fn new(task: TaskUid, machine: MachineId) -> Self {
        Assignment {
            task,
            machine,
            scores: None,
            provenance: None,
            evict: Vec::new(),
        }
    }

    /// Attach a score breakdown (scoring policies).
    #[must_use]
    pub fn with_scores(mut self, scores: DecisionScores) -> Self {
        self.scores = Some(scores);
        self
    }

    /// Attach decision provenance (verbose tracing).
    #[must_use]
    pub fn with_provenance(mut self, provenance: PlacementProvenance) -> Self {
        self.provenance = Some(Box::new(provenance));
        self
    }

    /// Attach an eviction list (priority preemption).
    #[must_use]
    pub fn with_evictions(mut self, evict: Vec<TaskUid>) -> Self {
        self.evict = evict;
        self
    }
}

/// A scheduling-relevant state change, delivered to policies through
/// [`SchedulerPolicy::on_event`] before each scheduling round.
///
/// Every variant names job-derived state a policy may have cached: six
/// name the one job whose progress or pending queues moved, two name a
/// machine crash/recovery, after which block re-replication has moved
/// placement preferences for *every* job (DESIGN.md §11). Facts the view
/// answers directly — availability, freed-machine hints, suspicion,
/// tracker reports, external load — have no event: read them from the
/// view. A policy is free to ignore any event as long as its `schedule`
/// answers account for the change some other way.
///
/// Delivery guarantees (the determinism contract):
///
/// * every arrival, placement, completion, preemption, abandonment,
///   restart, crash and recovery is delivered, in simulation order,
///   before the next `schedule` call after it occurred (placements and
///   priority evictions the engine applies between two rounds of one
///   heartbeat included);
/// * events are invalidation hints, not state deltas: treating one as
///   "mark dirty" is always safe, summing them into a copy of view state
///   is not (module docs);
/// * machine slowdowns are deliberately **not** delivered: they alter
///   flow rates, which are simulation ground truth the scheduler cannot
///   observe (§4.1 trackers report usage, not speed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerEvent {
    /// A job arrived; its root stages became pending.
    JobArrived {
        /// The arriving job.
        job: JobId,
    },
    /// The engine applied an assignment: `task` now runs on `machine`.
    TaskPlaced {
        /// Owning job.
        job: JobId,
        /// The placed task.
        task: TaskUid,
        /// Host machine.
        machine: MachineId,
    },
    /// A task finished for good; its resources were released.
    TaskFinished {
        /// Owning job.
        job: JobId,
        /// The finished task.
        task: TaskUid,
        /// The machine that hosted it.
        machine: MachineId,
    },
    /// A running attempt was torn down (failure retry or machine crash)
    /// and the task returned to the pending queue (or a restart backoff).
    TaskPreempted {
        /// Owning job.
        job: JobId,
        /// The preempted task.
        task: TaskUid,
        /// The machine that hosted the killed attempt.
        machine: MachineId,
    },
    /// A task permanently failed at the attempt cap; its stage counts it
    /// as terminal.
    TaskAbandoned {
        /// Owning job.
        job: JobId,
        /// The abandoned task.
        task: TaskUid,
        /// The machine that hosted the final attempt.
        machine: MachineId,
    },
    /// A crash-killed task finished its restart backoff and is pending
    /// again.
    TaskRunnable {
        /// Owning job.
        job: JobId,
        /// The again-runnable task.
        task: TaskUid,
    },
    /// A machine crashed: zero capacity, residents killed, blocks
    /// re-replicating — locality preference lists are globally stale.
    MachineDown {
        /// The crashed machine.
        machine: MachineId,
    },
    /// A crashed machine came back empty.
    MachineUp {
        /// The recovered machine.
        machine: MachineId,
    },
}

/// A cluster scheduling policy.
///
/// Implementations must be deterministic functions of the views and
/// events they see (plus their own seeded state): the whole simulator is
/// bit-reproducible and the test suite relies on it.
pub trait SchedulerPolicy {
    /// Short name for reports ("tetris", "drf", "fair", ...). Borrowed —
    /// it is read per schedule round and per trace event, so allocating
    /// here would cost on every decision.
    fn name(&self) -> &str;

    /// Observe one scheduling-relevant state change (see
    /// [`SchedulerEvent`] for the taxonomy and delivery guarantees).
    ///
    /// The default does nothing — the *mark-all-dirty* contract: a policy
    /// that ignores events must treat every `schedule` call as if
    /// anything may have changed, which is exactly the behaviour of the
    /// pre-event stateless API. Incremental policies override this to
    /// invalidate only what the event touches.
    fn on_event(&mut self, view: &ClusterView<'_>, event: &SchedulerEvent) {
        let _ = (view, event);
    }

    /// Pick assignments for the current state. Called repeatedly within a
    /// scheduling round until it returns an empty batch; implementations
    /// should therefore return *all* assignments they can justify now,
    /// maintaining their own working copy of availability while choosing.
    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment>;

    /// Whether this policy subtracts tracker-reported external usage
    /// (ingestion, evacuation, misbehaving processes) from machine
    /// availability. Tetris does (§4.3); slot-based baselines do not.
    fn uses_tracker(&self) -> bool {
        false
    }

    /// Drain any metrics the policy accumulated internally into
    /// `metrics`, resetting its own tally. Called once by the engine at
    /// end of run, next to the free-capacity index drain; probes and
    /// experiments may call it directly. Contributions must be
    /// zero-gated (a policy with nothing to report adds no names to the
    /// snapshot) and must never influence scheduling decisions. The
    /// default reports nothing.
    fn drain_metrics(&mut self, metrics: &mut tetris_obs::MetricsRegistry) {
        let _ = metrics;
    }

    /// Serialize the policy state that persists across `schedule()` calls
    /// and is **not** reconstructible from the view: §3.5 starvation
    /// reservations, learned-estimator family history, and the like.
    /// Caches invalidated per-event are explicitly *excluded* — a rebuilt
    /// cache entry must equal the incrementally maintained one (the
    /// mark-all-dirty contract), so caches never need checkpointing.
    ///
    /// The engine stores this blob in every crash-recovery checkpoint
    /// (DESIGN.md §15) and hands it back through
    /// [`SchedulerPolicy::import_state`] on a freshly built policy when a
    /// run resumes. Policies whose only cross-call state is cache keep
    /// the default `None`. The format is policy-private; it only ever
    /// round-trips through the same policy type.
    fn export_state(&self) -> Option<String> {
        None
    }

    /// Restore state produced by [`SchedulerPolicy::export_state`] on an
    /// identically configured policy. Called at most once, before any
    /// `on_event`/`schedule` call, when a run resumes from a checkpoint.
    /// The default ignores the blob (correct for policies that export
    /// `None`).
    fn import_state(&mut self, state: &str) {
        let _ = state;
    }
}

/// Any policy converts into a boxed trait object, so builder entry points
/// (notably `Simulation::scheduler`) accept concrete policies and
/// pre-boxed ones through one `impl Into<Box<dyn SchedulerPolicy>>`
/// parameter (the `std::error::Error` pattern).
impl<T: SchedulerPolicy + 'static> From<T> for Box<dyn SchedulerPolicy> {
    fn from(policy: T) -> Self {
        Box::new(policy)
    }
}

/// Adapter that suppresses event delivery to the wrapped policy, forcing
/// its mark-all-dirty (full re-scan) path on every `schedule` call.
///
/// This is the *oracle* the equivalence suite and the Table-8 experiment
/// compare incremental policies against: the wrapped policy never sees an
/// event, so it can never sync its caches and must recompute from the
/// view alone — the exact behaviour of the pre-event API.
pub struct MarkAllDirty<P>(pub P);

impl<P: SchedulerPolicy> SchedulerPolicy for MarkAllDirty<P> {
    fn name(&self) -> &str {
        self.0.name()
    }

    // No `on_event` override: the trait default swallows every event, so
    // the inner policy stays on its view-only path.

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        self.0.schedule(view)
    }

    fn uses_tracker(&self) -> bool {
        self.0.uses_tracker()
    }

    fn drain_metrics(&mut self, metrics: &mut tetris_obs::MetricsRegistry) {
        self.0.drain_metrics(metrics);
    }

    fn export_state(&self) -> Option<String> {
        self.0.export_state()
    }

    fn import_state(&mut self, state: &str) {
        self.0.import_state(state);
    }
}

/// Per-stage progress visible to policies (for the barrier knob, §3.5).
#[derive(Debug, Clone, Copy)]
pub struct StageProgress {
    /// Total tasks in the stage.
    pub total: usize,
    /// Finished tasks.
    pub finished: usize,
    /// Currently running tasks.
    pub running: usize,
    /// Pending (runnable, unplaced) tasks.
    pub pending: usize,
    /// True if a later stage depends on this one (it precedes a barrier).
    /// The end of the job also acts as a barrier (§3.5), so policies treat
    /// the final stage as barrier-feeding too.
    pub feeds_barrier: bool,
    /// True once upstream dependencies completed and tasks became runnable.
    pub unlocked: bool,
}

/// The job-partition lens a sharded heartbeat applies to a view: which
/// shard the wrapped policy is, how many shards exist, the stable
/// partitioning seed, and the demand already committed by earlier
/// shards/rounds of this heartbeat (see `crate::sharded`).
///
/// A scoped view narrows job enumeration to the shard's owned partition
/// and subtracts the commit overlay from availability, so an inner
/// policy sees a consistent "my jobs, remaining capacity" world without
/// knowing it runs sharded. Machine-level facts (capacity, down/suspect
/// flags, freed hints) stay global — every shard may place anywhere.
#[derive(Clone, Copy)]
pub(crate) struct ShardScope<'a> {
    /// This shard's index in `0..shards`.
    pub shard: usize,
    /// Total shard count (≥ 2 on scoped views).
    pub shards: usize,
    /// Stable seed of the job → shard hash.
    pub seed: u64,
    /// Demand committed by earlier shards/rounds of this heartbeat.
    pub overlay: &'a CommitOverlay,
    /// The shard's active owned jobs in id order, pre-bucketed by the
    /// sharded driver once per heartbeat so each shard's job enumeration
    /// costs O(partition), not O(cluster jobs) — without this, every
    /// shard re-scans the whole job table per pass and the fan-out
    /// cannot beat one scheduler no matter how many cores run it.
    /// `None` (event delivery) falls back to the hash-filtered scan.
    pub jobs: Option<&'a [JobId]>,
}

/// Read-only snapshot interface over the simulation state.
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
    /// [`PlacementProvenance`] to each [`Assignment`] they return. Capture
    /// is write-only bookkeeping — it must never change which assignments
    /// are produced. Policies without provenance ignore the flag.
    pub fn capture_provenance(&self) -> bool {
        self.capture
    }

    /// This view narrowed to one shard's job partition, with `scope`'s
    /// commit overlay charged against availability. The result borrows
    /// for the overlay's (possibly shorter) lifetime — `&'a SimState`
    /// shrinks covariantly.
    pub(crate) fn scoped<'b>(&self, scope: ShardScope<'b>) -> ClusterView<'b>
    where
        'a: 'b,
    {
        ClusterView {
            state: self.state,
            tracker_aware: self.tracker_aware,
            capture: self.capture,
            scope: Some(scope),
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

    /// Machine-selection interface (indexed when the simulation maintains
    /// the free-capacity index, linear-scan oracle otherwise). This is the
    /// only way a policy may enumerate machines — flat iteration lives on
    /// [`MachineQuery::iter_all`].
    pub fn query(&self) -> MachineQuery<'a> {
        MachineQuery {
            state: self.state,
            tracker_aware: self.tracker_aware,
            scope: self.scope,
        }
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
    /// over-allocated. Shard-scoped views additionally subtract the
    /// demand already committed this heartbeat by racing shards.
    pub fn available(&self, m: MachineId) -> ResourceVec {
        let mut a = self.state.availability(m, self.tracker_aware);
        if let Some(s) = self.scope {
            if let Some(c) = s.overlay.charged(m) {
                a -= *c;
            }
        }
        a
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
        // Scoped views with a pre-bucketed partition list iterate the
        // list (O(partition)); everything else scans the job table. The
        // two halves of the chain are mutually exclusive — `take(0)`
        // empties the scan when the list exists — and both yield id
        // order, so the chain does too. The list re-checks `is_active`
        // for free exactness, though activity cannot change within the
        // heartbeat that built the list.
        let state = self.state;
        let list: Option<&'a [JobId]> = self.scope.and_then(|s| s.jobs);
        let scan_take = if list.is_some() { 0 } else { usize::MAX };
        let part = self.scope.map(|s| (s.shard, s.shards, s.seed));
        state
            .jobs
            .iter()
            .enumerate()
            .take(scan_take)
            .filter(|(_, j)| j.is_active())
            .map(|(i, _)| JobId(i))
            .filter(move |&j| match part {
                None => true,
                Some((shard, shards, seed)) => owner_shard(j, shards, seed) == shard,
            })
            .chain(
                list.unwrap_or(&[])
                    .iter()
                    .copied()
                    .filter(move |&j| state.jobs[j.index()].is_active()),
            )
    }

    /// True iff at least one (owned, on scoped views) job has arrived and
    /// not finished.
    pub fn has_active_jobs(&self) -> bool {
        match self.scope {
            None => self.state.jobs.iter().any(|j| j.is_active()),
            Some(_) => self.active_jobs().next().is_some(),
        }
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
            self.state.workload.jobs[j.index()].stages[si]
                .tasks
                .first()
                .map(|t| {
                    let uid = t.uid;
                    self.task(uid)
                })
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
        let (j, _, _) = self.state.task_loc[uid.index()];
        self.state.workload.jobs[j].priority
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

    /// True when the run defines machine taints — with job constraints'
    /// [`PlacementConstraints::has_any`], the cheap test policies use to
    /// skip constraint filtering on unconstrained runs entirely.
    pub fn taints_active(&self) -> bool {
        !self.state.cfg.machine_taints.is_empty()
    }

    /// Number of distinct machines currently hosting running tasks of the
    /// job (the spread count of its constraint floor).
    pub fn job_spread(&self, j: JobId) -> usize {
        job_spread_raw(self.state, j)
    }

    /// Whether job `j`'s placement constraints allow machine `m` *right
    /// now* (DESIGN.md §16): taints, anti-affinity, affinity (vacuous
    /// while no listed job has a running task, so first replicas can
    /// bootstrap), and the spread floor (a machine already hosting the
    /// job is ineligible until its running tasks span the floor).
    /// Down/suspect filtering is *not* included — compose with the query
    /// layer's considered filter.
    pub fn constraints_allow(&self, j: JobId, m: MachineId) -> bool {
        constraints_allow_raw(self.state, j, self.job_constraints(j), m)
    }

    /// Total number of pending runnable tasks across active (owned, on
    /// scoped views) jobs.
    pub fn num_pending(&self) -> usize {
        match self.scope {
            None => self
                .state
                .jobs
                .iter()
                .filter(|j| j.is_active())
                .flat_map(|j| j.stages.iter())
                .map(|s| s.pending.len())
                .sum(),
            Some(_) => self
                .active_jobs()
                .flat_map(|j| self.state.jobs[j.index()].stages.iter())
                .map(|s| s.pending.len())
                .sum(),
        }
    }
}

/// Machine-selection interface over one scheduling view: the single
/// source of machine-enumeration truth for every policy (DESIGN.md §13).
///
/// Two interchangeable backends serve it. When the simulation maintains
/// the free-capacity index (`SimConfig::machine_index`, the default),
/// threshold queries are answered from per-resource bucket suffixes in
/// time proportional to the machines that can match, not cluster size;
/// with the index disabled every method falls back to a linear scan —
/// the oracle `sim/tests/prop_index.rs` pins the indexed backend
/// decision-identical against. Results never differ between backends:
/// the index only ever *prunes* machines whose availability upper bound
/// already rules them out, and exact predicates re-filter the survivors.
///
/// A machine is *considered* when it is neither down nor suspect —
/// the standing candidate filter shared by every shipping policy.
pub struct MachineQuery<'a> {
    state: &'a SimState,
    tracker_aware: bool,
    scope: Option<ShardScope<'a>>,
}

impl<'a> MachineQuery<'a> {
    /// Availability as this query's view sees it: the state's ledger
    /// value, minus the commit overlay on shard-scoped queries. Exact
    /// filters and envelopes use this; the `ub`-based pruning paths stay
    /// unscoped (the overlay only *lowers* availability, so the superset
    /// stays sound).
    #[inline]
    fn scoped_availability(&self, mi: usize) -> ResourceVec {
        let mut a = self.state.availability(MachineId(mi), self.tracker_aware);
        if let Some(s) = self.scope {
            if let Some(c) = s.overlay.charged(MachineId(mi)) {
                a -= *c;
            }
        }
        a
    }

    /// True when queries are served by the free-capacity index.
    pub fn indexed(&self) -> bool {
        self.state.index.enabled
    }

    /// All machine ids in id order, down and suspect included — the flat
    /// iteration that used to live on `ClusterView::machines()`. Prefer
    /// the filtered queries; this exists for whole-cluster passes
    /// (starvation sweeps, slot inventories).
    pub fn iter_all(&self) -> impl Iterator<Item = MachineId> {
        (0..self.state.machines.len()).map(MachineId)
    }

    fn is_considered(&self, mi: usize) -> bool {
        let ms = &self.state.machines[mi];
        !ms.down && ms.suspicion < crate::tracker::SUSPECT_THRESHOLD
    }

    /// Number of machines that are neither down nor suspect.
    pub fn considered_count(&self) -> usize {
        if self.state.index.enabled {
            self.state.index.considered_count()
        } else {
            (0..self.state.machines.len())
                .filter(|&mi| self.is_considered(mi))
                .count()
        }
    }

    /// Component-wise maximum capacity over considered machines (the
    /// demand-clamping envelope of the scheduler prefilter).
    pub fn capacity_envelope(&self) -> ResourceVec {
        if self.state.index.enabled {
            self.state.index.capacity_envelope()
        } else {
            let mut env = ResourceVec::zero();
            for mi in 0..self.state.machines.len() {
                if self.is_considered(mi) {
                    env = env.max(&self.state.machines[mi].capacity);
                }
            }
            env
        }
    }

    /// Component-wise maximum of non-negative-clamped availability over
    /// considered machines — exact on both backends (the indexed descent
    /// stops early but never below the true maximum).
    pub fn availability_envelope(&self) -> ResourceVec {
        if self.state.index.enabled {
            self.state
                .index
                .availability_envelope(|mi| self.scoped_availability(mi))
        } else {
            let mut env = ResourceVec::zero();
            for mi in 0..self.state.machines.len() {
                if self.is_considered(mi) {
                    let a = self.scoped_availability(mi);
                    env = env.max(&a.clamp_non_negative());
                }
            }
            env
        }
    }

    /// Fill `out` with the considered machines whose availability *upper
    /// bound* meets the given CPU and memory floors, ascending by id — a
    /// superset of the machines whose true availability meets them, so a
    /// caller that re-checks exact availability (the cold greedy loop
    /// does, via its floor break) loses nothing to the pruning. The
    /// linear backend returns every considered machine: the floors are a
    /// pruning opportunity, not a correctness filter.
    pub fn floor_candidates_into(&self, min_cpu: f64, min_mem: f64, out: &mut Vec<MachineId>) {
        out.clear();
        if self.state.index.enabled {
            let mut raw = Vec::new();
            self.state
                .index
                .floor_candidates_into(min_cpu, min_mem, &mut raw);
            out.extend(raw.into_iter().map(|mi| MachineId(mi as usize)));
        } else {
            out.extend(
                (0..self.state.machines.len())
                    .filter(|&mi| self.is_considered(mi))
                    .map(MachineId),
            );
        }
    }

    /// Considered machines the demand fits on right now (exact
    /// availability check, raw — not clamped) **and** that `job`'s
    /// placement constraints allow, ascending by id — the one fit query
    /// (DESIGN.md §16). The indexed backend composes the bucketed
    /// superset prune with the exact availability re-filter and the
    /// constraint predicate; the linear oracle applies the identical
    /// predicate, so both backends return the same list (`prop_index.rs`
    /// and `prop_serving.rs` pin this). The constraint filter
    /// is exact, never an inflated demand envelope: folding constraints
    /// into the demand vector would change which buckets prune and is
    /// not decision-safe.
    ///
    /// `job` is the placing task's owning job — needed because spread
    /// and self-exclusion are evaluated against that job's own running
    /// replicas, not just the constraint literals.
    pub fn fits_constrained(
        &self,
        demand: &ResourceVec,
        job: JobId,
        constraints: &PlacementConstraints,
    ) -> Vec<MachineId> {
        let mut out = Vec::new();
        if self.state.index.enabled {
            let mut raw = Vec::new();
            self.state.index.fits_superset_into(demand, &mut raw);
            out.extend(
                raw.into_iter()
                    .map(|mi| MachineId(mi as usize))
                    .filter(|&m| {
                        demand.fits_within(&self.scoped_availability(m.index()))
                            && constraints_allow_raw(self.state, job, constraints, m)
                    }),
            );
        } else {
            out.extend((0..self.state.machines.len()).map(MachineId).filter(|&m| {
                self.is_considered(m.index())
                    && demand.fits_within(&self.scoped_availability(m.index()))
                    && constraints_allow_raw(self.state, job, constraints, m)
            }));
        }
        out
    }
}

/// True iff at least one running task of job `j` is hosted on `m` —
/// resolved through the machine's resident list (placement order), which
/// is short relative to the job's task count.
fn machine_hosts_job_raw(state: &SimState, m: MachineId, j: JobId) -> bool {
    state.machines[m.index()]
        .running_tasks
        .iter()
        .any(|&uid| state.task_loc[uid.index()].0 == j.index())
}

/// Number of distinct machines hosting running tasks of job `j`. Scans
/// the job's own tasks (constrained jobs are small service waves), using
/// a tiny vec for distinctness — replica counts stay far below any
/// threshold where a hash set would win.
fn job_spread_raw(state: &SimState, j: JobId) -> usize {
    let mut machines: Vec<MachineId> = Vec::new();
    for stage in &state.workload.jobs[j.index()].stages {
        for t in &stage.tasks {
            if let Phase::Running(info) = &state.tasks[t.uid.index()].phase {
                if !machines.contains(&info.machine) {
                    machines.push(info.machine);
                }
            }
        }
    }
    machines.len()
}

/// The §16 constraint predicate, shared verbatim by both query backends
/// and [`ClusterView::constraints_allow`] so indexed and linear paths
/// cannot drift.
pub(crate) fn constraints_allow_raw(
    state: &SimState,
    j: JobId,
    cons: &PlacementConstraints,
    m: MachineId,
) -> bool {
    // Taints: every taint bit of the machine must be tolerated. Checked
    // even when the rest of the constraint set is empty — taints live on
    // the cluster config, not the job spec.
    if state.cfg.machine_taint(m.index()) & !cons.tolerations != 0 {
        return false;
    }
    if !cons.has_any() {
        return true;
    }
    // Anti-affinity: a machine hosting any listed job is ineligible.
    if cons
        .anti_affinity
        .iter()
        .any(|&aj| machine_hosts_job_raw(state, m, aj))
    {
        return false;
    }
    // Affinity: while at least one listed job has a running task
    // anywhere, only machines hosting one are eligible. Vacuous when
    // none runs, so the first replica can bootstrap anywhere.
    if !cons.affinity.is_empty() {
        let anywhere = cons
            .affinity
            .iter()
            .any(|&aj| state.jobs[aj.index()].running > 0);
        if anywhere
            && !cons
                .affinity
                .iter()
                .any(|&aj| machine_hosts_job_raw(state, m, aj))
        {
            return false;
        }
    }
    // Spread floor: a machine already hosting this job is ineligible
    // until the job's running tasks span the floor.
    if let Some(n) = cons.spread {
        if machine_hosts_job_raw(state, m, j) && job_spread_raw(state, j) < n {
            return false;
        }
    }
    true
}

/// Plan one priority-preemptive assignment, if the round needs one
/// (DESIGN.md §16). Shared epilogue for Tetris and the slot baselines:
/// policies call it after their ordinary placement loop with the
/// assignments they just produced, and append the result (if any) to the
/// batch.
///
/// The plan targets the highest-priority job (above the lowest class)
/// that has pending work and got *nothing* this `schedule()` call, and
/// only fires when no constrained fit exists for its head task — if a
/// machine can take the task as-is, placement (this round or next call of
/// the round) is the policy's job, not preemption's. Victims are running
/// tasks of strictly-lower-priority jobs, taken in placement order per
/// machine, at most [`ClusterView::max_evictions`]; among machines whose
/// evictable capacity covers the placement-adjusted demand, the plan
/// picks the fewest victims, lowest machine id. One preemptive
/// assignment per `schedule()` call keeps rounds bounded — the engine
/// re-calls `schedule` until the batch is empty, so a backlogged service
/// drains at one eviction set per call, every step validated against
/// fresh state.
///
/// Returns `None` whenever `SimConfig::preemption` is off, so policies
/// can call it unconditionally without perturbing batch-only runs.
pub fn plan_priority_preemption(
    view: &ClusterView<'_>,
    placed: &[Assignment],
) -> Option<Assignment> {
    if !view.preemption_enabled() {
        return None;
    }
    // Highest-priority starved job: pending work, nothing placed this
    // call, priority above the floor class (which can never evict).
    // `active_jobs` yields id order, so strict `>` ties to lowest id.
    let mut starved: Option<(PriorityClass, JobId, TaskUid)> = None;
    for j in view.active_jobs() {
        let p = view.job_priority(j);
        if p == PriorityClass::BATCH {
            continue;
        }
        if starved.is_some_and(|(bp, _, _)| p <= bp) {
            continue;
        }
        if placed.iter().any(|a| view.task_stage(a.task).0 == j) {
            continue;
        }
        if let Some(task) = view.job_pending(j).next() {
            starved = Some((p, j, task));
        }
    }
    let (prio, job, task) = starved?;
    let cons = view.job_constraints(job);
    let query = view.query();

    // A constrained fit exists → not preemption's problem.
    let demand = view.task(task).demand;
    if !query.fits_constrained(&demand, job, cons).is_empty() {
        return None;
    }

    // Best (victim-count, machine) plan across eligible machines; one
    // plan and two victim lists serve every machine.
    let cap = view.max_evictions();
    let mut best: Option<MachineId> = None;
    let mut plan = PlacementPlan::default();
    let (mut victims, mut best_victims) = (Vec::new(), Vec::new());
    for m in query.iter_all() {
        if view.is_down(m) || view.is_suspect(m) {
            continue;
        }
        if !view.constraints_allow(job, m) {
            continue;
        }
        view.plan_into(task, m, &mut plan);
        // Remote demands must fit without eviction: evicting here frees
        // nothing on the input hosts.
        if plan
            .remote
            .iter()
            .any(|&(rm, ref dem)| !dem.fits_within(&view.available(rm)))
        {
            continue;
        }
        let mut avail = view.available(m);
        victims.clear();
        for &v in view.machine_tasks(m) {
            if plan.local.fits_within(&avail) || victims.len() >= cap {
                break;
            }
            if view.task_priority(v) < prio {
                if let Phase::Running(info) = &view.state.tasks[v.index()].phase {
                    avail += info.local_alloc;
                    victims.push(v);
                }
            }
        }
        if !victims.is_empty() && plan.local.fits_within(&avail) {
            let n = best_victims.len();
            let better = match best {
                None => true,
                Some(bm) => victims.len() < n || (victims.len() == n && m < bm),
            };
            if better {
                best = Some(m);
                std::mem::swap(&mut victims, &mut best_victims);
            }
        }
    }
    let machine = best?;
    Some(Assignment::new(task, machine).with_evictions(best_victims))
}
