//! What a policy is and what it exchanges with the engine: the
//! [`SchedulerPolicy`] trait, the [`Assignment`]s it returns, and the
//! [`StageProgress`] rows the view reads out. The engine hands a policy
//! nothing but views; what changed since a policy last looked, the view
//! says through its epochs (module docs of `view`).

use tetris_obs::{DecisionScores, PlacementProvenance};
use tetris_workload::TaskUid;

use super::ClusterView;
use crate::cluster::MachineId;

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

/// No value of this type exists: the engine delivers no events. What
/// changed since a policy last looked, the view says through
/// [`ClusterView::job_epoch`] and [`ClusterView::replica_epoch`]. Kept,
/// with [`SchedulerPolicy::on_event`], only until the benchmark harness
/// stops naming them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerEvent {}

/// A cluster scheduling policy.
///
/// Implementations must be deterministic functions of the views they
/// see (plus their own seeded state): the whole simulator is
/// bit-reproducible and the test suite relies on it.
pub trait SchedulerPolicy {
    /// Short name for reports ("tetris", "drf", "fair", ...). Borrowed —
    /// it is read per schedule round and per trace event, so allocating
    /// here would cost on every decision.
    fn name(&self) -> &str;

    /// A no-op that is never called: [`SchedulerEvent`] has no values.
    /// Kept only until the benchmark harness stops forwarding it; do not
    /// override it.
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

    /// Whether a tracker tick can change this policy's answer. A run
    /// whose policy says `false` and whose fault plan is off has no
    /// tracker reports at all, and so none of the heartbeats they would
    /// wake (DESIGN.md §3). Say `false` only when the answer depends on
    /// nothing but state that events change: not on the clock, not on
    /// tracker reports, not on per-call randomness.
    ///
    /// The default is [`uses_tracker`](SchedulerPolicy::uses_tracker): a
    /// policy that reads reports reads their ticks, and one that reads
    /// none of them — DRF, Fair, Capacity — needs none. So a wrapper that
    /// forwards `uses_tracker` answers as its inner policy does, unless
    /// the inner one overrides this. Override it with `true` where the
    /// answer reads the clock or draws randomness on every call, as the
    /// random baseline does.
    fn reads_ticks(&self) -> bool {
        self.uses_tracker()
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

    /// A no-op: recovery re-executes the run from heartbeat 0 with a
    /// fresh policy (DESIGN.md §15), which rebuilds every piece of state
    /// a policy keeps across calls, so there is nothing to export. Kept
    /// only until the benchmark harness stops forwarding it; do not
    /// override it.
    fn export_state(&self) -> Option<String> {
        None
    }

    /// A no-op, for the reason [`SchedulerPolicy::export_state`] gives.
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
