//! Benchmark probes: measure one scheduling decision in isolation.
//!
//! The paper's Table 8 reports the resource manager's time to process a
//! node-manager heartbeat — i.e. one "resources freed → pick tasks" pass —
//! with 10 k/50 k tasks pending. [`ScheduleProbe`] reconstructs exactly
//! that moment: every job arrived, nothing placed yet, and the policy is
//! invoked once per `measure()` call on a fresh clone of the state.

use std::time::Instant;

use tetris_resources::NUM_RESOURCES;
use tetris_workload::{JobId, Workload};

use crate::cluster::{ClusterConfig, MachineId};
use crate::config::SimConfig;
use crate::state::{PlacementPlan, SimState};
use crate::view::{Assignment, ClusterView, SchedulerPolicy};

/// `workload` bound to `cluster`, every job arrived: the root stages'
/// tasks pending, nothing placed.
fn all_arrived(cluster: ClusterConfig, workload: Workload, cfg: SimConfig) -> SimState {
    let mut state = SimState::new(cluster, workload, cfg);
    for j in 0..state.jobs.len() {
        state.job_arrives(JobId(j));
    }
    state
}

/// [`all_arrived`] behind the engine's input check on `workload`.
fn checked(cluster: ClusterConfig, workload: Workload, cfg: SimConfig) -> SimState {
    workload
        .validate_for_cluster(cluster.len())
        .expect("invalid workload");
    all_arrived(cluster, workload, cfg)
}

/// A reusable snapshot of "all jobs pending" state.
pub struct ScheduleProbe {
    state: SimState,
}

impl ScheduleProbe {
    /// Build the snapshot: bind the workload to the cluster and mark every
    /// job arrived (all tasks of root stages pending).
    pub fn new(cluster: ClusterConfig, workload: Workload, cfg: SimConfig) -> Self {
        ScheduleProbe {
            state: checked(cluster, workload, cfg),
        }
    }

    /// Number of pending runnable tasks in the snapshot.
    pub fn pending(&self) -> usize {
        self.state.num_pending()
    }

    /// Invoke the policy once against the snapshot and return how many
    /// assignments it proposed. The state is not mutated, so repeated
    /// calls measure the same decision.
    pub fn measure(&self, policy: &mut dyn SchedulerPolicy) -> usize {
        let view = ClusterView::new(&self.state, policy.uses_tracker());
        policy.schedule(&view).len()
    }
}

/// A snapshot for benchmarking incremental rate recomputation
/// ([`recompute_dirty`](SimState::recompute_dirty)): every job arrived
/// and one scheduling pass applied, so the per-link flow tables are
/// populated the way a mid-run heartbeat sees them.
///
/// `measure()` marks every link that carries at least one flow dirty and
/// drains the set. Nothing else having changed, no factor moves: it times
/// a full invalidation's factor refresh, with no flow visited.
pub struct RecomputeProbe {
    state: SimState,
    /// (machine, dim) link slots with at least one live flow.
    live_links: Vec<(usize, usize)>,
}

impl RecomputeProbe {
    /// Build the snapshot: arrive every job, run `policy` once, apply its
    /// valid assignments, and settle the initial rates.
    pub fn new(
        cluster: ClusterConfig,
        workload: Workload,
        cfg: SimConfig,
        policy: &mut dyn SchedulerPolicy,
    ) -> Self {
        let mut state = checked(cluster, workload, cfg);
        let (assignments, _) = timed_schedule(&state, policy);
        for a in assignments {
            if state.assignment_valid(a.task, a.machine) {
                state.apply_assignment(a.task, a.machine);
            }
        }
        state.recompute_dirty();
        let live_links: Vec<(usize, usize)> = (0..state.machines.len())
            .flat_map(|mi| (0..NUM_RESOURCES).map(move |ri| (mi, ri)))
            .filter(|&(mi, ri)| !state.machines[mi].link_flows[ri].is_empty())
            .collect();
        RecomputeProbe { state, live_links }
    }

    /// Number of live flows in the snapshot.
    pub fn flows(&self) -> usize {
        self.state.flows.iter().filter(|f| !f.done).count()
    }

    /// Number of dirty-able (machine, dim) link slots.
    pub fn links(&self) -> usize {
        self.live_links.len()
    }

    /// Mark every live link dirty and drain the set; returns the number
    /// of links invalidated. The ledgers stand still between calls, so
    /// every call recomputes one factor a link, finds each where it was
    /// and gathers no flow: the floor a drain pays before any rate moves.
    pub fn measure(&mut self) -> usize {
        for &(mi, ri) in &self.live_links {
            self.state.dirty.insert_link(mi, ri);
        }
        self.state.recompute_dirty();
        self.live_links.len()
    }
}

/// A live snapshot for benchmarking *incremental* scheduling: the
/// heartbeat-scale loop of policies that cache per-job state keyed on the
/// view's epochs.
///
/// [`ScheduleProbe`] measures the cold decision — a fresh policy
/// building its world from the view. This probe measures the warm one:
/// after [`settle`](IncrementalProbe::settle) runs two policies (typically
/// the incremental policy under test and a reference that rebuilds from
/// nothing every call, `tetris_core::ColdTetris`) onto a packed cluster,
/// each [`warm_heartbeat`](IncrementalProbe::warm_heartbeat) drains one
/// machine and times one `schedule()` call per policy on the identical
/// state — asserting the two assignment streams stay byte-identical.
///
/// Both policies read the same state, freed-machine hints and epochs, as
/// they would inside the engine; the probe hands them nothing else. What
/// the reference pays and the incremental policy skips is the per-job
/// state rebuild (remaining-work scores, demand estimates, placement
/// preferences for every pending job) — the cost Table 8's incremental
/// row reports.
pub struct IncrementalProbe {
    state: SimState,
    reps: u64,
    touched: u64,
}

/// One timed warm heartbeat: wall-clock nanoseconds for the policy under
/// test and the oracle, plus what the (identical) decisions did.
#[derive(Debug, Clone, Copy)]
pub struct WarmHeartbeat {
    /// Nanoseconds for the incremental policy's `schedule()` call.
    pub inc_ns: u64,
    /// Nanoseconds for the oracle policy's `schedule()` call.
    pub oracle_ns: u64,
    /// Tasks killed to drain the heartbeat's machine.
    pub drained: usize,
    /// Assignments both policies proposed (asserted identical).
    pub placements: usize,
}

impl IncrementalProbe {
    /// Build the snapshot: every job arrived, nothing placed. Restart
    /// backoff is zeroed and the attempt cap lifted so drained tasks
    /// return to the pending pool immediately instead of dying.
    pub fn new(cluster: ClusterConfig, workload: Workload, mut cfg: SimConfig) -> Self {
        cfg.faults.restart_backoff = 0.0;
        cfg.max_task_attempts = u32::MAX;
        IncrementalProbe {
            state: checked(cluster, workload, cfg),
            reps: 0,
            touched: 0,
        }
    }

    /// Number of pending runnable tasks right now.
    pub fn pending(&self) -> usize {
        self.state.num_pending()
    }

    /// Jobs whose epoch moved, by a drain or a placement, summed over the
    /// warm heartbeats so far: each one a cache entry an incremental
    /// policy rebuilds. Counted outside the timed calls, and deterministic
    /// for a given snapshot and call sequence, which is what lets callers
    /// assert the incremental path was exercised.
    pub fn touched_jobs(&self) -> u64 {
        self.touched
    }

    fn job_epochs(&self) -> Vec<u64> {
        self.state.jobs.iter().map(|j| j.epoch).collect()
    }

    /// One engine-faithful scheduling round over both policies: schedule
    /// on the identical state, assert the streams match, apply `inc`'s
    /// assignments and consume the freed-machine hints. Returns
    /// (placements, inc_ns, oracle_ns).
    fn round(
        &mut self,
        inc: &mut dyn SchedulerPolicy,
        oracle: &mut dyn SchedulerPolicy,
    ) -> (usize, u64, u64) {
        let (a_inc, inc_ns) = timed_schedule(&self.state, inc);
        let (a_oracle, oracle_ns) = timed_schedule(&self.state, oracle);
        assert_assignments_eq(&a_inc, &a_oracle);
        let mut placed = 0;
        for a in &a_inc {
            if !self.state.assignment_valid(a.task, a.machine) {
                continue;
            }
            self.state.apply_assignment(a.task, a.machine);
            placed += 1;
        }
        self.state.recompute_dirty();
        self.state.freed_hint.clear();
        (placed, inc_ns, oracle_ns)
    }

    /// Run scheduling rounds over both policies until the cluster stops
    /// accepting work. Returns (placements, cold-pass ns for `inc`,
    /// cold-pass ns for `oracle`) where the cold pass is the first —
    /// all-pending — `schedule()` call of each.
    pub fn settle(
        &mut self,
        inc: &mut dyn SchedulerPolicy,
        oracle: &mut dyn SchedulerPolicy,
    ) -> (usize, u64, u64) {
        let (mut total, cold_inc, cold_oracle) = self.round(inc, oracle);
        loop {
            let (placed, _, _) = self.round(inc, oracle);
            if placed == 0 {
                break;
            }
            total += placed;
        }
        (total, cold_inc, cold_oracle)
    }

    /// One warm heartbeat: drain the next machine round-robin (kill its
    /// resident tasks back into the pending pool) and time one
    /// `schedule()` per policy on the identical state (the drain's
    /// freed-machine hints in place). Panics if the two assignment
    /// streams diverge.
    pub fn warm_heartbeat(
        &mut self,
        inc: &mut dyn SchedulerPolicy,
        oracle: &mut dyn SchedulerPolicy,
    ) -> WarmHeartbeat {
        let mi = (self.reps as usize) % self.state.machines.len();
        self.reps += 1;
        let machine = MachineId(mi);
        let before = self.job_epochs();
        let victims: Vec<_> = self.state.machines[mi].running_tasks.clone();
        let mut drained = 0;
        for uid in victims {
            let Some((abandoned, _)) = self.state.kill_task(uid) else {
                continue;
            };
            debug_assert!(!abandoned, "attempt cap was lifted in new()");
            drained += 1;
        }
        self.state.recompute_dirty();
        debug_assert!(drained == 0 || self.state.freed_hint.contains(&machine));
        let (placements, inc_ns, oracle_ns) = self.round(inc, oracle);
        let after = self.job_epochs();
        self.touched += before.iter().zip(&after).filter(|(b, a)| b != a).count() as u64;
        WarmHeartbeat {
            inc_ns,
            oracle_ns,
            drained,
            placements,
        }
    }
}

/// A saturated-cluster snapshot for benchmarking the *cold* scheduling
/// pass — the one [`MachineQuery`](crate::view::MachineQuery)'s
/// free-capacity index makes sublinear (DESIGN.md §13).
///
/// The scenario is the worst case for a linear cold pass and the best
/// case for an indexed one: almost every machine is packed full (below
/// the cheapest candidate's floor, so it can host nothing), a handful of
/// spread-out machines are left empty, and a deep pending backlog forces
/// the policy to consider placement everywhere. Two byte-identical
/// `SimState`s are built — one with `machine_index` on, one off — so the
/// same policy type can be timed against the indexed and the
/// linear-oracle query backends on identical inputs, with the assignment
/// streams asserted equal.
///
/// Saturation bypasses the scheduler entirely (a deterministic
/// first-fit cursor over the machine list), so building a 100k-machine
/// snapshot costs O(machines + placed tasks), not a full scheduling run.
pub struct ColdPassProbe {
    indexed: SimState,
    linear: SimState,
    free: Vec<MachineId>,
}

/// One timed cold pass over both query backends.
#[derive(Debug, Clone, Copy)]
pub struct ColdPassSample {
    /// Nanoseconds for the pass against the indexed backend.
    pub indexed_ns: u64,
    /// Nanoseconds for the pass against the linear-oracle backend.
    pub linear_ns: u64,
    /// Assignments proposed (asserted identical across backends).
    pub placements: usize,
}

impl ColdPassProbe {
    /// Build the snapshot: `n_machines` uniform
    /// [`paper_small`](tetris_resources::MachineSpec::paper_small)
    /// machines, a synthetic single-stage workload sized so `pending`
    /// tasks remain runnable after saturation, and four spread-out
    /// machines (n/8, 3n/8, 5n/8, 7n/8) left empty for the pass to fill.
    ///
    /// Tracker idle-reclaim is disabled: under reclaim the index's
    /// availability upper bound for a machine with no usage reports yet
    /// is its full capacity, which would (correctly but uselessly)
    /// defeat pruning in this synthetic no-tracker setup.
    pub fn new(n_machines: usize, pending: usize) -> Self {
        Self::with_tasks_per_job(n_machines, pending, Self::TASKS_PER_JOB)
    }

    /// [`ColdPassProbe::new`] with an explicit job granularity. Small
    /// `tasks_per_job` values multiply the policy's candidate count
    /// (one candidate per job with pending work).
    pub fn with_tasks_per_job(n_machines: usize, pending: usize, tasks_per_job: usize) -> Self {
        assert!(n_machines >= 8, "probe needs at least 8 machines");
        assert!(tasks_per_job >= 1);
        let workload = Self::workload(n_machines, pending, tasks_per_job);
        let free = Self::free_machines(n_machines);
        let build = |machine_index: bool| {
            let mut cfg = SimConfig::default();
            cfg.reclaim_idle = false;
            cfg.machine_index = machine_index;
            let cluster =
                ClusterConfig::uniform(n_machines, tetris_resources::MachineSpec::paper_small());
            let mut state = all_arrived(cluster, workload.clone(), cfg);
            Self::saturate(&mut state, &free);
            state
        };
        ColdPassProbe {
            indexed: build(true),
            linear: build(false),
            free,
        }
    }

    /// The synthetic workload: identical CPU/memory-only tasks (no
    /// inputs, no output, effectively infinite duration) split into jobs
    /// of [`Self::TASKS_PER_JOB`] so candidate-building cost stays small
    /// relative to the machine scan under test.
    fn workload(n_machines: usize, pending: usize, tasks_per_job: usize) -> Workload {
        use tetris_resources::units::GB;
        use tetris_workload::{TaskParams, WorkloadBuilder};
        let total = n_machines * Self::SLOTS_PER_MACHINE + pending;
        let jobs = total.div_ceil(tasks_per_job);
        let mut b = WorkloadBuilder::new();
        let mut left = total;
        for ji in 0..jobs {
            let j = b.begin_job(format!("cold-{ji}"), None, 0.0);
            let n = left.min(tasks_per_job);
            left -= n;
            b.add_stage(j, "work", vec![], n, |_| TaskParams {
                cores: 1.0,
                mem: 4.0 * GB,
                duration: 1e7,
                cpu_frac: 1.0,
                io_burst: 1.0,
                inputs: vec![],
                output_bytes: 0.0,
                remote_frac: 0.0,
            });
        }
        b.finish()
    }

    const SLOTS_PER_MACHINE: usize = 4; // paper_small: 16 GB / 4 GB tasks
    const TASKS_PER_JOB: usize = 5_000;

    fn free_machines(n: usize) -> Vec<MachineId> {
        let mut free: Vec<MachineId> = [n / 8, 3 * n / 8, 5 * n / 8, 7 * n / 8]
            .into_iter()
            .map(MachineId)
            .collect();
        free.dedup();
        free
    }

    /// First-fit cursor: pack pending tasks onto machines in id order,
    /// skipping the kept-free set, until the cursor runs off the end.
    /// `assignment_valid` does not check capacity (the engine trusts the
    /// policy for that), so the cursor keeps its own availability ledger
    /// and advances when the next task no longer fits. Identical task
    /// demands make the cursor monotone, so this is one linear sweep
    /// regardless of backlog depth.
    fn saturate(state: &mut SimState, free: &[MachineId]) {
        let uids: Vec<_> = state
            .jobs
            .iter()
            .flat_map(|j| j.stages.iter())
            .flat_map(|s| s.pending.iter().copied())
            .collect();
        let mut mi = 0usize;
        let mut avail = state.machines.first().map(|m| m.capacity);
        let mut plan = PlacementPlan::default();
        for uid in uids {
            while mi < state.machines.len() {
                let m = MachineId(mi);
                state.placement_plan_into(uid, m, &mut plan);
                let fits = avail.is_some_and(|a| plan.local.fits_within(&a));
                if !free.contains(&m) && fits && state.assignment_valid(uid, m) {
                    break;
                }
                mi += 1;
                avail = state.machines.get(mi).map(|m| m.capacity);
            }
            if mi >= state.machines.len() {
                break;
            }
            let m = MachineId(mi);
            let local = plan.local;
            state.apply_assignment(uid, m);
            if let Some(a) = avail.as_mut() {
                *a -= local;
            }
        }
        state.recompute_dirty();
        state.freed_hint.clear();
    }

    /// Drain the indexed backend's query counters (queries served,
    /// machines pruned/returned, envelope visits) accumulated by
    /// [`measure`](ColdPassProbe::measure) calls so far.
    pub fn take_index_stats(&self) -> crate::index::IndexStatsSnapshot {
        self.indexed.index.take_stats()
    }

    /// Machines deliberately left empty.
    pub fn free(&self) -> &[MachineId] {
        &self.free
    }

    /// Pending runnable tasks in the snapshot (identical across
    /// backends).
    pub fn pending(&self) -> usize {
        self.indexed.num_pending()
    }

    /// Run one cold `schedule()` against the indexed snapshot only and
    /// return the placement count. Single-backend entry point for
    /// Criterion, which wants the two sides as separate measurements;
    /// cross-backend equivalence is [`measure`](ColdPassProbe::measure)'s
    /// job. Same freshness contract: pass a fresh policy.
    pub fn cold_schedule_indexed(&self, policy: &mut dyn SchedulerPolicy) -> usize {
        self.cold_assignments_indexed(policy).len()
    }

    /// [`cold_schedule_indexed`](ColdPassProbe::cold_schedule_indexed)
    /// against the linear-scan snapshot.
    pub fn cold_schedule_linear(&self, policy: &mut dyn SchedulerPolicy) -> usize {
        let view = ClusterView::new(&self.linear, policy.uses_tracker());
        policy.schedule(&view).len()
    }

    /// One cold `schedule()` against the indexed snapshot, returning the
    /// raw assignment stream — for cross-*policy* equivalence gates (the
    /// omega experiment pins a one-shard `ShardedScheduler` against its
    /// bare inner policy this way), where `measure`'s cross-*backend*
    /// comparison is the wrong axis. Same freshness contract: pass a
    /// fresh policy.
    pub fn cold_assignments_indexed(&self, policy: &mut dyn SchedulerPolicy) -> Vec<Assignment> {
        let view = ClusterView::new(&self.indexed, policy.uses_tracker());
        policy.schedule(&view)
    }

    /// Time one cold `schedule()` call per backend on the identical
    /// snapshot and assert the assignment streams match. The snapshot
    /// carries no freed hint, so every pass is cold; pass *fresh* policies
    /// each call, so adaptive internal state (score normalization,
    /// caches a second call would hit) never leaks between reps.
    pub fn measure(
        &self,
        indexed: &mut dyn SchedulerPolicy,
        linear: &mut dyn SchedulerPolicy,
    ) -> ColdPassSample {
        let (a_idx, indexed_ns) = timed_schedule(&self.indexed, indexed);
        let (a_lin, linear_ns) = timed_schedule(&self.linear, linear);
        assert_assignments_eq(&a_idx, &a_lin);
        ColdPassSample {
            indexed_ns,
            linear_ns,
            placements: a_idx.len(),
        }
    }
}

/// One `schedule()` call of `policy` against `state`, and its wall time
/// in nanoseconds.
fn timed_schedule(state: &SimState, policy: &mut dyn SchedulerPolicy) -> (Vec<Assignment>, u64) {
    let view = ClusterView::new(state, policy.uses_tracker());
    let start = Instant::now();
    let out = policy.schedule(&view);
    (out, start.elapsed().as_nanos() as u64)
}

#[track_caller]
fn assert_assignments_eq(a: &[Assignment], b: &[Assignment]) {
    assert_eq!(
        a.len(),
        b.len(),
        "incremental and oracle proposed different assignment counts"
    );
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            x == y,
            "assignment #{i} diverged: incremental {x:?} vs oracle {y:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GreedyFifo;
    use tetris_resources::MachineSpec;
    use tetris_workload::WorkloadSuiteConfig;

    #[test]
    fn probe_counts_pending_and_measures() {
        let w = WorkloadSuiteConfig::small().generate(3);
        // Map tasks of every job are pending (reduces are locked).
        let expected: usize = w.jobs.iter().map(|j| j.stages[0].len()).sum();
        let probe = ScheduleProbe::new(
            ClusterConfig::uniform(4, MachineSpec::paper_large()),
            w,
            SimConfig::default(),
        );
        assert_eq!(probe.pending(), expected);
        let mut policy = GreedyFifo::new();
        let n1 = probe.measure(&mut policy);
        let n2 = probe.measure(&mut policy);
        assert!(n1 > 0);
        assert_eq!(n1, n2, "probe must be repeatable");
    }

    #[test]
    #[should_panic(expected = "invalid workload")]
    fn probe_refuses_a_spread_floor_the_cluster_cannot_meet() {
        // Valid on its own; the engine refuses it on two machines.
        let mut w = WorkloadSuiteConfig::small().generate(3);
        w.jobs_mut()[0].constraints.spread = Some(3);
        assert_eq!(w.validate(), Ok(()));
        ScheduleProbe::new(
            ClusterConfig::uniform(2, MachineSpec::paper_large()),
            w,
            SimConfig::default(),
        );
    }

    #[test]
    fn recompute_probe_is_populated_and_repeatable() {
        let w = WorkloadSuiteConfig::small().generate(3);
        let mut policy = GreedyFifo::new();
        let mut probe = RecomputeProbe::new(
            ClusterConfig::uniform(4, MachineSpec::paper_large()),
            w,
            SimConfig::default(),
            &mut policy,
        );
        assert!(probe.flows() > 0, "placements must create flows");
        assert!(probe.links() > 0, "flows must occupy links");
        let n1 = probe.measure();
        let n2 = probe.measure();
        assert_eq!(n1, n2, "probe must be repeatable");
        assert_eq!(n1, probe.links());
    }

    #[test]
    fn incremental_probe_drains_and_replaces() {
        let w = WorkloadSuiteConfig::small().generate(3);
        let mut probe = IncrementalProbe::new(
            ClusterConfig::uniform(4, MachineSpec::paper_large()),
            w,
            SimConfig::default(),
        );
        // GreedyFifo never syncs, so inc and oracle take the same path —
        // this pins the probe's drain/replace mechanics, not a speedup.
        let mut inc = GreedyFifo::new();
        let mut oracle = GreedyFifo::new();
        let before = probe.pending();
        let (placed, cold_inc, cold_oracle) = probe.settle(&mut inc, &mut oracle);
        assert!(placed > 0, "settle must place work");
        assert!(cold_inc > 0 && cold_oracle > 0);
        assert_eq!(before - probe.pending(), placed);
        let mut drained_total = 0;
        let mut replaced_total = 0;
        for _ in 0..4 {
            let hb = probe.warm_heartbeat(&mut inc, &mut oracle);
            drained_total += hb.drained;
            replaced_total += hb.placements;
            assert!(hb.inc_ns > 0 && hb.oracle_ns > 0);
        }
        assert!(drained_total > 0, "drains must kill resident tasks");
        assert!(replaced_total > 0, "freed machines must be refilled");
    }

    #[test]
    fn cold_pass_probe_saturates_and_backends_agree() {
        let probe = ColdPassProbe::new(16, 40);
        // Four machines kept free, the rest packed to their 4-task
        // brim: 16 machines × 4 slots − 4 free × 4 = 48 placed.
        assert_eq!(probe.free().len(), 4);
        assert_eq!(probe.pending(), 40 + 4 * probe.free().len());
        // GreedyFifo reads the view identically through either backend;
        // the probe must report both streams equal and nonempty.
        let mut idx = GreedyFifo::new();
        let mut lin = GreedyFifo::new();
        let s = probe.measure(&mut idx, &mut lin);
        assert!(s.placements > 0, "free machines must accept work");
        assert!(s.indexed_ns > 0 && s.linear_ns > 0);
    }
}
