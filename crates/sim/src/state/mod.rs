//! Runtime state of a simulation: machines, jobs, tasks and flows, and
//! the operations the engine applies to them.
//!
//! One struct, [`SimState`], with flat fields. Its methods are split by
//! layer, one `impl SimState` block a file (DESIGN.md "SimState layers"):
//!
//! * this file: the struct and its records, construction, the
//!   free-capacity index glue and `availability`;
//! * `plan`: where a task's input bytes come from on a machine and what
//!   it demands there and at its sources;
//! * `network`: flows, links, the factor tables, the dirty set and the
//!   rate recompute that re-times completions in the event queue;
//! * `lifecycle`: arrival, stage unlock, placement, completion;
//! * `faults`: kill, preemption, machine crash and recovery, restart;
//! * the tracker's report cycle lives in `crate::tracker`.
//!
//! Visibility is the interface between them: a helper is private to its
//! file, `pub(super)` when a sibling layer calls it, and `pub(crate)`
//! only when the engine, the view or a probe does.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tetris_resources::{Resource, ResourceVec, NUM_RESOURCES};
use tetris_workload::{JobId, TaskSpec, TaskUid, Workload};

use crate::cluster::{ClusterConfig, MachineId};
use crate::config::{ExternalLoad, SimConfig};
use crate::events::{EventQueue, FlowId};
use crate::fault::TrackerMode;
use crate::index::MachineIndex;
use crate::time::SimTime;
use crate::tracker;

mod faults;
mod lifecycle;
mod network;
mod plan;
mod replicas;

pub(crate) use lifecycle::TaskCompletion;
use network::DirtySet;
pub use plan::{PlacementPlan, SHUFFLE_SHARE_MARGIN};
use replicas::Replicas;

/// The source of every epoch value, shared by all states in the process:
/// no two bumps anywhere yield the same value, so a policy carried from
/// one state to another cannot take an entry it cached against the first
/// for current in the second. Relaxed: a value only has to be unique, and
/// publishes no other data.
static EPOCHS: AtomicU64 = AtomicU64::new(0);

fn next_epoch() -> u64 {
    EPOCHS.fetch_add(1, Ordering::Relaxed) + 1
}

/// One unit of schedulable work in flight.
#[derive(Debug, Clone)]
pub(crate) struct Flow {
    pub task: TaskUid,
    pub host: MachineId,
    pub cap: f64,
    pub links: Vec<(MachineId, Resource)>,
    pub remaining: f64,
    pub init_work: f64,
    pub rate: f64,
    pub last_update: SimTime,
    pub done: bool,
}

/// Runtime state of one machine.
#[derive(Debug, Clone)]
pub(crate) struct MachineState {
    pub capacity: ResourceVec,
    /// Demand ledger: sum of peak demands of everything placed here
    /// (local + remote reservations). Baselines that ignore disk/network
    /// can drive components above capacity — that *is* over-allocation.
    pub allocated: ResourceVec,
    /// Σ flow caps per resource dimension (+ external load).
    pub link_demand: [f64; NUM_RESOURCES],
    /// Which flows use each dimension.
    pub link_flows: [Vec<FlowId>; NUM_RESOURCES],
    /// Current external (non-task) load rates.
    pub external: ResourceVec,
    /// External load as of the last tracker report (what tracker-aware
    /// schedulers see — stale by up to one report period).
    pub external_reported: ResourceVec,
    /// Total usage (flow rates + external) as of the last tracker report.
    pub usage_reported: ResourceVec,
    /// An input of the next report moved since the last one: a flow's
    /// rate or membership on one of the machine's links, its external
    /// load, or its ledger (every `index_touch`). The no-fault report
    /// re-reads only the machines that have it set.
    pub report_stale: bool,
    /// Recently placed demands (placement time, demand) for the ramp-up
    /// allowance; pruned at tracker reports, and kept only in runs that
    /// have them (`SimState::tracker_ticks`).
    pub recent: Vec<(SimTime, ResourceVec)>,
    /// Hosted running tasks.
    pub running: usize,
    /// Uids of the hosted running tasks (slot accounting for slot-based
    /// policies; order is placement order).
    pub running_tasks: Vec<TaskUid>,
    /// True while the machine is crashed (fault injection): zero
    /// availability, no placements, no tracker reports.
    pub down: bool,
    /// Straggler factor in (0,1] applied to effective disk/net bandwidth
    /// (1.0 = healthy; fault injection).
    pub slowdown: f64,
    /// Suspicion score fed by missed/implausible tracker reports; decays
    /// on plausible ones. `>= tracker::SUSPECT_THRESHOLD` ⇒ suspect.
    pub suspicion: f64,
    /// Consecutive reports whose memory figure contradicted the
    /// allocation ledger (stale-tracker detector).
    pub stale_streak: u32,
}

impl MachineState {
    fn new(capacity: ResourceVec) -> Self {
        MachineState {
            capacity,
            allocated: ResourceVec::zero(),
            link_demand: [0.0; NUM_RESOURCES],
            link_flows: Default::default(),
            external: ResourceVec::zero(),
            external_reported: ResourceVec::zero(),
            usage_reported: ResourceVec::zero(),
            report_stale: true,
            recent: Vec::new(),
            running: 0,
            running_tasks: Vec::new(),
            down: false,
            slowdown: 1.0,
            suspicion: 0.0,
            stale_streak: 0,
        }
    }
}

/// Lifecycle of a task.
#[derive(Debug, Clone)]
pub(crate) enum Phase {
    /// Waiting on upstream stages.
    Blocked,
    /// Schedulable.
    Runnable,
    /// Placed and running. Boxed: most tasks of a large backlog never
    /// run at once, and inline the attempt's record would more than
    /// double every task's.
    Running(Box<RunInfo>),
    /// Done.
    Finished,
    /// Attempt lost to a machine crash; waiting out the restart backoff
    /// before becoming runnable again.
    Backoff,
    /// Permanently failed: lost its last permitted attempt to a crash.
    /// Counts toward stage/job completion so the job still terminates.
    Abandoned,
}

/// Bookkeeping for a running task: what its attempt charged, and where.
#[derive(Debug, Clone)]
pub(crate) struct RunInfo {
    pub machine: MachineId,
    /// Flow ids of this attempt (torn down on a crash).
    pub flows: Vec<FlowId>,
    pub flows_left: usize,
    pub local_alloc: ResourceVec,
    pub remote_alloc: Vec<(MachineId, ResourceVec)>,
    pub gen: u64,
}

/// Runtime state of one task: 104 bytes, one record for every task of
/// the workload whether it ever runs or not (the attempt's own record
/// lives behind `Phase::Running` while it runs).
#[derive(Debug, Clone)]
pub(crate) struct TaskState {
    pub phase: Phase,
    pub attempts: u32,
    pub start: Option<SimTime>,
    pub finish: Option<SimTime>,
    pub machine: Option<MachineId>,
    /// When the task last became runnable (stage unlock or retry) — the
    /// basis for starvation detection (paper §3.5).
    pub runnable_since: Option<SimTime>,
    /// Placement-plan duration estimate of the latest attempt (true lower
    /// bound on the attempt's simulated duration).
    pub planned: Option<f64>,
}

#[derive(Debug, Clone)]
pub(crate) struct StageState {
    pub unlocked: bool,
    /// The stage's task uids while it is locked, in spec order: filled
    /// where `SimState::new` indexes the specs, and moved into `pending`
    /// when the stage unlocks (empty from then on).
    pub locked: Vec<TaskUid>,
    pub pending: Vec<TaskUid>,
    pub running: usize,
    pub finished: usize,
    pub total: usize,
    /// True if some later stage of the job depends on this one — i.e. this
    /// stage precedes a barrier (§3.5).
    pub feeds_downstream: bool,
    /// Bytes of stage output per machine, sorted by machine and one entry
    /// each (filled as tasks finish; consumed by downstream shuffle
    /// readers).
    pub out_by_machine: Vec<(MachineId, f64)>,
    pub total_out: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct JobState {
    pub arrived: bool,
    pub finish: Option<SimTime>,
    pub first_start: Option<SimTime>,
    pub allocated: ResourceVec,
    pub running: usize,
    pub finished_tasks: usize,
    pub total_tasks: usize,
    pub stages: Vec<StageState>,
    /// Moves whenever the job's progress or pending queues do
    /// ([`SimState::touch_job`]); 0 until the job arrives.
    pub epoch: u64,
    /// Distinct machines hosting a running task of the job: the spread
    /// count of its §16 floor. Kept only for a job with a spread floor
    /// (0 for any other), moved where a placement joins a machine's
    /// running set and where a release leaves it.
    pub hosts: usize,
}

impl JobState {
    pub(crate) fn is_active(&self) -> bool {
        self.arrived && self.finish.is_none()
    }
}

/// Mutable simulation state. The engine (`engine/`) drives it; the
/// cluster view (`view/`) reads it.
pub(crate) struct SimState {
    pub workload: Workload,
    pub cfg: SimConfig,
    pub now: SimTime,
    pub machines: Vec<MachineState>,
    pub tasks: Vec<TaskState>,
    /// uid → [job index, stage index, task index] for O(1) spec lookup
    /// ([`SimState::loc`]); `u32`s, half the width of `usize`s.
    task_loc: Vec<[u32; 3]>,
    pub jobs: Vec<JobState>,
    /// Length of every stage's pending list together, moved wherever one
    /// is filled, pushed or drained: [`SimState::num_pending`].
    pending_total: usize,
    /// Block id → replica machines, ascending.
    pub blocks: Replicas,
    pub flows: Vec<Flow>,
    pub jobs_remaining: usize,
    pub total_capacity: ResourceVec,
    pub rng: StdRng,
    /// Machines whose availability changed since the last scheduling round
    /// (a hint for policies; cleared by the engine).
    pub freed_hint: Vec<MachineId>,
    /// Completions this run (diagnostics).
    pub completions: usize,
    /// Tracker behavior per machine (all honest when faults are off).
    pub tracker_modes: Vec<TrackerMode>,
    /// Planned tracker behavior, restored when a machine recovers from a
    /// crash (pre-crash flaking is transient; a reboot resets the agent).
    pub tracker_modes_baseline: Vec<TrackerMode>,
    /// Tracker reports run: the policy reads the ticks or the fault plan
    /// is on (DESIGN.md §3). Without them nothing prunes or reads the
    /// ramp-up entries (`MachineState::recent`), so a placement pushes
    /// none.
    pub tracker_ticks: bool,
    /// External loads synthesized at runtime (crash-time re-replication);
    /// indexed by `ExternalStart`/`ExternalEnd` past the end of
    /// `cfg.external_loads`.
    pub dynamic_loads: Vec<ExternalLoad>,
    /// Whether each external load (static, then dynamic) is currently
    /// applied, so a crash can abort a machine's in-flight transfers and
    /// the load's own `ExternalEnd` becomes a no-op afterwards.
    pub external_active: Vec<bool>,
    /// External loads permanently aborted because their machine (or its
    /// re-replication peer) crashed; queued Start/End events are no-ops.
    pub external_cancelled: Vec<bool>,
    /// Tasks permanently failed after exhausting `max_task_attempts`.
    pub tasks_abandoned: u64,
    /// Moves whenever block replicas may have moved — a machine crash or
    /// recovery — which changes every task's locality preferences.
    pub replica_epoch: u64,
    /// Free-capacity index serving `MachineQuery` (DESIGN.md §13).
    /// Disabled (empty) when `cfg.machine_index` is off.
    pub index: MachineIndex,
    /// Placement plans resolved since the last drain
    /// (`names::PLACEMENT_PLANS`). Atomic for the reason the index's
    /// counters are: shard workers plan through a shared `&SimState`.
    pub plans: AtomicU64,
    /// The links, machines and flows the next `recompute_dirty` looks at:
    /// every change to a link's demand or a machine's memory marks them.
    /// Empty at a batch boundary.
    pub(crate) dirty: DirtySet,
    /// Pending events. The state queues what its own changes cause
    /// (completions, restarts, re-replication); the engine seeds the rest
    /// and pops them.
    pub(crate) queue: EventQueue,
    /// `factor` of each (machine, dim) link and `thrash_factor` of each
    /// machine as of the last drain of the dirty set: what every live
    /// flow's `rate` was computed from.
    link_factor: Vec<f64>,
    thrash: Vec<f64>,
    /// `[job][stage]`: the output map of each finished stage with more
    /// sources than `shuffle_fanin`, ordered as the fan-in bound keeps
    /// them — bytes descending, then machine ascending (empty elsewhere;
    /// grown as stages finish).
    shuffle_ranks: Vec<Vec<Vec<(MachineId, f64)>>>,
    /// The plan `apply_assignment` resolves into, placement after
    /// placement.
    applied_plan: PlacementPlan,
    /// Flows `recompute_dirty` visited, and how many of them it re-timed
    /// (`names::RECOMPUTE_VISITS`, `names::FLOW_RETIMES`).
    pub recompute_visits: u64,
    pub flow_retimes: u64,
}

impl SimState {
    pub(crate) fn new(cluster: ClusterConfig, workload: Workload, cfg: SimConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n_machines = cluster.len();
        let capacities: Vec<ResourceVec> = (0..n_machines)
            .map(|i| cluster.capacity(MachineId(i)))
            .collect();
        let machines = capacities.iter().map(|&c| MachineState::new(c)).collect();

        // Bind stored blocks to replica machines.
        let replication = cfg.replication.min(n_machines);
        let blocks = Replicas::bind(workload.num_blocks, replication, || {
            MachineId(rng.gen_range(0..n_machines))
        });

        // Index tasks and initialize job/stage state.
        let n_tasks = workload.num_tasks();
        let narrow = |i: usize| u32::try_from(i).expect("workload index past u32");
        let mut task_loc = vec![[0; 3]; n_tasks];
        let mut jobs = Vec::with_capacity(workload.jobs.len());
        for (ji, job) in workload.jobs.iter().enumerate() {
            let mut stages = Vec::with_capacity(job.stages.len());
            for (si, stage) in job.stages.iter().enumerate() {
                let mut locked = Vec::with_capacity(stage.tasks.len());
                for (ti, t) in stage.tasks.iter().enumerate() {
                    task_loc[t.uid.index()] = [narrow(ji), narrow(si), narrow(ti)];
                    locked.push(t.uid);
                }
                let feeds_downstream = job.stages.iter().any(|s2| s2.deps.contains(&si));
                stages.push(StageState {
                    unlocked: false,
                    locked,
                    pending: Vec::new(),
                    running: 0,
                    finished: 0,
                    total: stage.tasks.len(),
                    feeds_downstream,
                    out_by_machine: Vec::new(),
                    total_out: 0.0,
                });
            }
            jobs.push(JobState {
                arrived: false,
                finish: None,
                first_start: None,
                allocated: ResourceVec::zero(),
                running: 0,
                finished_tasks: 0,
                total_tasks: job.num_tasks(),
                stages,
                epoch: 0,
                hosts: 0,
            });
        }

        let tasks = vec![
            TaskState {
                phase: Phase::Blocked,
                attempts: 0,
                start: None,
                finish: None,
                machine: None,
                planned: None,
                runnable_since: None,
            };
            n_tasks
        ];

        let total_capacity = cluster.total_capacity();
        let jobs_remaining = workload.jobs.len();
        let n_external = cfg.external_loads.len();
        let index = if cfg.machine_index {
            let mut idx = MachineIndex::new(&capacities);
            idx.seed();
            idx
        } else {
            MachineIndex::disabled()
        };
        let mut state = SimState {
            workload,
            cfg,
            now: SimTime::ZERO,
            machines,
            tasks,
            task_loc,
            jobs,
            pending_total: 0,
            blocks,
            flows: Vec::new(),
            jobs_remaining,
            total_capacity,
            rng,
            freed_hint: Vec::new(),
            completions: 0,
            tracker_modes: vec![TrackerMode::Honest; n_machines],
            tracker_modes_baseline: vec![TrackerMode::Honest; n_machines],
            tracker_ticks: true,
            external_active: vec![false; n_external],
            external_cancelled: vec![false; n_external],
            dynamic_loads: Vec::new(),
            tasks_abandoned: 0,
            replica_epoch: 0,
            index,
            plans: AtomicU64::new(0),
            dirty: DirtySet::default(),
            queue: EventQueue::new(),
            link_factor: vec![1.0; n_machines * NUM_RESOURCES],
            thrash: vec![1.0; n_machines],
            shuffle_ranks: Vec::new(),
            applied_plan: PlacementPlan::default(),
            recompute_visits: 0,
            flow_retimes: 0,
        };
        state.index_rebuild();
        state
    }

    /// The index's availability upper bound for one machine: a vector
    /// dominating `availability(m, _)` for every tracker mode and time
    /// (see `index.rs` module docs for the per-mode argument).
    fn index_ub(&self, mi: usize) -> ResourceVec {
        let ms = &self.machines[mi];
        if ms.down {
            return ResourceVec::zero();
        }
        let ledger = ms.capacity - ms.allocated;
        if !self.cfg.reclaim_idle {
            return ledger;
        }
        // Reclaim mode: usage-derived availability can exceed the ledger
        // (idle reclamation), so bound with the reported usage floor, its
        // memory component pinned to the allocation ledger exactly as
        // `availability` pins it.
        let usage_adj = ms
            .usage_reported
            .with(Resource::Mem, ms.allocated.get(Resource::Mem));
        ledger.max(&(ms.capacity - usage_adj))
    }

    /// Note that job `ji`'s progress or pending queues moved: every
    /// entry point that moves them calls this once (DESIGN.md §11).
    pub(super) fn touch_job(&mut self, ji: usize) {
        self.jobs[ji].epoch = next_epoch();
    }

    /// Note that block replicas may have moved (a crash or a recovery).
    pub(super) fn touch_replicas(&mut self) {
        self.replica_epoch = next_epoch();
    }

    /// Refresh one machine's index entry after a ledger / liveness /
    /// suspicion change, and mark its next tracker report stale. The
    /// refresh is a no-op when the index is disabled.
    pub(crate) fn index_touch(&mut self, mi: usize) {
        self.machines[mi].report_stale = true;
        if !self.index.enabled {
            return;
        }
        let ub = self.index_ub(mi);
        let ms = &self.machines[mi];
        let considered = !ms.down && ms.suspicion < tracker::SUSPECT_THRESHOLD;
        self.index.refresh(mi, ub, considered);
    }

    /// Refresh every machine's index entry (crash fallout, bulk tracker
    /// refresh under reclaim). No-op when the index is disabled.
    pub(crate) fn index_rebuild(&mut self) {
        if !self.index.enabled {
            return;
        }
        for mi in 0..self.machines.len() {
            self.index_touch(mi);
        }
    }

    /// (job index, stage index, task index) of a task.
    #[inline]
    pub(crate) fn loc(&self, uid: TaskUid) -> (usize, usize, usize) {
        let [j, s, t] = self.task_loc[uid.index()];
        (j as usize, s as usize, t as usize)
    }

    /// Task spec by uid.
    #[inline]
    pub(crate) fn spec(&self, uid: TaskUid) -> &TaskSpec {
        let (j, s, t) = self.loc(uid);
        &self.workload.jobs[j].stages[s].tasks[t]
    }

    /// The job a task belongs to.
    #[inline]
    pub(crate) fn job_of(&self, uid: TaskUid) -> JobId {
        JobId(self.loc(uid).0)
    }

    /// True iff at least one running task of job `j` is hosted on `m` —
    /// resolved through the machine's resident list, which is short
    /// relative to the job's task count.
    pub(crate) fn hosts_job(&self, m: MachineId, j: JobId) -> bool {
        let residents = &self.machines[m.index()].running_tasks;
        residents.iter().any(|&uid| self.job_of(uid) == j)
    }

    /// Runnable, unplaced tasks across the jobs that have arrived and not
    /// finished. A stage's list fills only after its job arrived and is
    /// empty once the job finished, so the count of every list is theirs.
    pub(crate) fn num_pending(&self) -> usize {
        debug_assert_eq!(
            self.pending_total,
            self.jobs
                .iter()
                .filter(|j| j.is_active())
                .flat_map(|j| j.stages.iter())
                .map(|s| s.pending.len())
                .sum::<usize>(),
            "the pending count is the walk"
        );
        self.pending_total
    }

    /// Availability as seen by the scheduler.
    ///
    /// Tracker-unaware policies (the slot baselines) see the demand ledger
    /// only: `capacity − Σ committed peak demands`, which can go negative
    /// when they over-allocate.
    ///
    /// Tracker-aware policies (Tetris, SRTF) see usage-based availability
    /// with idle reclamation (§4.1): `capacity − (reported usage + ramp-up
    /// allowance for recently placed tasks)`, floored by the memory ledger
    /// (memory is held, never reclaimed). With `reclaim_idle` off they see
    /// the demand ledger minus tracker-reported external usage.
    pub(crate) fn availability(&self, m: MachineId, tracker_aware: bool) -> ResourceVec {
        let ms = &self.machines[m.index()];
        if ms.down {
            // A crashed machine offers nothing to any policy.
            return ResourceVec::zero();
        }
        if !tracker_aware {
            return ms.capacity - ms.allocated;
        }
        if !self.cfg.reclaim_idle {
            return ms.capacity - ms.allocated - ms.external_reported;
        }
        // Usage + allowance, component-wise maxed with the memory ledger.
        let horizon = tracker::RAMP_UP_HORIZON_SECS;
        let mut committed = ms.usage_reported;
        for (t, demand) in &ms.recent {
            let age = self.now.secs_since(*t);
            if age < horizon {
                committed += *demand * (1.0 - age / horizon);
            }
        }
        // Memory is a space resource: the ledger is authoritative.
        committed.set(Resource::Mem, ms.allocated.get(Resource::Mem));
        ms.capacity - committed
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tetris_resources::{
        units::{GB, MB},
        MachineSpec,
    };
    use tetris_workload::{JobId, TaskParams, WorkloadBuilder};

    /// A task of `cores` cores and 1 GB that computes for `duration`
    /// seconds, reads `inputs` and writes nothing.
    pub(crate) fn params(
        cores: f64,
        duration: f64,
        inputs: Vec<tetris_workload::InputSpec>,
    ) -> TaskParams {
        TaskParams {
            cores,
            mem: GB,
            duration,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs,
            output_bytes: 0.0,
            remote_frac: 1.0,
        }
    }

    /// One job of one stage of `n` tasks built by `task`.
    pub(crate) fn one_stage(n: usize, task: TaskParams) -> Workload {
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        b.add_stage(j, "s", vec![], n, |_| task.clone());
        b.finish()
    }

    pub(crate) fn one_task_workload(cores: f64, dur: f64) -> Workload {
        one_stage(1, params(cores, dur, vec![]))
    }

    /// A state on two `paper_small` machines under the default config.
    pub(crate) fn mk_state(w: Workload) -> SimState {
        let cluster = ClusterConfig::uniform(2, MachineSpec::paper_small());
        SimState::new(cluster, w, SimConfig::default())
    }

    #[test]
    fn replica_binding_matches_a_set_of_draws() {
        // The binding the state replaced: draws into an ordered set until
        // it holds `replication` machines.
        fn reference(rng: &mut StdRng, machines: usize, replication: usize) -> Vec<MachineId> {
            let mut reps = std::collections::BTreeSet::new();
            while reps.len() < replication {
                reps.insert(MachineId(rng.gen_range(0..machines)));
            }
            reps.into_iter().collect()
        }
        for seed in [0, 7, 42, 1234] {
            for machines in [1, 2, 3, 5, 40] {
                for replication in [1, 2, 3, 5, 8] {
                    let mut w = one_task_workload(1.0, 1.0);
                    w.num_blocks = 300;
                    let cluster = ClusterConfig::uniform(machines, MachineSpec::paper_small());
                    let mut cfg = SimConfig::default();
                    cfg.seed = seed;
                    cfg.replication = replication;
                    let mut st = SimState::new(cluster, w, cfg);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let expected: Vec<_> = (0..300)
                        .map(|_| reference(&mut rng, machines, replication.min(machines)))
                        .collect();
                    let case =
                        format!("seed {seed}, {machines} machines, replication {replication}");
                    assert_eq!(st.blocks, expected, "{case}");
                    assert_eq!(
                        st.rng.gen::<u64>(),
                        rng.gen::<u64>(),
                        "{case}: the same draws"
                    );
                }
            }
        }
    }

    #[test]
    fn a_task_record_holds_no_running_attempt() {
        // The attempt's record is boxed into `Phase::Running`; what every
        // task pays for is its phase, attempt count and five times.
        assert_eq!(std::mem::size_of::<Phase>(), 16);
        assert_eq!(std::mem::size_of::<TaskState>(), 104);
    }

    #[test]
    fn ramp_up_allowance_decays_and_needs_the_ticks() {
        // A 2-core task placed at t = 0: before any report, a
        // tracker-aware view counts its demand whole, then less as it
        // ages. A run without tracker reports keeps no entry to count.
        for ticks in [true, false] {
            let mut st = mk_state(one_task_workload(2.0, 100.0));
            st.tracker_ticks = ticks;
            st.job_arrives(JobId(0));
            st.apply_assignment(TaskUid(0), MachineId(0));
            let cpu = |st: &SimState| st.availability(MachineId(0), true).get(Resource::Cpu);
            assert_eq!(cpu(&st), if ticks { 2.0 } else { 4.0 });
            st.now = SimTime::from_secs(5.0);
            assert_eq!(cpu(&st), if ticks { 3.0 } else { 4.0 });
            assert_eq!(st.machines[0].recent.is_empty(), !ticks);
        }
    }

    #[test]
    fn availability_reflects_allocation_and_tracker() {
        let mut st = mk_state(one_task_workload(2.0, 10.0));
        st.job_arrives(JobId(0));
        st.apply_assignment(TaskUid(0), MachineId(0));
        let avail = st.availability(MachineId(0), false);
        assert_eq!(avail.get(Resource::Cpu), 2.0); // 4 - 2
        assert_eq!(avail.get(Resource::Mem), 15.0 * GB); // 16 - 1

        // External load visible only after a tracker report, and only to
        // tracker-aware policies.
        st.cfg.external_loads.push(ExternalLoad {
            machine: MachineId(0),
            start: 0.0,
            duration: 10.0,
            load: ResourceVec::zero().with(Resource::DiskWrite, 50.0 * MB),
        });
        // Keep the activation flags parallel to the injected load.
        st.external_active.push(false);
        st.external_cancelled.push(false);
        st.set_external(0, true);
        assert_eq!(
            st.availability(MachineId(0), true).get(Resource::DiskWrite),
            st.machines[0].capacity.get(Resource::DiskWrite)
        );
        st.tracker_report(&mut Vec::new());
        let dw_avail = st.availability(MachineId(0), true).get(Resource::DiskWrite);
        assert_eq!(
            dw_avail,
            st.machines[0].capacity.get(Resource::DiskWrite) - 50.0 * MB
        );
        // Tracker-unaware view unchanged.
        assert_eq!(
            st.availability(MachineId(0), false)
                .get(Resource::DiskWrite),
            st.machines[0].capacity.get(Resource::DiskWrite)
        );
    }
}
