//! Runtime state of a simulation: machines, jobs, tasks, flows, and the
//! rate-sharing model that makes task durations placement- and
//! contention-dependent (paper eqn. 5).
//!
//! ## The flow model
//!
//! Every running task is decomposed into *flows*: a CPU flow, a local
//! disk-write flow, a local disk-read flow, and one flow per remote input
//! source traversing `(src DiskRead) → (src NetOut) → (host NetIn)`. Each
//! flow has a rate cap derived from the task's peak demands and a remaining
//! amount of work; the task completes when all its flows complete.
//!
//! Each `(machine, resource)` pair is a *link*. When the sum of flow caps
//! on a link exceeds its capacity, every flow on it is scaled by
//! `capacity / Σcaps`; a flow's rate is its cap times the minimum scale
//! factor across its links (times a thrashing factor when the host's
//! memory is over-committed). This one-pass proportional-share model is a
//! deliberate simplification of full max–min fairness: it never
//! over-assigns a link, it reproduces the contention behaviour the paper
//! relies on ("two tasks that can both use all of the available network
//! bandwidth ... will take twice as long to finish"), and it requires no
//! iteration, so rates can be recomputed incrementally as tasks come and
//! go. The difference from exact max–min (unclaimed headroom is not
//! redistributed to unconstrained flows) only makes the simulator slightly
//! pessimistic for *all* schedulers equally.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tetris_resources::{Resource, ResourceVec, NUM_RESOURCES};
use tetris_workload::{InputSource, InputSpec, JobId, TaskSpec, TaskUid, Workload};

use crate::cluster::{ClusterConfig, MachineId};
use crate::config::{ExternalLoad, SimConfig};
use crate::events::{EventKind, EventQueue, FlowId};
use crate::fault::TrackerMode;
use crate::index::MachineIndex;
use crate::time::SimTime;
use crate::tracker;

/// Relative tolerance under which a flow's remaining work counts as done.
const WORK_EPS_REL: f64 = 1e-9;
/// Absolute tolerance (bytes / core-seconds).
const WORK_EPS_ABS: f64 = 1e-6;

/// One unit of schedulable work in flight.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
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

impl Flow {
    /// What a checkpoint restore puts in the slot of a flow that had
    /// finished: `done`, so nothing reads past that flag.
    pub(crate) fn tombstone() -> Flow {
        Flow {
            task: TaskUid(0),
            host: MachineId(0),
            cap: 0.0,
            links: Vec::new(),
            remaining: 0.0,
            init_work: 0.0,
            rate: 0.0,
            last_update: SimTime::ZERO,
            done: true,
        }
    }

    fn is_complete(&self) -> bool {
        self.remaining <= (self.init_work * WORK_EPS_REL).max(WORK_EPS_ABS)
    }
}

/// Runtime state of one machine.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
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
    /// Recently placed demands (placement time, demand) for the ramp-up
    /// allowance; pruned at tracker reports.
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
            recent: Vec::new(),
            running: 0,
            running_tasks: Vec::new(),
            down: false,
            slowdown: 1.0,
            suspicion: 0.0,
            stale_streak: 0,
        }
    }

    /// Scale factor of a link: 1 when demand fits, else
    /// effective-capacity/demand, where effective capacity shrinks with
    /// over-subscription per the interference model (disk seeks, incast).
    #[inline]
    fn factor(&self, r: Resource, interference: &crate::config::Interference) -> f64 {
        let mut cap = self.capacity.get(r);
        if self.slowdown < 1.0 && r != Resource::Cpu && r != Resource::Mem {
            // Straggler window: the disk/NIC delivers only a fraction of
            // nominal bandwidth (fault injection; never taken when
            // faults are disabled).
            cap *= self.slowdown;
        }
        let demand = self.link_demand[r.index()];
        if demand <= cap || demand <= 0.0 {
            1.0
        } else {
            interference.effective_capacity(r, cap, demand) / demand
        }
    }

    /// Thrashing factor from memory over-commit:
    /// `max((cap/alloc)^exponent, floor)`.
    #[inline]
    fn thrash_factor(&self, cfg: &SimConfig) -> f64 {
        if !cfg.thrashing {
            return 1.0;
        }
        let cap = self.capacity.get(Resource::Mem);
        let alloc = self.allocated.get(Resource::Mem);
        if alloc <= cap || alloc <= 0.0 {
            1.0
        } else {
            (cap / alloc)
                .powf(cfg.thrash_exponent)
                .max(cfg.thrash_floor)
        }
    }

    /// Actual usage rates on this machine right now (Σ flow rates per dim
    /// plus external load). Unlike `allocated`, this never exceeds
    /// capacity on rate dimensions.
    pub fn usage(&self, flows: &[Flow]) -> ResourceVec {
        let mut u = self.external;
        for r in Resource::ALL {
            if r == Resource::Mem {
                continue;
            }
            // A flow's rate applies fully on each link it traverses.
            let mut sum = u.get(r);
            for &fid in &self.link_flows[r.index()] {
                sum += flows[fid.0].rate;
            }
            u.set(r, sum);
        }
        // Memory usage = allocated memory (space resource).
        u.set(Resource::Mem, self.allocated.get(Resource::Mem));
        u
    }
}

/// Lifecycle of a task.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) enum Phase {
    /// Waiting on upstream stages.
    Blocked,
    /// Schedulable.
    Runnable,
    /// Placed and running.
    Running(RunInfo),
    /// Done.
    Finished,
    /// Attempt lost to a machine crash; waiting out the restart backoff
    /// before becoming runnable again.
    Backoff,
    /// Permanently failed: lost its last permitted attempt to a crash.
    /// Counts toward stage/job completion so the job still terminates.
    Abandoned,
}

/// Bookkeeping for a running task.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct RunInfo {
    pub machine: MachineId,
    /// Flow ids of this attempt (torn down on a crash).
    pub flows: Vec<FlowId>,
    pub flows_left: usize,
    pub local_alloc: ResourceVec,
    pub remote_alloc: Vec<(MachineId, ResourceVec)>,
    pub gen: u64,
}

#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct TaskState {
    pub phase: Phase,
    pub attempts: u32,
    pub start: Option<SimTime>,
    pub first_start: Option<SimTime>,
    pub finish: Option<SimTime>,
    pub machine: Option<MachineId>,
    /// When the task last became runnable (stage unlock or retry) — the
    /// basis for starvation detection (paper §3.5).
    pub runnable_since: Option<SimTime>,
    /// Placement-plan duration estimate of the latest attempt (true lower
    /// bound on the attempt's simulated duration).
    pub planned: Option<f64>,
}

#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct StageState {
    pub unlocked: bool,
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

#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct JobState {
    pub arrived: bool,
    pub finish: Option<SimTime>,
    pub first_start: Option<SimTime>,
    pub allocated: ResourceVec,
    pub running: usize,
    pub finished_tasks: usize,
    pub total_tasks: usize,
    pub stages: Vec<StageState>,
}

impl JobState {
    pub fn is_active(&self) -> bool {
        self.arrived && self.finish.is_none()
    }
}

/// What [`SimState::task_complete`] did, so the engine can emit the
/// matching trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskCompletion {
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

impl TaskCompletion {
    /// True if a job finished as a result.
    pub fn job_finished(&self) -> bool {
        matches!(
            self,
            TaskCompletion::Finished {
                job_finished: true,
                ..
            }
        )
    }
}

/// Resolved placement of a task on a candidate machine: what it would
/// demand locally and at each remote input source, and how long it would
/// take at peak allocation (paper eqn. 5 with peak rates).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlacementPlan {
    /// Peak demand at the host, adjusted for placement (NetIn only when
    /// some input is remote; DiskRead only when some input is local).
    pub local: ResourceVec,
    /// Peak demand at each remote source (DiskRead + NetOut there).
    pub remote: Vec<(MachineId, ResourceVec)>,
    /// Bytes read from the host's disks.
    pub local_read_bytes: f64,
    /// Bytes read from each remote source.
    pub remote_reads: Vec<(MachineId, f64)>,
    /// Estimated duration at peak allocation, seconds.
    pub est_duration: f64,
}

/// Relative rounding allowance of the placement plan's one monotonicity
/// claim: a task whose inputs are all shuffle reads asks each source `s`
/// of its all-remote plan, on any host but `s`, for at least that plan's
/// demand at `s` times `1 − SHUFFLE_SHARE_MARGIN`. The exact shares obey
/// it with no margin (a host that holds output leaves the source list, so
/// the kept sum cannot grow); the computed ones differ from them by a few
/// ulps a summed source. Pinned by `tests/prop_plan.rs`; Tetris's
/// `blocked` memo leans on it (DESIGN.md §9).
pub const SHUFFLE_SHARE_MARGIN: f64 = 1e-9;

impl PlacementPlan {
    /// True if any input comes from a remote machine.
    pub fn is_remote(&self) -> bool {
        !self.remote.is_empty()
    }

    /// Fraction of input bytes that are remote.
    pub fn remote_fraction(&self) -> f64 {
        let remote: f64 = self.remote_reads.iter().map(|(_, b)| b).sum();
        let total = remote + self.local_read_bytes;
        if total <= 0.0 {
            0.0
        } else {
            remote / total
        }
    }
}

/// Dirty-set accumulated while mutating state; drives incremental rate
/// recomputation.
///
/// Allocation-free across events: membership is tracked by generation
/// stamps (one `u64` per (machine, dim) slot / machine / flow) so an
/// event batch never allocates once the stamp tables have grown to the
/// cluster and flow-table size. `recompute_dirty` drains the insertion
/// lists and bumps the generation — an O(1) clear.
#[derive(Debug, Default)]
pub(crate) struct DirtySet {
    /// (machine, dim) links whose demand changed, in insertion order.
    links: Vec<(usize, usize)>,
    /// Machines whose memory allocation changed (thrash factor).
    mem: Vec<usize>,
    /// Stamp per (machine, dim) slot: equals `gen` iff present in `links`.
    link_stamp: Vec<u64>,
    /// Stamp per machine: equals `gen` iff present in `mem`.
    mem_stamp: Vec<u64>,
    /// Stamp per flow: equals `gen` iff present in `affected`.
    flow_stamp: Vec<u64>,
    /// Current batch generation (stamp tables grow filled with `u64::MAX`,
    /// which it never reaches).
    gen: u64,
    /// Flows the next drain visits: those added since the last one, then
    /// (gathered by the drain itself) those whose bottleneck may have moved.
    affected: Vec<FlowId>,
}

impl DirtySet {
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.mem.is_empty()
    }

    /// Mark a (machine, dim) link slot dirty.
    pub fn insert_link(&mut self, mi: usize, ri: usize) {
        let idx = mi * NUM_RESOURCES + ri;
        if self.link_stamp.len() <= idx {
            self.link_stamp.resize(idx + 1, u64::MAX);
        }
        if self.link_stamp[idx] != self.gen {
            self.link_stamp[idx] = self.gen;
            self.links.push((mi, ri));
        }
    }

    /// Mark a machine's memory allocation dirty.
    pub fn insert_mem(&mut self, mi: usize) {
        if self.mem_stamp.len() <= mi {
            self.mem_stamp.resize(mi + 1, u64::MAX);
        }
        if self.mem_stamp[mi] != self.gen {
            self.mem_stamp[mi] = self.gen;
            self.mem.push(mi);
        }
    }

    /// Mark a flow for the next drain's visit.
    fn insert_flow(&mut self, fid: FlowId) {
        if self.flow_stamp.len() <= fid.0 {
            self.flow_stamp.resize(fid.0 + 1, u64::MAX);
        }
        if self.flow_stamp[fid.0] != self.gen {
            self.flow_stamp[fid.0] = self.gen;
            self.affected.push(fid);
        }
    }
}

/// Mutable simulation state. The engine (`engine.rs`) drives it; the
/// cluster view (`view.rs`) reads it.
pub(crate) struct SimState {
    /// Static cluster description (rack lookups for future extensions).
    #[allow(dead_code)]
    pub cluster: ClusterConfig,
    pub workload: Workload,
    pub cfg: SimConfig,
    pub now: SimTime,
    pub machines: Vec<MachineState>,
    pub tasks: Vec<TaskState>,
    /// uid → (job index, stage index, task index) for O(1) spec lookup.
    pub task_loc: Vec<(usize, usize, usize)>,
    pub jobs: Vec<JobState>,
    /// Block id → replica machines.
    pub blocks: Vec<Vec<MachineId>>,
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
    /// Free-capacity index serving `MachineQuery` (DESIGN.md §13).
    /// Disabled (empty) when `cfg.machine_index` is off.
    pub index: MachineIndex,
    /// Placement plans resolved since the last drain
    /// (`names::PLACEMENT_PLANS`). Atomic for the reason the index's
    /// counters are: shard workers plan through a shared `&SimState`.
    pub plans: AtomicU64,
    /// `factor` of each (machine, dim) link and `thrash_factor` of each
    /// machine as of the last drain of the dirty set: what every live
    /// flow's `rate` was computed from. Derived, so not checkpointed.
    link_factor: Vec<f64>,
    thrash: Vec<f64>,
    /// `[job][stage]`: the output map of each finished stage with more
    /// sources than `shuffle_fanin`, ordered as the fan-in bound keeps
    /// them — bytes descending, then machine ascending (empty elsewhere;
    /// grown as stages finish). Derived, so not checkpointed:
    /// `rank_finished_stages` rebuilds it at restore.
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
    pub fn new(cluster: ClusterConfig, workload: Workload, cfg: SimConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n_machines = cluster.len();
        let machines = (0..n_machines)
            .map(|i| MachineState::new(cluster.capacity(MachineId(i))))
            .collect();

        // Bind stored blocks to replica machines.
        let replication = cfg.replication.min(n_machines);
        let blocks = (0..workload.num_blocks)
            .map(|_| {
                let mut reps = BTreeSet::new();
                while reps.len() < replication {
                    reps.insert(MachineId(rng.gen_range(0..n_machines)));
                }
                reps.into_iter().collect::<Vec<_>>()
            })
            .collect();

        // Index tasks and initialize job/stage state.
        let n_tasks = workload.num_tasks();
        let mut task_loc = vec![(0, 0, 0); n_tasks];
        let mut jobs = Vec::with_capacity(workload.jobs.len());
        for (ji, job) in workload.jobs.iter().enumerate() {
            let mut stages = Vec::with_capacity(job.stages.len());
            for (si, stage) in job.stages.iter().enumerate() {
                for (ti, t) in stage.tasks.iter().enumerate() {
                    task_loc[t.uid.index()] = (ji, si, ti);
                }
                let feeds_downstream = job.stages.iter().any(|s2| s2.deps.contains(&si));
                stages.push(StageState {
                    unlocked: false,
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
            });
        }

        let tasks = vec![
            TaskState {
                phase: Phase::Blocked,
                attempts: 0,
                start: None,
                first_start: None,
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
            let caps: Vec<ResourceVec> = (0..n_machines)
                .map(|i| cluster.capacity(MachineId(i)))
                .collect();
            let mut idx = MachineIndex::new(&caps);
            idx.seed();
            idx
        } else {
            MachineIndex::disabled()
        };
        let mut state = SimState {
            cluster,
            workload,
            cfg,
            now: SimTime::ZERO,
            machines,
            tasks,
            task_loc,
            jobs,
            blocks,
            flows: Vec::new(),
            jobs_remaining,
            total_capacity,
            rng,
            freed_hint: Vec::new(),
            completions: 0,
            tracker_modes: vec![TrackerMode::Honest; n_machines],
            tracker_modes_baseline: vec![TrackerMode::Honest; n_machines],
            external_active: vec![false; n_external],
            external_cancelled: vec![false; n_external],
            dynamic_loads: Vec::new(),
            tasks_abandoned: 0,
            index,
            plans: AtomicU64::new(0),
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

    /// Recompute the factor tables from the ledgers. Exact wherever the
    /// dirty set is empty (a restored checkpoint): every change to a
    /// link's demand or a machine's memory marks it dirty, and a drain
    /// leaves each dirty entry at the value computed here.
    pub(crate) fn rebuild_factors(&mut self) {
        let cfg = &self.cfg;
        let of_links = |ms: &MachineState| Resource::ALL.map(|r| ms.factor(r, &cfg.interference));
        self.link_factor = self.machines.iter().flat_map(of_links).collect();
        self.thrash = self
            .machines
            .iter()
            .map(|ms| ms.thrash_factor(cfg))
            .collect();
    }

    /// Rank a finished stage's output map for `ranked_reads`, if it has
    /// more sources than the fan-in bound keeps (below it the general
    /// path neither sorts nor truncates). Once per stage: a finished
    /// stage's map never changes again.
    fn rank_stage(&mut self, ji: usize, si: usize) {
        let outs = &self.jobs[ji].stages[si].out_by_machine;
        if outs.len() <= self.cfg.shuffle_fanin {
            return;
        }
        let mut rank = outs.clone();
        rank.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        if self.shuffle_ranks.len() <= ji {
            self.shuffle_ranks.resize_with(ji + 1, Vec::new);
        }
        let job = &mut self.shuffle_ranks[ji];
        if job.len() <= si {
            job.resize_with(si + 1, Vec::new);
        }
        job[si] = rank;
    }

    /// Rank every finished stage (a restored checkpoint).
    pub(crate) fn rank_finished_stages(&mut self) {
        for ji in 0..self.jobs.len() {
            for si in 0..self.jobs[ji].stages.len() {
                let st = &self.jobs[ji].stages[si];
                if st.finished == st.total {
                    self.rank_stage(ji, si);
                }
            }
        }
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

    /// Refresh one machine's index entry after a ledger / liveness /
    /// suspicion change. No-op when the index is disabled.
    pub fn index_touch(&mut self, mi: usize) {
        if !self.index.enabled {
            return;
        }
        let ub = self.index_ub(mi);
        let ms = &self.machines[mi];
        let considered = !ms.down && ms.suspicion < crate::tracker::SUSPECT_THRESHOLD;
        self.index.refresh(mi, ub, considered);
    }

    /// Refresh every machine's index entry (crash fallout, bulk tracker
    /// refresh under reclaim). No-op when the index is disabled.
    pub fn index_rebuild(&mut self) {
        if !self.index.enabled {
            return;
        }
        for mi in 0..self.machines.len() {
            self.index_touch(mi);
        }
    }

    /// Task spec by uid.
    #[inline]
    pub fn spec(&self, uid: TaskUid) -> &TaskSpec {
        let (j, s, t) = self.task_loc[uid.index()];
        &self.workload.jobs[j].stages[s].tasks[t]
    }

    // ------------------------------------------------------------------
    // Job / stage lifecycle
    // ------------------------------------------------------------------

    /// Mark a job arrived and unlock its root stages.
    pub fn job_arrives(&mut self, job: JobId) {
        let ji = job.index();
        self.jobs[ji].arrived = true;
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
        let uids: Vec<TaskUid> = self.workload.jobs[ji].stages[si]
            .tasks
            .iter()
            .map(|t| t.uid)
            .collect();
        let now = self.now;
        for &uid in &uids {
            let t = &mut self.tasks[uid.index()];
            t.phase = Phase::Runnable;
            t.runnable_since = Some(now);
        }
        self.jobs[ji].stages[si].pending = uids;
    }

    // ------------------------------------------------------------------
    // Placement
    // ------------------------------------------------------------------

    /// Check an assignment is applicable: the task is pending/runnable and
    /// the machine exists. Feasibility against capacity is deliberately
    /// *not* checked here — whether to over-allocate is the policy's
    /// decision, and letting baselines over-allocate is the point of the
    /// reproduction.
    pub fn assignment_valid(&self, task: TaskUid, machine: MachineId) -> bool {
        machine.index() < self.machines.len()
            && !self.machines[machine.index()].down
            && task.index() < self.tasks.len()
            && matches!(self.tasks[task.index()].phase, Phase::Runnable)
    }

    /// Resolve where a task's input bytes would come from if placed on
    /// `machine`, and what it would demand locally/remotely.
    pub fn placement_plan(&self, uid: TaskUid, machine: MachineId) -> PlacementPlan {
        let mut plan = PlacementPlan::default();
        self.placement_plan_into(uid, machine, &mut plan);
        plan
    }

    /// True if placing `uid` on `machine` could read any input from the
    /// machine's own disks: a stored input with a replica there, or a
    /// shuffle input whose upstream stage left output there. On every
    /// machine where this is false the placement plan is the *same
    /// value* — all inputs remote, sources fixed by `replicas[uid % len]`
    /// and `out_by_machine`, fan-in truncation included (pinned by
    /// `tests/prop_plan.rs`) — which is what lets a policy that saw the
    /// plan fail on a remote source skip every other such machine.
    /// Allocation-free.
    pub fn task_reads_locally(&self, uid: TaskUid, machine: MachineId) -> bool {
        let (ji, _, _) = self.task_loc[uid.index()];
        self.spec(uid)
            .inputs
            .iter()
            .any(|input| match input.source {
                InputSource::Stored(b) => self.blocks[b.index()].contains(&machine),
                InputSource::Shuffle { stage } => self.jobs[ji].stages[stage]
                    .out_by_machine
                    .binary_search_by_key(&machine, |&(m, _)| m)
                    .is_ok(),
            })
    }

    /// The read half of a plan, for any task: bytes read from the host's
    /// disks (returned) and from each remote source (`remote`, sorted by
    /// machine), the fan-in bound applied.
    fn general_reads(
        &self,
        uid: TaskUid,
        machine: MachineId,
        remote: &mut Vec<(MachineId, f64)>,
    ) -> f64 {
        let spec = self.spec(uid);
        let (ji, _, _) = self.task_loc[uid.index()];
        let mut local_bytes = 0.0f64;
        // Bytes per remote source, kept sorted by machine and summed in
        // input order: the sorted map this used to build, key for key
        // and `+=` for `+=`, in the plan's own vector. A shuffle stage's
        // sources arrive in machine order, so its inserts are appends.
        remote.clear();
        let mut add_remote =
            |src: MachineId, bytes: f64| match remote.binary_search_by_key(&src, |&(m, _)| m) {
                Ok(i) => remote[i].1 += bytes,
                Err(i) => remote.insert(i, (src, bytes)),
            };

        for input in &spec.inputs {
            match input.source {
                InputSource::Stored(b) => {
                    let replicas = &self.blocks[b.index()];
                    if replicas.contains(&machine) {
                        local_bytes += input.bytes;
                    } else {
                        // Deterministic replica choice, spread by uid.
                        add_remote(replicas[uid.index() % replicas.len()], input.bytes);
                    }
                }
                InputSource::Shuffle { stage } => {
                    let st = &self.jobs[ji].stages[stage];
                    if st.total_out <= 0.0 {
                        // Upstream produced no bytes; nothing to read.
                        continue;
                    }
                    let frac = input.bytes / st.total_out;
                    for &(m, bytes) in &st.out_by_machine {
                        let share = bytes * frac;
                        if share <= 0.0 {
                            continue;
                        }
                        if m == machine {
                            local_bytes += share;
                        } else {
                            add_remote(m, share);
                        }
                    }
                }
            }
        }

        // Bound shuffle fan-in: keep the largest contributors, fold the
        // tail's bytes into them proportionally (bytes conserved).
        if remote.len() > self.cfg.shuffle_fanin {
            // `total_cmp`: a NaN byte count from a trace file takes a place
            // in the order instead of panicking; on finite positive bytes
            // it is the order `partial_cmp` gave.
            remote.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let kept: f64 = remote[..self.cfg.shuffle_fanin]
                .iter()
                .map(|(_, b)| b)
                .sum();
            let tail: f64 = remote[self.cfg.shuffle_fanin..]
                .iter()
                .map(|(_, b)| b)
                .sum();
            remote.truncate(self.cfg.shuffle_fanin);
            if kept > 0.0 {
                let scale = (kept + tail) / kept;
                for (_, b) in remote.iter_mut() {
                    *b *= scale;
                }
            }
            remote.sort_by_key(|(m, _)| *m);
        }
        local_bytes
    }

    /// [`SimState::general_reads`] in O(sources) for a task whose one
    /// input is a shuffle of a ranked stage (`rank_stage`), or `None` for
    /// the general path to answer. Walking the ranking without the host
    /// visits the sources in the order the general path sorts them into,
    /// with every share computed as it computes them (`bytes * frac`), so
    /// `kept` and `tail` add the same values in the same order and every
    /// float is bit-identical. The one way the orders part: two sources
    /// whose bytes differ but whose shares round equal are sorted by
    /// machine there and by bytes here. That matters only when such a run
    /// of equal shares straddles the kept/tail boundary (elsewhere it
    /// swaps equal addends); the walk detects it and falls back.
    fn ranked_reads(
        &self,
        uid: TaskUid,
        machine: MachineId,
        remote: &mut Vec<(MachineId, f64)>,
    ) -> Option<f64> {
        let [InputSpec {
            source: InputSource::Shuffle { stage },
            bytes,
        }] = self.spec(uid).inputs[..]
        else {
            return None;
        };
        let (ji, _, _) = self.task_loc[uid.index()];
        let rank = self.shuffle_ranks.get(ji)?.get(stage)?;
        if rank.is_empty() {
            return None; // unfinished, or no more sources than the bound keeps
        }
        let frac = bytes / self.jobs[ji].stages[stage].total_out;
        let fanin = self.cfg.shuffle_fanin;
        remote.clear();
        let (mut local_bytes, mut kept, mut tail) = (0.0f64, 0.0f64, 0.0f64);
        let mut sources = 0;
        // The run of equal shares the walk is in: its share, its first
        // source's bytes, and how many sources preceded it.
        let (mut run_share, mut run_bytes, mut run_start) = (f64::NAN, 0.0, 0);
        for &(m, out) in rank {
            let share = out * frac;
            if !(share > 0.0) {
                return None;
            }
            if m == machine {
                local_bytes += share;
                continue;
            }
            if share != run_share {
                (run_share, run_bytes, run_start) = (share, out, sources);
            } else if sources >= fanin && run_start < fanin && out != run_bytes {
                return None;
            }
            if sources < fanin {
                kept += share;
                remote.push((m, share));
            } else {
                tail += share;
            }
            sources += 1;
        }
        if sources > fanin {
            let scale = (kept + tail) / kept;
            for (_, b) in remote.iter_mut() {
                *b *= scale;
            }
        }
        remote.sort_unstable_by_key(|&(m, _)| m);
        Some(local_bytes)
    }

    /// Debug builds re-derive every ranked plan's reads by the general
    /// path (the rest of a plan is computed from them by one code path):
    /// every float bit-equal.
    #[cfg(debug_assertions)]
    fn assert_ranked(&self, uid: TaskUid, m: MachineId, local: f64, remote: &[(MachineId, f64)]) {
        let mut general = Vec::new();
        let general_local = self.general_reads(uid, m, &mut general);
        let bits = |reads: &[(MachineId, f64)]| -> Vec<_> {
            reads.iter().map(|&(m, b)| (m, b.to_bits())).collect()
        };
        assert!(
            local.to_bits() == general_local.to_bits() && bits(remote) == bits(&general),
            "ranked plan of {uid:?} on {m:?}: {local} {remote:?}, general: {general_local} {general:?}"
        );
    }

    /// [`SimState::placement_plan`] into a caller-owned plan: every field
    /// of `plan` is overwritten and its two vectors are reused, so a
    /// caller that keeps one plan across calls allocates nothing once
    /// they have grown to the widest fan-in seen.
    pub fn placement_plan_into(&self, uid: TaskUid, machine: MachineId, plan: &mut PlacementPlan) {
        self.plans.fetch_add(1, Ordering::Relaxed);
        let spec = self.spec(uid);
        let local_bytes = match self.ranked_reads(uid, machine, &mut plan.remote_reads) {
            Some(local_bytes) => {
                #[cfg(debug_assertions)]
                self.assert_ranked(uid, machine, local_bytes, &plan.remote_reads);
                local_bytes
            }
            None => self.general_reads(uid, machine, &mut plan.remote_reads),
        };
        let remote = &plan.remote_reads;

        let remote_total: f64 = remote.iter().map(|(_, b)| b).sum();
        let d = spec.demand;
        let d_dr = d.get(Resource::DiskRead);
        let d_ni = d.get(Resource::NetIn);
        // Effective peak remote-read rate: fall back to the disk-read rate
        // when the spec declares no NetIn demand (e.g. a map task expected
        // to be local but placed remotely — an estimation miss the paper's
        // tracker would catch).
        let d_ni_eff = if d_ni > 0.0 { d_ni } else { d_dr };

        let mut local = d;
        local.set(
            Resource::DiskRead,
            if local_bytes > 0.0 { d_dr } else { 0.0 },
        );
        local.set(
            Resource::NetIn,
            if remote_total > 0.0 { d_ni_eff } else { 0.0 },
        );
        local.set(Resource::NetOut, 0.0);

        // Per-source transfer caps: the reader's share of its NetIn
        // demand, additionally bounded by what the source's disk and NIC
        // can physically serve (otherwise a demand no machine can satisfy
        // would make the task permanently unplaceable).
        plan.remote.clear();
        plan.remote.extend(remote.iter().map(|&(m, bytes)| {
            let src_cap = self.machines[m.index()].capacity;
            let share = (d_ni_eff * bytes / remote_total)
                .min(src_cap.get(Resource::DiskRead))
                .min(src_cap.get(Resource::NetOut))
                .max(1e-3); // keep caps positive so flows always drain
            (
                m,
                ResourceVec::zero()
                    .with(Resource::DiskRead, share)
                    .with(Resource::NetOut, share),
            )
        }));

        // Eqn. 5 at peak allocation.
        let mut est: f64 = 0.0;
        if spec.cpu_work > 0.0 {
            est = est.max(spec.cpu_work / d.get(Resource::Cpu));
        }
        if spec.output_bytes > 0.0 {
            est = est.max(spec.output_bytes / d.get(Resource::DiskWrite));
        }
        if local_bytes > 0.0 {
            est = est.max(local_bytes / d_dr);
        }
        for (&(_, bytes), (_, dem)) in remote.iter().zip(&plan.remote) {
            est = est.max(bytes / dem.get(Resource::DiskRead));
        }

        plan.local = local;
        plan.local_read_bytes = local_bytes;
        plan.est_duration = est;
    }

    /// Place a runnable task on a machine: build flows, charge ledgers,
    /// schedule completion events.
    pub fn apply_assignment(
        &mut self,
        uid: TaskUid,
        machine: MachineId,
        dirty: &mut DirtySet,
        queue: &mut EventQueue,
    ) {
        debug_assert!(self.assignment_valid(uid, machine));
        let mut plan = std::mem::take(&mut self.applied_plan);
        self.placement_plan_into(uid, machine, &mut plan);
        let (ji, si, _) = self.task_loc[uid.index()];
        let spec = self.spec(uid);
        let d = spec.demand;
        let cpu_work = spec.cpu_work;
        let output_bytes = spec.output_bytes;
        let d_dr = d.get(Resource::DiskRead);

        // Build flows.
        let mut flow_ids = Vec::new();
        if cpu_work > 0.0 {
            flow_ids.push(self.add_flow(
                uid,
                machine,
                d.get(Resource::Cpu),
                vec![(machine, Resource::Cpu)],
                cpu_work,
                dirty,
            ));
        }
        if output_bytes > 0.0 {
            flow_ids.push(self.add_flow(
                uid,
                machine,
                d.get(Resource::DiskWrite),
                vec![(machine, Resource::DiskWrite)],
                output_bytes,
                dirty,
            ));
        }
        if plan.local_read_bytes > 0.0 {
            flow_ids.push(self.add_flow(
                uid,
                machine,
                d_dr,
                vec![(machine, Resource::DiskRead)],
                plan.local_read_bytes,
                dirty,
            ));
        }
        for (&(src, bytes), &(src2, dem)) in plan.remote_reads.iter().zip(&plan.remote) {
            debug_assert_eq!(src, src2);
            let cap = dem.get(Resource::DiskRead);
            flow_ids.push(self.add_flow(
                uid,
                machine,
                cap,
                vec![
                    (src, Resource::DiskRead),
                    (src, Resource::NetOut),
                    (machine, Resource::NetIn),
                ],
                bytes,
                dirty,
            ));
        }

        // Charge demand ledgers.
        let now = self.now;
        {
            let ms = &mut self.machines[machine.index()];
            ms.allocated += plan.local;
            ms.recent.push((now, plan.local));
            ms.running += 1;
            ms.running_tasks.push(uid);
        }
        if plan.local.get(Resource::Mem) > 0.0 && self.cfg.thrashing {
            dirty.insert_mem(machine.index());
        }
        for &(m, dem) in &plan.remote {
            let ms = &mut self.machines[m.index()];
            ms.allocated += dem;
            ms.recent.push((now, dem));
        }
        self.index_touch(machine.index());
        for &(m, _) in &plan.remote {
            self.index_touch(m.index());
        }

        // Job/stage bookkeeping.
        let job = &mut self.jobs[ji];
        job.allocated += plan.local;
        job.running += 1;
        job.first_start = Some(job.first_start.unwrap_or(self.now));
        let stage = &mut job.stages[si];
        stage.running += 1;
        let pos = stage
            .pending
            .iter()
            .position(|&t| t == uid)
            .expect("pending task not in its stage's pending list");
        stage.pending.swap_remove(pos);

        // Task bookkeeping.
        let t = &mut self.tasks[uid.index()];
        t.attempts += 1;
        t.start = Some(self.now);
        t.first_start = Some(t.first_start.unwrap_or(self.now));
        t.machine = Some(machine);
        t.planned = Some(plan.est_duration);
        let flows_left = flow_ids.len();
        let gen = t.attempts as u64;
        t.phase = Phase::Running(RunInfo {
            machine,
            flows: flow_ids.clone(),
            flows_left,
            local_alloc: plan.local,
            remote_alloc: plan.remote.clone(),
            gen,
        });

        if flows_left == 0 {
            // Zero-work task: completes immediately.
            queue.push(self.now, EventKind::TaskDone { task: uid, gen });
        }
        self.applied_plan = plan;
    }

    fn add_flow(
        &mut self,
        task: TaskUid,
        host: MachineId,
        cap: f64,
        links: Vec<(MachineId, Resource)>,
        work: f64,
        dirty: &mut DirtySet,
    ) -> FlowId {
        // Zero work (an empty remote partition) completes at `now`.
        debug_assert!(work >= 0.0, "negative work (validated input size)");
        debug_assert!(cap > 0.0, "flow must have positive cap (validated demand)");
        let fid = FlowId(self.flows.len());
        for &(m, r) in &links {
            let ms = &mut self.machines[m.index()];
            ms.link_demand[r.index()] += cap;
            ms.link_flows[r.index()].push(fid);
            dirty.insert_link(m.index(), r.index());
        }
        self.flows.push(Flow {
            task,
            host,
            cap,
            links,
            remaining: work,
            init_work: work,
            rate: 0.0,
            last_update: self.now,
            done: false,
        });
        dirty.insert_flow(fid);
        fid
    }

    // ------------------------------------------------------------------
    // Rate recomputation
    // ------------------------------------------------------------------

    /// Current rate of a flow under the one-pass proportional model, read
    /// off the factor tables.
    pub(crate) fn flow_rate(&self, f: &Flow) -> f64 {
        let mut factor: f64 = 1.0;
        for &(m, r) in &f.links {
            factor = factor.min(self.link_factor[m.index() * NUM_RESOURCES + r.index()]);
        }
        f.cap * factor.min(self.thrash[f.host.index()])
    }

    /// Advance a flow's remaining work to `self.now`.
    fn advance_flow(&mut self, fid: FlowId) {
        let now = self.now;
        let f = &mut self.flows[fid.0];
        let dt = now.secs_since(f.last_update);
        if dt > 0.0 {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
        f.last_update = now;
    }

    /// Recompute the rates of the flows the dirty set can have moved, and
    /// re-time the completion of each whose rate changed. A rate moves
    /// only with a factor on the flow's path, so a dirty entry's flows are
    /// visited only if its factor's bits differ from the last drain's
    /// (most dirty links are under capacity, 1.0, before and after).
    pub fn recompute_dirty(&mut self, dirty: &mut DirtySet, queue: &mut EventQueue) {
        if dirty.is_empty() {
            return;
        }
        // Gather, stamp-deduped, behind the flows added since the last
        // drain; then sort — the ascending-FlowId visit order the former
        // BTreeSet gave (event re-queue order depends on it).
        let moved = |was: &mut f64, is: f64| std::mem::replace(was, is).to_bits() != is.to_bits();
        for li in 0..dirty.links.len() {
            let (mi, ri) = dirty.links[li];
            let factor = self.machines[mi].factor(Resource::ALL[ri], &self.cfg.interference);
            if moved(&mut self.link_factor[mi * NUM_RESOURCES + ri], factor) {
                for &fid in &self.machines[mi].link_flows[ri] {
                    dirty.insert_flow(fid);
                }
            }
        }
        for ii in 0..dirty.mem.len() {
            let mi = dirty.mem[ii];
            let factor = self.machines[mi].thrash_factor(&self.cfg);
            if moved(&mut self.thrash[mi], factor) {
                for &fid in self.machines[mi].link_flows.iter().flatten() {
                    if self.flows[fid.0].host.index() == mi {
                        dirty.insert_flow(fid);
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        self.assert_unvisited_settled(dirty);
        dirty.links.clear();
        dirty.mem.clear();
        dirty.gen += 1;

        let mut affected = std::mem::take(&mut dirty.affected);
        affected.sort_unstable();
        for &fid in &affected {
            if self.flows[fid.0].done {
                continue;
            }
            self.recompute_visits += 1;
            self.advance_flow(fid);
            let new_rate = self.flow_rate(&self.flows[fid.0]);
            let f = &mut self.flows[fid.0];
            let changed = (new_rate - f.rate).abs() > 1e-12 * f.cap.max(1e-12);
            if changed {
                f.rate = new_rate;
                self.flow_retimes += 1;
                // No ETA at rate 0: a later link change revisits the flow.
                let eta = self.now.after_secs(f.remaining / new_rate);
                if new_rate > 0.0 && eta < SimTime::MAX {
                    queue.push(eta, EventKind::FlowDone { flow: fid });
                } else {
                    queue.cancel(fid);
                }
            }
        }
        affected.clear();
        dirty.affected = affected;
    }

    /// Debug builds check, at every drain, what the gather and a restore
    /// rest on: the refreshed tables are what the ledgers give everywhere,
    /// and a flow by a dirty entry that is not visited is at the rate they
    /// give. Every suite that runs the engine therefore exercises the skip.
    #[cfg(debug_assertions)]
    fn assert_unvisited_settled(&mut self, dirty: &DirtySet) {
        let (links, thrash) = (self.link_factor.clone(), self.thrash.clone());
        self.rebuild_factors();
        let rebuilt = links == self.link_factor && thrash == self.thrash;
        assert!(rebuilt, "a factor moved outside the dirty set");
        let links = dirty.links.iter();
        let on_links = links.map(|&(mi, ri)| &self.machines[mi].link_flows[ri]);
        let mem = dirty.mem.iter();
        let hosted = mem.flat_map(|&mi| &self.machines[mi].link_flows);
        for &fid in on_links.chain(hosted).flatten() {
            let f = &self.flows[fid.0];
            let visited = dirty.flow_stamp.get(fid.0) == Some(&dirty.gen);
            let settled = (self.flow_rate(f) - f.rate).abs() <= 1e-12 * f.cap.max(1e-12);
            assert!(visited || settled, "{fid:?} skipped at a rate that moved");
        }
    }

    /// Handle a `FlowDone` event. Returns the task to complete, if this was
    /// its last flow.
    pub fn flow_done(
        &mut self,
        fid: FlowId,
        dirty: &mut DirtySet,
        queue: &mut EventQueue,
    ) -> Option<TaskUid> {
        // One queued completion a flow, re-timed with its rate and
        // cancelled with its attempt: a popped one is live.
        debug_assert!(!self.flows[fid.0].done, "{fid:?} completed twice");
        self.advance_flow(fid);
        if !self.flows[fid.0].is_complete() {
            // Numerical residue: reschedule the tail.
            let f = &self.flows[fid.0];
            if f.rate > 0.0 {
                let eta = self.now.after_secs(f.remaining / f.rate);
                queue.push(eta, EventKind::FlowDone { flow: fid });
            }
            return None;
        }
        // Complete: remove from links.
        let f = &mut self.flows[fid.0];
        f.done = true;
        f.remaining = 0.0;
        f.rate = 0.0;
        let links = std::mem::take(&mut f.links);
        let cap = f.cap;
        let task = f.task;
        for (m, r) in links {
            let ms = &mut self.machines[m.index()];
            ms.link_demand[r.index()] = (ms.link_demand[r.index()] - cap).max(0.0);
            ms.link_flows[r.index()].retain(|&x| x != fid);
            dirty.insert_link(m.index(), r.index());
        }

        let t = &mut self.tasks[task.index()];
        if let Phase::Running(ref mut info) = t.phase {
            info.flows_left -= 1;
            if info.flows_left == 0 {
                return Some(task);
            }
        }
        None
    }

    /// Complete (or fail-and-retry) a task whose work is all done.
    /// Reports what happened so the engine can trace it.
    pub fn task_complete(&mut self, uid: TaskUid, dirty: &mut DirtySet) -> TaskCompletion {
        let (ji, si, _) = self.task_loc[uid.index()];
        let info = match std::mem::replace(&mut self.tasks[uid.index()].phase, Phase::Finished) {
            Phase::Running(info) => info,
            other => {
                self.tasks[uid.index()].phase = other;
                return TaskCompletion::Stale;
            }
        };

        // Release ledgers.
        let host = info.machine;
        {
            let ms = &mut self.machines[host.index()];
            ms.allocated = (ms.allocated - info.local_alloc).clamp_non_negative();
            ms.running -= 1;
            ms.running_tasks.retain(|&t| t != uid);
        }
        if info.local_alloc.get(Resource::Mem) > 0.0 && self.cfg.thrashing {
            dirty.insert_mem(host.index());
        }
        self.freed_hint.push(host);
        for &(m, dem) in &info.remote_alloc {
            self.machines[m.index()].allocated =
                (self.machines[m.index()].allocated - dem).clamp_non_negative();
            self.freed_hint.push(m);
        }
        self.index_touch(host.index());
        for &(m, _) in &info.remote_alloc {
            self.index_touch(m.index());
        }
        let job = &mut self.jobs[ji];
        job.allocated = (job.allocated - info.local_alloc).clamp_non_negative();
        job.running -= 1;
        job.stages[si].running -= 1;

        // Failure roll: rerun the task from scratch.
        let attempts = self.tasks[uid.index()].attempts;
        if self.cfg.task_failure_prob > 0.0
            && attempts < self.cfg.max_task_attempts
            && self.rng.gen::<f64>() < self.cfg.task_failure_prob
        {
            let now = self.now;
            let t = &mut self.tasks[uid.index()];
            t.phase = Phase::Runnable;
            t.machine = None;
            t.runnable_since = Some(now);
            self.jobs[ji].stages[si].pending.push(uid);
            return TaskCompletion::Requeued { machine: host };
        }

        // Genuine completion.
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
    fn note_task_terminal(&mut self, ji: usize, si: usize) -> bool {
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

    /// Apply/remove external load on a machine's links. Indices past the
    /// end of `cfg.external_loads` address `dynamic_loads` (re-replication
    /// flows synthesized at crash time).
    pub fn set_external(&mut self, idx: usize, active: bool, dirty: &mut DirtySet) {
        // A transfer aborted at crash time ignores its queued Start/End
        // events; the active flag makes the abort idempotent with the
        // load's own End. Exact no-op without faults: starts and ends
        // always alternate and nothing is ever cancelled.
        if active == self.external_active[idx] || (active && self.external_cancelled[idx]) {
            return;
        }
        self.external_active[idx] = active;
        let e = if idx < self.cfg.external_loads.len() {
            self.cfg.external_loads[idx].clone()
        } else {
            self.dynamic_loads[idx - self.cfg.external_loads.len()].clone()
        };
        let mi = e.machine.index();
        let sign = if active { 1.0 } else { -1.0 };
        for (r, v) in e.load.iter() {
            if v == 0.0 {
                continue;
            }
            let ms = &mut self.machines[mi];
            ms.link_demand[r.index()] = (ms.link_demand[r.index()] + sign * v).max(0.0);
            dirty.insert_link(mi, r.index());
        }
        let ms = &mut self.machines[mi];
        if active {
            ms.external += e.load;
        } else {
            ms.external = (ms.external - e.load).clamp_non_negative();
        }
        self.freed_hint.push(e.machine);
    }

    /// Tracker tick: machines report their current usage (task flows plus
    /// external activity) and prune expired ramp-up entries.
    ///
    /// With faults enabled, reports pass through each machine's
    /// [`TrackerMode`] (stale trackers freeze their last report, liars
    /// scale theirs) and feed the per-machine suspicion score: a down
    /// machine misses its report, an over-capacity report is implausible,
    /// and a frozen report while the allocation ledger moves marks a stale
    /// tracker. Suspicion decays on plausible reports. Machines crossing
    /// the suspect threshold (either way) are appended to `transitions`
    /// as `(machine, now_suspect)` so the engine can trace them.
    pub fn tracker_report(&mut self, transitions: &mut Vec<(MachineId, bool)>) {
        let horizon = self.cfg.ramp_up_horizon;
        let now = self.now;
        if !self.cfg.faults.enabled() {
            // Fast path, byte-identical to the pre-fault tracker.
            for mi in 0..self.machines.len() {
                let usage = self.machines[mi].usage(&self.flows);
                let ms = &mut self.machines[mi];
                ms.external_reported = ms.external;
                ms.usage_reported = usage;
                ms.recent.retain(|(t, _)| now.secs_since(*t) < horizon);
            }
            if self.cfg.reclaim_idle {
                // Reported usage moved on every machine and feeds the
                // reclaim-mode availability bound; the report is already
                // O(machines), so the index refresh rides along free.
                self.index_rebuild();
            }
            return;
        }
        let transitions_at_entry = transitions.len();
        for mi in 0..self.machines.len() {
            let was_suspect = self.machines[mi].suspicion >= tracker::SUSPECT_THRESHOLD;
            if self.machines[mi].down {
                // Missed report: the tracker hears nothing from a crashed
                // machine, which is itself a strong signal.
                let ms = &mut self.machines[mi];
                ms.suspicion =
                    (ms.suspicion + tracker::MISSED_REPORT_SUSPICION).min(tracker::SUSPICION_CAP);
            } else {
                let usage = self.machines[mi].usage(&self.flows);
                let mode = self.tracker_modes[mi];
                let ms = &mut self.machines[mi];
                let (reported_usage, reported_external) = match mode {
                    TrackerMode::Honest => (usage, ms.external),
                    // A stale tracker re-sends its previous report forever.
                    TrackerMode::Stale => (ms.usage_reported, ms.external_reported),
                    // A misreporting tracker scales true usage by a factor
                    // (over- or under-reporting).
                    TrackerMode::Misreport(f) => (usage * f, ms.external * f),
                };
                if tracker::report_implausible(&reported_usage, &ms.capacity) {
                    // Claims more usage than the hardware can deliver.
                    ms.suspicion = (ms.suspicion + tracker::IMPLAUSIBLE_REPORT_SUSPICION)
                        .min(tracker::SUSPICION_CAP);
                    ms.stale_streak = 0;
                } else if reported_usage.get(Resource::Mem) != ms.allocated.get(Resource::Mem) {
                    // The report's memory figure contradicts the master's
                    // own allocation ledger. Memory is a space resource —
                    // an honest report equals allocated memory *by
                    // construction* — so a mismatch means the report is
                    // frozen (or scaled) while the ledger moved: a stale
                    // tracker. Rate resources can't be used here: a
                    // saturated link honestly repeats `capacity` forever.
                    // The streak tolerates one-report races a real,
                    // asynchronous cluster would produce.
                    ms.stale_streak += 1;
                    if ms.stale_streak >= tracker::STALE_STREAK_REPORTS {
                        ms.suspicion = (ms.suspicion + tracker::MISSED_REPORT_SUSPICION)
                            .min(tracker::SUSPICION_CAP);
                    }
                } else {
                    ms.stale_streak = 0;
                    ms.suspicion *= tracker::SUSPICION_DECAY;
                    if ms.suspicion < tracker::SUSPICION_ZERO_BELOW {
                        ms.suspicion = 0.0;
                    }
                }
                ms.usage_reported = reported_usage;
                ms.external_reported = reported_external;
                ms.recent.retain(|(t, _)| now.secs_since(*t) < horizon);
            }
            let is_suspect = self.machines[mi].suspicion >= tracker::SUSPECT_THRESHOLD;
            if is_suspect != was_suspect {
                transitions.push((MachineId(mi), is_suspect));
            }
        }
        if self.cfg.reclaim_idle {
            // Reported usage feeds the reclaim-mode bound on every machine.
            self.index_rebuild();
        } else {
            // Ledger-mode bound ignores reported usage: only suspicion
            // flips change the considered set.
            for i in transitions_at_entry..transitions.len() {
                let m = transitions[i].0;
                self.index_touch(m.index());
            }
        }
    }

    /// Cluster-wide tracker-reported usage as a fraction of capacity, in
    /// the most-loaded resource dimension. Observability only — policies
    /// see per-machine availability, never this aggregate.
    pub fn tracker_usage_fraction(&self) -> f64 {
        let mut usage = ResourceVec::zero();
        let mut cap = ResourceVec::zero();
        for ms in &self.machines {
            usage += ms.usage_reported + ms.external_reported;
            cap += ms.capacity;
        }
        usage
            .iter()
            .map(|(r, u)| {
                let c = cap.get(r);
                if c > 0.0 {
                    u / c
                } else {
                    0.0
                }
            })
            .fold(0.0f64, f64::max)
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
    pub fn availability(&self, m: MachineId, tracker_aware: bool) -> ResourceVec {
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
        let horizon = self.cfg.ramp_up_horizon;
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

    // ------------------------------------------------------------------
    // Fault injection: crash / recover / slowdown / restart
    // ------------------------------------------------------------------

    /// Tear down a running task's attempt (machine crash): invalidate its
    /// flows, release every ledger the attempt charged, and decide its
    /// fate — abandoned when out of attempts, backoff-delayed restart when
    /// `restart_backoff > 0`, immediately runnable otherwise.
    ///
    /// Returns `None` if the task was not actually running, else
    /// `Some((abandoned, lost_task_seconds, host_machine))`.
    pub(crate) fn kill_task(
        &mut self,
        uid: TaskUid,
        dirty: &mut DirtySet,
        queue: &mut EventQueue,
    ) -> Option<(bool, f64, MachineId)> {
        let (ji, si, _) = self.task_loc[uid.index()];
        let info = self.teardown_attempt(uid, dirty, queue)?;
        let host = info.machine;
        let now = self.now;
        let backoff = self.cfg.faults.restart_backoff;
        let max_attempts = self.cfg.max_task_attempts;
        let t = &mut self.tasks[uid.index()];
        let lost = t.start.map_or(0.0, |s| now.secs_since(s));
        t.machine = None;
        if t.attempts >= max_attempts {
            // Out of attempts: permanently failed, but still terminal so
            // the owning stage/job completes instead of hanging.
            t.phase = Phase::Abandoned;
            t.finish = Some(now);
            self.tasks_abandoned += 1;
            self.note_task_terminal(ji, si);
            Some((true, lost, host))
        } else if backoff > 0.0 {
            t.phase = Phase::Backoff;
            queue.push(now.after_secs(backoff), EventKind::TaskRestart(uid));
            Some((false, lost, host))
        } else {
            t.phase = Phase::Runnable;
            t.runnable_since = Some(now);
            self.jobs[ji].stages[si].pending.push(uid);
            Some((false, lost, host))
        }
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
    pub(crate) fn preempt_task(
        &mut self,
        uid: TaskUid,
        dirty: &mut DirtySet,
        queue: &mut EventQueue,
    ) -> Option<(f64, MachineId)> {
        let (ji, si, _) = self.task_loc[uid.index()];
        let info = self.teardown_attempt(uid, dirty, queue)?;
        let host = info.machine;
        let now = self.now;
        let t = &mut self.tasks[uid.index()];
        let lost = t.start.map_or(0.0, |s| now.secs_since(s));
        t.machine = None;
        // The attempt counter was bumped at placement; hand it back.
        t.attempts = t.attempts.saturating_sub(1);
        t.phase = Phase::Runnable;
        t.runnable_since = Some(now);
        self.jobs[ji].stages[si].pending.push(uid);
        Some((lost, host))
    }

    /// Shared attempt teardown behind [`SimState::kill_task`] and
    /// [`SimState::preempt_task`]: invalidate the attempt's flows, release
    /// every ledger it charged, and decrement the job/stage running
    /// counters. The task's phase is left `Runnable`; callers refine it.
    /// Returns `None` (phase restored) if the task was not running.
    fn teardown_attempt(
        &mut self,
        uid: TaskUid,
        dirty: &mut DirtySet,
        queue: &mut EventQueue,
    ) -> Option<RunInfo> {
        let (ji, si, _) = self.task_loc[uid.index()];
        let info = match std::mem::replace(&mut self.tasks[uid.index()].phase, Phase::Runnable) {
            Phase::Running(info) => info,
            other => {
                self.tasks[uid.index()].phase = other;
                return None;
            }
        };

        // Invalidate this attempt's flows: mark done, cancel the queued
        // completion, and drop them from every link.
        for &fid in &info.flows {
            let f = &mut self.flows[fid.0];
            if f.done {
                continue;
            }
            f.done = true;
            f.remaining = 0.0;
            f.rate = 0.0;
            queue.cancel(fid);
            let links = std::mem::take(&mut f.links);
            let cap = f.cap;
            for (m, r) in links {
                let ms = &mut self.machines[m.index()];
                ms.link_demand[r.index()] = (ms.link_demand[r.index()] - cap).max(0.0);
                ms.link_flows[r.index()].retain(|&x| x != fid);
                dirty.insert_link(m.index(), r.index());
            }
        }

        // Release ledgers (mirror of task_complete).
        let host = info.machine;
        {
            let ms = &mut self.machines[host.index()];
            ms.allocated = (ms.allocated - info.local_alloc).clamp_non_negative();
            ms.running -= 1;
            ms.running_tasks.retain(|&t| t != uid);
        }
        if info.local_alloc.get(Resource::Mem) > 0.0 && self.cfg.thrashing {
            dirty.insert_mem(host.index());
        }
        self.freed_hint.push(host);
        for &(m, dem) in &info.remote_alloc {
            self.machines[m.index()].allocated =
                (self.machines[m.index()].allocated - dem).clamp_non_negative();
            self.freed_hint.push(m);
        }
        self.index_touch(host.index());
        for &(m, _) in &info.remote_alloc {
            self.index_touch(m.index());
        }
        let job = &mut self.jobs[ji];
        job.allocated = (job.allocated - info.local_alloc).clamp_non_negative();
        job.running -= 1;
        job.stages[si].running -= 1;
        Some(info)
    }

    /// Crash a machine: kill every resident task attempt *and* every
    /// remote attempt with a flow traversing this machine (readers of its
    /// disks lose their input stream), zero its tracker state, and kick
    /// off re-replication of the blocks it held.
    pub fn machine_crash(
        &mut self,
        machine: MachineId,
        dirty: &mut DirtySet,
        queue: &mut EventQueue,
    ) -> CrashReport {
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

        let mut report = CrashReport {
            requeued: Vec::new(),
            abandoned: Vec::new(),
            lost_task_seconds: 0.0,
            evacuations: 0,
        };
        for uid in victims {
            if let Some((abandoned, lost, host)) = self.kill_task(uid, dirty, queue) {
                report.lost_task_seconds += lost;
                if abandoned {
                    report.abandoned.push((uid, host));
                } else {
                    report.requeued.push((uid, host));
                }
            }
        }

        // The tracker stops hearing from the machine.
        {
            let ms = &mut self.machines[mi];
            ms.usage_reported = ResourceVec::zero();
            ms.external_reported = ResourceVec::zero();
            ms.recent.clear();
        }

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
            self.set_external(idx, false, dirty);
            self.external_cancelled[idx] = true;
            if idx >= n_static {
                let peer = n_static + ((idx - n_static) ^ 1);
                self.set_external(peer, false, dirty);
                self.external_cancelled[peer] = true;
            }
        }

        report.evacuations = self.evacuate_blocks(machine, queue);
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
    fn evacuate_blocks(&mut self, machine: MachineId, queue: &mut EventQueue) -> usize {
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
            self.blocks[bi].remove(pos);
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
            self.blocks[bi].push(dest);
            self.blocks[bi].sort_unstable();

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
                queue.push(SimTime::from_secs(start), EventKind::ExternalStart(idx));
                queue.push(
                    SimTime::from_secs(start + duration),
                    EventKind::ExternalEnd(idx),
                );
            }
            evacuations += 1;
        }
        evacuations
    }

    /// Bring a crashed machine back: it starts reporting again with a
    /// clean tracker slate (suspicion is retained so flapping machines
    /// stay suspect until they prove themselves with good reports).
    pub fn machine_recover(&mut self, machine: MachineId) {
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
    }

    /// Enter/leave a straggler window: `factor < 1` scales the machine's
    /// effective disk/net bandwidth; `1.0` restores health.
    pub fn set_slowdown(&mut self, machine: MachineId, factor: f64, dirty: &mut DirtySet) {
        let mi = machine.index();
        self.machines[mi].slowdown = factor;
        for r in [
            Resource::DiskRead,
            Resource::DiskWrite,
            Resource::NetIn,
            Resource::NetOut,
        ] {
            dirty.insert_link(mi, r.index());
        }
    }

    /// A crash-lost task finishes its restart backoff. Returns true if it
    /// became runnable (false if it is no longer waiting one out).
    pub fn task_restart(&mut self, uid: TaskUid) -> bool {
        if !matches!(self.tasks[uid.index()].phase, Phase::Backoff) {
            return false;
        }
        let (ji, si, _) = self.task_loc[uid.index()];
        let now = self.now;
        let t = &mut self.tasks[uid.index()];
        t.phase = Phase::Runnable;
        t.runnable_since = Some(now);
        self.jobs[ji].stages[si].pending.push(uid);
        true
    }
}

/// What a machine crash did, so the engine can trace and count it.
///
/// Each victim carries the machine that *hosted* the killed attempt —
/// remote readers of the crashed machine's disks run elsewhere, so the
/// host is not always the crashed machine itself.
#[derive(Debug, Clone)]
pub(crate) struct CrashReport {
    /// Tasks whose attempt was lost but which will run again (directly
    /// runnable or in backoff), with the machine that hosted the attempt.
    pub requeued: Vec<(TaskUid, MachineId)>,
    /// Tasks permanently failed (attempt cap reached), with the machine
    /// that hosted the final attempt.
    pub abandoned: Vec<(TaskUid, MachineId)>,
    /// Sum over killed attempts of seconds of progress lost.
    pub lost_task_seconds: f64,
    /// Blocks re-replicated off the dead machine.
    pub evacuations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_resources::units::{GB, MB};
    use tetris_resources::MachineSpec;
    use tetris_workload::gen::{TaskParams, WorkloadBuilder};

    fn one_task_workload(cores: f64, dur: f64) -> Workload {
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        b.add_stage(j, "s", vec![], 1, |_| TaskParams {
            cores,
            mem: GB,
            duration: dur,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
        b.finish()
    }

    fn mk_state(w: Workload) -> SimState {
        let cluster = ClusterConfig::uniform(2, MachineSpec::paper_small());
        SimState::new(cluster, w, SimConfig::default())
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
    fn placement_creates_cpu_flow_and_event() {
        let mut st = mk_state(one_task_workload(2.0, 10.0));
        st.job_arrives(JobId(0));
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        st.apply_assignment(TaskUid(0), MachineId(0), &mut dirty, &mut q);
        st.recompute_dirty(&mut dirty, &mut q);
        assert_eq!(st.flows.len(), 1);
        assert_eq!(st.flows[0].rate, 2.0); // uncontended: full cap
        let ev = q.pop().unwrap();
        assert_eq!(ev.time, SimTime::from_secs(10.0));
    }

    #[test]
    fn contention_halves_rate() {
        // Two 3-core tasks on a 4-core machine: Σcap 6 > 4 → factor 2/3.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        b.add_stage(j, "s", vec![], 2, |_| TaskParams {
            cores: 3.0,
            mem: GB,
            duration: 10.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
        let mut st = mk_state(b.finish());
        st.job_arrives(JobId(0));
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        st.apply_assignment(TaskUid(0), MachineId(0), &mut dirty, &mut q);
        st.apply_assignment(TaskUid(1), MachineId(0), &mut dirty, &mut q);
        st.recompute_dirty(&mut dirty, &mut q);
        let expect = 3.0 * (4.0 / 6.0);
        assert!((st.flows[0].rate - expect).abs() < 1e-9);
        assert!((st.flows[1].rate - expect).abs() < 1e-9);
    }

    #[test]
    fn flow_done_completes_task() {
        let mut st = mk_state(one_task_workload(1.0, 5.0));
        st.job_arrives(JobId(0));
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        st.apply_assignment(TaskUid(0), MachineId(0), &mut dirty, &mut q);
        st.recompute_dirty(&mut dirty, &mut q);
        let ev = q.pop().unwrap();
        st.now = ev.time;
        let done = match ev.kind {
            EventKind::FlowDone { flow } => st.flow_done(flow, &mut dirty, &mut q),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(done, Some(TaskUid(0)));
        let done = st.task_complete(TaskUid(0), &mut dirty);
        assert!(done.job_finished());
        assert_eq!(st.jobs_remaining, 0);
        assert_eq!(st.jobs[0].finish, Some(SimTime::from_secs(5.0)));
        // Ledger fully released.
        assert!(st.machines[0].allocated.is_zero());
    }

    #[test]
    fn retimed_flow_fires_once_at_its_latest_eta() {
        // Two 3-core, 30 core-second tasks on a 4-core machine, the second
        // placed 4 s in: each rate change moves the one queued completion.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        b.add_stage(j, "s", vec![], 2, |_| TaskParams {
            cores: 3.0,
            mem: GB,
            duration: 10.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
        let mut st = mk_state(b.finish());
        st.job_arrives(JobId(0));
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        st.apply_assignment(TaskUid(0), MachineId(0), &mut dirty, &mut q);
        st.recompute_dirty(&mut dirty, &mut q);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10.0)));
        st.now = SimTime::from_secs(4.0);
        st.apply_assignment(TaskUid(1), MachineId(0), &mut dirty, &mut q);
        st.recompute_dirty(&mut dirty, &mut q);
        // Flow 0 slowed to 2 cores with 18 left; flow 1 starts at 2.
        assert_eq!(q.len(), 2);
        let ev = q.pop().unwrap();
        assert_eq!(ev.kind, EventKind::FlowDone { flow: FlowId(0) });
        assert_eq!(ev.time, SimTime::from_secs(13.0));
        st.now = ev.time;
        assert_eq!(
            st.flow_done(FlowId(0), &mut dirty, &mut q),
            Some(TaskUid(0))
        );
        st.recompute_dirty(&mut dirty, &mut q);
        // Flow 1 speeds back up to 3 cores with 12 left: moved up, once.
        assert_eq!(q.len(), 1);
        let ev = q.pop().unwrap();
        assert_eq!(ev.kind, EventKind::FlowDone { flow: FlowId(1) });
        assert_eq!(ev.time, SimTime::from_secs(17.0));
        assert_eq!((st.recompute_visits, st.flow_retimes), (4, 4));
    }

    #[test]
    fn availability_reflects_allocation_and_tracker() {
        let mut st = mk_state(one_task_workload(2.0, 10.0));
        st.job_arrives(JobId(0));
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        st.apply_assignment(TaskUid(0), MachineId(0), &mut dirty, &mut q);
        let avail = st.availability(MachineId(0), false);
        assert_eq!(avail.get(Resource::Cpu), 2.0); // 4 - 2
        assert_eq!(avail.get(Resource::Mem), 15.0 * GB); // 16 - 1

        // External load visible only after a tracker report, and only to
        // tracker-aware policies.
        st.cfg.external_loads.push(crate::config::ExternalLoad {
            machine: MachineId(0),
            start: 0.0,
            duration: 10.0,
            load: ResourceVec::zero().with(Resource::DiskWrite, 50.0 * MB),
        });
        // Keep the activation flags parallel to the injected load.
        st.external_active.push(false);
        st.external_cancelled.push(false);
        st.set_external(0, true, &mut dirty);
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

    #[test]
    fn thrashing_slows_overcommitted_machine() {
        // Two tasks each demanding 12 GB on a 16 GB machine → 24/16 = 1.5×
        // over-commit → thrash factor 2/3.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        b.add_stage(j, "s", vec![], 2, |_| TaskParams {
            cores: 1.0,
            mem: 12.0 * GB,
            duration: 10.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
        let mut st = mk_state(b.finish());
        st.job_arrives(JobId(0));
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        st.apply_assignment(TaskUid(0), MachineId(0), &mut dirty, &mut q);
        st.apply_assignment(TaskUid(1), MachineId(0), &mut dirty, &mut q);
        st.recompute_dirty(&mut dirty, &mut q);
        // CPU link uncontended (2 ≤ 4) but memory 24 GB > 16 GB:
        // thrash factor (16/24)^1.35 with the default exponent.
        let expect = 1.0 * (16.0f64 / 24.0).powf(1.35);
        assert!(
            (st.flows[0].rate - expect).abs() < 1e-9,
            "{}",
            st.flows[0].rate
        );
    }

    #[test]
    fn remote_read_creates_three_link_flow() {
        // Task reads a stored block not replicated on its host.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let input = b.stored_input(100.0 * MB);
        b.add_stage(j, "s", vec![], 1, |_| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 10.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![input],
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
        let w = b.finish();
        let cluster = ClusterConfig::uniform(4, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.replication = 1;
        let mut st = SimState::new(cluster, w, cfg);
        st.job_arrives(JobId(0));
        let replica = st.blocks[0][0];
        // Place on a different machine.
        let host = MachineId((replica.index() + 1) % 4);
        let plan = st.placement_plan(TaskUid(0), host);
        assert!(plan.is_remote());
        assert_eq!(plan.remote_reads, vec![(replica, 100.0 * MB)]);
        assert_eq!(plan.local_read_bytes, 0.0);
        assert!(plan.local.get(Resource::NetIn) > 0.0);
        assert_eq!(plan.local.get(Resource::DiskRead), 0.0);

        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        st.apply_assignment(TaskUid(0), host, &mut dirty, &mut q);
        st.recompute_dirty(&mut dirty, &mut q);
        // cpu flow + remote read flow.
        assert_eq!(st.flows.len(), 2);
        let remote_flow = &st.flows[1];
        assert_eq!(remote_flow.links.len(), 3);
        // Remote source charged for DiskRead + NetOut.
        assert!(st.machines[replica.index()].allocated.get(Resource::NetOut) > 0.0);
    }

    #[test]
    fn zero_byte_remote_input_completes_the_instant_it_starts() {
        // Legal input. Debug builds used to trip `add_flow`'s assert on it
        // while release builds ran it as below; now both do.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let input = b.stored_input(0.0);
        b.add_stage(j, "s", vec![], 1, |_| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 10.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![input],
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
        let w = b.finish();
        assert_eq!(w.validate(), Ok(()));
        let cluster = ClusterConfig::uniform(4, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.replication = 1;
        let mut st = SimState::new(cluster, w, cfg);
        st.job_arrives(JobId(0));
        st.now = SimTime::from_secs(3.0);
        let replica = st.blocks[0][0];
        let host = MachineId((replica.index() + 1) % 4);
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        st.apply_assignment(TaskUid(0), host, &mut dirty, &mut q);
        st.recompute_dirty(&mut dirty, &mut q);
        // The empty read is a flow like any other, due now; the CPU flow
        // still has its 10 s.
        assert_eq!(st.flows.len(), 2);
        let ev = q.pop().unwrap();
        assert_eq!(
            (ev.time, ev.kind),
            (st.now, EventKind::FlowDone { flow: FlowId(1) })
        );
        assert_eq!(st.flow_done(FlowId(1), &mut dirty, &mut q), None);
        assert!(st.flows[1].done);
        st.recompute_dirty(&mut dirty, &mut q);
        assert_eq!(q.pop().unwrap().time, SimTime::from_secs(13.0));
        assert!(q.is_empty());
    }

    #[test]
    fn local_placement_has_no_remote_demand() {
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let input = b.stored_input(100.0 * MB);
        b.add_stage(j, "s", vec![], 1, |_| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 10.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![input],
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
        let w = b.finish();
        let cluster = ClusterConfig::uniform(4, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.replication = 2;
        let mut st = SimState::new(cluster, w, cfg);
        st.job_arrives(JobId(0));
        let replica = st.blocks[0][0];
        let plan = st.placement_plan(TaskUid(0), replica);
        assert!(!plan.is_remote());
        assert_eq!(plan.local_read_bytes, 100.0 * MB);
        assert_eq!(plan.local.get(Resource::NetIn), 0.0);
        assert!(plan.local.get(Resource::DiskRead) > 0.0);
        assert_eq!(plan.remote_fraction(), 0.0);
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
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        st.apply_assignment(TaskUid(0), MachineId(0), &mut dirty, &mut q);
        st.recompute_dirty(&mut dirty, &mut q);
        st.now = SimTime::from_secs(5.0);
        // First completion fails (attempts=1 < max 2) → requeued.
        let done = st.task_complete(TaskUid(0), &mut dirty);
        assert_eq!(
            done,
            TaskCompletion::Requeued {
                machine: MachineId(0)
            }
        );
        assert!(matches!(st.tasks[0].phase, Phase::Runnable));
        assert_eq!(st.jobs[0].stages[0].pending, vec![TaskUid(0)]);
        // Second attempt hits the attempt cap and must complete.
        st.apply_assignment(TaskUid(0), MachineId(0), &mut dirty, &mut q);
        let done = st.task_complete(TaskUid(0), &mut dirty);
        assert!(done.job_finished());
    }

    #[test]
    fn shuffle_distribution_feeds_downstream_plan() {
        // map (2 tasks) → reduce (1 task); maps write output, reduce reads
        // it from wherever maps ran.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let in0 = b.stored_input(10.0 * MB);
        let in1 = b.stored_input(10.0 * MB);
        b.add_stage(j, "map", vec![], 2, |i| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 5.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![if i == 0 { in0 } else { in1 }],
            output_bytes: 50.0 * MB,
            remote_frac: 1.0,
        });
        b.add_stage(j, "reduce", vec![0], 1, |_| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 5.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![tetris_workload::InputSpec {
                source: InputSource::Shuffle { stage: 0 },
                bytes: 100.0 * MB,
            }],
            output_bytes: 10.0 * MB,
            remote_frac: 1.0,
        });
        let w = b.finish();
        let cluster = ClusterConfig::uniform(3, MachineSpec::paper_small());
        let mut st = SimState::new(cluster, w, SimConfig::default());
        st.job_arrives(JobId(0));
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        st.apply_assignment(TaskUid(0), MachineId(0), &mut dirty, &mut q);
        st.apply_assignment(TaskUid(1), MachineId(1), &mut dirty, &mut q);
        st.recompute_dirty(&mut dirty, &mut q);
        // Finish both maps.
        st.now = SimTime::from_secs(5.1);
        for fid in 0..st.flows.len() {
            if let Some(t) = st.flow_done(FlowId(fid), &mut dirty, &mut q) {
                st.task_complete(t, &mut dirty);
            }
        }
        // Reduce unlocked; its plan on machine 0 reads 50 MB locally,
        // 50 MB from machine 1.
        assert!(matches!(st.tasks[2].phase, Phase::Runnable));
        let plan = st.placement_plan(TaskUid(2), MachineId(0));
        assert!((plan.local_read_bytes - 50.0 * MB).abs() < 1.0);
        assert_eq!(plan.remote_reads.len(), 1);
        assert_eq!(plan.remote_reads[0].0, MachineId(1));
        assert!((plan.remote_reads[0].1 - 50.0 * MB).abs() < 1.0);
        assert!((plan.remote_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fanin_cap_preserves_bytes() {
        // Remote map from many sources with a tight fan-in.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let inputs: Vec<_> = (0..8).map(|_| b.stored_input(10.0 * MB)).collect();
        b.add_stage(j, "s", vec![], 1, |_| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 10.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: inputs.clone(),
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
        let w = b.finish();
        let cluster = ClusterConfig::uniform(16, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.replication = 1;
        cfg.shuffle_fanin = 3;
        cfg.seed = 7;
        let mut st = SimState::new(cluster, w, cfg);
        st.job_arrives(JobId(0));
        // Find a host with no replicas.
        let host = (0..16)
            .map(MachineId)
            .find(|m| !st.blocks.iter().any(|r| r.contains(m)))
            .expect("some machine without replicas");
        let plan = st.placement_plan(TaskUid(0), host);
        assert!(plan.remote_reads.len() <= 3);
        let total: f64 =
            plan.remote_reads.iter().map(|(_, b)| b).sum::<f64>() + plan.local_read_bytes;
        assert!(
            (total - 80.0 * MB).abs() < 1.0,
            "bytes not conserved: {total}"
        );
    }

    #[test]
    fn ranked_reads_fall_back_where_rounding_ties_straddle_the_bound() {
        // Five map outputs, fan-in 3: 40 and 30 MB on machines 0 and 1,
        // `x` on 2 and the next float up on 3, 1 MB on 4. The ranking puts
        // 3 before 2; a reader of a `frac` that rounds both shares equal
        // has them straddle the bound in the general path's order, which
        // breaks the tie by machine and keeps 2.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let params = |inputs| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 5.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs,
            output_bytes: MB,
            remote_frac: 1.0,
        };
        b.add_stage(j, "map", vec![], 5, |_| params(vec![]));
        let shuffle = |bytes| {
            vec![InputSpec {
                source: InputSource::Shuffle { stage: 0 },
                bytes,
            }]
        };
        b.add_stage(j, "reduce", vec![0], 1, |_| params(shuffle(MB)));
        let mut w = b.finish();
        let x = 20.0 * MB + 0.3;
        let outs = [40.0 * MB, 30.0 * MB, x, x.next_up(), MB];
        let total: f64 = outs.iter().sum();
        let tied = |bytes: f64| x * (bytes / total) == x.next_up() * (bytes / total);
        let bytes = (1..10_000).map(|k| k as f64 * 1e3).find(|&b| tied(b));
        w.jobs[0].stages[1].tasks[0].inputs = shuffle(bytes.expect("a frac that ties them"));
        let mut cfg = SimConfig::default();
        cfg.shuffle_fanin = 3;
        let mut st = SimState::new(
            ClusterConfig::uniform(6, MachineSpec::paper_small()),
            w,
            cfg,
        );
        let stage = &mut st.jobs[0].stages[0];
        stage.out_by_machine = outs
            .iter()
            .enumerate()
            .map(|(m, &b)| (MachineId(m), b))
            .collect();
        stage.total_out = total;
        stage.finished = stage.total;
        st.rank_stage(0, 0);
        let reader = TaskUid(5);
        let mut reads = Vec::new();
        assert_eq!(st.ranked_reads(reader, MachineId(5), &mut reads), None);
        let kept: Vec<_> = st.placement_plan(reader, MachineId(5)).remote_reads;
        let kept: Vec<_> = kept.iter().map(|&(m, _)| m.index()).collect();
        assert_eq!(kept, [0, 1, 2]);
        // Read from machine 0 the tied pair sits inside the kept set: the
        // walk answers, bit for bit the general path's answer.
        let local = st.ranked_reads(reader, MachineId(0), &mut reads);
        let mut general = Vec::new();
        let general_local = st.general_reads(reader, MachineId(0), &mut general);
        assert_eq!(local.map(f64::to_bits), Some(general_local.to_bits()));
        let bits =
            |r: &[(MachineId, f64)]| r.iter().map(|&(m, b)| (m, b.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&reads), bits(&general));
    }

    #[test]
    fn nan_input_bytes_plan_instead_of_panicking() {
        // `Workload::validate` refuses a NaN byte count, and a state built
        // around it still plans: with more sources than the fan-in bound
        // the plan sorts sources by bytes — `partial_cmp().unwrap()`
        // panicked on the NaN here.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let inputs: Vec<_> = (0..8).map(|_| b.stored_input(10.0 * MB)).collect();
        b.add_stage(j, "s", vec![], 1, |_| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 10.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: inputs.clone(),
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
        let mut w = b.finish();
        w.jobs[0].stages[0].tasks[0].inputs[2].bytes = f64::NAN;
        let refused = tetris_workload::ValidationError::BadInputBytes(TaskUid(0));
        assert_eq!(w.validate(), Err(refused));
        let cluster = ClusterConfig::uniform(16, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.replication = 1;
        cfg.shuffle_fanin = 3;
        cfg.seed = 7;
        let mut st = SimState::new(cluster, w, cfg);
        st.job_arrives(JobId(0));
        for m in (0..16).map(MachineId) {
            let plan = st.placement_plan(TaskUid(0), m);
            assert!(plan.remote_reads.len() <= 3);
            assert_eq!(plan.remote.len(), plan.remote_reads.len());
        }
    }

    #[test]
    fn usage_never_exceeds_rate_capacity() {
        // Over-allocate CPU heavily; usage must stay at capacity.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        b.add_stage(j, "s", vec![], 6, |_| TaskParams {
            cores: 2.0,
            mem: 0.5 * GB,
            duration: 10.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
        let mut st = mk_state(b.finish());
        st.job_arrives(JobId(0));
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        for i in 0..6 {
            st.apply_assignment(TaskUid(i), MachineId(0), &mut dirty, &mut q);
        }
        st.recompute_dirty(&mut dirty, &mut q);
        let usage = st.machines[0].usage(&st.flows);
        assert!(usage.get(Resource::Cpu) <= 4.0 + 1e-9);
        // Allocation ledger, by contrast, records the over-allocation.
        assert_eq!(st.machines[0].allocated.get(Resource::Cpu), 12.0);
        assert!(st.availability(MachineId(0), false).get(Resource::Cpu) < 0.0);
    }

    #[test]
    fn crash_kills_resident_task_and_requeues() {
        let mut st = mk_state(one_task_workload(2.0, 10.0));
        st.cfg.faults.restart_backoff = 0.0;
        st.job_arrives(JobId(0));
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        st.apply_assignment(TaskUid(0), MachineId(0), &mut dirty, &mut q);
        st.recompute_dirty(&mut dirty, &mut q);
        st.now = SimTime::from_secs(3.0);
        let rep = st.machine_crash(MachineId(0), &mut dirty, &mut q);
        assert_eq!(rep.requeued, vec![(TaskUid(0), MachineId(0))]);
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
        st.job_arrives(JobId(0));
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        st.apply_assignment(TaskUid(0), MachineId(0), &mut dirty, &mut q);
        st.recompute_dirty(&mut dirty, &mut q);
        st.now = SimTime::from_secs(1.0);
        let rep = st.machine_crash(MachineId(0), &mut dirty, &mut q);
        assert_eq!(rep.requeued, vec![(TaskUid(0), MachineId(0))]);
        assert!(matches!(st.tasks[0].phase, Phase::Backoff));
        assert!(st.jobs[0].stages[0].pending.is_empty());
        // The restart event fires after the backoff.
        let restart = loop {
            let ev = q.pop().expect("restart event queued");
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
    fn crash_abandons_task_out_of_attempts_and_job_terminates() {
        let w = one_task_workload(2.0, 10.0);
        let cluster = ClusterConfig::uniform(2, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.max_task_attempts = 1;
        let mut st = SimState::new(cluster, w, cfg);
        st.job_arrives(JobId(0));
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        st.apply_assignment(TaskUid(0), MachineId(0), &mut dirty, &mut q);
        st.recompute_dirty(&mut dirty, &mut q);
        st.now = SimTime::from_secs(2.0);
        let rep = st.machine_crash(MachineId(0), &mut dirty, &mut q);
        assert_eq!(rep.abandoned, vec![(TaskUid(0), MachineId(0))]);
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
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let input = b.stored_input(100.0 * MB);
        b.add_stage(j, "s", vec![], 1, |_| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 10.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![input],
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
        let w = b.finish();
        let cluster = ClusterConfig::uniform(4, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.replication = 2;
        cfg.faults.restart_backoff = 0.0;
        let mut st = SimState::new(cluster, w, cfg);
        st.job_arrives(JobId(0));
        let replicas = st.blocks[0].clone();
        let host = (0..4)
            .map(MachineId)
            .find(|m| !replicas.contains(m))
            .expect("non-replica host");
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        st.apply_assignment(TaskUid(0), host, &mut dirty, &mut q);
        st.recompute_dirty(&mut dirty, &mut q);
        // The deterministic replica choice for uid 0 is replicas[0].
        let src = replicas[0];
        st.now = SimTime::from_secs(1.0);
        let rep = st.machine_crash(src, &mut dirty, &mut q);
        // The reader lost its input stream even though its host is fine —
        // the report carries the *host*, not the crashed source.
        assert_eq!(rep.requeued, vec![(TaskUid(0), host)]);
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
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let input = b.stored_input(10.0 * MB);
        b.add_stage(j, "s", vec![], 1, |_| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 10.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![input],
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
        let w = b.finish();
        let cluster = ClusterConfig::uniform(3, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.replication = 1;
        let mut st = SimState::new(cluster, w, cfg);
        let only = st.blocks[0][0];
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        let rep = st.machine_crash(only, &mut dirty, &mut q);
        // Nothing to copy from: the replica entry is retained so the
        // block is readable again after recovery.
        assert_eq!(rep.evacuations, 0);
        assert_eq!(st.blocks[0], vec![only]);
        assert!(st.dynamic_loads.is_empty());
    }

    #[test]
    fn slowdown_scales_io_links_only() {
        // A disk-write-bound task at half disk bandwidth runs at half rate;
        // CPU links are untouched by the straggler window.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        b.add_stage(j, "s", vec![], 1, |_| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 10.0,
            cpu_frac: 0.0,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 500.0 * MB,
            remote_frac: 1.0,
        });
        let mut st = mk_state(b.finish());
        st.job_arrives(JobId(0));
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        st.apply_assignment(TaskUid(0), MachineId(0), &mut dirty, &mut q);
        st.recompute_dirty(&mut dirty, &mut q);
        let dw = st
            .flows
            .iter()
            .position(|f| f.links.iter().any(|&(_, r)| r == Resource::DiskWrite))
            .expect("disk-write flow");
        let healthy = st.flows[dw].rate;
        assert!(healthy > 0.0);
        // Enter a slowdown window with a factor small enough to bite even
        // an under-subscribed link.
        let cap = st.machines[0].capacity.get(Resource::DiskWrite);
        let factor = (st.flows[dw].cap / cap) * 0.5;
        st.set_slowdown(MachineId(0), factor, &mut dirty);
        st.recompute_dirty(&mut dirty, &mut q);
        assert!(st.flows[dw].rate < healthy);
        // Window ends: full rate restored.
        st.set_slowdown(MachineId(0), 1.0, &mut dirty);
        st.recompute_dirty(&mut dirty, &mut q);
        assert!((st.flows[dw].rate - healthy).abs() < 1e-9);
    }

    #[test]
    fn suspicion_rises_on_missed_reports_and_decays_on_good_ones() {
        let mut st = mk_state(one_task_workload(1.0, 10.0));
        st.cfg.faults.stale_frac = 0.5; // any non-zero knob enables faults
        let mut transitions = Vec::new();
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        st.machine_crash(MachineId(0), &mut dirty, &mut q);
        let reports_to_suspect =
            (tracker::SUSPECT_THRESHOLD / tracker::MISSED_REPORT_SUSPICION).ceil() as usize;
        for _ in 0..reports_to_suspect {
            st.tracker_report(&mut transitions);
        }
        assert_eq!(transitions, vec![(MachineId(0), true)]);
        assert!(st.machines[0].suspicion >= tracker::SUSPECT_THRESHOLD);
        // Machine 1 stayed honest and unsuspected.
        assert_eq!(st.machines[1].suspicion, 0.0);
        // Recovery + good reports clear the suspicion.
        st.machine_recover(MachineId(0));
        transitions.clear();
        for _ in 0..16 {
            st.tracker_report(&mut transitions);
        }
        assert_eq!(transitions, vec![(MachineId(0), false)]);
        assert_eq!(st.machines[0].suspicion, 0.0);
    }

    #[test]
    fn stale_tracker_mode_freezes_reports_and_raises_suspicion() {
        let mut st = mk_state(one_task_workload(2.0, 10.0));
        st.cfg.faults.stale_frac = 0.5;
        st.tracker_modes[0] = TrackerMode::Stale;
        st.job_arrives(JobId(0));
        let mut dirty = DirtySet::default();
        let mut q = EventQueue::new();
        let mut transitions = Vec::new();
        st.tracker_report(&mut transitions);
        // Place a task: allocation moves, but the stale report stays
        // frozen at zero usage.
        st.apply_assignment(TaskUid(0), MachineId(0), &mut dirty, &mut q);
        st.recompute_dirty(&mut dirty, &mut q);
        for _ in 0..16 {
            st.tracker_report(&mut transitions);
        }
        assert!(st.machines[0].usage_reported.is_zero());
        assert_eq!(transitions, vec![(MachineId(0), true)]);
    }
}
