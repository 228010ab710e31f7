//! The Tetris scheduler (paper §3): multi-resource packing via alignment
//! scores, multi-resource SRTF, the fairness knob and the barrier knob,
//! combined into one `SchedulerPolicy`.

use tetris_resources::{Resource, ResourceVec};
use tetris_sim::{
    Assignment, ClusterView, DecisionScores, MachineId, PlacementPlan, PlacementProvenance,
    RejectedCandidate, SchedulerEvent, SchedulerPolicy, StageProgress,
};
use tetris_workload::{JobId, TaskUid};

use crate::align::AlignmentKind;
use crate::barrier::stage_promoted;
use crate::estimate::{DemandEstimator, EstimationMode};
use crate::fairness::{eligible_jobs_in_place, job_share, FairnessMeasure};
use crate::srtf::{job_remaining_work_with, ranks_into, CombinedScorer};

/// How many runner-up candidates a verbose trace records per placement.
const PROVENANCE_TOP_K: usize = 3;

/// Configuration of the Tetris scheduler. Defaults follow the paper's
/// recommended operating point.
#[derive(Debug, Clone)]
pub struct TetrisConfig {
    /// Fairness knob `f ∈ [0,1]` (§3.4). 0 = pure packing efficiency,
    /// →1 = strict fairness. Paper default: 0.25.
    pub fairness_knob: f64,
    /// Barrier knob `b ∈ [0,1]` (§3.5): promote stragglers of a
    /// barrier-feeding stage once `b` of it has finished; 1 disables.
    /// Paper default: 0.9 (good range [0.85, 0.95]).
    pub barrier_knob: f64,
    /// Penalty applied to the alignment score when a placement reads
    /// remote input (§3.2). Paper default: 10 %, insensitive in 8–20 %.
    pub remote_penalty: f64,
    /// SRTF weight multiplier `m` (ε = m·ā/p̄, §3.3.2). 0 disables the
    /// remaining-work term (pure packing). Paper default: 1.
    pub srtf_multiplier: f64,
    /// Alignment heuristic (Table 7). Default: cosine.
    pub alignment: AlignmentKind,
    /// How distance-from-fair-share is measured for the fairness knob.
    pub fairness_measure: FairnessMeasure,
    /// Ablation switch: when false, Tetris only *sees* CPU and memory —
    /// like the shipped baselines — so it over-allocates disk/network.
    /// Used to decompose the gains (§5.3.1: "nearly two-thirds of the
    /// gains are due to avoiding over-allocation").
    pub consider_io_dims: bool,
    /// Demand estimation mode (§4.1).
    pub estimation: EstimationMode,
    /// Starvation prevention by reservation — the paper's §3.5 future-work
    /// item ("a more principled solution that reserves machine resources
    /// for starved tasks"). When a runnable task has been pending longer
    /// than `patience` seconds, Tetris reserves the machine where it is
    /// closest to fitting: nothing else is placed there until the starved
    /// task fits. The default is `None` — the paper's deployed behaviour,
    /// which relies on heartbeat batching alone (§3.5) — so enabling
    /// reservations is an explicit, documented extension.
    pub starvation: Option<StarvationConfig>,
}

/// Parameters of starvation-prevention reservations (§3.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StarvationConfig {
    /// Pending age (seconds) after which a task counts as starved.
    pub patience: f64,
    /// Maximum machines reserved at once (bounds the capacity set aside).
    pub max_reservations: usize,
}

impl Default for StarvationConfig {
    fn default() -> Self {
        StarvationConfig {
            patience: 120.0,
            max_reservations: 2,
        }
    }
}

impl Default for TetrisConfig {
    fn default() -> Self {
        TetrisConfig {
            fairness_knob: 0.25,
            barrier_knob: 0.9,
            remote_penalty: 0.10,
            srtf_multiplier: 1.0,
            alignment: AlignmentKind::Cosine,
            fairness_measure: FairnessMeasure::DominantShare,
            consider_io_dims: true,
            estimation: EstimationMode::Exact,
            starvation: None,
        }
    }
}

impl TetrisConfig {
    /// Pure packing: no fairness constraint, no SRTF, no barrier hints.
    /// The "most efficient and most unfair" configuration.
    pub fn packing_only() -> Self {
        TetrisConfig {
            fairness_knob: 0.0,
            srtf_multiplier: 0.0,
            barrier_knob: 1.0,
            ..Self::default()
        }
    }

    /// Validate ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.fairness_knob) {
            return Err("fairness_knob must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.barrier_knob) {
            return Err("barrier_knob must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.remote_penalty) {
            return Err("remote_penalty must be in [0,1]".into());
        }
        if !(self.srtf_multiplier >= 0.0) || !self.srtf_multiplier.is_finite() {
            return Err("srtf_multiplier must be finite and ≥ 0".into());
        }
        if let Some(sc) = &self.starvation {
            if !(sc.patience > 0.0) || sc.max_reservations == 0 {
                return Err("invalid starvation config".into());
            }
        }
        Ok(())
    }
}

/// One placement candidate: the next pending task of one stage of one
/// eligible job. Tasks of a stage are statistically similar (§4.1), so
/// scoring one representative per stage keeps the per-event cost
/// independent of job size without losing score fidelity.
struct Candidate {
    /// Owning job.
    job: JobId,
    /// Stage index within the job.
    stage: usize,
    promoted: bool,
    /// Remaining-work rank of the owning job (0 = shortest).
    p: f64,
    /// Estimated demand (shared by the stage's tasks).
    demand: ResourceVec,
    /// Range into the scratch preference arena: machines holding replicas
    /// of the stored inputs of the stage's head task *when the job's
    /// cache entry was built* — the current head only until the stage's
    /// first placement in a call, a sibling's list after `next` advances
    /// (the scoring locality term has always read it that way; the
    /// goldens pin it). Anything that must be true of the current head
    /// asks `ClusterView::task_reads_locally` instead.
    pref: (usize, usize),
    /// True if the task reads shuffle output (treated as remote-heavy).
    shuffle: bool,
    /// Cursor into the stage's pending slice (stable within one
    /// `schedule()` call — the engine applies assignments afterwards).
    next: usize,
    /// Start of this candidate's per-class row in the scratch norm arena:
    /// `norms_arena[norms_start + class]` = (normalized demand, normalized
    /// demand with NetIn dropped). Filled once per `schedule()` call for
    /// live candidates only.
    norms_start: usize,
    /// Cached "has a head task" flag, maintained as `next` advances.
    alive: bool,
    /// The head's plan failed this call on a remote input source, for a
    /// machine it reads nothing from locally. Every other such machine
    /// gets the same plan (`ClusterView::task_reads_locally`) against a
    /// working ledger that only shrinks within a call, so it would fail
    /// there too: see [`Candidate::blocked_on`]. Reset wherever `next`
    /// advances — the memo is about one head.
    blocked: bool,
}

impl Candidate {
    /// Head task via the view's zero-copy pending slice.
    fn head(&self, view: &ClusterView<'_>) -> Option<TaskUid> {
        view.stage_pending_slice(self.job, self.stage)
            .get(self.next)
            .copied()
    }

    /// Preference list via the scratch arena.
    fn preferred<'s>(&self, arena: &'s [MachineId]) -> &'s [MachineId] {
        &arena[self.pref.0..self.pref.0 + self.pref.1]
    }

    /// Move to the stage's next pending task.
    fn advance(&mut self, view: &ClusterView<'_>) {
        self.next += 1;
        self.alive = self.head(view).is_some();
        self.blocked = false;
    }

    /// True when the `blocked` memo already answers "does the head fit on
    /// `m`?" with no: `m` would get the plan that failed on a source.
    fn blocked_on(&self, view: &ClusterView<'_>, m: MachineId) -> bool {
        self.blocked
            && self
                .head(view)
                .is_some_and(|h| !view.task_reads_locally(h, m))
    }
}

/// Buffers reused across `schedule()` calls (cleared, never shrunk): after
/// the first few events the scheduler allocates nothing per event. Every
/// structure is rebuilt from the view each call — reuse changes *where* the
/// data lives, never *what* it contains, so decisions are byte-identical
/// to the allocating pass (pinned by `tests/schedule_equivalence.rs`).
#[derive(Default)]
struct ScheduleScratch {
    /// Active jobs with runnable work.
    jobs: Vec<JobId>,
    /// (job, share) pairs; sorted/truncated in place by the fairness knob.
    shares: Vec<(JobId, f64)>,
    /// Remaining-work score per eligible job.
    p_scores: Vec<f64>,
    /// Sort scratch + output buffer for remaining-work ranks.
    rank_idx: Vec<usize>,
    p_ranks: Vec<f64>,
    /// Per-stage progress of the job currently being expanded.
    progress: Vec<StageProgress>,
    /// One candidate per (eligible job, pending stage).
    cands: Vec<Candidate>,
    /// Arena behind `Candidate::pref`.
    preferred_arena: Vec<MachineId>,
    /// Arena behind `Candidate::norms_start`.
    norms_arena: Vec<(ResourceVec, ResourceVec)>,
    /// Freed-machine hint, sorted + deduped (reproduces the former
    /// `BTreeSet` iteration order).
    hinted: Vec<MachineId>,
    /// Machines considered this call.
    machines: Vec<MachineId>,
    /// Working availability ledger (lazily populated).
    avail: AvailCache,
    /// Indices of candidates that survived the envelope prefilter.
    live: Vec<usize>,
    /// (candidate, machine) pairs proven infeasible by the authoritative
    /// plan this call.
    banned: StampGrid,
    /// Distinct machine capacities and each machine's class index.
    classes: Vec<ResourceVec>,
    class_of: Vec<usize>,
    /// Scored candidates of the current machine-iteration, recorded only
    /// under provenance capture.
    scored: Vec<Scored>,
}

/// Cached per-job candidate prototype: everything `schedule()` derives
/// from the job's *own* state (progress, head tasks, demand estimate,
/// preference list). One entry per pending stage.
#[derive(Clone)]
struct ProtoCandidate {
    stage: usize,
    promoted: bool,
    demand: ResourceVec,
    /// `(start, len)` into the owning [`JobCache::prefs`].
    pref: (usize, usize),
    shuffle: bool,
}

/// One job's cached candidates, rebuilt only when an event dirtied the
/// job. Validity is the incremental contract: every mutation of a job's
/// progress or pending queues arrives as a [`SchedulerEvent`] naming the
/// job, and block-replica moves (which alter preference lists globally)
/// arrive as `MachineDown`/`MachineUp`, which flush every entry.
/// Everything else a pass needs — availability, freed-machine hints,
/// suspicion — is read from the view each call, never cached.
#[derive(Default)]
struct JobCache {
    valid: bool,
    /// SRTF remaining-work score (pre-ranking).
    p_score: f64,
    protos: Vec<ProtoCandidate>,
    /// Preference-list storage behind `protos[..].pref`.
    prefs: Vec<MachineId>,
}

/// Event-invalidated incremental state: the per-job candidate caches.
#[derive(Default)]
struct IncState {
    /// The cache-validity gate: true once any event has been delivered.
    /// Before that the policy may be driven bare (probes, direct
    /// `schedule` calls) and nothing would invalidate an entry, so every
    /// call rebuilds. The first event finds every entry invalid (nothing
    /// was ever cached), so a policy attached mid-run starts correct.
    synced: bool,
    /// Invalidate every cache entry on the next call (machine down/up:
    /// re-replication moves blocks, so preference lists are globally
    /// stale).
    flush_all: bool,
    /// Jobs dirtied by events since the last call (may repeat).
    dirty: Vec<JobId>,
    /// Per-job caches, indexed by job id (grown on demand).
    cache: Vec<JobCache>,
    /// Reusable rebuild slot for cache-off calls (unsynced policy or
    /// `Learned` estimation): entries could never be revalidated, so
    /// growing `cache` to the highest job id only to rebuild into slots
    /// marked invalid would be pure allocation overhead — a real cost
    /// when a sharded driver runs many short-lived cold passes.
    cold: JobCache,
}

/// Above this many cells the grid switches to a sparse pair list: at
/// 100k machines × hundreds of candidates a dense stamp array would cost
/// hundreds of megabytes, while plan-infeasibility bans are rare enough
/// that a linear membership scan (guarded by the `any` fast path) wins.
const DENSE_GRID_CELLS_MAX: usize = 1 << 24;

/// Generation-stamped membership grid: O(1) insert/query with no per-call
/// clearing (bumping the generation invalidates every cell). Falls back
/// to a sparse pair list past [`DENSE_GRID_CELLS_MAX`] cells. The dense
/// stamp array is allocated lazily on the first insert — plan-
/// infeasibility bans are rare, so most calls (and at cluster scale,
/// most schedulers) never pay for the grid at all.
#[derive(Default)]
struct StampGrid {
    stamps: Vec<u64>,
    gen: u64,
    stride: usize,
    need: usize,
    any: bool,
    sparse: bool,
    pairs: Vec<(u32, u32)>,
}

impl StampGrid {
    /// Start a fresh (rows × cols) grid with all cells absent. O(1): no
    /// allocation or clearing happens until an insert.
    fn begin(&mut self, rows: usize, cols: usize) {
        self.sparse = rows.saturating_mul(cols) > DENSE_GRID_CELLS_MAX;
        if self.sparse {
            self.pairs.clear();
        } else {
            self.stride = cols;
            self.need = rows * cols;
            self.gen += 1;
        }
        self.any = false;
    }

    fn insert(&mut self, row: usize, col: usize) {
        if self.sparse {
            self.pairs.push((row as u32, col as u32));
        } else {
            if self.stamps.len() < self.need {
                self.stamps.resize(self.need, 0);
            }
            self.stamps[row * self.stride + col] = self.gen;
        }
        self.any = true;
    }

    fn contains(&self, row: usize, col: usize) -> bool {
        if self.sparse {
            self.pairs.contains(&(row as u32, col as u32))
        } else {
            // Cells past the (lazily grown) stamp array were never
            // inserted this generation.
            self.stamps
                .get(row * self.stride + col)
                .is_some_and(|&s| s == self.gen)
        }
    }
}

/// Lazily populated availability ledger: `view.available` is evaluated
/// once per *touched* machine per `schedule()` call (stamp-invalidated,
/// never cleared), instead of eagerly for the whole cluster. Values and
/// subtraction order are exactly the former dense ledger's — the view's
/// availability is constant within one call — so decisions are
/// byte-identical; only the O(cluster) prefill disappears.
#[derive(Default)]
struct AvailCache {
    vals: Vec<ResourceVec>,
    stamp: Vec<u64>,
    gen: u64,
    /// The one plan `try_commit` resolves into, call after call.
    plan: PlacementPlan,
    /// Every `(task, machine)` `try_commit` planned, for the memo's test.
    #[cfg(test)]
    planned: Vec<(TaskUid, MachineId)>,
}

/// Where an infeasible plan ran out of room.
#[derive(Debug, PartialEq, Eq)]
enum PlanFailure {
    /// At the host (its sources were not looked at).
    Host,
    /// At a remote input source, the host having room.
    Source,
}

impl AvailCache {
    /// Start a fresh call over `n` machines (all entries invalid).
    fn begin(&mut self, n: usize) {
        if self.vals.len() < n {
            self.vals.resize(n, ResourceVec::zero());
            self.stamp.resize(n, 0);
        }
        self.gen += 1;
        #[cfg(test)]
        self.planned.clear();
    }

    /// Current working availability of `m` (view value minus this call's
    /// committed placements so far).
    fn get(&mut self, view: &ClusterView<'_>, m: MachineId) -> ResourceVec {
        let i = m.index();
        if self.stamp[i] != self.gen {
            self.stamp[i] = self.gen;
            self.vals[i] = view.available(m);
        }
        self.vals[i]
    }

    /// Charge a committed placement against `m`'s working availability.
    fn sub(&mut self, view: &ClusterView<'_>, m: MachineId, d: &ResourceVec) {
        let v = self.get(view, m);
        self.vals[m.index()] = v - *d;
    }

    /// Authoritative feasibility of `task` on `m` via the full placement
    /// plan (checks disk/net-out at every remote input source); when it
    /// fits, charge the plan and return its visible local demand.
    fn try_commit(
        &mut self,
        view: &ClusterView<'_>,
        consider_io_dims: bool,
        task: TaskUid,
        m: MachineId,
    ) -> Result<ResourceVec, PlanFailure> {
        #[cfg(test)]
        self.planned.push((task, m));
        let mut plan = std::mem::take(&mut self.plan);
        view.plan_into(task, m, &mut plan);
        let fit = self.fit(view, consider_io_dims, m, &plan);
        if fit.is_ok() {
            self.sub(view, m, &plan.local);
            for (src, dem) in &plan.remote {
                self.sub(view, *src, dem);
            }
        }
        self.plan = plan;
        fit
    }

    /// Does `plan` on `m` fit the working ledger? Its visible local
    /// demand if so, where it does not otherwise — host first: a full
    /// host is the cheap answer, and looking further would pull its
    /// sources' availability into the ledger for nothing.
    fn fit(
        &mut self,
        view: &ClusterView<'_>,
        consider_io_dims: bool,
        m: MachineId,
        plan: &PlacementPlan,
    ) -> Result<ResourceVec, PlanFailure> {
        let local = visible(consider_io_dims, &plan.local);
        if !local.fits_within(&visible(consider_io_dims, &self.get(view, m))) {
            return Err(PlanFailure::Host);
        }
        if consider_io_dims && !self.sources_fit(view, plan) {
            return Err(PlanFailure::Source);
        }
        Ok(local)
    }

    /// Enough disk-read and net-out left at every remote source of `plan`?
    fn sources_fit(&mut self, view: &ClusterView<'_>, plan: &PlacementPlan) -> bool {
        plan.remote
            .iter()
            .all(|(src, dem)| dem.fits_within(&self.get(view, *src)))
    }

    /// Debug builds re-plan every (head, machine) pair the `blocked` memo
    /// answers — before each scan, for every live candidate it would
    /// answer on that machine — and check the claim it rests on: the plan
    /// still fails, and on a source. Every equivalence and property suite
    /// that drives Tetris therefore exercises the monotonicity argument.
    #[cfg(debug_assertions)]
    fn assert_blocked(&mut self, view: &ClusterView<'_>, task: TaskUid, m: MachineId) {
        assert!(
            !self.sources_fit(view, &view.plan(task, m)),
            "blocked memo skipped {task:?} on {m:?}, where its plan does not fail on a source"
        );
    }
}

/// The Tetris scheduler.
///
/// ```
/// use tetris_core::{TetrisConfig, TetrisScheduler};
/// use tetris_sim::{ClusterConfig, Simulation};
/// use tetris_resources::MachineSpec;
/// use tetris_workload::WorkloadSuiteConfig;
///
/// let outcome = Simulation::build(
///         ClusterConfig::uniform(4, MachineSpec::paper_large()),
///         WorkloadSuiteConfig::small().generate(3),
///     )
///     .scheduler(TetrisScheduler::new(TetrisConfig::default()))
///     .seed(3)
///     .run();
/// assert!(outcome.all_jobs_completed());
/// ```
pub struct TetrisScheduler {
    cfg: TetrisConfig,
    scorer: CombinedScorer,
    estimator: DemandEstimator,
    /// Machines currently reserved for a starved task (§3.5).
    reservations: Vec<(MachineId, TaskUid)>,
    /// Reusable per-call buffers (see [`ScheduleScratch`]).
    scratch: ScheduleScratch,
    /// Event-maintained incremental state (see [`IncState`]).
    inc: IncState,
    /// Rendered once at construction — `name()` is called per round and
    /// per trace event.
    name: String,
}

impl TetrisScheduler {
    /// Build from a config.
    ///
    /// # Panics
    /// If the config is out of range.
    pub fn new(cfg: TetrisConfig) -> Self {
        cfg.validate().expect("invalid TetrisConfig");
        let mut name = format!(
            "tetris(f={},b={},m={},{})",
            cfg.fairness_knob,
            cfg.barrier_knob,
            cfg.srtf_multiplier,
            cfg.alignment.label()
        );
        if !cfg.consider_io_dims {
            name.push_str("[cpu-mem-only]");
        }
        TetrisScheduler {
            scorer: CombinedScorer::new(cfg.srtf_multiplier),
            estimator: DemandEstimator::new(cfg.estimation),
            reservations: Vec::new(),
            scratch: ScheduleScratch::default(),
            inc: IncState::default(),
            name,
            cfg,
        }
    }

    /// Machines currently reserved for starved tasks (diagnostics).
    pub fn reserved_machines(&self) -> Vec<MachineId> {
        self.reservations.iter().map(|&(m, _)| m).collect()
    }

    /// The configuration in use.
    pub fn config(&self) -> &TetrisConfig {
        &self.cfg
    }

    /// Drop every reusable scratch buffer, forcing the next `schedule()`
    /// call to start from cold allocations — the reference behaviour the
    /// equivalence suite compares warm-scratch runs against. Persistent
    /// policy state (estimator, reservations) is untouched.
    pub fn reset_scratch(&mut self) {
        self.scratch = ScheduleScratch::default();
    }
}

/// Project a vector to the dimensions the configuration considers (free
/// function so the hot path can call it while scratch is borrowed).
fn visible(consider_io_dims: bool, v: &ResourceVec) -> ResourceVec {
    if consider_io_dims {
        *v
    } else {
        v.project(&[Resource::Cpu, Resource::Mem])
    }
}

/// One scored candidate on one machine: `(candidate index, promoted,
/// combined score, alignment)`.
type Scored = (usize, bool, f64, f64);

/// The per-call tables one scoring scan reads, borrowed between the
/// greedy loop's mutations (head advances, bans, the scorer's running ā).
struct Scan<'a> {
    view: &'a ClusterView<'a>,
    cands: &'a [Candidate],
    norms_arena: &'a [(ResourceVec, ResourceVec)],
    preferred_arena: &'a [MachineId],
    banned: &'a StampGrid,
    scorer: &'a CombinedScorer,
    cfg: &'a TetrisConfig,
    /// Leave out candidates the `blocked` memo rules out on this machine
    /// instead of scoring them for the greedy loop to ban on pick. Off
    /// under provenance capture, whose `scored` list must keep them.
    skip_blocked: bool,
}

impl Scan<'_> {
    /// Score the `live` candidates against machine `m` (capacity class
    /// `cls`, normalized availability `avail_norm`) and return the best.
    /// The comparison is strictly-greater on `(promoted, score)`, so the
    /// *earliest* maximal candidate wins. Every feasible candidate is also
    /// handed to `each` — the provenance sink under verbose tracing, an
    /// empty closure the compiler removes otherwise — so default and
    /// verbose passes run this one loop.
    fn best(
        self,
        live: &[usize],
        m: MachineId,
        cls: usize,
        avail_norm: &ResourceVec,
        mut each: impl FnMut(Scored),
    ) -> Option<Scored> {
        let Scan {
            view,
            cands,
            norms_arena,
            preferred_arena,
            banned,
            scorer,
            cfg,
            skip_blocked,
        } = self;
        let ban_check = banned.any;
        let mut best: Option<Scored> = None;
        for &ci in live {
            let c = &cands[ci];
            if !c.alive
                || (ban_check && banned.contains(ci, m.index()))
                || (skip_blocked && c.blocked_on(view, m))
            {
                continue;
            }
            let (norm, norm_local) = &norms_arena[c.norms_start + cls];
            let local = !c.shuffle && c.preferred(preferred_arena).binary_search(&m).is_ok();
            let demand_norm = if local { norm_local } else { norm };
            // Feasibility in normalized space (capacity-relative); the
            // demand was clamped to the class capacity, so a deliberate
            // over-estimate (§4.1) cannot make the task unplaceable
            // everywhere.
            if !demand_norm.fits_within(avail_norm) {
                continue;
            }
            let mut a = cfg.alignment.score_normalized(demand_norm, avail_norm);
            let is_remote = c.shuffle || (c.pref.1 != 0 && !local);
            if is_remote {
                a *= 1.0 - cfg.remote_penalty;
            }
            let score = if c.promoted {
                // Promoted stragglers rank above everyone and are ordered
                // among themselves by alignment (§3.5).
                a
            } else {
                scorer.combined(a, c.p)
            };
            each((ci, c.promoted, score, a));
            let better = match best {
                None => true,
                Some((_, bp, bs, _)) => (c.promoted, score) > (bp, bs),
            };
            if better {
                best = Some((ci, c.promoted, score, a));
            }
        }
        best
    }
}

/// Persistent scheduler state carried in engine checkpoints (the
/// `export_state`/`import_state` contract): the §3.5 reservations and the
/// estimator's learned family sets — everything that outlives a
/// `schedule()` call yet cannot be re-derived from the cluster view.
/// Caches (`inc`, scratch, provenance) are deliberately excluded: a
/// restored policy rebuilds them from events and views.
#[derive(serde::Serialize, serde::Deserialize)]
struct PolicyState {
    reservations: Vec<(MachineId, TaskUid)>,
    /// `(known, active)` recurring-family sets of a Learned estimator.
    #[serde(default)]
    families: Option<(Vec<String>, Vec<String>)>,
    /// `(mean, n)` of the scorer's running average alignment ā (the ε =
    /// m·ā/p̄ weighting, §3.3.2). JSON floats roundtrip exactly
    /// (`float_roundtrip`), so a restored ā is bit-identical.
    #[serde(default)]
    avg_alignment: Option<(f64, u64)>,
}

impl SchedulerPolicy for TetrisScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn export_state(&self) -> Option<String> {
        let families = self.estimator.export_families();
        let avg_alignment = self.scorer.export_avg();
        if self.reservations.is_empty() && families.is_none() && avg_alignment.is_none() {
            return None;
        }
        let s = PolicyState {
            reservations: self.reservations.clone(),
            families,
            avg_alignment,
        };
        Some(serde_json::to_string(&s).expect("policy state serializes"))
    }

    fn import_state(&mut self, state: &str) {
        // The blob arrives through a CRC-framed, fingerprint-checked
        // journal: a parse failure is a bug, not an input error.
        let s: PolicyState = serde_json::from_str(state).expect("valid policy state blob");
        self.reservations = s.reservations;
        if let Some((known, active)) = s.families {
            self.estimator.import_families(known, active);
        }
        if let Some((mean, n)) = s.avg_alignment {
            self.scorer.import_avg(mean, n);
        }
    }

    fn uses_tracker(&self) -> bool {
        // Tetris subtracts tracker-reported external usage (§4.3).
        true
    }

    fn on_event(&mut self, _view: &ClusterView<'_>, event: &SchedulerEvent) {
        self.inc.synced = true;
        match *event {
            // Anything that moves a job's progress or pending queues
            // dirties exactly that job's cached candidates.
            SchedulerEvent::JobArrived { job }
            | SchedulerEvent::TaskPlaced { job, .. }
            | SchedulerEvent::TaskFinished { job, .. }
            | SchedulerEvent::TaskPreempted { job, .. }
            | SchedulerEvent::TaskAbandoned { job, .. }
            | SchedulerEvent::TaskRunnable { job, .. } => self.inc.dirty.push(job),
            // Crash/recovery re-replicates blocks: every cached preference
            // list may be stale, so flush the lot (rare events).
            SchedulerEvent::MachineDown { .. } | SchedulerEvent::MachineUp { .. } => {
                self.inc.flush_all = true;
            }
        }
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let TetrisScheduler {
            cfg,
            scorer,
            estimator,
            reservations,
            scratch,
            inc,
            ..
        } = self;
        // Verbose tracing: attach provenance to each assignment. Capture
        // is write-only bookkeeping — it never changes decisions.
        let capture = view.capture_provenance();
        // Cache reuse needs two things: event delivery (`synced` — before
        // the first event there is no history to be stale about, but also
        // no way to know what changed) and the `Exact` estimator (the
        // `Learned` mode keys off cross-job family state the per-job
        // events don't cover). Otherwise every entry is rebuilt each call,
        // which replays the exact pre-event recompute path.
        let use_cache = inc.synced && matches!(cfg.estimation, EstimationMode::Exact);
        // Snapshot the incremental-state inputs for provenance before they
        // are consumed below.
        let prov_flushed = !use_cache || inc.flush_all;
        let prov_dirty = inc.dirty.len() as u32;
        if !use_cache || inc.flush_all {
            for c in inc.cache.iter_mut() {
                c.valid = false;
            }
            inc.flush_all = false;
        } else {
            for &j in &inc.dirty {
                if let Some(c) = inc.cache.get_mut(j.index()) {
                    c.valid = false;
                }
            }
        }
        inc.dirty.clear();
        estimator.update(view);
        // Reservations for tasks that got placed/finished meanwhile lapse.
        reservations.retain(|&(_, t)| view.is_runnable(t));
        // J = active jobs with runnable work: a job with nothing pending
        // cannot use an offer, so it neither receives one nor dilutes the
        // ⌈(1−f)|J|⌉ cutoff (§3.4).
        let ScheduleScratch {
            jobs,
            shares,
            p_scores,
            rank_idx,
            p_ranks,
            progress,
            cands,
            preferred_arena,
            norms_arena,
            hinted,
            machines,
            avail,
            live,
            banned,
            classes,
            class_of,
            scored,
        } = scratch;
        jobs.clear();
        jobs.extend(view.active_jobs().filter(|&j| view.job_has_pending(j)));
        if jobs.is_empty() {
            return Vec::new();
        }

        let total_capacity = view.total_capacity();
        let n_machines = view.num_machines();
        let reference = total_capacity / n_machines as f64;

        // Fairness knob: restrict to the jobs furthest from fair share.
        let total_slots: usize =
            jobs.iter().map(|&j| view.job_running(j)).sum::<usize>() + view.num_pending();
        shares.clear();
        shares.extend(jobs.iter().map(|&j| {
            (
                j,
                job_share(
                    cfg.fairness_measure,
                    &view.job_allocated(j),
                    view.job_running(j),
                    &total_capacity,
                    total_slots.max(1),
                ),
            )
        }));
        eligible_jobs_in_place(shares, cfg.fairness_knob);

        // One pass per eligible job: rebuild the job's candidate cache if
        // an event dirtied it (or caching is off), then assemble global
        // candidates from the cache. The rebuild is exactly the former
        // recompute — progress, SRTF score, per-stage demand estimate and
        // preference list — so assembly from a warm cache is byte-for-byte
        // the recomputed result (pinned by `tests/schedule_equivalence.rs`
        // and the incremental proptest).
        p_scores.clear();
        cands.clear();
        preferred_arena.clear();
        let mut cache_hits = 0u32;
        let mut cache_rebuilds = 0u32;
        for &(j, _) in shares.iter() {
            let ji = j.index();
            let cached = if use_cache {
                if inc.cache.len() <= ji {
                    inc.cache.resize_with(ji + 1, JobCache::default);
                }
                &mut inc.cache[ji]
            } else {
                // Rebuild into the shared scratch slot: with caching off
                // the entry is consumed immediately below and never
                // revalidated, so a table slot would buy nothing.
                inc.cold.valid = false;
                &mut inc.cold
            };
            if !cached.valid {
                cache_rebuilds += 1;
                let family = view.job_family(j);
                view.stage_progress_into(j, progress);
                cached.p_score = job_remaining_work_with(view, j, &reference, progress);
                cached.protos.clear();
                cached.prefs.clear();
                for (stage, pending) in view.job_pending_stages(j) {
                    let head = pending[0];
                    let spec = view.task(head);
                    let demand = estimator.estimate(spec, j, family, progress[stage].finished);
                    let pref = view.preferred_machines_append(head, &mut cached.prefs);
                    cached.protos.push(ProtoCandidate {
                        stage,
                        promoted: stage_promoted(&progress[stage], cfg.barrier_knob),
                        demand,
                        pref,
                        shuffle: spec.reads_shuffle(),
                    });
                }
                cached.valid = use_cache;
            } else {
                cache_hits += 1;
            }
            p_scores.push(cached.p_score);
            let p_slot = p_scores.len() - 1; // rank filled in below
            let base = preferred_arena.len();
            preferred_arena.extend_from_slice(&cached.prefs);
            for proto in &cached.protos {
                cands.push(Candidate {
                    job: j,
                    stage: proto.stage,
                    promoted: proto.promoted,
                    p: p_slot as f64, // placeholder: index into p_ranks
                    demand: proto.demand,
                    pref: (base + proto.pref.0, proto.pref.1),
                    shuffle: proto.shuffle,
                    next: 0,
                    norms_start: usize::MAX, // filled for live candidates
                    alive: true,
                    blocked: false,
                });
            }
        }
        if cands.is_empty() {
            return Vec::new();
        }
        // Resolve remaining-work ranks (0 = least remaining work).
        ranks_into(p_scores, rank_idx, p_ranks);
        for c in cands.iter_mut() {
            c.p = p_ranks[c.p as usize];
        }

        // Focus on machines whose availability changed; fall back to the
        // whole cluster when no hint exists (arrivals, tracker ticks).
        // Sort + dedup reproduces the former `BTreeSet` iteration order.
        hinted.clear();
        hinted.extend_from_slice(view.freed_machines());
        hinted.sort_unstable();
        hinted.dedup();
        // A cold pass (no freed-machine hint: arrivals, tracker ticks,
        // cache flushes) must consider the whole cluster; that is the
        // pass MachineQuery makes sublinear. Warm passes keep focusing on
        // the hinted machines as before.
        let query = view.query();
        let cold = hinted.is_empty();
        machines.clear();
        if !cold {
            machines.extend_from_slice(hinted);
            // Graceful degradation under faults: down machines host
            // nothing, and suspect machines are skipped outright —
            // alignment scores are computed *from* tracker reports, so a
            // machine whose reports are implausible or stale gives Tetris
            // nothing to score against (slot baselines, which never read
            // usage, merely deprioritize). This is an exact no-op without
            // fault injection — `is_down`/`is_suspect` are always false
            // then and `retain` keeps everything — so decisions stay
            // byte-identical to the pre-fault scheduler.
            machines.retain(|&m| !view.is_down(m) && !view.is_suspect(m));
        }

        // Working availability ledger, populated lazily (remote
        // feasibility can touch machines outside the hint set).
        avail.begin(n_machines);
        banned.begin(cands.len(), n_machines); // (cand, machine)
        let mut out = Vec::new();

        // Envelope prefilter: a candidate whose (capacity-clamped) demand
        // exceeds the per-dimension *maximum* availability over all
        // considered machines fits nowhere — skip it for the whole call.
        // Valid throughout: availability only shrinks as we place. Cold
        // passes take the envelopes from the query (the indexed backend
        // answers without scanning the cluster); warm passes fold over
        // the hinted worklist exactly as before.
        let mut cap_env = ResourceVec::zero();
        let mut avail_env = ResourceVec::zero();
        if cold {
            cap_env = query.capacity_envelope();
            avail_env = query.availability_envelope();
        } else {
            for &m in machines.iter() {
                cap_env = cap_env.max(&view.capacity(m));
                avail_env = avail_env.max(&avail.get(view, m).clamp_non_negative());
            }
        }
        live.clear();
        live.extend((0..cands.len()).filter(|&ci| {
            let d = visible(cfg.consider_io_dims, &cands[ci].demand.min(&cap_env));
            // Local placements shed NetIn, so exclude it from pruning.
            let d = d.with(
                Resource::NetIn,
                d.get(Resource::NetIn).min(avail_env.get(Resource::NetIn)),
            );
            d.fits_within(&avail_env)
        }));
        // Cheapest-candidate floor: no live candidate demands less than
        // this much CPU/memory, so a machine below the floor hosts nothing
        // and is skipped without scanning (saturated-cluster fast path).
        let (mut min_cpu, mut min_mem) = (f64::INFINITY, f64::INFINITY);
        for &ci in live.iter() {
            let d = visible(cfg.consider_io_dims, &cands[ci].demand.min(&cap_env));
            min_cpu = min_cpu.min(d.get(Resource::Cpu));
            min_mem = min_mem.min(d.get(Resource::Mem));
        }
        if cold {
            // Cold worklist: the considered machines whose availability
            // *upper bound* meets the cheapest-candidate floor, ascending
            // by id — every machine this skips would have hit the floor
            // break below on its first iteration with no side effects, so
            // pruning is decision-neutral. Reserved machines are re-added
            // (their branch runs before the floor break), keeping the
            // worklist sorted so processing order matches the old full
            // ascending scan.
            query.floor_candidates_into(min_cpu, min_mem, machines);
            for &(rm, _) in reservations.iter() {
                if !view.is_down(rm) && !view.is_suspect(rm) {
                    if let Err(pos) = machines.binary_search(&rm) {
                        machines.insert(pos, rm);
                    }
                }
            }
        }

        // Capacity classes (clusters have very few distinct machine
        // specs): precompute each live candidate's normalized demand per
        // class so the inner scan does no per-pair normalization. Classes
        // cover the *worklist* only — class identity is just a shared
        // capacity vector, so worklist-local class numbering yields the
        // same normalized demands as whole-cluster numbering did.
        classes.clear();
        if class_of.len() < n_machines {
            // Grow-once: stale entries for machines outside this call's
            // worklist are never read, and an O(cluster) clear here would
            // defeat the sublinear cold pass.
            class_of.resize(n_machines, 0);
        }
        for &m in machines.iter() {
            let cap = view.capacity(m);
            class_of[m.index()] = match classes.iter().position(|c| *c == cap) {
                Some(i) => i,
                None => {
                    classes.push(cap);
                    classes.len() - 1
                }
            };
        }
        norms_arena.clear();
        for &ci in live.iter() {
            let c = &mut cands[ci];
            c.norms_start = norms_arena.len();
            norms_arena.extend(classes.iter().map(|cap| {
                let clamped = c.demand.min(cap);
                let norm = if cfg.consider_io_dims {
                    clamped.normalized_by(cap)
                } else {
                    clamped
                        .project(&[Resource::Cpu, Resource::Mem])
                        .normalized_by(cap)
                };
                let mut norm_local = norm;
                norm_local.set(Resource::NetIn, 0.0);
                (norm, norm_local)
            }));
        }

        // Placement constraints (§16 spec API): pre-ban every (candidate,
        // machine) pair the job's constraints or machine taints disallow,
        // reusing the `banned` stamp grid so the scoring scans need no
        // extra per-pair checks. Unconstrained runs insert nothing
        // (`banned.any` stays false), keeping all-batch decisions
        // byte-identical to the pre-constraint scheduler.
        let taints = view.taints_active();
        if taints
            || live
                .iter()
                .any(|&ci| view.job_constraints(cands[ci].job).has_any())
        {
            for &ci in live.iter() {
                let job = cands[ci].job;
                if !taints && !view.job_constraints(job).has_any() {
                    continue;
                }
                for &m in machines.iter() {
                    if !view.constraints_allow(job, m) {
                        banned.insert(ci, m.index());
                    }
                }
            }
        }

        // Decision bookkeeping: how many machines this pass *considered*
        // (the pre-index cold-pass scope), and how many the index pruned
        // away before scoring. Cold passes report the full considered
        // set so traces stay comparable with the pre-index scheduler.
        let considered_machines = if cold {
            query.considered_count() as u32
        } else {
            machines.len() as u32
        };
        let prov_index_considered = machines.len() as u32;
        let prov_index_pruned = if cold {
            query.considered_count().saturating_sub(machines.len()) as u32
        } else {
            0
        };

        // Fill each machine greedily: pick the highest-scoring candidate
        // that fits, charge it, repeat until nothing fits (§3.2 "this
        // process is repeated recursively until the machine cannot
        // accommodate any further tasks").
        for &m in machines.iter() {
            // A machine reserved for a starved task accepts only that task
            // (§3.5 reservation extension).
            if let Some(&(_, starved)) = reservations.iter().find(|&&(rm, _)| rm == m) {
                if view.is_runnable(starved)
                    && avail
                        .try_commit(view, cfg.consider_io_dims, starved, m)
                        .is_ok()
                {
                    // Reservation redemptions are placed by right, not by
                    // score — no DecisionScores to attach.
                    out.push(Assignment::new(starved, m));
                    // Consume the matching candidate head if present so the
                    // task is not double-placed this round.
                    for c in cands.iter_mut() {
                        if c.head(view) == Some(starved) {
                            c.advance(view);
                        }
                    }
                    reservations.retain(|&(rm, _)| rm != m);
                }
                continue;
            }
            let capacity = view.capacity(m);
            let cls = class_of[m.index()];
            loop {
                {
                    let a = avail.get(view, m);
                    if live.is_empty()
                        || a.get(Resource::Cpu) < min_cpu
                        || a.get(Resource::Mem) < min_mem
                    {
                        break;
                    }
                }
                let machine_avail = visible(cfg.consider_io_dims, &avail.get(view, m));
                // Hoisted per machine-iteration: normalized availability.
                let avail_norm = machine_avail.clamp_non_negative().normalized_by(&capacity);
                // Select the best candidate by (promoted, score); provenance
                // capture additionally keeps every score, not just the
                // winner's.
                let scan = Scan {
                    view,
                    cands,
                    norms_arena,
                    preferred_arena,
                    banned,
                    scorer,
                    cfg,
                    skip_blocked: !capture,
                };
                #[cfg(debug_assertions)]
                for c in live.iter().map(|&ci| &cands[ci]) {
                    if c.alive && c.blocked_on(view, m) {
                        let head = c.head(view).expect("candidate head");
                        avail.assert_blocked(view, head, m);
                    }
                }
                let best = if capture {
                    scored.clear();
                    scan.best(live, m, cls, &avail_norm, |s| scored.push(s))
                } else {
                    scan.best(live, m, cls, &avail_norm, |_| {})
                };
                let Some((ci, _, combined, alignment)) = best else {
                    break;
                };

                // The normalized check above is a prefilter; the plan is
                // authoritative.
                let uid = cands[ci].head(view).expect("candidate head");
                // Under capture the scan scored memo-blocked candidates
                // too; the memo answers for them here, without a plan.
                if cands[ci].blocked_on(view, m) {
                    banned.insert(ci, m.index());
                    continue;
                }
                let local = match avail.try_commit(view, cfg.consider_io_dims, uid, m) {
                    Ok(local) => local,
                    Err(why) => {
                        cands[ci].blocked |=
                            why == PlanFailure::Source && !view.task_reads_locally(uid, m);
                        banned.insert(ci, m.index());
                        continue;
                    }
                };
                let a_placed = cfg.alignment.score(
                    &local,
                    &visible(cfg.consider_io_dims, &avail.get(view, m)),
                    &capacity,
                );
                scorer.observe_alignment(a_placed.max(0.0));
                let mut assignment = Assignment::new(uid, m).with_scores(DecisionScores {
                    alignment,
                    srtf: cands[ci].p,
                    combined,
                    considered_machines,
                });
                if capture {
                    // Runner-up candidates on this machine, best first, so
                    // `explain` can show what the winner beat. Recorded
                    // after the decision: pure bookkeeping, never feeds
                    // back into scoring.
                    scored.sort_unstable_by(|x, y| y.1.cmp(&x.1).then_with(|| y.2.total_cmp(&x.2)));
                    let rejected = scored
                        .iter()
                        .filter(|&&(rci, ..)| rci != ci)
                        .take(PROVENANCE_TOP_K)
                        .filter_map(|&(rci, _, score, a)| {
                            let head = cands[rci].head(view)?;
                            Some(RejectedCandidate {
                                job: cands[rci].job.index(),
                                task: head.index(),
                                alignment: Some(a),
                                srtf: Some(cands[rci].p),
                                score,
                            })
                        })
                        .collect();
                    assignment = assignment.with_provenance(PlacementProvenance {
                        cache_hits,
                        cache_rebuilds,
                        cache_flushed: prov_flushed,
                        dirty_jobs: prov_dirty,
                        candidates: scored.len() as u32,
                        index_pruned: prov_index_pruned,
                        index_considered: prov_index_considered,
                        rejected,
                    });
                }
                out.push(assignment);
                cands[ci].advance(view);
                // In-call spread approximation: until the job's *running*
                // tasks span the spread floor, place at most one task per
                // machine per call (the authoritative running-state check
                // lives in `constraints_allow`; this just stops one call
                // from stacking a whole wave on one machine before any of
                // it starts). Conservative — never bans a machine the
                // steady-state predicate would allow forever.
                let cons = view.job_constraints(cands[ci].job);
                if let Some(n) = cons.spread {
                    if view.job_spread(cands[ci].job) < n {
                        banned.insert(ci, m.index());
                    }
                }
            }
        }

        // Starvation detection (§3.5 extension): a head task pending past
        // the patience threshold gets a machine reserved — the one where
        // its demand shortfall is smallest — so churn of small tasks can
        // no longer starve it.
        if let Some(sc) = cfg.starvation {
            for c in cands.iter() {
                if reservations.len() >= sc.max_reservations {
                    break;
                }
                let Some(head) = c.head(view) else { continue };
                if view.task_pending_age(head) < sc.patience {
                    continue;
                }
                if reservations.iter().any(|&(_, t)| t == head) {
                    continue;
                }
                let demand = visible(cfg.consider_io_dims, &c.demand);
                let mut best: Option<(MachineId, f64)> = None;
                for m in query.iter_all() {
                    if reservations.iter().any(|&(rm, _)| rm == m) {
                        continue;
                    }
                    // Never reserve a dead or suspect machine for a
                    // starved task (no-op without fault injection).
                    if view.is_down(m) || view.is_suspect(m) {
                        continue;
                    }
                    let cap = view.capacity(m);
                    if !demand.min(&cap).fits_within(&cap) {
                        continue;
                    }
                    // Shortfall: worst normalized gap between demand and
                    // current availability (0 ⇒ it already fits).
                    let a = visible(cfg.consider_io_dims, &avail.get(view, m));
                    let gap = (demand - a)
                        .clamp_non_negative()
                        .normalized_by(&cap)
                        .max_component();
                    let better = match best {
                        None => true,
                        Some((_, bg)) => gap < bg,
                    };
                    if better {
                        best = Some((m, gap));
                    }
                }
                if let Some((m, _)) = best {
                    reservations.push((m, head));
                }
            }
        }

        // Priority preemption (DESIGN.md §16): when enabled and a
        // higher-priority job placed nothing above, evict strictly
        // lower-priority tasks to make room. No-op (None) with
        // `SimConfig::preemption` off, so batch runs are unchanged.
        if let Some(pre) = tetris_sim::plan_priority_preemption(view, &out) {
            out.push(pre);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_resources::MachineSpec;
    use tetris_sim::{ClusterConfig, Simulation};
    use tetris_workload::WorkloadSuiteConfig;

    #[test]
    fn config_validation() {
        assert!(TetrisConfig::default().validate().is_ok());
        let mut c = TetrisConfig::default();
        c.fairness_knob = 1.5;
        assert!(c.validate().is_err());
        let mut c = TetrisConfig::default();
        c.remote_penalty = -0.1;
        assert!(c.validate().is_err());
        let mut c = TetrisConfig::default();
        c.srtf_multiplier = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = TetrisConfig::default();
        c.starvation = Some(StarvationConfig {
            patience: 60.0,
            max_reservations: 0,
        });
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid TetrisConfig")]
    fn new_panics_on_bad_config() {
        let mut c = TetrisConfig::default();
        c.barrier_knob = 2.0;
        let _ = TetrisScheduler::new(c);
    }

    #[test]
    fn name_reflects_config() {
        let s = TetrisScheduler::new(TetrisConfig::default());
        // The whole name: knobs and alignment, no other suffix.
        assert_eq!(s.name(), "tetris(f=0.25,b=0.9,m=1,cosine)");
        let mut c = TetrisConfig::default();
        c.consider_io_dims = false;
        assert!(TetrisScheduler::new(c).name().ends_with(")[cpu-mem-only]"));
    }

    #[test]
    fn completes_a_small_suite() {
        let outcome = Simulation::build(
            ClusterConfig::uniform(6, MachineSpec::paper_large()),
            WorkloadSuiteConfig::small().generate(5),
        )
        .scheduler(TetrisScheduler::new(TetrisConfig::default()))
        .seed(5)
        .run();
        assert!(outcome.all_jobs_completed());
        assert!(outcome.stats.placements >= outcome.tasks.len() as u64);
    }

    #[test]
    fn never_overallocates_any_dimension_without_reclamation() {
        // With idle reclamation off, availability is the demand ledger and
        // Tetris's feasibility checks make over-allocation impossible
        // (§3.2).
        let cluster = ClusterConfig::uniform(6, MachineSpec::paper_large());
        let cap = MachineSpec::paper_large().capacity();
        let mut cfg = tetris_sim::SimConfig::default();
        cfg.seed = 8;
        cfg.reclaim_idle = false;
        let outcome = Simulation::build(cluster, WorkloadSuiteConfig::small().generate(8))
            .scheduler(TetrisScheduler::new(TetrisConfig::default()))
            .config(cfg)
            .run();
        assert!(outcome.all_jobs_completed());
        for s in &outcome.samples {
            for ms in s.machines.as_ref().unwrap() {
                for r in Resource::ALL {
                    assert!(
                        ms.allocated.get(r) <= cap.get(r) * (1.0 + 1e-9) + 1e-6,
                        "over-allocated {r}: {}",
                        ms.allocated.get(r)
                    );
                }
            }
        }
    }

    #[test]
    fn reclamation_never_overcommits_memory_and_helps_throughput() {
        // With reclamation on (the paper's §4.1 design), idle CPU/IO peaks
        // are re-offered — but memory is a held resource and must never be
        // over-committed by Tetris.
        let cluster = ClusterConfig::uniform(6, MachineSpec::paper_large());
        let cap = MachineSpec::paper_large().capacity();
        let run = |reclaim| {
            let mut cfg = tetris_sim::SimConfig::default();
            cfg.seed = 8;
            cfg.reclaim_idle = reclaim;
            Simulation::build(
                ClusterConfig::uniform(6, MachineSpec::paper_large()),
                WorkloadSuiteConfig::small().generate(8),
            )
            .scheduler(TetrisScheduler::new(TetrisConfig::default()))
            .config(cfg)
            .run()
        };
        let _ = cluster;
        let with = run(true);
        let without = run(false);
        assert!(with.all_jobs_completed());
        for s in &with.samples {
            for ms in s.machines.as_ref().unwrap() {
                assert!(
                    ms.allocated.get(Resource::Mem) <= cap.get(Resource::Mem) * (1.0 + 1e-9),
                    "memory over-committed: {}",
                    ms.allocated.get(Resource::Mem)
                );
            }
        }
        // Reclamation must not hurt completion; it usually improves it.
        assert!(with.makespan() <= without.makespan() * 1.10);
    }

    #[test]
    fn cpu_mem_only_ablation_overallocates_io() {
        // With IO dims masked, Tetris behaves like the baselines and can
        // over-allocate disk/network on IO-heavy workloads: 12 disk-bound
        // writers (150 MB/s demand each) fit a machine by CPU+memory but
        // demand 9× its 200 MB/s disk.
        use tetris_resources::units::{GB, MB};
        use tetris_workload::gen::{TaskParams, WorkloadBuilder};
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("writers", None, 0.0);
        b.add_stage(j, "w", vec![], 12, |_| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 20.0,
            cpu_frac: 0.1,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 3000.0 * MB, // 150 MB/s over 20 s
            remote_frac: 1.0,
        });
        let mut cfg = TetrisConfig::default();
        cfg.consider_io_dims = false;
        let cluster = ClusterConfig::uniform(2, MachineSpec::paper_large());
        let mut sim_cfg = tetris_sim::SimConfig::default();
        sim_cfg.sample_period = Some(1.0);
        let outcome = Simulation::build(cluster, b.finish())
            .scheduler(TetrisScheduler::new(cfg))
            .config(sim_cfg)
            .run();
        let cap = MachineSpec::paper_large().capacity();
        let overallocated = outcome.samples.iter().any(|s| {
            s.machines.as_ref().unwrap().iter().any(|ms| {
                ms.allocated.get(Resource::DiskWrite) > cap.get(Resource::DiskWrite) * 1.01
            })
        });
        assert!(overallocated, "expected IO over-allocation in the ablation");
        // ... and the contention stretches the tasks well past ideal.
        assert!(
            outcome.mean_task_stretch() > 1.5,
            "stretch {}",
            outcome.mean_task_stretch()
        );
    }

    /// Forwards to a borrowed Tetris, keeping what it returned and — from
    /// the view of its first call — which machines hold the one block.
    struct Spy<'a> {
        inner: &'a mut TetrisScheduler,
        out: Vec<Assignment>,
        holders: Vec<MachineId>,
    }

    impl SchedulerPolicy for Spy<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn uses_tracker(&self) -> bool {
            self.inner.uses_tracker()
        }
        fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
            self.holders = view
                .query()
                .iter_all()
                .filter(|&m| view.task_reads_locally(TaskUid(0), m))
                .collect();
            self.out = self.inner.schedule(view);
            self.out.clone()
        }
    }

    #[test]
    fn blocked_head_is_planned_once_then_lands_on_a_replica_holder() {
        // Four readers of one block with two replicas, A and B (a remote
        // reader of uid `u` pulls from `replicas[u % 2]`), on five
        // machines with 100 MB/s disks. In one cold pass, in machine
        // order: uid 0 takes 50 MB/s of A's disk, uid 1 takes 10 of B's,
        // and uid 2 wants 60 from A, which has 50 left — its plan fails on
        // the source, and would fail the same way on every machine that
        // holds no replica. On A itself it fails on the host; on B it
        // reads locally and fits. Then uid 3 is a new head and owes the
        // memo nothing.
        use tetris_resources::units::{GB, MB};
        use tetris_sim::probe::ScheduleProbe;
        use tetris_workload::gen::{TaskParams, WorkloadBuilder};
        let workload = || {
            let mut b = WorkloadBuilder::new();
            let j = b.begin_job("readers", None, 0.0);
            let block = b.new_block();
            b.add_stage(j, "read", vec![], 4, |i| TaskParams {
                cores: 1.0,
                mem: GB,
                duration: 10.0,
                cpu_frac: 0.1,
                io_burst: 1.0,
                inputs: vec![tetris_workload::InputSpec {
                    source: tetris_workload::InputSource::Stored(block),
                    bytes: [500.0, 100.0, 600.0, 200.0][i] * MB,
                }],
                output_bytes: 0.0,
                remote_frac: 1.0,
            });
            b.finish()
        };
        let spec = MachineSpec::new()
            .cores(4.0)
            .memory(16.0 * GB)
            .disks(1, 100.0 * MB)
            .nic(125.0 * MB);
        let first = MachineId(0);
        let mut tetris = TetrisScheduler::new(TetrisConfig::default());
        // Replica placement is the simulator's seeded choice: take the
        // first seed that puts A and B on machines 2 and 3, so that the
        // source saturates on a machine without a replica (0), another
        // such machine (1) is there to be skipped, and a third (4)
        // follows B for uid 3 to plan on.
        let probe = (0..64)
            .find_map(|seed| {
                let mut cfg = tetris_sim::SimConfig::default();
                cfg.seed = seed;
                cfg.replication = 2;
                let probe = ScheduleProbe::new(ClusterConfig::uniform(5, spec), workload(), cfg);
                let mut spy = Spy {
                    inner: &mut tetris,
                    out: Vec::new(),
                    holders: Vec::new(),
                };
                probe.measure(&mut spy);
                let holders = spy.holders;
                (holders == [MachineId(2), MachineId(3)]).then_some(probe)
            })
            .expect("a seed in 0..64 puts the replicas on machines 2 and 3");
        // Replica lists are sorted, so A = `replicas[0]` is machine 2.
        let (holders, b, after_b) = ([MachineId(2), MachineId(3)], MachineId(3), MachineId(4));

        // The state is not mutated by a pass, so the second call must
        // repeat the first: the memo does not outlive a call.
        for call in 0..2 {
            let mut spy = Spy {
                inner: &mut tetris,
                out: Vec::new(),
                holders: Vec::new(),
            };
            probe.measure(&mut spy);
            let placed = |uid: usize| {
                spy.out
                    .iter()
                    .find(|a| a.task == TaskUid(uid))
                    .map(|a| a.machine)
            };
            let planned = &spy.inner.scratch.avail.planned;
            let non_holder_plans = |uid: usize| {
                planned
                    .iter()
                    .filter(|(t, m)| *t == TaskUid(uid) && !holders.contains(m))
                    .count()
            };
            assert_eq!(placed(0), Some(first), "call {call}");
            assert_eq!(placed(1), Some(first), "call {call}");
            // The blocked head is planned on machine 0, not on machine 1,
            // then once on each holder.
            assert_eq!(non_holder_plans(2), 1, "call {call}: {planned:?}");
            assert!(planned.contains(&(TaskUid(2), first)), "call {call}");
            assert_eq!(placed(2), Some(b), "call {call}: reads locally, fits");
            // The next head of the same stage is planned afresh — on a
            // machine without a replica, where a stale memo would skip it.
            assert!(planned.contains(&(TaskUid(3), after_b)), "call {call}");
            assert_eq!(placed(3), Some(after_b), "call {call}");
        }
    }

    #[test]
    fn deterministic() {
        let run = || {
            Simulation::build(
                ClusterConfig::uniform(5, MachineSpec::paper_large()),
                WorkloadSuiteConfig::small().generate(2),
            )
            .scheduler(TetrisScheduler::new(TetrisConfig::default()))
            .seed(2)
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(
            a.tasks.iter().map(|t| t.finish).collect::<Vec<_>>(),
            b.tasks.iter().map(|t| t.finish).collect::<Vec<_>>()
        );
    }
}
