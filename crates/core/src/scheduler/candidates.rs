//! This call's candidates: the per-job caches the view's epochs validate,
//! the fairness cut (§3.4), assembly from the caches (§3.5's barrier
//! promotion included) and the jobs' remaining-work ranks (§3.3).

use tetris_resources::{Resource, ResourceVec};
use tetris_sim::{ClusterView, MachineId, StageProgress};
use tetris_workload::{JobId, TaskUid};

use super::bans::Blocked;
use super::{PassRecord, TetrisConfig, TetrisScheduler};
use crate::barrier::stage_promoted;
use crate::estimate::EstimationMode;
use crate::fairness::eligible_jobs_in_place;
use crate::srtf::{job_remaining_work_with, ranks_into};

/// One placement candidate: the next pending task of one stage of one
/// eligible job. Tasks of a stage are statistically similar (§4.1), so
/// scoring one representative per stage keeps the per-event cost
/// independent of job size without losing score fidelity.
#[derive(Clone, Copy)]
pub(super) struct Candidate {
    /// Owning job.
    pub(super) job: JobId,
    /// Stage index within the job.
    stage: usize,
    pub(super) promoted: bool,
    /// Remaining-work rank of the owning job (0 = shortest).
    pub(super) p: f64,
    /// Estimated demand (shared by the stage's tasks).
    pub(super) demand: ResourceVec,
    /// Range into the preference arena: machines holding replicas
    /// of the stored inputs of the stage's head task *when the job's
    /// cache entry was built* — the current head only until the stage's
    /// first placement in a call, a sibling's list after `next` advances
    /// (the scoring locality term has always read it that way; the
    /// goldens pin it). Anything that must be true of the current head
    /// asks `ClusterView::task_reads_locally` instead.
    pub(super) pref: (usize, usize),
    /// True if the task reads shuffle output (treated as remote-heavy).
    pub(super) shuffle: bool,
    /// Cursor into the stage's pending slice (stable within one
    /// `schedule()` call — the engine applies assignments afterwards).
    next: usize,
    /// Start of this candidate's per-class row in the worklist's norm
    /// arena: `norms_arena[norms_start + class]` = (normalized demand, and
    /// with NetIn dropped). Filled each call, for live candidates only.
    pub(super) norms_start: usize,
    /// Cached "has a head task" flag, maintained as `next` advances.
    pub(super) alive: bool,
    /// What the head's failed plans prove this call about machines not
    /// yet planned (see [`Candidate::blocked_on`]). Reset wherever `next`
    /// advances — the memo is about one head.
    pub(super) blocked: Blocked,
}

impl Candidate {
    /// Head task via the view's zero-copy pending slice.
    pub(super) fn head(&self, view: &ClusterView<'_>) -> Option<TaskUid> {
        view.stage_pending_slice(self.job, self.stage)
            .get(self.next)
            .copied()
    }

    /// Preference list via the arena.
    pub(super) fn preferred<'s>(&self, arena: &'s [MachineId]) -> &'s [MachineId] {
        &arena[self.pref.0..self.pref.0 + self.pref.1]
    }

    /// Move to the stage's next pending task.
    pub(super) fn advance(&mut self, view: &ClusterView<'_>) {
        self.next += 1;
        self.alive = self.head(view).is_some();
        self.blocked = Blocked::No;
    }
}

/// One job's cached candidates, stamped with the view's epochs at build
/// time and rebuilt when either has moved since: the job epoch moves with
/// every change to the job's progress or pending queues, the replica
/// epoch with every block-replica move (which alters preference lists
/// globally). Everything else a pass needs — availability, freed-machine
/// hints, suspicion — is read from the view each call, never cached.
#[derive(Default)]
struct JobCache {
    /// (job epoch, replica epoch) this entry was built at; `None` until
    /// built, and always in the cache-off slot.
    built_at: Option<(u64, u64)>,
    /// SRTF remaining-work score (pre-ranking).
    p_score: f64,
    /// The job's candidates as the call assembling them starts them, one
    /// a pending stage; `pref` indexes `prefs`.
    protos: Vec<Candidate>,
    /// Preference-list storage behind `protos[..].pref`.
    prefs: Vec<MachineId>,
}

/// The per-job candidate caches, valid for as long as their epochs are.
#[derive(Default)]
pub(super) struct IncState {
    /// Per-job caches, indexed by job id (grown on demand).
    cache: Vec<JobCache>,
    /// The rebuild slot of cache-off calls: growing `cache` to the highest
    /// job id for entries that are never reused would be pure allocation.
    cold: JobCache,
    /// Each blocked head's all-remote demands at its sources, planned at
    /// replica epoch `kept_at`: a function of the task, its replicas and
    /// its upstream stages' final output maps (DESIGN.md §9).
    pub(super) kept: std::collections::HashMap<TaskUid, Vec<(MachineId, ResourceVec)>>,
    pub(super) kept_at: u64,
}

/// This call's candidates and the buffers that build them.
#[derive(Default)]
pub(super) struct CandidateSet {
    /// (job, share) pairs; sorted/truncated in place by the fairness knob.
    shares: Vec<(JobId, f64)>,
    /// Remaining-work score per eligible job.
    p_scores: Vec<f64>,
    /// Sort scratch + output buffer for remaining-work ranks.
    rank_idx: Vec<usize>,
    p_ranks: Vec<f64>,
    /// Per-stage progress of the job currently being rebuilt.
    progress: Vec<StageProgress>,
    /// One candidate per (eligible job, pending stage).
    pub(super) list: Vec<Candidate>,
    /// Arena behind `Candidate::pref`.
    pub(super) preferred_arena: Vec<MachineId>,
}

impl TetrisScheduler {
    /// The fairness cut, then one candidate per eligible job and pending
    /// stage, ranked by remaining work. False when there is none.
    pub(super) fn build_candidates(
        &mut self,
        view: &ClusterView<'_>,
        pass: &mut PassRecord,
    ) -> bool {
        let (cfg, inc, set) = (&self.cfg, &mut self.inc, &mut self.cands);
        if !set.fairness_cut(view, cfg) {
            return false;
        }
        // An entry is reused only under the `Exact` estimator: `Learned`
        // keys off cross-job family state no job epoch covers.
        let reuse = matches!(cfg.estimation, EstimationMode::Exact);
        pass.prov.cache_flushed = !reuse;
        // One pass per eligible job: rebuild its cache entry if an epoch
        // moved since it was built (or caching is off), then assemble
        // candidates from it. A warm entry is byte-for-byte a rebuilt one
        // (pinned by `tests/schedule_equivalence.rs` and the incremental
        // proptest).
        let replica = view.replica_epoch();
        let reference = view.total_capacity() / view.num_machines() as f64;
        set.p_scores.clear();
        set.list.clear();
        set.preferred_arena.clear();
        for &(j, _) in set.shares.iter() {
            let ji = j.index();
            let cached = if reuse {
                if inc.cache.len() <= ji {
                    inc.cache.resize_with(ji + 1, JobCache::default);
                }
                &mut inc.cache[ji]
            } else {
                &mut inc.cold
            };
            let epochs = (view.job_epoch(j), replica);
            if cached.built_at == Some(epochs) {
                pass.prov.cache_hits += 1;
            } else {
                pass.prov.cache_rebuilds += 1;
                if let Some((job, replica)) = cached.built_at {
                    pass.prov.dirty_jobs += u32::from(job != epochs.0);
                    pass.prov.cache_flushed |= replica != epochs.1;
                }
                let (family, progress) = (view.job_family(j), &mut set.progress);
                view.stage_progress_into(j, progress);
                cached.p_score = job_remaining_work_with(view, j, &reference, progress);
                cached.protos.clear();
                cached.prefs.clear();
                for (stage, pending) in view.job_pending_stages(j) {
                    let spec = view.task(pending[0]);
                    let finished = progress[stage].finished;
                    cached.protos.push(Candidate {
                        job: j,
                        stage,
                        promoted: stage_promoted(&progress[stage], cfg.barrier_knob),
                        p: 0.0,
                        demand: self.estimator.estimate(spec, j, family, finished),
                        pref: view.preferred_machines_append(pending[0], &mut cached.prefs),
                        shuffle: spec.reads_shuffle(),
                        next: 0,
                        norms_start: usize::MAX, // filled for live candidates
                        alive: true,
                        blocked: Blocked::No,
                    });
                }
                cached.built_at = reuse.then_some(epochs);
            }
            let p_slot = set.p_scores.len() as f64; // rank filled in below
            set.p_scores.push(cached.p_score);
            let base = set.preferred_arena.len();
            set.preferred_arena.extend_from_slice(&cached.prefs);
            set.list.extend(cached.protos.iter().map(|c| Candidate {
                p: p_slot, // placeholder: index into p_ranks
                pref: (base + c.pref.0, c.pref.1),
                ..*c
            }));
        }
        if set.list.is_empty() {
            return false;
        }
        // Resolve remaining-work ranks (0 = least remaining work).
        ranks_into(&set.p_scores, &mut set.rank_idx, &mut set.p_ranks);
        for c in set.list.iter_mut() {
            c.p = set.p_ranks[c.p as usize];
        }
        true
    }
}

impl CandidateSet {
    /// J = active jobs with runnable work: a job with nothing pending
    /// cannot use an offer, so it neither receives one nor dilutes the
    /// ⌈(1−f)|J|⌉ cutoff. Of J, keep the jobs furthest from fair share
    /// (§3.4). False when J is empty.
    fn fairness_cut(&mut self, view: &ClusterView<'_>, cfg: &TetrisConfig) -> bool {
        let pending = view.active_jobs().filter(|&j| view.job_has_pending(j));
        self.shares.clear();
        self.shares.extend(pending.map(|j| (j, 0.0)));
        if self.shares.is_empty() {
            return false;
        }
        let total = view.total_capacity();
        for (j, share) in self.shares.iter_mut() {
            *share = view
                .job_allocated(*j)
                .dominant_share(&total, &Resource::ALL);
        }
        eligible_jobs_in_place(&mut self.shares, cfg.fairness_knob);
        true
    }
}
