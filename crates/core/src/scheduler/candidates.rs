//! This call's candidates: the per-job caches events invalidate, the
//! fairness cut (§3.4), assembly from the caches (§3.5's barrier
//! promotion included) and the jobs' remaining-work ranks (§3.3).

use tetris_resources::ResourceVec;
use tetris_sim::{ClusterView, MachineId, SchedulerEvent, StageProgress};
use tetris_workload::{JobId, TaskUid};

use super::avail::Blocked;
use super::{PassRecord, TetrisConfig, TetrisScheduler};
use crate::barrier::stage_promoted;
use crate::estimate::EstimationMode;
use crate::fairness::{eligible_jobs_in_place, job_share};
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
    /// The job's candidates as the call assembling them starts them, one
    /// a pending stage; `pref` indexes `prefs`.
    protos: Vec<Candidate>,
    /// Preference-list storage behind `protos[..].pref`.
    prefs: Vec<MachineId>,
}

/// Event-invalidated incremental state: the per-job candidate caches.
#[derive(Default)]
pub(super) struct IncState {
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
    /// Whether this call may reuse a valid entry ([`IncState::invalidate`]).
    reuse: bool,
    /// Per-job caches, indexed by job id (grown on demand).
    cache: Vec<JobCache>,
    /// The rebuild slot of cache-off calls: growing `cache` to the highest
    /// job id for entries that are never revalidated would be pure
    /// allocation, a real cost when a sharded driver runs many cold passes.
    cold: JobCache,
}

impl IncState {
    /// Note what an event dirtied.
    pub(super) fn on_event(&mut self, event: &SchedulerEvent) {
        self.synced = true;
        match *event {
            // Anything that moves a job's progress or pending queues
            // dirties exactly that job's cached candidates.
            SchedulerEvent::JobArrived { job }
            | SchedulerEvent::TaskPlaced { job, .. }
            | SchedulerEvent::TaskFinished { job, .. }
            | SchedulerEvent::TaskPreempted { job, .. }
            | SchedulerEvent::TaskAbandoned { job, .. }
            | SchedulerEvent::TaskRunnable { job, .. } => self.dirty.push(job),
            // Crash/recovery re-replicates blocks: every cached preference
            // list may be stale, so flush the lot (rare events).
            SchedulerEvent::MachineDown { .. } | SchedulerEvent::MachineUp { .. } => {
                self.flush_all = true;
            }
        }
    }

    /// Invalidate what the events since the last call dirtied. An entry is
    /// reused only once events flow (`synced`) and under the `Exact`
    /// estimator (`Learned` keys off cross-job family state the per-job
    /// events don't cover); otherwise every entry is rebuilt each call.
    pub(super) fn invalidate(&mut self, cfg: &TetrisConfig, pass: &mut PassRecord) {
        self.reuse = self.synced && matches!(cfg.estimation, EstimationMode::Exact);
        pass.prov.cache_flushed = !self.reuse || self.flush_all;
        pass.prov.dirty_jobs = self.dirty.len() as u32;
        if pass.prov.cache_flushed {
            for c in self.cache.iter_mut() {
                c.valid = false;
            }
            self.flush_all = false;
        } else {
            for &j in &self.dirty {
                if let Some(c) = self.cache.get_mut(j.index()) {
                    c.valid = false;
                }
            }
        }
        self.dirty.clear();
    }
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
        // One pass per eligible job: rebuild its cache entry if an event
        // dirtied it (or caching is off), then assemble candidates from it.
        // A warm entry is byte-for-byte a rebuilt one (pinned by
        // `tests/schedule_equivalence.rs` and the incremental proptest).
        let reference = view.total_capacity() / view.num_machines() as f64;
        set.p_scores.clear();
        set.list.clear();
        set.preferred_arena.clear();
        for &(j, _) in set.shares.iter() {
            let ji = j.index();
            let cached = if inc.reuse {
                if inc.cache.len() <= ji {
                    inc.cache.resize_with(ji + 1, JobCache::default);
                }
                &mut inc.cache[ji]
            } else {
                inc.cold.valid = false;
                &mut inc.cold
            };
            if cached.valid {
                pass.prov.cache_hits += 1;
            } else {
                pass.prov.cache_rebuilds += 1;
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
                cached.valid = inc.reuse;
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
        let total_capacity = view.total_capacity();
        let running = |&(j, _): &(JobId, f64)| view.job_running(j);
        let total_slots = self.shares.iter().map(running).sum::<usize>() + view.num_pending();
        for (j, share) in self.shares.iter_mut() {
            *share = job_share(
                cfg.fairness_measure,
                &view.job_allocated(*j),
                view.job_running(*j),
                &total_capacity,
                total_slots.max(1),
            );
        }
        eligible_jobs_in_place(&mut self.shares, cfg.fairness_knob);
        true
    }
}
