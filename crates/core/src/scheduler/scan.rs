//! The machines one call visits, and the greedy fill over them: the best
//! candidate by alignment + ε·SRTF with the remote penalty (§3.2–3.3)
//! that fits is placed, until none does.

use tetris_resources::{Resource, ResourceVec};
use tetris_sim::{
    Assignment, ClusterView, DecisionScores, MachineId, PlacementProvenance, PlanFailure,
    RejectedCandidate,
};
use tetris_workload::TaskUid;

use super::bans::{blocked_memo, visible, Blocked};
use super::candidates::Candidate;
use super::{PassRecord, TetrisConfig, TetrisScheduler};
use crate::srtf::CombinedScorer;

/// How many runner-up candidates a verbose trace records per placement.
const PROVENANCE_TOP_K: usize = 3;

/// One scored candidate on one machine: `(candidate index, promoted,
/// combined score, alignment)`.
type Scored = (usize, bool, f64, f64);

/// The machines one call visits and the tables their scans read.
#[derive(Default)]
pub(super) struct Worklist {
    /// Machines considered this call, ascending.
    machines: Vec<MachineId>,
    /// Indices of candidates that survived the envelope prefilter.
    live: Vec<usize>,
    /// No live candidate demands less CPU (`.0`) or memory (`.1`).
    floor: (f64, f64),
    /// Distinct machine capacities and each machine's class index.
    classes: Vec<ResourceVec>,
    class_of: Vec<usize>,
    /// Arena behind `Candidate::norms_start`.
    norms_arena: Vec<(ResourceVec, ResourceVec)>,
    /// The current machine's fit list: the live candidates not yet ruled
    /// out there, in `live` order.
    fit: Vec<Fit>,
    /// The current machine-iteration's scores, kept under capture only.
    scored: Vec<Scored>,
    /// What the memos leave the walk: how many live heads have none, and per
    /// machine (the call that last counted it, memo-blocked heads that can
    /// use it). A machine no head can use resets an empty fit list.
    unblocked: usize,
    domains: Vec<(u64, i32)>,
    calls: u64,
}

impl Worklist {
    /// True when no live head can use `m`.
    fn skips(&self, m: MachineId) -> bool {
        let (call, heads) = self.domains[m.index()];
        self.unblocked == 0 && (call != self.calls || heads == 0)
    }

    /// Count candidate `c`, if it has a head and norms (is live), in (`add`)
    /// or out as its memo stands: a memo-blocked head can use `s` for
    /// `Source(s)`, the machines it reads input from for `Remote`.
    fn count(&mut self, view: &ClusterView<'_>, c: &Candidate, add: bool) {
        if !c.alive || c.norms_start == usize::MAX {
            return;
        }
        let (call, d) = (self.calls, if add { 1 } else { -1 });
        let mut bump = |m: MachineId| {
            let e = &mut self.domains[m.index()];
            *e = (call, if e.0 == call { e.1 + d } else { d });
        };
        match c.blocked {
            Blocked::No if add => self.unblocked += 1,
            Blocked::No => self.unblocked -= 1,
            Blocked::Source(s) => bump(s),
            Blocked::Remote => {
                let head = c.head(view).expect("an alive candidate has a head");
                view.input_hosts(head).for_each(bump);
            }
        }
    }
}

/// One entry of a machine's fit list: what its scans read of a candidate
/// there, copied at the machine's first scan so they read nothing else.
#[derive(Clone, Copy)]
struct Fit {
    ci: usize,
    promoted: bool,
    /// The remote penalty applies: a shuffle reader, or a reader of stored
    /// input with no replica on the machine (§3.2).
    remote: bool,
    p: f64,
    /// Normalized demand on the machine's capacity class, NetIn dropped
    /// where the candidate reads locally.
    norm: ResourceVec,
}

impl TetrisScheduler {
    /// This call's machines — the freed-machine hint, or on a cold pass the
    /// query's floor candidates — with the live candidates and norms the
    /// fill starts from.
    pub(super) fn build_worklist(&mut self, view: &ClusterView<'_>, pass: &mut PassRecord) {
        let (query, work) = (view.query(), &mut self.work);
        // Down machines host nothing, and suspect ones give Tetris nothing
        // to score against: alignment is computed *from* tracker reports
        // (slot baselines, which never read usage, merely deprioritize
        // them). An exact no-op without fault injection.
        let considered = |m| !view.is_down(m) && !view.is_suspect(m);
        // Focus on machines whose availability changed (sorted + deduped:
        // the former `BTreeSet` order). A cold pass (no hint: arrivals,
        // tracker ticks, cache flushes) must consider the whole cluster;
        // that is the pass MachineQuery makes sublinear.
        work.machines.clear();
        work.machines.extend_from_slice(view.freed_machines());
        let cold = work.machines.is_empty();
        if !cold {
            work.machines.sort_unstable();
            work.machines.dedup();
            work.machines.retain(|&m| considered(m));
        }

        // Envelope prefilter: a candidate whose (capacity-clamped) demand
        // exceeds the per-dimension *maximum* availability over all
        // considered machines fits nowhere — skip it for the whole call.
        // Valid throughout: availability only shrinks as we place. Cold
        // passes take the envelopes from the query (the indexed backend
        // answers without scanning the cluster, and what it reads stays
        // in the ledger for the fill); warm passes fold over the hinted
        // worklist.
        let (cap_env, avail_env) = if cold {
            let avail_env = query.availability_envelope(&mut self.ledger);
            (query.capacity_envelope(), avail_env)
        } else {
            let zero = (ResourceVec::zero(), ResourceVec::zero());
            work.machines.iter().fold(zero, |(cap, avail), &m| {
                let a = self.ledger.available(view, m).clamp_non_negative();
                (cap.max(&view.capacity(m)), avail.max(&a))
            })
        };
        // The live candidates' cheapest clamped demand is the floor: a
        // machine below it hosts nothing and is skipped without scanning
        // (saturated-cluster fast path).
        work.live.clear();
        let (mut min_cpu, mut min_mem) = (f64::INFINITY, f64::INFINITY);
        for (ci, c) in self.cands.list.iter().enumerate() {
            let d = visible(self.cfg.consider_io_dims, &c.demand.min(&cap_env));
            // Local placements shed NetIn, so exclude it from pruning.
            let net_in = d.get(Resource::NetIn).min(avail_env.get(Resource::NetIn));
            if d.with(Resource::NetIn, net_in).fits_within(&avail_env) {
                work.live.push(ci);
                min_cpu = min_cpu.min(d.get(Resource::Cpu));
                min_mem = min_mem.min(d.get(Resource::Mem));
            }
        }
        work.floor = (min_cpu, min_mem);
        if cold {
            // The considered machines whose availability *upper bound*
            // meets the floor, ascending: each one this skips would hit the
            // fill's floor break at once, with no side effect. Reserved
            // machines are re-added (their branch runs before that break),
            // in order, so the fill visits machines as a full scan would.
            query.floor_candidates_into(min_cpu, min_mem, &mut work.machines);
            for &(rm, _) in self.reservations.iter() {
                if let Err(pos) = work.machines.binary_search(&rm) {
                    if considered(rm) {
                        work.machines.insert(pos, rm);
                    }
                }
            }
        }
        // Decision bookkeeping: how many machines this pass *considered*
        // (the pre-index cold-pass scope), and how many the index pruned.
        let n = work.machines.len();
        let scope = if cold { query.considered_count() } else { n };
        pass.considered = scope as u32;
        pass.prov.index_considered = n as u32;
        pass.prov.index_pruned = scope.saturating_sub(n) as u32;
        self.normalize(view);
    }

    /// Capacity classes (clusters have very few distinct machine specs):
    /// precompute each live candidate's normalized demand per class so the
    /// inner scan does no per-pair normalization. Classes cover the
    /// *worklist* only — class identity is just a shared capacity vector,
    /// so worklist-local class numbering yields the same normalized
    /// demands as whole-cluster numbering did.
    fn normalize(&mut self, view: &ClusterView<'_>) {
        let work = &mut self.work;
        work.classes.clear();
        if work.class_of.len() < view.num_machines() {
            // Grow-once: stale entries for machines outside this call's
            // worklist are never read, and an O(cluster) clear here would
            // defeat the sublinear cold pass.
            work.class_of.resize(view.num_machines(), 0);
        }
        for &m in work.machines.iter() {
            let cap = view.capacity(m);
            work.class_of[m.index()] = match work.classes.iter().position(|c| *c == cap) {
                Some(i) => i,
                None => {
                    work.classes.push(cap);
                    work.classes.len() - 1
                }
            };
        }
        work.norms_arena.clear();
        for &ci in work.live.iter() {
            let c = &mut self.cands.list[ci];
            c.norms_start = work.norms_arena.len();
            work.norms_arena.extend(work.classes.iter().map(|cap| {
                let norm =
                    visible(self.cfg.consider_io_dims, &c.demand.min(cap)).normalized_by(cap);
                let mut norm_local = norm;
                norm_local.set(Resource::NetIn, 0.0);
                (norm, norm_local)
            }));
        }
    }

    /// Fill each machine greedily: pick the highest-scoring candidate that
    /// fits, charge it, repeat until nothing fits (§3.2 "this process is
    /// repeated recursively until the machine cannot accommodate any
    /// further tasks"). A reserved machine takes its starved task or
    /// nothing (§3.5).
    ///
    /// Each machine keeps a fit list (`Worklist::fit`): reset from `live`
    /// at the machine's first scan, which drops the candidates the §16
    /// rule or the `blocked` memo refuses there and records each one's
    /// locality; every scan then drops what no longer fits. Exact: within
    /// one machine's loop its working availability only shrinks, and the
    /// rule, the memo and dead heads only ever exclude — `advance`, the
    /// one reset, touches only the candidate just placed, which stays
    /// while its stage has a head. The walk skips each machine that would
    /// reset an empty list (`Worklist::skips`).
    pub(super) fn fill(&mut self, view: &ClusterView<'_>, pass: &PassRecord) -> Vec<Assignment> {
        let mut out = Vec::new();
        // Verbose tracing: attach provenance to each assignment. Capture
        // is write-only bookkeeping — it never changes decisions.
        let capture = view.capture_provenance();
        let io = self.cfg.consider_io_dims;
        let (min_cpu, min_mem) = self.work.floor;
        self.begin_memos(view);
        // Not while a machine is reserved (it is redeemed first), nor under
        // capture, whose fit lists keep memo-blocked candidates.
        let prune = !capture && self.reservations.is_empty();
        for i in 0..self.work.machines.len() {
            let m = self.work.machines[i];
            if prune && self.work.skips(m) {
                #[cfg(debug_assertions)]
                self.assert_skippable(view, m);
                self.walk_skips += 1;
                continue;
            }
            if self.redeem(view, m, &mut out) {
                continue;
            }
            let capacity = view.capacity(m);
            let mut first = true;
            loop {
                let a = self.ledger.available(view, m);
                let below_floor = a.get(Resource::Cpu) < min_cpu || a.get(Resource::Mem) < min_mem;
                if self.work.live.is_empty() || below_floor {
                    break;
                }
                let a_vis = visible(io, &a).clamp_non_negative();
                let avail_norm = a_vis.normalized_by(&capacity);
                if std::mem::take(&mut first) {
                    self.reset_fit(view, m, !capture);
                }
                #[cfg(debug_assertions)]
                self.assert_fit_list(view, m, &avail_norm);
                let scan = Scan {
                    scorer: &self.scorer,
                    cfg: &self.cfg,
                };
                // The best candidate by (promoted, score); provenance capture
                // also keeps every score, not just the winner's.
                let (fit, scored) = (&mut self.work.fit, &mut self.work.scored);
                let best = if capture {
                    scored.clear();
                    scan.best(fit, &avail_norm, |s| scored.push(s))
                } else {
                    scan.best(fit, &avail_norm, |_| {})
                };
                let Some((ci, _, combined, alignment)) = best else {
                    break;
                };

                // The normalized check was a prefilter; the plan decides.
                // Under capture the scan scored memo-blocked candidates
                // too; the memo answers for them here, without a plan. A
                // head that does not fit leaves this machine's list.
                let c = &self.cands.list[ci];
                let (uid, job) = (c.head(view).expect("candidate head"), c.job);
                if c.blocked_on(view, m) || !self.place_head(view, ci, uid, m) {
                    self.work.fit.retain(|f| f.ci != ci);
                    continue;
                }
                let local = visible(io, &self.ledger.plan().local);
                let left = visible(io, &self.ledger.available(view, m));
                let a_placed = self.cfg.alignment.score(&local, &left, &capacity);
                self.scorer.observe_alignment(a_placed.max(0.0));
                let mut assignment = Assignment::new(uid, m).with_scores(DecisionScores {
                    alignment,
                    srtf: self.cands.list[ci].p,
                    combined,
                    considered_machines: pass.considered,
                });
                if capture {
                    let prov = provenance(view, &self.cands.list, &mut self.work.scored, ci, pass);
                    assignment = assignment.with_provenance(prov);
                }
                out.push(assignment);
                self.advance(view, ci);
                // A stage with no head left leaves the list, and so does
                // each of the job's candidates once the ledger's in-call
                // spread rule has closed `m` to the job.
                let closed = !self.ledger.allows(view, job, m);
                let cands = &self.cands.list;
                if closed || !cands[ci].alive {
                    let stays = |f: &Fit| cands[f.ci].alive && !(closed && cands[f.ci].job == job);
                    self.work.fit.retain(stays);
                }
            }
            #[cfg(debug_assertions)]
            if !first {
                let a = visible(io, &self.ledger.available(view, m)).clamp_non_negative();
                self.assert_fit_list(view, m, &a.normalized_by(&capacity));
            }
        }
        out
    }

    /// Start the call's memos: every live head is unblocked but one whose
    /// kept demands (of this replica epoch) a source refuses now.
    fn begin_memos(&mut self, view: &ClusterView<'_>) {
        if self.inc.kept_at != view.replica_epoch() {
            self.inc.kept_at = view.replica_epoch();
            self.inc.kept.clear();
        }
        let (live, work) = (self.work.live.len(), &mut self.work);
        let machines = view.num_machines().max(work.domains.len());
        work.domains.resize(machines, (0, 0));
        (work.calls, work.unblocked) = (work.calls + 1, live);
        for i in 0..live {
            self.kept_answers += u64::from(self.recall(view, self.work.live[i]));
        }
    }

    /// Set candidate `ci`'s memo from its head's kept demands, if any: true
    /// when it blocks. The one source of a memo, after or instead of a plan.
    fn recall(&mut self, view: &ClusterView<'_>, ci: usize) -> bool {
        if self.inc.kept.is_empty() {
            return false;
        }
        let c = &mut self.cands.list[ci];
        let Some(head) = c.head(view) else {
            return false;
        };
        let Some(remote) = self.inc.kept.get(&head) else {
            return false;
        };
        let memo = blocked_memo(&mut self.ledger, view, head, remote);
        self.work.count(view, c, false);
        c.blocked = memo;
        self.work.count(view, c, true);
        memo != Blocked::No
    }

    /// Move candidate `ci` past its placed head, and recall the next one's.
    pub(super) fn advance(&mut self, view: &ClusterView<'_>, ci: usize) {
        let (c, work) = (&mut self.cands.list[ci], &mut self.work);
        if let Some(placed) = c.head(view).filter(|_| !self.inc.kept.is_empty()) {
            self.inc.kept.remove(&placed);
        }
        work.count(view, c, false);
        c.advance(view);
        work.count(view, c, true);
        self.kept_answers += u64::from(self.recall(view, ci));
    }

    /// Plan candidate `ci`'s head `uid` on `m` and, if it fits, charge it.
    /// A plan that fails on a remote source, on a machine the head reads
    /// nothing from, earns the head its `blocked` memo, and its demands at
    /// the sources are kept.
    fn place_head(
        &mut self,
        view: &ClusterView<'_>,
        ci: usize,
        uid: TaskUid,
        m: MachineId,
    ) -> bool {
        #[cfg(test)]
        self.planned.push((uid, m));
        match self.ledger.try_place(view, uid, m) {
            Ok(()) => true,
            Err(why) => {
                if why == PlanFailure::Source && !view.task_reads_locally(uid, m) {
                    let plan = &self.ledger.plan().remote;
                    let kept = self.inc.kept.entry(uid).or_insert_with(|| plan.clone());
                    debug_assert_eq!(kept, plan, "{uid:?}'s kept demands are not its plan's");
                    self.recall(view, ci);
                }
                false
            }
        }
    }

    /// Reset the fit list at `m`'s first scan: the live candidates with a
    /// head that the §16 rule admits there and, with `skip_blocked`, that
    /// the `blocked` memo does not rule out, each with its locality on `m`.
    /// The rule is asked of the working ledger before anything is placed
    /// on `m`, so it is the view's answer for the whole call. Under
    /// provenance capture the memo-blocked candidates stay, for `scored`
    /// to keep, and the greedy loop drops each one it picks.
    fn reset_fit(&mut self, view: &ClusterView<'_>, m: MachineId, skip_blocked: bool) {
        let (work, cands) = (&mut self.work, &self.cands);
        let cls = work.class_of[m.index()];
        work.fit.clear();
        for &ci in work.live.iter() {
            let c = &cands.list[ci];
            if !c.alive
                || !self.ledger.allows(view, c.job, m)
                || (skip_blocked && c.blocked_on(view, m))
            {
                continue;
            }
            let preferred = c.preferred(&cands.preferred_arena);
            let local = !c.shuffle && preferred.binary_search(&m).is_ok();
            let (norm, norm_local) = work.norms_arena[c.norms_start + cls];
            work.fit.push(Fit {
                ci,
                promoted: c.promoted,
                remote: c.shuffle || (c.pref.1 != 0 && !local),
                p: c.p,
                norm: if local { norm_local } else { norm },
            });
        }
    }

    /// Debug builds check each machine the walk skips: every live head is
    /// memo-blocked there, and its plan fails there on a source.
    #[cfg(debug_assertions)]
    fn assert_skippable(&mut self, view: &ClusterView<'_>, m: MachineId) {
        for &ci in self.work.live.iter() {
            let (c, io) = (&self.cands.list[ci], self.cfg.consider_io_dims);
            let Some(head) = c.head(view) else { continue };
            assert!(c.blocked_on(view, m), "{head:?} can use {m:?}");
            super::bans::assert_unplaceable(&mut self.ledger, view, head, m, !io, true);
        }
    }

    /// Debug builds check the fit list before every scan and after a
    /// machine's last: every live candidate missing from it must still
    /// fail on `m` — its head gone, the §16 rule refusing the job, its
    /// normalized demand over `avail_norm`, or its plan failing against
    /// the working ledger (on a source, where the `blocked` memo
    /// answered). Every suite that drives Tetris in a debug build
    /// therefore exercises the exactness argument on [`Self::fill`].
    #[cfg(debug_assertions)]
    fn assert_fit_list(&mut self, view: &ClusterView<'_>, m: MachineId, avail_norm: &ResourceVec) {
        let cls = self.work.class_of[m.index()];
        let mut fit = self.work.fit.iter().map(|f| f.ci).peekable();
        for &ci in self.work.live.iter() {
            if fit.next_if_eq(&ci).is_some() {
                continue;
            }
            let c = &self.cands.list[ci];
            let Some(head) = c.head(view) else { continue };
            if !self.ledger.allows(view, c.job, m) {
                continue;
            }
            let arena = &self.cands.preferred_arena;
            let local = !c.shuffle && c.preferred(arena).binary_search(&m).is_ok();
            let (norm, norm_local) = &self.work.norms_arena[c.norms_start + cls];
            if !(if local { norm_local } else { norm }).fits_within(avail_norm) {
                continue;
            }
            let on_source = c.blocked_on(view, m);
            let cpu_mem_only = !self.cfg.consider_io_dims;
            super::bans::assert_unplaceable(
                &mut self.ledger,
                view,
                head,
                m,
                cpu_mem_only,
                on_source,
            );
        }
    }
}

/// Runner-up candidates on the winning machine, best first, so `explain`
/// can show what the winner `ci` beat. Recorded after the decision: pure
/// bookkeeping, never feeds back into scoring.
fn provenance(
    view: &ClusterView<'_>,
    cands: &[Candidate],
    scored: &mut [Scored],
    ci: usize,
    pass: &PassRecord,
) -> PlacementProvenance {
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
    PlacementProvenance {
        candidates: scored.len() as u32,
        rejected,
        ..pass.prov.clone()
    }
}

/// What one scoring scan reads besides the fit list, borrowed between the
/// greedy loop's mutations (head advances, fit-list drops, the scorer's
/// running ā).
struct Scan<'a> {
    scorer: &'a CombinedScorer,
    cfg: &'a TetrisConfig,
}

impl Scan<'_> {
    /// Score the fit list against a machine (normalized availability
    /// `avail_norm`) and return the best, compacting the list in place, in
    /// order, to the candidates that still fit. The comparison is
    /// strictly-greater on `(promoted, score)`, so the *earliest* maximal
    /// candidate wins. Every feasible candidate is also handed to `each` —
    /// the provenance sink under verbose tracing, an empty closure the
    /// compiler removes otherwise — so default and verbose passes run this
    /// one loop.
    fn best(
        self,
        fit: &mut Vec<Fit>,
        avail_norm: &ResourceVec,
        mut each: impl FnMut(Scored),
    ) -> Option<Scored> {
        let Scan { scorer, cfg } = self;
        let mut best: Option<Scored> = None;
        let mut kept = 0;
        for i in 0..fit.len() {
            let f = fit[i];
            // Feasibility in normalized space (capacity-relative); the
            // demand was clamped to the class capacity, so a deliberate
            // over-estimate (§4.1) cannot make the task unplaceable
            // everywhere.
            if !f.norm.fits_within(avail_norm) {
                continue;
            }
            fit[kept] = f;
            kept += 1;
            let mut a = cfg.alignment.score_normalized(&f.norm, avail_norm);
            if f.remote {
                a *= 1.0 - cfg.remote_penalty;
            }
            let score = if f.promoted {
                // Promoted stragglers rank above everyone and are ordered
                // among themselves by alignment (§3.5).
                a
            } else {
                scorer.combined(a, f.p)
            };
            each((f.ci, f.promoted, score, a));
            let better = match best {
                None => true,
                Some((_, bp, bs, _)) => (f.promoted, score) > (bp, bs),
            };
            if better {
                best = Some((f.ci, f.promoted, score, a));
            }
        }
        fit.truncate(kept);
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_resources::units::{GB, MB};
    use tetris_resources::MachineSpec;
    use tetris_sim::probe::ScheduleProbe;
    use tetris_sim::{ClusterConfig, SchedulerPolicy, SimConfig};
    use tetris_workload::{InputSource, InputSpec, TaskParams, Workload, WorkloadBuilder};

    /// What one cold call of Tetris did, and what it found: each
    /// machine's normalized availability, and whether task 0 reads
    /// locally there.
    #[derive(Default)]
    struct Call {
        placed: Vec<(TaskUid, MachineId)>,
        alignment: Vec<f64>,
        planned: Vec<(TaskUid, MachineId)>,
        avail_norm: Vec<ResourceVec>,
        reads_locally: Vec<bool>,
    }

    /// Forwards one call to a borrowed Tetris and fills a [`Call`].
    struct Spy<'a> {
        inner: &'a mut TetrisScheduler,
        call: Call,
    }

    impl SchedulerPolicy for Spy<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn uses_tracker(&self) -> bool {
            self.inner.uses_tracker()
        }
        fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
            let norm = |m| {
                view.available(m)
                    .clamp_non_negative()
                    .normalized_by(&view.capacity(m))
            };
            let local = |m| view.task_reads_locally(TaskUid(0), m);
            self.call.avail_norm = view.query().iter_all().map(norm).collect();
            self.call.reads_locally = view.query().iter_all().map(local).collect();
            let out = self.inner.schedule(view);
            self.call.placed = out.iter().map(|a| (a.task, a.machine)).collect();
            let scores = |a: &Assignment| a.scores.as_ref().expect("scores").alignment;
            self.call.alignment = out.iter().map(scores).collect();
            self.call.planned = self.inner.planned.clone();
            out
        }
    }

    fn machine() -> MachineSpec {
        MachineSpec::new()
            .cores(4.0)
            .memory(16.0 * GB)
            .disks(1, 100.0 * MB)
            .nic(125.0 * MB)
    }

    /// Tetris's one cold call on `workload`, two [`machine`]s, one
    /// replica a block and `seed`.
    fn one_call(workload: Workload, seed: u64) -> Call {
        let mut cfg = SimConfig::default();
        cfg.seed = seed;
        cfg.replication = 1;
        let probe = ScheduleProbe::new(ClusterConfig::uniform(2, machine()), workload, cfg);
        let mut tetris = TetrisScheduler::new(TetrisConfig::default());
        let mut spy = Spy {
            inner: &mut tetris,
            call: Call::default(),
        };
        probe.measure(&mut spy);
        spy.call
    }

    /// A task of `cores` cores and 1 GB that computes for 10 s.
    fn task(cores: f64, inputs: Vec<InputSpec>) -> TaskParams {
        TaskParams {
            cores,
            mem: GB,
            duration: 10.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs,
            output_bytes: 0.0,
            remote_frac: 1.0,
        }
    }

    #[test]
    fn locality_is_read_on_each_machine() {
        // Two 3-core readers of one block with one replica, so each machine
        // takes one. The stage's candidate reads locally on the replica's
        // holder and remotely on the other machine: scored there with its
        // NetIn demand and the remote penalty, on the holder with neither.
        let workload = || {
            let mut b = WorkloadBuilder::new();
            let j = b.begin_job("readers", None, 0.0);
            let block = b.new_block();
            let input = InputSpec {
                source: InputSource::Stored(block),
                bytes: 300.0 * MB,
            };
            b.add_stage(j, "read", vec![], 2, |_| task(3.0, vec![input]));
            b.finish()
        };
        // Replica placement is the simulator's seeded choice: take the
        // first seed that puts it on machine 0, the machine filled first.
        let call = (0..64)
            .map(|seed| one_call(workload(), seed))
            .find(|call| call.reads_locally == [true, false])
            .expect("a seed in 0..64 puts the replica on machine 0");
        let (holder, other) = (MachineId(0), MachineId(1));
        assert_eq!(call.placed, [(TaskUid(0), holder), (TaskUid(1), other)]);
        let cap = machine().capacity();
        let demand = workload().jobs[0].stages[0].tasks[0].demand;
        assert!(
            demand.get(Resource::NetIn) > 0.0,
            "a remote read needs NetIn"
        );
        let norm = demand.min(&cap).normalized_by(&cap);
        let local = norm.with(Resource::NetIn, 0.0).dot(&call.avail_norm[0]);
        let remote = norm.dot(&call.avail_norm[1]) * (1.0 - TetrisConfig::default().remote_penalty);
        assert!((local - remote).abs() > 1e-3, "{local} vs {remote}");
        assert_eq!(call.alignment, [local, remote]);
    }

    #[test]
    fn a_failed_plan_drops_the_candidate_on_that_machine_only() {
        // The stage's candidate carries its first task's demand, 1 core;
        // its second task wants all 4. Machine 0 takes the first, and the
        // second's plan there fails at the host with 3 cores left, though
        // the candidate's normalized demand fits: off machine 0's list,
        // and onto machine 1, whose list is reset from `live`. Run on a
        // thread: a candidate left on the list would be picked, and fail,
        // forever.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("stage", None, 0.0);
        b.add_stage(j, "s", vec![], 2, |i| task([1.0, 4.0][i], vec![]));
        let workload = b.finish();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let call = one_call(workload, 1);
            tx.send((call.placed, call.planned))
                .expect("the test waits");
        });
        let (placed, planned) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the fill ends");
        let (m0, m1) = (MachineId(0), MachineId(1));
        assert_eq!(placed, [(TaskUid(0), m0), (TaskUid(1), m1)]);
        assert_eq!(
            planned,
            [(TaskUid(0), m0), (TaskUid(1), m0), (TaskUid(1), m1)]
        );
    }
}
