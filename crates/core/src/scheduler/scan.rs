//! The machines one call visits, and the greedy fill over them: the best
//! candidate by alignment + ε·SRTF with the remote penalty (§3.2–3.3)
//! that fits is placed, until none does.

use tetris_resources::{Resource, ResourceVec};
use tetris_sim::{
    Assignment, ClusterView, DecisionScores, MachineId, PlacementProvenance, PlanFailure,
    RejectedCandidate,
};

use super::bans::{blocked_memo, visible, StampGrid};
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
    /// The current machine-iteration's scores, kept under capture only.
    scored: Vec<Scored>,
}

impl TetrisScheduler {
    /// This call's machines — the freed-machine hint, or on a cold pass the
    /// query's floor candidates — with the live candidates, norms, ledger
    /// and ban grid the fill starts from.
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
        let (rows, cols) = (self.cands.list.len(), view.num_machines());
        self.banned.begin(rows, cols);

        // Envelope prefilter: a candidate whose (capacity-clamped) demand
        // exceeds the per-dimension *maximum* availability over all
        // considered machines fits nowhere — skip it for the whole call.
        // Valid throughout: availability only shrinks as we place. Cold
        // passes take the envelopes from the query (the indexed backend
        // answers without scanning the cluster); warm passes fold over
        // the hinted worklist.
        let (cap_env, avail_env) = if cold {
            (query.capacity_envelope(), query.availability_envelope())
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
        self.ban_constrained(view);
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

    /// Placement constraints (§16 spec API): pre-ban every (candidate,
    /// machine) pair the ledger's constraint rule disallows, reusing the
    /// `banned` stamp grid so the scoring scans need no extra per-pair
    /// checks. Unconstrained runs insert nothing (`banned.any` stays
    /// false), keeping all-batch decisions byte-identical to the
    /// pre-constraint scheduler.
    fn ban_constrained(&mut self, view: &ClusterView<'_>) {
        let (work, cands) = (&self.work, &self.cands.list);
        let constrained = |ci: usize| view.job_constrained(cands[ci].job);
        for &ci in work.live.iter().filter(|&&ci| constrained(ci)) {
            for &m in work.machines.iter() {
                if !self.ledger.allows(view, cands[ci].job, m) {
                    self.banned.insert(ci, m.index());
                }
            }
        }
    }

    /// Fill each machine greedily: pick the highest-scoring candidate that
    /// fits, charge it, repeat until nothing fits (§3.2 "this process is
    /// repeated recursively until the machine cannot accommodate any
    /// further tasks"). A reserved machine takes its starved task or
    /// nothing (§3.5).
    pub(super) fn fill(&mut self, view: &ClusterView<'_>, pass: &PassRecord) -> Vec<Assignment> {
        let mut out = Vec::new();
        // Verbose tracing: attach provenance to each assignment. Capture
        // is write-only bookkeeping — it never changes decisions.
        let capture = view.capture_provenance();
        let io = self.cfg.consider_io_dims;
        let (min_cpu, min_mem) = self.work.floor;
        for i in 0..self.work.machines.len() {
            let m = self.work.machines[i];
            if self.redeem(view, m, &mut out) {
                continue;
            }
            let capacity = view.capacity(m);
            let cls = self.work.class_of[m.index()];
            loop {
                let a = self.ledger.available(view, m);
                let below_floor = a.get(Resource::Cpu) < min_cpu || a.get(Resource::Mem) < min_mem;
                if self.work.live.is_empty() || below_floor {
                    break;
                }
                let a_vis = visible(io, &a).clamp_non_negative();
                let avail_norm = a_vis.normalized_by(&capacity);
                let scan = Scan {
                    view,
                    cands: &self.cands.list,
                    norms_arena: &self.work.norms_arena,
                    preferred_arena: &self.cands.preferred_arena,
                    banned: &self.banned,
                    scorer: &self.scorer,
                    cfg: &self.cfg,
                    skip_blocked: !capture,
                };
                #[cfg(debug_assertions)]
                for c in self.work.live.iter().map(|&ci| &self.cands.list[ci]) {
                    if c.alive && c.blocked_on(view, m) {
                        let head = c.head(view).expect("candidate head");
                        super::bans::assert_blocked(&mut self.ledger, view, head, m);
                    }
                }
                // The best candidate by (promoted, score); provenance capture
                // also keeps every score, not just the winner's.
                let (live, scored) = (&self.work.live, &mut self.work.scored);
                let best = if capture {
                    scored.clear();
                    scan.best(live, m, cls, &avail_norm, |s| scored.push(s))
                } else {
                    scan.best(live, m, cls, &avail_norm, |_| {})
                };
                let Some((ci, _, combined, alignment)) = best else {
                    break;
                };

                // The normalized check was a prefilter; the plan decides.
                let c = &self.cands.list[ci];
                let (uid, job) = (c.head(view).expect("candidate head"), c.job);
                // Under capture the scan scored memo-blocked candidates
                // too; the memo answers for them here, without a plan.
                if c.blocked_on(view, m) {
                    self.banned.insert(ci, m.index());
                    continue;
                }
                #[cfg(test)]
                self.planned.push((uid, m));
                if let Err(why) = self.ledger.try_place(view, uid, m) {
                    if why == PlanFailure::Source && !view.task_reads_locally(uid, m) {
                        self.cands.list[ci].blocked = blocked_memo(&mut self.ledger, view, uid);
                    }
                    self.banned.insert(ci, m.index());
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
                self.cands.list[ci].advance(view);
                // The ledger's in-call spread rule may have closed `m` to
                // the job: to each of its candidates.
                if !self.ledger.allows(view, job, m) {
                    for &cj in self.work.live.iter() {
                        if self.cands.list[cj].job == job {
                            self.banned.insert(cj, m.index());
                        }
                    }
                }
            }
        }
        out
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
