//! Machine selection over one view: [`MachineQuery`], the §16 constraint
//! predicate both of its backends share, and the priority-preemption
//! planner every shipping policy calls.

use tetris_resources::ResourceVec;
use tetris_workload::{JobId, PlacementConstraints, PriorityClass, TaskUid};

use super::{Assignment, ClusterView, WorkingLedger};
use crate::cluster::MachineId;
use crate::state::{Phase, PlacementPlan};

impl<'a> ClusterView<'a> {
    /// Machine-selection interface (indexed when the simulation maintains
    /// the free-capacity index, linear-scan oracle otherwise). This is the
    /// only way a policy may enumerate machines — flat iteration lives on
    /// [`MachineQuery::iter_all`].
    pub fn query(&self) -> MachineQuery<'a> {
        MachineQuery { view: *self }
    }

    /// Number of distinct machines currently hosting running tasks of the
    /// job (the spread count of its constraint floor). Scans the job's own
    /// tasks (constrained jobs are small service waves), using a tiny vec
    /// for distinctness — replica counts stay far below any threshold
    /// where a hash set would win.
    pub fn job_spread(&self, j: JobId) -> usize {
        let mut machines: Vec<MachineId> = Vec::new();
        for stage in &self.state.workload.jobs[j.index()].stages {
            for t in &stage.tasks {
                if let Phase::Running(info) = &self.state.tasks[t.uid.index()].phase {
                    if !machines.contains(&info.machine) {
                        machines.push(info.machine);
                    }
                }
            }
        }
        machines.len()
    }

    /// Whether job `j`'s placement constraints allow machine `m` *right
    /// now* (DESIGN.md §16): taints, anti-affinity, affinity (vacuous
    /// while no listed job has a running task, so first replicas can
    /// bootstrap), and the spread floor (a machine already hosting the
    /// job is ineligible until its running tasks span the floor).
    /// Down/suspect filtering is *not* included — compose with the query
    /// layer's considered filter.
    pub fn constraints_allow(&self, j: JobId, m: MachineId) -> bool {
        self.allowed_by(j, self.job_constraints(j), m)
    }

    /// Whether job `j`'s machines must go through
    /// [`ClusterView::constraints_allow`] at all: the job carries §16
    /// constraints, or the cluster has taints. When false the predicate
    /// is the constant `true`: `WorkingLedger::allows` asks this first,
    /// so an unconstrained run pays one test a machine and no more.
    #[inline]
    pub fn job_constrained(&self, j: JobId) -> bool {
        !self.state.cfg.machine_taints.is_empty() || self.job_constraints(j).has_any()
    }

    /// The §16 constraint predicate for job `j` under `cons`, shared
    /// verbatim by both query backends and
    /// [`ClusterView::constraints_allow`] so indexed and linear paths
    /// cannot drift.
    fn allowed_by(&self, j: JobId, cons: &PlacementConstraints, m: MachineId) -> bool {
        // Taints: every taint bit of the machine must be tolerated. Checked
        // even when the rest of the constraint set is empty — taints live on
        // the cluster config, not the job spec.
        if self.machine_taint(m) & !cons.tolerations != 0 {
            return false;
        }
        if !cons.has_any() {
            return true;
        }
        // Anti-affinity: a machine hosting any listed job is ineligible.
        if cons.anti_affinity.iter().any(|&aj| self.hosts_job(m, aj)) {
            return false;
        }
        // Affinity: while at least one listed job has a running task
        // anywhere, only machines hosting one are eligible. Vacuous when
        // none runs, so the first replica can bootstrap anywhere.
        if !cons.affinity.is_empty() {
            let anywhere = cons.affinity.iter().any(|&aj| self.job_running(aj) > 0);
            if anywhere && !cons.affinity.iter().any(|&aj| self.hosts_job(m, aj)) {
                return false;
            }
        }
        // Spread floor: a machine already hosting this job is ineligible
        // until the job's running tasks span the floor.
        if let Some(n) = cons.spread {
            if self.hosts_job(m, j) && self.job_spread(j) < n {
                return false;
            }
        }
        true
    }

    /// True iff at least one running task of job `j` is hosted on `m` —
    /// resolved through the machine's resident list (placement order),
    /// which is short relative to the job's task count.
    fn hosts_job(&self, m: MachineId, j: JobId) -> bool {
        let residents = self.machine_tasks(m);
        residents.iter().any(|&uid| self.state.job_of(uid) == j)
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
/// Availability is the view's, a shard's commit ledger included; the
/// index's unscoped bounds stay sound, as commits only *lower*
/// availability.
pub struct MachineQuery<'a> {
    view: ClusterView<'a>,
}

impl<'a> MachineQuery<'a> {
    /// True when queries are served by the free-capacity index.
    pub fn indexed(&self) -> bool {
        self.view.state.index.enabled
    }

    /// All machine ids in id order, down and suspect included — the flat
    /// iteration that used to live on `ClusterView::machines()`. Prefer
    /// the filtered queries; this exists for whole-cluster passes
    /// (starvation sweeps, slot inventories).
    pub fn iter_all(&self) -> impl Iterator<Item = MachineId> {
        (0..self.view.num_machines()).map(MachineId)
    }

    /// The considered machines in id order: the linear backend's scan.
    fn considered(&self) -> impl Iterator<Item = MachineId> + 'a {
        let view = self.view;
        (0..view.num_machines())
            .map(MachineId)
            .filter(move |&m| !view.is_down(m) && !view.is_suspect(m))
    }

    /// Number of machines that are neither down nor suspect.
    pub fn considered_count(&self) -> usize {
        if self.indexed() {
            self.view.state.index.considered_count()
        } else {
            self.considered().count()
        }
    }

    /// Component-wise maximum capacity over considered machines (the
    /// demand-clamping envelope of the scheduler prefilter).
    pub fn capacity_envelope(&self) -> ResourceVec {
        if self.indexed() {
            self.view.state.index.capacity_envelope()
        } else {
            self.considered().fold(ResourceVec::zero(), |env, m| {
                env.max(&self.view.capacity(m))
            })
        }
    }

    /// Component-wise maximum of non-negative-clamped availability over
    /// considered machines — exact on both backends (the indexed descent
    /// stops early but never below the true maximum).
    pub fn availability_envelope(&self) -> ResourceVec {
        let available = |m: MachineId| self.view.available(m);
        if self.indexed() {
            let index = &self.view.state.index;
            index.availability_envelope(|mi| available(MachineId(mi)))
        } else {
            self.considered().fold(ResourceVec::zero(), |env, m| {
                env.max(&available(m).clamp_non_negative())
            })
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
        if self.indexed() {
            let index = &self.view.state.index;
            index.floor_candidates_into(min_cpu, min_mem, out);
        } else {
            out.clear();
            out.extend(self.considered());
        }
    }

    /// Considered machines the demand fits on right now (exact
    /// availability check, raw — not clamped) **and** that `job`'s
    /// placement constraints allow, ascending by id — the one fit query
    /// (DESIGN.md §16). The indexed backend composes the bucketed
    /// superset prune with the exact availability re-filter and the
    /// constraint predicate; the linear oracle applies the identical
    /// predicate, so both backends return the same list (`prop_index.rs`
    /// pins this). The constraint filter
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
        let view = self.view;
        let fits = |m: MachineId| {
            demand.fits_within(&view.available(m)) && view.allowed_by(job, constraints, m)
        };
        if self.indexed() {
            let mut raw = Vec::new();
            view.state.index.fits_superset_into(demand, &mut raw);
            let superset = raw.into_iter().map(|mi| MachineId(mi as usize));
            superset.filter(|&m| fits(m)).collect()
        } else {
            self.considered().filter(|&m| fits(m)).collect()
        }
    }
}

/// Plan one priority-preemptive assignment, if the round needs one
/// (DESIGN.md §16). Shared epilogue for Tetris and the slot baselines:
/// policies call it after their ordinary placement loop with the ledger
/// that loop charged, and append the result (if any) to the batch.
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
    ledger: &WorkingLedger,
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
        if ledger.placed_any(j) {
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
    for m in query.considered() {
        if !view.constraints_allow(job, m) {
            continue;
        }
        view.plan_into(task, m, &mut plan);
        // What this call's placements left, not what the view shows.
        let left = |m| ledger.residual(m, view.available(m));
        // Remote demands must fit without eviction: evicting here frees
        // nothing on the input hosts.
        if plan
            .remote
            .iter()
            .any(|&(rm, ref dem)| !dem.fits_within(&left(rm)))
        {
            continue;
        }
        let mut avail = left(m);
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
