//! Machine selection over one view: [`MachineQuery`], the §16 constraint
//! predicate both of its backends share, and the priority-preemption
//! planner every shipping policy calls.

use std::sync::atomic::Ordering;

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

    /// Number of distinct machines currently hosting running tasks of job
    /// `j`, which must have a spread floor: the spread count of that
    /// floor (DESIGN.md §16). The state keeps it as tasks start and stop,
    /// so this is one read; debug builds recount it from the job's tasks.
    pub fn job_spread(&self, j: JobId) -> usize {
        debug_assert!(
            self.job_constraints(j).spread.is_some(),
            "{j:?} has no spread floor, so nothing counts its hosts"
        );
        let hosts = self.state.jobs[j.index()].hosts;
        debug_assert_eq!(hosts, self.spread_recount(j), "{j:?}'s host count");
        hosts
    }

    /// [`ClusterView::job_spread`] recounted from the job's own tasks.
    fn spread_recount(&self, j: JobId) -> usize {
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

    /// True iff at least one running task of job `j` is hosted on `m`.
    fn hosts_job(&self, m: MachineId, j: JobId) -> bool {
        self.state.hosts_job(m, j)
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
    /// stops early but never below the true maximum). Availability is
    /// read through `ledger`, begun on this view and charged nothing yet:
    /// its stamp is the call's memo, so the descent, which may ask for a
    /// machine once per resource, reads the view once, and the caller's
    /// own reads of the same machines afterwards are free.
    pub fn availability_envelope(&self, ledger: &mut WorkingLedger) -> ResourceVec {
        let view = self.view;
        if self.indexed() {
            let index = &view.state.index;
            let mut visits = 0;
            let env = index.availability_envelope(|mi| {
                let m = MachineId(mi);
                visits += u64::from(!ledger.has_read(m));
                ledger.available(&view, m)
            });
            index.stats.env_visits.fetch_add(visits, Ordering::Relaxed);
            env
        } else {
            self.considered().fold(ResourceVec::zero(), |env, m| {
                env.max(&ledger.available(&view, m).clamp_non_negative())
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
    /// placement constraints allow, ascending by id, lazily — the one fit
    /// query (DESIGN.md §16). A caller that asks whether anything fits
    /// takes `.next()` and reads no machine past the first fit. Both
    /// backends walk the ids in order and apply the identical predicate;
    /// the indexed one first drops a machine whose availability upper
    /// bound already refuses the demand, before reading its availability
    /// (`prop_index.rs` pins the two equal). The constraint filter is
    /// exact, never an inflated demand envelope: folding constraints into
    /// the demand vector would change which machines prune and is not
    /// decision-safe.
    ///
    /// `job` is the placing task's owning job — needed because spread
    /// and self-exclusion are evaluated against that job's own running
    /// replicas, not just the constraint literals.
    pub fn fits_constrained<'c>(
        &self,
        demand: &ResourceVec,
        job: JobId,
        constraints: &'c PlacementConstraints,
    ) -> impl Iterator<Item = MachineId> + 'c
    where
        'a: 'c,
    {
        let (view, demand) = (self.view, *demand);
        let index = &view.state.index;
        let candidate = move |m: MachineId| {
            if index.enabled {
                index.may_fit(m.index(), &demand)
            } else {
                !view.is_down(m) && !view.is_suspect(m)
            }
        };
        (0..view.num_machines()).map(MachineId).filter(move |&m| {
            candidate(m)
                && demand.fits_within(&view.available(m))
                && view.allowed_by(job, constraints, m)
        })
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
    if query.fits_constrained(&demand, job, cons).next().is_some() {
        return None;
    }

    // Best (victim-count, machine) plan across eligible machines; one
    // plan and two victim lists serve every machine. Machines come in
    // ascending id order, so the first one-victim plan is the answer: no
    // later machine has fewer victims, and a tie goes to the lower id.
    let cap = view.max_evictions();
    let mut best: Option<MachineId> = None;
    let mut plan = PlacementPlan::default();
    let (mut victims, mut best_victims) = (Vec::new(), Vec::new());
    // What this call's placements left, not what the view shows; a
    // machine the call has read costs no second read of the view.
    let left = |m| ledger.residual(m, || view.available(m));
    for m in query.considered() {
        // A machine with no lower-priority resident has no victims: it is
        // skipped before the constraint predicate and the plan.
        let evictable = view
            .machine_tasks(m)
            .iter()
            .any(|&v| view.task_priority(v) < prio);
        if !evictable || !view.constraints_allow(job, m) {
            continue;
        }
        view.plan_into(task, m, &mut plan);
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
                if let Some((_, alloc)) = view.running_on(v) {
                    avail += alloc;
                    victims.push(v);
                }
            }
        }
        if !victims.is_empty()
            && plan.local.fits_within(&avail)
            && best.is_none_or(|_| victims.len() < best_victims.len())
        {
            best = Some(m);
            std::mem::swap(&mut victims, &mut best_victims);
            if best_victims.len() == 1 {
                break;
            }
        }
    }
    let machine = best?;
    Some(Assignment::new(task, machine).with_evictions(best_victims))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::config::SimConfig;
    use crate::state::tests::params;
    use crate::state::SimState;
    use tetris_resources::MachineSpec;
    use tetris_workload::WorkloadBuilder;

    #[test]
    fn the_first_machine_with_fewest_victims_wins() {
        // Four full 4-core machines: machine 0 runs two 2-core batch
        // tasks, machines 1 and 2 one 4-core batch task each, machine 3 a
        // service replica. The service's second replica needs 3 cores.
        let mut b = WorkloadBuilder::new();
        let batch = b.begin_job("batch", None, 0.0);
        let cores = [2.0, 2.0, 4.0, 4.0];
        b.add_stage(batch, "fill", vec![], 4, |i| {
            params(cores[i], 100.0, vec![])
        });
        let svc = b.begin_job("svc", None, 0.0);
        b.set_priority(svc, PriorityClass::SERVICE);
        b.add_stage(svc, "serve", vec![], 2, |i| {
            params([4.0, 3.0][i], 100.0, vec![])
        });
        let cluster = ClusterConfig::uniform(4, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.preemption = true;
        let mut st = SimState::new(cluster, b.finish(), cfg);
        st.job_arrives(batch);
        st.job_arrives(svc);
        for (t, m) in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 3)] {
            st.apply_assignment(TaskUid(t), MachineId(m));
        }
        let view = ClusterView::new(&st, false);
        let mut ledger = WorkingLedger::default();
        ledger.begin(&view);
        let a = plan_priority_preemption(&view, &ledger).expect("the service preempts");
        // Machine 0 would take two victims, machine 3 has none to give,
        // and machine 2 ties machine 1 at one victim, later.
        assert_eq!(
            (a.task, a.machine, a.evict),
            (TaskUid(5), MachineId(1), vec![TaskUid(2)])
        );
    }
}
