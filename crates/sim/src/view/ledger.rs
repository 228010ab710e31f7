//! [`WorkingLedger`]: what one `schedule` call has charged and placed.
//! The view's availability is fixed for the call (the engine applies
//! assignments only after the policy returns), so a policy that places
//! more than one task keeps a working copy; every shipping policy and the
//! sharded commit stage keep it here. The plan is the authority on fit
//! (paper §3.2: every dimension, at the host and at each remote source).

use tetris_resources::{Resource, ResourceVec};
use tetris_workload::{JobId, TaskUid};

use super::ClusterView;
use crate::cluster::MachineId;
use crate::state::PlacementPlan;

/// Where a placement plan ran out of room.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanFailure {
    /// At the host (its sources were not looked at).
    Host,
    /// At a remote input source, the host having room.
    Source,
}

/// One `schedule` call's working ledger, reused across calls
/// (`examples/custom_policy.rs` shows a policy built on it).
///
/// Availability is read lazily: `view.available(m)` once per machine the
/// call touches, invalidated by a stamp, never cleared, so a call costs
/// what it touches, not the cluster, and a warm call allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct WorkingLedger {
    /// Fit is judged on CPU and memory at the host only (the ablation
    /// that sees what the shipped baselines see). Charges stay whole.
    cpu_mem_only: bool,
    vals: Vec<ResourceVec>,
    stamp: Vec<u64>,
    gen: u64,
    /// The plan [`WorkingLedger::try_place`] resolved last.
    plan: PlacementPlan,
    /// `placed[j] == gen`: job `j` placed a task this call.
    placed: Vec<u64>,
    /// (job, machine) pairs the in-call spread rule has closed.
    closed: Vec<(JobId, MachineId)>,
}

impl WorkingLedger {
    /// A ledger that judges fit on every dimension, or with
    /// `cpu_mem_only` on CPU and memory at the host only.
    pub fn new(cpu_mem_only: bool) -> Self {
        WorkingLedger {
            cpu_mem_only,
            ..Self::default()
        }
    }

    /// Start a call over `view`, forgetting the last one's charges and
    /// placements. O(1) once the buffers have grown to the cluster.
    pub fn begin(&mut self, view: &ClusterView<'_>) {
        let n = view.num_machines();
        if self.vals.len() < n {
            self.vals.resize(n, ResourceVec::zero());
            self.stamp.resize(n, 0);
        }
        self.gen += 1;
        self.closed.clear();
    }

    /// `m`'s availability in the view less what this call charged to it.
    #[inline]
    pub fn available(&mut self, view: &ClusterView<'_>, m: MachineId) -> ResourceVec {
        let i = m.index();
        if self.stamp[i] != self.gen {
            self.stamp[i] = self.gen;
            self.vals[i] = view.available(m);
        }
        self.vals[i]
    }

    /// [`WorkingLedger::available`] read-only, `available` giving the
    /// view's value, asked only for a machine the call has not read: what
    /// a shard-scoped view reads of the commit ledger.
    #[inline]
    pub(crate) fn residual(
        &self,
        m: MachineId,
        available: impl FnOnce() -> ResourceVec,
    ) -> ResourceVec {
        match self.stamp.get(m.index()) {
            Some(&s) if s == self.gen => self.vals[m.index()],
            _ => available(),
        }
    }

    /// True when this call has read `m` (and keeps its value).
    #[inline]
    pub(crate) fn has_read(&self, m: MachineId) -> bool {
        self.stamp.get(m.index()) == Some(&self.gen)
    }

    /// Plan `task` on `m` and, if the plan fits, charge it. Host first: a
    /// full host is the cheap answer, and looking further would read its
    /// sources for nothing; then each remote source. The host and then
    /// each source in turn is charged. The plan is kept
    /// ([`WorkingLedger::plan`]) whether or not it fit.
    #[inline]
    pub fn try_place(
        &mut self,
        view: &ClusterView<'_>,
        task: TaskUid,
        m: MachineId,
    ) -> Result<(), PlanFailure> {
        let mut plan = std::mem::take(&mut self.plan);
        view.plan_into(task, m, &mut plan);
        let (local, host) = (plan.local, self.available(view, m));
        let host_fits = if self.cpu_mem_only {
            let dims = [Resource::Cpu, Resource::Mem];
            local.project(&dims).fits_within(&host.project(&dims))
        } else {
            local.fits_within(&host)
        };
        let fit = if !host_fits {
            Err(PlanFailure::Host)
        } else if !self.cpu_mem_only
            && !plan
                .remote
                .iter()
                .all(|(src, dem)| dem.fits_within(&self.available(view, *src)))
        {
            Err(PlanFailure::Source)
        } else {
            self.sub(view, m, &local);
            for (src, dem) in &plan.remote {
                self.sub(view, *src, dem);
            }
            self.record(view, task, m);
            Ok(())
        };
        self.plan = plan;
        fit
    }

    /// [`WorkingLedger::try_place`] with `victims`, tasks running on `m`,
    /// evicted first: their local allocations are handed back to `m`, and
    /// stay handed back only if the plan fits. The sharded commit stage
    /// takes a preemptive proposal this way.
    pub(crate) fn try_place_evicting(
        &mut self,
        view: &ClusterView<'_>,
        task: TaskUid,
        m: MachineId,
        victims: &[TaskUid],
    ) -> Result<(), PlanFailure> {
        if victims.is_empty() {
            return self.try_place(view, task, m);
        }
        let before = self.available(view, m);
        let freed = victims.iter().filter_map(|&v| view.running_on(v));
        self.vals[m.index()] = freed.fold(before, |a, (_, alloc)| a + alloc);
        let fit = self.try_place(view, task, m);
        if fit.is_err() {
            self.vals[m.index()] = before;
        }
        fit
    }

    /// The plan the last [`WorkingLedger::try_place`] resolved.
    pub fn plan(&self) -> &PlacementPlan {
        &self.plan
    }

    /// Charge `demand` to `m` for `task`, with no plan and no fit check:
    /// for a policy that judges fit on its own terms (DRF).
    #[inline]
    pub fn charge(
        &mut self,
        view: &ClusterView<'_>,
        task: TaskUid,
        m: MachineId,
        demand: &ResourceVec,
    ) {
        self.sub(view, m, demand);
        self.record(view, task, m);
    }

    #[inline]
    fn sub(&mut self, view: &ClusterView<'_>, m: MachineId, d: &ResourceVec) {
        let v = self.available(view, m);
        self.vals[m.index()] = v - *d;
    }

    /// Note that `task` was placed on `m`, charging nothing: for a policy
    /// that counts its own capacity (the slot schedulers).
    pub fn record(&mut self, view: &ClusterView<'_>, task: TaskUid, m: MachineId) {
        let j = view.task_stage(task).0;
        if self.placed.len() <= j.index() {
            self.placed.resize(j.index() + 1, 0);
        }
        self.placed[j.index()] = self.gen;
        if let Some(floor) = view.job_constraints(j).spread {
            if view.job_spread(j) < floor {
                self.closed.push((j, m));
            }
        }
    }

    /// True when job `j` placed a task this call.
    pub(crate) fn placed_any(&self, j: JobId) -> bool {
        self.placed.get(j.index()) == Some(&self.gen)
    }

    /// Whether `j` may be placed on `m` (DESIGN.md §16): the view's
    /// [`ClusterView::constraints_allow`], and the in-call spread rule.
    /// The view cannot see the call's own placements, so while the job's
    /// running tasks span fewer machines than its spread floor, a machine
    /// that took one of its tasks this call takes no other. One test, and
    /// `true`, for a job with no constraints on a cluster without taints.
    #[inline]
    pub fn allows(&self, view: &ClusterView<'_>, j: JobId, m: MachineId) -> bool {
        !view.job_constrained(j) || (!self.closed.contains(&(j, m)) && view.constraints_allow(j, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::config::SimConfig;
    use crate::state::tests::params;
    use crate::state::SimState;
    use crate::view::ShardScope;
    use tetris_resources::{units::MB, MachineSpec};
    use tetris_workload::{PlacementConstraints, Workload, WorkloadBuilder};

    /// `machines` `paper_small` machines, one replica a block, the job
    /// arrived.
    fn arrived(machines: usize, w: Workload) -> SimState {
        let cluster = ClusterConfig::uniform(machines, MachineSpec::paper_small());
        let mut cfg = SimConfig::default();
        cfg.replication = 1;
        let mut st = SimState::new(cluster, w, cfg);
        st.job_arrives(JobId(0));
        st
    }

    /// Two tasks that each read a 100 MB block, on four machines: the
    /// state, the block's one replica, and a host that holds none.
    fn readers() -> (SimState, MachineId, MachineId) {
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 0.0);
        let input = b.stored_input(100.0 * MB);
        b.add_stage(j, "s", vec![], 2, |_| params(1.0, 10.0, vec![input]));
        let st = arrived(4, b.finish());
        let replica = st.blocks.machines(0)[0];
        (st, replica, MachineId((replica.index() + 1) % 4))
    }

    #[test]
    fn a_full_host_leaves_its_sources_unread() {
        let (st, source, host) = readers();
        let view = ClusterView::new(&st, false);
        let mut ledger = WorkingLedger::default();
        ledger.begin(&view);
        ledger.sub(&view, host, &view.available(host));
        assert_eq!(
            ledger.try_place(&view, TaskUid(0), host),
            Err(PlanFailure::Host)
        );
        assert!(!ledger.has_read(source));
        assert_eq!(ledger.plan().remote[0].0, source, "the plan is kept");
        // With room at the host, the source is read, and charged.
        ledger.begin(&view);
        assert_eq!(ledger.try_place(&view, TaskUid(0), host), Ok(()));
        assert!(ledger.has_read(source));
    }

    #[test]
    fn a_remote_charge_lowers_the_source() {
        let (st, source, host) = readers();
        let view = ClusterView::new(&st, false);
        let mut ledger = WorkingLedger::default();
        ledger.begin(&view);
        ledger.try_place(&view, TaskUid(0), host).unwrap();
        let (src, dem) = ledger.plan().remote[0];
        assert_eq!(src, source);
        assert!(dem.get(Resource::DiskRead) > 0.0 && dem.get(Resource::NetOut) > 0.0);
        assert_eq!(
            ledger.available(&view, source),
            view.available(source) - dem
        );
        let local = ledger.plan().local;
        assert_eq!(ledger.available(&view, host), view.available(host) - local);
        // A source refusing the demand fails the plan there, host intact.
        let left = ledger.available(&view, source);
        ledger.sub(&view, source, &left);
        let host_left = ledger.available(&view, host);
        let fit = ledger.try_place(&view, TaskUid(1), host);
        assert_eq!(fit, Err(PlanFailure::Source));
        assert_eq!(ledger.available(&view, host), host_left);
    }

    #[test]
    fn a_shard_scoped_view_reads_the_commit_ledgers_residual() {
        let (st, source, host) = readers();
        let view = ClusterView::new(&st, false);
        let mut ledger = WorkingLedger::default();
        ledger.begin(&view);
        ledger.try_place(&view, TaskUid(0), host).unwrap();
        let (local, (_, dem)) = (ledger.plan().local, ledger.plan().remote[0]);
        // The host follows the source, so this machine is neither.
        let untouched = MachineId((host.index() + 1) % 4);
        let scoped = view.scoped(ShardScope {
            ledger: &ledger,
            jobs: &[],
        });
        assert_eq!(scoped.available(host), view.available(host) - local);
        assert_eq!(scoped.available(source), view.available(source) - dem);
        assert_eq!(scoped.available(untouched), view.available(untouched));
    }

    #[test]
    fn a_second_begin_forgets_the_first_calls_charges() {
        let (st, _, host) = readers();
        let view = ClusterView::new(&st, false);
        let mut ledger = WorkingLedger::default();
        ledger.begin(&view);
        ledger.try_place(&view, TaskUid(0), host).unwrap();
        assert!(ledger.placed_any(JobId(0)));
        assert_ne!(ledger.available(&view, host), view.available(host));
        ledger.begin(&view);
        assert!(!ledger.placed_any(JobId(0)));
        assert_eq!(
            ledger.residual(host, || view.available(host)),
            view.available(host)
        );
        assert_eq!(ledger.available(&view, host), view.available(host));
    }

    #[test]
    fn the_spread_rule_closes_a_machine_only_below_the_floor() {
        // Four replicas of a job spread over at least two machines.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("svc", None, 0.0);
        b.set_constraints(j, PlacementConstraints::none().with_spread(2));
        b.add_stage(j, "replicas", vec![], 4, |_| params(1.0, 10.0, vec![]));
        let mut st = arrived(3, b.finish());
        let (m0, m1, m2) = (MachineId(0), MachineId(1), MachineId(2));
        {
            let view = ClusterView::new(&st, false);
            let mut ledger = WorkingLedger::default();
            ledger.begin(&view);
            assert!(ledger.allows(&view, j, m0));
            ledger.try_place(&view, TaskUid(0), m0).unwrap();
            // Nothing runs yet, so the view allows `m0`; the call does not.
            assert!(view.constraints_allow(j, m0));
            assert!(!ledger.allows(&view, j, m0));
            assert!(ledger.allows(&view, j, m1));
            // A call that places by its own count closes machines too.
            ledger.begin(&view);
            ledger.record(&view, TaskUid(0), m1);
            assert!(!ledger.allows(&view, j, m1));
            assert!(ledger.allows(&view, j, m0), "begin reopens");
        }
        // Two replicas running on two machines: the floor is met, and a
        // machine that takes a third takes a fourth.
        st.apply_assignment(TaskUid(0), m0);
        st.apply_assignment(TaskUid(1), m1);
        let view = ClusterView::new(&st, false);
        let mut ledger = WorkingLedger::default();
        ledger.begin(&view);
        ledger.try_place(&view, TaskUid(2), m2).unwrap();
        assert!(ledger.allows(&view, j, m2));
    }
}
