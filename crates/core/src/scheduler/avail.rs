//! One call's working ledger, the plan that is the authority on fit (§3.2:
//! every dimension, at the host and at each remote source), the ban grid,
//! and the `blocked` memo that spares a head plans that must fail.

use tetris_resources::{Resource, ResourceVec};
use tetris_sim::{ClusterView, MachineId, PlacementPlan, SHUFFLE_SHARE_MARGIN};
use tetris_workload::{InputSource, TaskUid};

use super::candidates::Candidate;

/// Project a vector to the dimensions the configuration considers.
pub(super) fn visible(consider_io_dims: bool, v: &ResourceVec) -> ResourceVec {
    if consider_io_dims {
        *v
    } else {
        v.project(&[Resource::Cpu, Resource::Mem])
    }
}

/// The `blocked` memo: what the current head's plan failing on a remote
/// source, on a machine it reads nothing from locally, says of others.
/// Each such machine gets that same plan (`ClusterView::task_reads_locally`)
/// and the working ledger only shrinks within a call, so it fails there too.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Blocked {
    /// No such failure yet.
    No,
    /// It fails on every machine the head reads nothing from.
    Remote,
    /// The head reads shuffle output only, and source `s` refused its
    /// demand even less `SHUFFLE_SHARE_MARGIN`: on any host but `s`, the
    /// plan asks at least that much of `s`, so it fails everywhere else.
    Source(MachineId),
}

impl Candidate {
    /// True when the `blocked` memo already answers "does the head fit on
    /// `m`?" with no.
    pub(super) fn blocked_on(&self, view: &ClusterView<'_>, m: MachineId) -> bool {
        match self.blocked {
            Blocked::No => false,
            Blocked::Remote => self
                .head(view)
                .is_some_and(|h| !view.task_reads_locally(h, m)),
            Blocked::Source(s) => m != s,
        }
    }
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
pub(super) struct StampGrid {
    stamps: Vec<u64>,
    gen: u64,
    stride: usize,
    need: usize,
    pub(super) any: bool,
    sparse: bool,
    pairs: Vec<(u32, u32)>,
}

impl StampGrid {
    /// Start a fresh (rows × cols) grid with all cells absent. O(1): no
    /// allocation or clearing happens until an insert.
    pub(super) fn begin(&mut self, rows: usize, cols: usize) {
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

    pub(super) fn insert(&mut self, row: usize, col: usize) {
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

    pub(super) fn contains(&self, row: usize, col: usize) -> bool {
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
/// never cleared), not for the whole cluster: the view's availability is
/// constant within one call, so only the O(cluster) prefill is saved.
#[derive(Default)]
pub(super) struct AvailCache {
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
pub(super) enum PlanFailure {
    /// At the host (its sources were not looked at).
    Host,
    /// At a remote input source, the host having room.
    Source,
}

impl AvailCache {
    /// Start a fresh call over `n` machines (all entries invalid).
    pub(super) fn begin(&mut self, n: usize) {
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
    pub(super) fn get(&mut self, view: &ClusterView<'_>, m: MachineId) -> ResourceVec {
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
    /// fits, charge the plan and return its visible local demand. Host
    /// first: a full host is the cheap answer, and looking further would
    /// pull its sources' availability into the ledger for nothing.
    pub(super) fn try_commit(
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
        let local = visible(consider_io_dims, &plan.local);
        let fit = if !local.fits_within(&visible(consider_io_dims, &self.get(view, m))) {
            Err(PlanFailure::Host)
        } else if consider_io_dims && !self.sources_fit(view, &plan) {
            Err(PlanFailure::Source)
        } else {
            self.sub(view, m, &plan.local);
            for (src, dem) in &plan.remote {
                self.sub(view, *src, dem);
            }
            Ok(local)
        };
        self.plan = plan;
        fit
    }

    /// Enough disk-read and net-out left at every remote source of `plan`?
    fn sources_fit(&mut self, view: &ClusterView<'_>, plan: &PlacementPlan) -> bool {
        plan.remote
            .iter()
            .all(|(src, dem)| dem.fits_within(&self.get(view, *src)))
    }

    /// The memo earned by `try_commit`'s plan of `task` — all inputs
    /// remote — having failed on a source: [`Blocked::Source`] if the
    /// head reads shuffle output only and a source refuses its demand
    /// even less the margin, [`Blocked::Remote`] otherwise. Out of line:
    /// it runs once per blocked head per call, and inlined into
    /// `schedule` it slowed the 52 k-pending cold decision — stored
    /// inputs only, so `Remote` every time — by ≈ 3 % (2-vCPU host).
    #[cold]
    #[inline(never)]
    pub(super) fn blocked_memo(&mut self, view: &ClusterView<'_>, task: TaskUid) -> Blocked {
        let inputs = &view.task(task).inputs;
        if !inputs
            .iter()
            .all(|i| matches!(i.source, InputSource::Shuffle { .. }))
        {
            return Blocked::Remote;
        }
        let plan = std::mem::take(&mut self.plan);
        let least = 1.0 - SHUFFLE_SHARE_MARGIN;
        let refused = plan
            .remote
            .iter()
            .find(|&&(src, dem)| !(dem * least).fits_within(&self.get(view, src)));
        let memo = refused.map_or(Blocked::Remote, |&(src, _)| Blocked::Source(src));
        self.plan = plan;
        memo
    }

    /// Debug builds re-plan every (head, machine) pair the `blocked` memo
    /// answers — before each scan, for every live candidate it would
    /// answer on that machine — and check the claim it rests on: the plan
    /// still fails, and on a source. Every equivalence and property suite
    /// that drives Tetris therefore exercises the monotonicity argument.
    #[cfg(debug_assertions)]
    pub(super) fn assert_blocked(&mut self, view: &ClusterView<'_>, task: TaskUid, m: MachineId) {
        assert!(
            !self.sources_fit(view, &view.plan(task, m)),
            "blocked memo skipped {task:?} on {m:?}, where its plan does not fail on a source"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TetrisConfig, TetrisScheduler};
    use tetris_resources::MachineSpec;
    use tetris_sim::{Assignment, ClusterConfig, SchedulerPolicy};

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
        use tetris_workload::{TaskParams, WorkloadBuilder};
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
            let planned = &spy.inner.avail.planned;
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

    /// Runs Tetris, and at the first call that finds task 1 (the reduce)
    /// pending, asks `blocked_memo` about its all-remote plan with the
    /// source's working availability set to `dem × factor`, one answer a
    /// factor.
    struct MarginProbe {
        inner: TetrisScheduler,
        factors: [f64; 2],
        memos: std::rc::Rc<std::cell::Cell<Option<[Blocked; 2]>>>,
    }

    impl SchedulerPolicy for MarginProbe {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
            let reduce = TaskUid(1);
            if self.memos.get().is_none() && view.is_runnable(reduce) {
                let host = view
                    .query()
                    .iter_all()
                    .find(|&m| !view.task_reads_locally(reduce, m))
                    .expect("a machine without the map output");
                let mut avail = AvailCache::default();
                view.plan_into(reduce, host, &mut avail.plan);
                let (source, dem) = avail.plan.remote[0];
                self.memos.set(Some(self.factors.map(|factor| {
                    avail.begin(view.num_machines());
                    avail.stamp[source.index()] = avail.gen;
                    avail.vals[source.index()] = dem * factor;
                    avail.blocked_memo(view, reduce)
                })));
            }
            self.inner.schedule(view)
        }
    }

    #[test]
    fn a_source_short_by_less_than_the_margin_is_not_blocked() {
        // One map task writes its output on one of two machines; the
        // reduce reads all of it from there, so its plan on the other
        // machine asks that source for `dem`. `fits_within` forgives a
        // relative 1e-9 (one margin), so a source left with dem × (1 −
        // 1.5 margin) refuses `dem` yet takes dem × (1 − margin): a host
        // but the source might still get a plan that fits, and the memo
        // must not claim the source. Left with dem × (1 − 3 margin), the
        // source refuses even that.
        use tetris_resources::units::{GB, MB};
        use tetris_workload::{InputSource, InputSpec, TaskParams, WorkloadBuilder};
        let params = |inputs| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 10.0,
            cpu_frac: 0.1,
            io_burst: 1.0,
            inputs,
            output_bytes: 400.0 * MB,
            remote_frac: 1.0,
        };
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("mr", None, 0.0);
        b.add_stage(j, "map", vec![], 1, |_| params(vec![]));
        let shuffle = InputSpec {
            source: InputSource::Shuffle { stage: 0 },
            bytes: 400.0 * MB,
        };
        b.add_stage(j, "reduce", vec![0], 1, |_| params(vec![shuffle]));
        let memos = std::rc::Rc::default();
        let probe = MarginProbe {
            inner: TetrisScheduler::new(TetrisConfig::default()),
            factors: [
                1.0 - 1.5 * SHUFFLE_SHARE_MARGIN,
                1.0 - 3.0 * SHUFFLE_SHARE_MARGIN,
            ],
            memos: std::rc::Rc::clone(&memos),
        };
        let cluster = ClusterConfig::uniform(2, MachineSpec::paper_large());
        let outcome = tetris_sim::Simulation::build(cluster, b.finish())
            .scheduler(probe)
            .seed(1)
            .run();
        assert!(outcome.all_jobs_completed());
        let source = outcome.tasks[0].machine.expect("the map ran");
        assert_eq!(
            memos.get(),
            Some([Blocked::Remote, Blocked::Source(source)])
        );
    }
}
