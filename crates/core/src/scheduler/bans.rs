//! What one call has proven cannot be placed: the `blocked` memo that
//! spares a head plans that must fail, and the debug oracle behind every
//! drop from a machine's fit list. The working ledger both read is
//! `tetris_sim::WorkingLedger`.

use tetris_resources::{Resource, ResourceVec};
use tetris_sim::{ClusterView, MachineId, WorkingLedger, SHUFFLE_SHARE_MARGIN};
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

/// The memo earned by a plan of `task` (the ledger's last, all inputs
/// remote) having failed on a source: [`Blocked::Source`] if the head
/// reads shuffle output only and a source refuses its demand even less
/// the margin, [`Blocked::Remote`] otherwise. Out of line: it runs once
/// per blocked head per call, and inlined into `schedule` it slowed the
/// 52 k-pending cold decision — stored inputs only, so `Remote` every
/// time — by ≈ 3 % (2-vCPU host).
#[cold]
#[inline(never)]
pub(super) fn blocked_memo(
    ledger: &mut WorkingLedger,
    view: &ClusterView<'_>,
    task: TaskUid,
) -> Blocked {
    let inputs = &view.task(task).inputs;
    if !inputs
        .iter()
        .all(|i| matches!(i.source, InputSource::Shuffle { .. }))
    {
        return Blocked::Remote;
    }
    let least = 1.0 - SHUFFLE_SHARE_MARGIN;
    for i in 0..ledger.plan().remote.len() {
        let (src, dem) = ledger.plan().remote[i];
        if !(dem * least).fits_within(&ledger.available(view, src)) {
            return Blocked::Source(src);
        }
    }
    Blocked::Remote
}

/// Debug builds re-plan every (head, machine) pair a machine's fit list
/// dropped while its normalized demand still fits, before each scan, and
/// check the claim the drop rests on: the plan still fails against the
/// working ledger, and where the `blocked` memo answered (`on_source`),
/// on a source. With `cpu_mem_only` the plan fails as the ledger judges
/// it then, on CPU and memory at the host. Every equivalence and property
/// suite that drives Tetris therefore exercises the monotonicity
/// argument.
#[cfg(debug_assertions)]
pub(super) fn assert_unplaceable(
    ledger: &mut WorkingLedger,
    view: &ClusterView<'_>,
    task: TaskUid,
    m: MachineId,
    cpu_mem_only: bool,
    on_source: bool,
) {
    let plan = view.plan(task, m);
    let source_fails = !cpu_mem_only
        && !plan
            .remote
            .iter()
            .all(|(src, dem)| dem.fits_within(&ledger.available(view, *src)));
    assert!(
        source_fails || !on_source,
        "blocked memo skipped {task:?} on {m:?}, where its plan does not fail on a source"
    );
    let (local, host) = (plan.local, ledger.available(view, m));
    let dims = [Resource::Cpu, Resource::Mem];
    let host_fits = if cpu_mem_only {
        local.project(&dims).fits_within(&host.project(&dims))
    } else {
        local.fits_within(&host)
    };
    assert!(
        source_fails || !host_fits,
        "{task:?} dropped from {m:?}'s fit list, where its plan fits"
    );
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
            let planned = &spy.inner.planned;
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
                let (source, dem) = view.plan(reduce, host).remote[0];
                let mut ledger = WorkingLedger::default();
                self.memos.set(Some(self.factors.map(|factor| {
                    // Charge the source down to `dem × factor`; the
                    // reduce's plan on the host then fails there, and is
                    // the plan the memo reads.
                    ledger.begin(view);
                    let left = ledger.available(view, source);
                    ledger.charge(view, reduce, source, &(left - dem * factor));
                    let fit = ledger.try_place(view, reduce, host);
                    assert_eq!(fit, Err(tetris_sim::PlanFailure::Source));
                    blocked_memo(&mut ledger, view, reduce)
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
