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

/// The `blocked` memo: what the current head's all-remote plan failing on
/// a source says of the machines it reads nothing from. Each such machine
/// gets that same plan (`ClusterView::task_reads_locally`) and the working
/// ledger only shrinks within a call, so it fails there too.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Blocked {
    /// No such failure.
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

/// The memo of `task`, whose all-remote plan asks `remote` of its sources:
/// [`Blocked::Source`] if it reads shuffle output only and a source refuses
/// its demand even less the margin, else [`Blocked::Remote`] if a source
/// refuses it. Out of line: inlined into `schedule` it slowed the 52
/// k-pending cold decision (stored inputs only) by ≈ 3 % (2-vCPU host).
#[cold]
#[inline(never)]
pub(super) fn blocked_memo(
    ledger: &mut WorkingLedger,
    view: &ClusterView<'_>,
    task: TaskUid,
    remote: &[(MachineId, ResourceVec)],
) -> Blocked {
    let inputs = &view.task(task).inputs;
    let shuffle_only = inputs
        .iter()
        .all(|i| matches!(i.source, InputSource::Shuffle { .. }));
    let mut memo = Blocked::No;
    for &(src, dem) in remote {
        let avail = ledger.available(view, src);
        if shuffle_only && !(dem * (1.0 - SHUFFLE_SHARE_MARGIN)).fits_within(&avail) {
            return Blocked::Source(src);
        } else if !dem.fits_within(&avail) {
            memo = Blocked::Remote;
            if !shuffle_only {
                break;
            }
        }
    }
    memo
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
    use std::{cell::RefCell, rc::Rc};
    use tetris_resources::units::{GB, MB};
    use tetris_resources::MachineSpec;
    use tetris_sim::probe::ScheduleProbe;
    use tetris_sim::{names, Assignment, ClusterConfig, MetricsRegistry, SchedulerPolicy};
    use tetris_workload::{InputSource, InputSpec, TaskParams, Workload, WorkloadBuilder};

    /// What one call of a borrowed or owned Tetris did: which tasks were
    /// runnable when it began, whether it was cold, what it planned and
    /// placed, and the two counters it drained after.
    #[derive(Debug, Default)]
    struct Call {
        runnable: Vec<bool>,
        cold: bool,
        planned: Vec<(TaskUid, MachineId)>,
        placed: Vec<(TaskUid, MachineId)>,
        kept: u64,
        skipped: u64,
    }

    /// Forwards to Tetris and records each call.
    struct Spy<T> {
        inner: T,
        tasks: usize,
        calls: Rc<RefCell<Vec<Call>>>,
    }

    impl<T: std::borrow::BorrowMut<TetrisScheduler>> SchedulerPolicy for Spy<T> {
        fn name(&self) -> &str {
            self.inner.borrow().name()
        }
        fn uses_tracker(&self) -> bool {
            self.inner.borrow().uses_tracker()
        }
        fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
            let runnable = (0..self.tasks).map(|u| view.is_runnable(TaskUid(u)));
            let runnable = runnable.collect();
            let tetris = self.inner.borrow_mut();
            let out = tetris.schedule(view);
            let mut metrics = MetricsRegistry::new();
            tetris.drain_metrics(&mut metrics);
            self.calls.borrow_mut().push(Call {
                runnable,
                cold: view.freed_machines().is_empty(),
                planned: tetris.planned.clone(),
                placed: out.iter().map(|a| (a.task, a.machine)).collect(),
                kept: metrics.counter(names::KEPT_PLAN_ANSWERS),
                skipped: metrics.counter(names::WALK_SKIPPED),
            });
            out
        }
    }

    /// `tetris`'s next call on `probe`.
    fn call(tetris: &mut TetrisScheduler, probe: &ScheduleProbe) -> Call {
        let calls = Rc::default();
        let mut spy = Spy {
            inner: tetris,
            tasks: 4,
            calls: Rc::clone(&calls),
        };
        probe.measure(&mut spy);
        let call = calls.borrow_mut().pop();
        call.expect("one call")
    }

    /// 4 cores, 16 GB, a 100 MB/s disk and a 125 MB/s NIC.
    fn machine() -> MachineSpec {
        MachineSpec::new()
            .cores(4.0)
            .memory(16.0 * GB)
            .disks(1, 100.0 * MB)
            .nic(125.0 * MB)
    }

    /// A 10 s task of one core and 1 GB that mostly reads `inputs`.
    fn task(inputs: Vec<InputSpec>, output_bytes: f64) -> TaskParams {
        TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 10.0,
            cpu_frac: 0.1,
            io_burst: 1.0,
            inputs,
            output_bytes,
            remote_frac: 1.0,
        }
    }

    /// One stage of readers of one block, task `i` reading `mb[i]` MB of
    /// it in 10 s.
    fn readers(mb: &[f64]) -> Workload {
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("readers", None, 0.0);
        let block = b.new_block();
        b.add_stage(j, "read", vec![], mb.len(), |i| {
            let input = InputSpec {
                source: InputSource::Stored(block),
                bytes: mb[i] * MB,
            };
            task(vec![input], 0.0)
        });
        b.finish()
    }

    /// Records which machines hold the one block, and places nothing.
    struct Holders(Vec<MachineId>);

    impl SchedulerPolicy for Holders {
        fn name(&self) -> &str {
            "holders"
        }
        fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
            self.0 = view.input_hosts(TaskUid(0)).collect();
            Vec::new()
        }
    }

    /// The config of the first seed in 0..64 whose `replication` replicas
    /// of the one block of `workload` are on `holders` of `machines`.
    /// Replica placement is the simulator's seeded choice.
    fn holding(workload: &Workload, machines: usize, holders: &[usize]) -> tetris_sim::SimConfig {
        let cluster = ClusterConfig::uniform(machines, machine());
        (0..64)
            .map(|seed| {
                let mut cfg = tetris_sim::SimConfig::default();
                cfg.seed = seed;
                cfg.replication = holders.len();
                cfg
            })
            .find(|cfg| {
                let probe = ScheduleProbe::new(cluster.clone(), workload.clone(), cfg.clone());
                let mut found = Holders(Vec::new());
                probe.measure(&mut found);
                found.0 == holders.iter().map(|&m| MachineId(m)).collect::<Vec<_>>()
            })
            .expect("a seed in 0..64 puts the replicas there")
    }

    /// Five machines with the block's two replicas on `holders`: a remote
    /// reader of uid `u` pulls from `holders[u % 2]`.
    fn probe(workload: &Workload, holders: [usize; 2]) -> ScheduleProbe {
        let cfg = holding(workload, 5, &holders);
        ScheduleProbe::new(ClusterConfig::uniform(5, machine()), workload.clone(), cfg)
    }

    #[test]
    fn blocked_head_is_planned_once_then_lands_on_a_replica_holder() {
        // Four readers of one block with replicas A and B on five
        // machines. In one cold pass, in machine order: uid 0 takes 50
        // MB/s of A's disk, uid 1 takes 10 of B's, and uid 2 wants 60
        // from A, which has 50 left — its plan fails on the source, and
        // would fail the same way on every machine that holds no replica.
        // On A itself it fails on the host; on B it reads locally and
        // fits. Then uid 3 is a new head and owes the memo nothing.
        let (holders, first, b, after_b) = ([2, 3], MachineId(0), MachineId(3), MachineId(4));
        let workload = readers(&[500.0, 100.0, 600.0, 200.0]);
        let probe = probe(&workload, holders);
        let mut tetris = TetrisScheduler::new(TetrisConfig::default());
        // The state is not mutated by a pass, and uid 2's kept demands
        // went when it was placed, so the second call repeats the first.
        for n in 0..2 {
            let call = call(&mut tetris, &probe);
            let placed = |uid| {
                call.placed
                    .iter()
                    .find(|a| a.0 == TaskUid(uid))
                    .map(|a| a.1)
            };
            let planned = &call.planned;
            let non_holder_plans = |uid| {
                let off = |&&(t, m): &&(TaskUid, MachineId)| t == TaskUid(uid) && m.0 < 2;
                planned.iter().filter(off).count()
            };
            assert_eq!(placed(0), Some(first), "call {n}");
            assert_eq!(placed(1), Some(first), "call {n}");
            // The blocked head is planned on machine 0, not on machine 1,
            // then once on each holder.
            assert_eq!(non_holder_plans(2), 1, "call {n}: {planned:?}");
            assert!(planned.contains(&(TaskUid(2), first)), "call {n}");
            assert_eq!(placed(2), Some(b), "call {n}: reads locally, fits");
            // The next head of the same stage is planned afresh — on a
            // machine without a replica, where a stale memo would skip it.
            assert!(planned.contains(&(TaskUid(3), after_b)), "call {n}");
            assert_eq!(placed(3), Some(after_b), "call {n}");
            assert_eq!(call.kept, 0, "call {n}");
        }
    }

    /// Readers whose third task stays blocked through a call: uid 1 now
    /// takes 50 MB/s of B's disk too, so uid 2 fits on neither holder.
    fn stuck() -> Workload {
        readers(&[500.0, 500.0, 600.0, 200.0])
    }

    #[test]
    fn a_head_blocked_across_calls_is_planned_on_no_non_holder_again() {
        // Call 1: uid 0 and uid 1 fill machine 0's NIC, uid 2's plan on
        // machine 1 fails at A, whose disk has 50 MB/s left for its 60,
        // and on A and B at the host. Its all-remote demands are kept.
        // Call 2, on the same view: once uid 1 is placed, uid 2 is the
        // head, and its kept demands meet A refusing them again, with no
        // plan. The walk then visits only the holders, its domain.
        let probe = probe(&stuck(), [2, 3]);
        let mut tetris = TetrisScheduler::new(TetrisConfig::default());
        let (first, second) = (call(&mut tetris, &probe), call(&mut tetris, &probe));
        let (m, uid) = (MachineId, TaskUid);
        let stuck_plans = [(uid(2), m(2)), (uid(2), m(3))];
        let mut expect = vec![(uid(0), m(0)), (uid(1), m(0)), (uid(2), m(1))];
        expect.extend(stuck_plans);
        assert_eq!(first.planned, expect);
        assert_eq!((first.kept, first.skipped), (0, 1), "machine 4 skipped");
        assert_eq!(second.planned[..2], expect[..2]);
        assert_eq!(second.planned[2..], stuck_plans, "no plan off the holders");
        assert_eq!((second.kept, second.skipped), (1, 2), "machines 1 and 4");
        assert_eq!(first.placed, second.placed);
        assert_eq!(first.placed, [(uid(0), m(0)), (uid(1), m(0))]);
    }

    #[test]
    fn kept_demands_are_dropped_when_the_block_moves() {
        // A crash moves blocks and the replica epoch with them. Bind the
        // same workload again with the replicas elsewhere — a state of
        // its own, at another replica epoch — and the Tetris that kept
        // uid 2's demands at A = machine 2 must act as a fresh one: its
        // source there is machine 3.
        let workload = stuck();
        let mut tetris = TetrisScheduler::new(TetrisConfig::default());
        call(&mut tetris, &probe(&workload, [2, 3]));
        let moved = probe(&workload, [3, 4]);
        let warm = call(&mut tetris, &moved);
        let fresh = call(&mut TetrisScheduler::new(TetrisConfig::default()), &moved);
        assert_eq!((warm.planned, warm.placed), (fresh.planned, fresh.placed));
        assert_eq!(warm.kept, 0);
    }

    /// `workload` run by Tetris on `machines` [`machine`]s under `cfg`,
    /// with every call recorded.
    fn record(workload: Workload, machines: usize, mut cfg: tetris_sim::SimConfig) -> Vec<Call> {
        cfg.reclaim_idle = false;
        let calls = Rc::default();
        let spy = Spy {
            inner: TetrisScheduler::new(TetrisConfig::default()),
            tasks: workload.num_tasks(),
            calls: Rc::clone(&calls),
        };
        let cluster = ClusterConfig::uniform(machines, machine());
        let outcome = tetris_sim::Simulation::build(cluster, workload)
            .scheduler(spy)
            .config(cfg)
            .run();
        assert!(outcome.all_jobs_completed());
        calls.take()
    }

    #[test]
    fn a_kept_head_whose_source_has_room_again_is_placed_in_that_call() {
        // One replica, on machine 4. At time 0 uid 0 takes 80 MB/s of its
        // disk, from machine 0, and uid 1's 30 are refused: its demands
        // are kept, and while uid 0 runs every call finds it blocked from
        // them. The call after uid 0 ends reads the source again, finds
        // room, and places uid 1 on the first machine it walks.
        let workload = readers(&[800.0, 300.0]);
        let cfg = holding(&workload, 5, &[4]);
        let calls = record(workload, 5, cfg);
        let waits: Vec<_> = calls
            .iter()
            .filter(|c| c.runnable == [false, true])
            .collect();
        let freed = waits.iter().position(|c| !c.placed.is_empty());
        let (before, freed) = waits.split_at(freed.expect("uid 1 is placed"));
        assert!(!before.is_empty());
        for c in before {
            assert_eq!(c.kept, 1, "{c:?}");
            assert!(c.planned.iter().all(|&(_, m)| m == MachineId(4)), "{c:?}");
        }
        let freed = freed[0];
        assert_eq!(freed.placed, [(TaskUid(1), MachineId(0))]);
        assert_eq!(freed.planned, [(TaskUid(1), MachineId(0))]);
        assert_eq!(freed.kept, 0, "the source had room");
    }

    #[test]
    fn a_cold_pass_with_every_head_blocked_visits_only_their_domains() {
        // A map writes its output on machine 0, the first machine; two
        // reducers each read all of it at 80 MB/s. The first lands on
        // machine 0 and reads there; the second's plan on any other host
        // asks 80 of machine 0's disk, which has 20 left: `Source(0)`, and
        // it fails on machine 0 itself at the host. Once its demands are
        // kept, a cold pass begins with every head blocked and visits
        // machine 0 alone.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("mr", None, 0.0);
        b.add_stage(j, "map", vec![], 1, |_| task(vec![], 100.0 * MB));
        let shuffle = InputSpec {
            source: InputSource::Shuffle { stage: 0 },
            bytes: 800.0 * MB,
        };
        b.add_stage(j, "reduce", vec![0], 2, |_| task(vec![shuffle], 0.0));
        let calls = record(b.finish(), 5, tetris_sim::SimConfig::default());
        let all_blocked = calls
            .iter()
            .find(|c| c.runnable == [false, false, true] && c.cold && c.kept == 1)
            .expect("a cold pass that starts with the reducer blocked");
        assert_eq!(all_blocked.skipped, 4, "{all_blocked:?}");
        assert!(all_blocked.planned.is_empty(), "{all_blocked:?}");
    }

    /// Runs Tetris, and at the first call that finds task 1 (the reduce)
    /// pending, asks `blocked_memo` about its all-remote plan with the
    /// source's working availability set to `dem × factor`, one answer a
    /// factor.
    struct MarginProbe {
        inner: TetrisScheduler,
        factors: [f64; 2],
        memos: Rc<std::cell::Cell<Option<[Blocked; 2]>>>,
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
                    let remote = ledger.plan().remote.clone();
                    blocked_memo(&mut ledger, view, reduce, &remote)
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
        let memos = Rc::default();
        let probe = MarginProbe {
            inner: TetrisScheduler::new(TetrisConfig::default()),
            factors: [
                1.0 - 1.5 * SHUFFLE_SHARE_MARGIN,
                1.0 - 3.0 * SHUFFLE_SHARE_MARGIN,
            ],
            memos: Rc::clone(&memos),
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
