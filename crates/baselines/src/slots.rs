//! Slot-based schedulers: the Hadoop 1.x Fair and Capacity schedulers the
//! paper deploys against (§5.1).
//!
//! Both divide each machine into **slots defined on memory only** (the
//! Facebook cluster's 2 GB slots) and allot one slot to each task,
//! whatever its memory. Placing a task checks *only* slot availability:
//! CPU, disk and network are never examined, a 1 GB task still holds a
//! full 2 GB slot, and a bigger one silently over-commits memory. These
//! are exactly the fragmentation/wastage and
//! over-allocation behaviours the paper attributes to production
//! schedulers (§2.1).
//!
//! * [`FairScheduler`] — offers the next free slot to the job holding the
//!   fewest slots relative to its fair share.
//! * [`CapacityScheduler`] — serves jobs in arrival order (single-queue
//!   approximation of Hadoop's Capacity scheduler).
//!
//! Both prefer data-local placements for tasks with stored input, like the
//! production clusters ("both clusters preferentially place tasks close to
//! their input data", §2.2.1).

use tetris_resources::{units::GB, Resource};
use tetris_sim::{
    Assignment, ClusterView, MachineId, PlacementProvenance, RejectedCandidate, SchedulerPolicy,
    WorkingLedger,
};
use tetris_workload::JobId;

use crate::PendingCursor;

/// Default slot size: 2 GB, "similar to the Facebook cluster".
pub(crate) const DEFAULT_SLOT_MEM: f64 = 2.0 * GB;

/// How the next job to serve is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobOrder {
    /// Fewest slots held first (fair sharing).
    FewestSlots,
    /// Earliest arrival first (capacity/FIFO).
    Arrival,
}

/// Shared slot-based scheduling core.
#[derive(Debug, Clone)]
struct SlotScheduler {
    slot_mem: f64,
    order: JobOrder,
    /// Slots are this policy's capacity; the ledger only keeps the §16
    /// rule and what the call placed.
    ledger: WorkingLedger,
}

impl SlotScheduler {
    fn new(slot_mem: f64, order: JobOrder) -> Self {
        SlotScheduler {
            slot_mem,
            order,
            ledger: WorkingLedger::default(),
        }
    }

    fn slots_of(&self, view: &ClusterView<'_>, m: MachineId) -> usize {
        (view.capacity(m).get(Resource::Mem) / self.slot_mem).floor() as usize
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        self.ledger.begin(view);
        // Free slots per machine: slots − running tasks, one slot each
        // whatever its memory (the Facebook configuration, §2.1).
        let query = view.query();
        let mut free: Vec<usize> = query
            .iter_all()
            .map(|m| {
                self.slots_of(view, m)
                    .saturating_sub(view.machine_tasks(m).len())
            })
            .collect();

        struct JobQ<'a> {
            id: JobId,
            running: usize,
            arrival: f64,
            pending: PendingCursor<'a>,
        }
        let mut jobs: Vec<JobQ<'_>> = view
            .active_jobs()
            .map(|j| JobQ {
                id: j,
                running: view.job_running(j),
                arrival: view.job_arrival(j),
                pending: PendingCursor::new(view, j),
            })
            .filter(|q| q.pending.head().is_some())
            .collect();

        // The policy's job order: fewest slots held, or earliest arrival;
        // then the lower id.
        let job_order = self.order;
        let before = |a: &JobQ<'_>, b: &JobQ<'_>| match job_order {
            JobOrder::FewestSlots => (a.running, a.id).cmp(&(b.running, b.id)),
            JobOrder::Arrival => a
                .arrival
                .partial_cmp(&b.arrival)
                .unwrap()
                .then(a.id.cmp(&b.id)),
        };
        let mut preferred = Vec::new();
        let mut out = Vec::new();
        loop {
            // Pick the next job per policy.
            let ji = jobs
                .iter()
                .enumerate()
                .filter(|(_, q)| q.pending.head().is_some())
                .min_by(|(_, a), (_, b)| before(a, b))
                .map(|(i, _)| i);
            let Some(ji) = ji else { break };
            let task = jobs[ji].pending.head().expect("filtered head");

            // Place: prefer a machine holding the task's input, else the
            // machine with the most free slots (simple spread), checking
            // ONLY slot availability. Down machines are skipped and
            // suspect ones sorted behind trusted ones — both exact no-ops
            // without fault injection (nothing is down or suspect, and
            // the extra leading key is then `true` everywhere), keeping
            // decisions byte-identical to the pre-fault pass. Placement
            // constraints (§16 spec API) filter the same way: `allow` is
            // the constant `true` on unconstrained runs, so all-batch
            // decisions stay byte-identical too.
            let (job, ledger) = (jobs[ji].id, &self.ledger);
            let allow = |m: MachineId| ledger.allows(view, job, m);
            view.preferred_machines_into(task, &mut preferred);
            let target = preferred
                .iter()
                .copied()
                .filter(|&m| !view.is_down(m) && !view.is_suspect(m) && allow(m))
                .find(|m| free[m.index()] > 0)
                .or_else(|| {
                    query
                        .iter_all()
                        .filter(|&m| !view.is_down(m) && free[m.index()] > 0 && allow(m))
                        .max_by_key(|m| {
                            (
                                !view.is_suspect(*m),
                                free[m.index()],
                                std::cmp::Reverse(m.index()),
                            )
                        })
                });
            match target {
                Some(m) => {
                    let mut assignment = Assignment::new(task, m);
                    if view.capture_provenance() {
                        // The slot queue has no multi-resource scores: the
                        // runner-ups are the next jobs in policy order, and
                        // `score` is the (negated) queue rank so that, like
                        // Tetris scores, higher still means closer to
                        // winning. Pure bookkeeping after the decision.
                        let mut order: Vec<usize> = jobs
                            .iter()
                            .enumerate()
                            .filter(|&(i, q)| i != ji && q.pending.head().is_some())
                            .map(|(i, _)| i)
                            .collect();
                        let n_queued = order.len() + 1;
                        order.sort_by(|&x, &y| before(&jobs[x], &jobs[y]));
                        let rejected = order
                            .iter()
                            .take(3)
                            .enumerate()
                            .filter_map(|(rank, &i)| {
                                let head = jobs[i].pending.head()?;
                                Some(RejectedCandidate {
                                    job: jobs[i].id.index(),
                                    task: head.index(),
                                    alignment: None,
                                    srtf: None,
                                    score: -((rank + 1) as f64),
                                })
                            })
                            .collect();
                        // Stateless policy: no cache or index to report.
                        assignment = assignment.with_provenance(PlacementProvenance {
                            candidates: n_queued as u32,
                            rejected,
                            ..PlacementProvenance::default()
                        });
                    }
                    free[m.index()] -= 1;
                    self.ledger.record(view, task, m);
                    jobs[ji].running += 1;
                    jobs[ji].pending.advance();
                    out.push(assignment);
                }
                None => break, // no machine has enough free slots
            }
        }
        // Priority preemption (DESIGN.md §16): when enabled and a
        // higher-priority job placed nothing above, evict strictly
        // lower-priority tasks to make room. No-op (None) with
        // `SimConfig::preemption` off, so batch runs are unchanged.
        if let Some(pre) = tetris_sim::plan_priority_preemption(view, &self.ledger) {
            out.push(pre);
        }
        out
    }
}

/// The slot-based Fair scheduler (deployed at Facebook per §5.1).
#[derive(Debug, Clone)]
pub struct FairScheduler {
    inner: SlotScheduler,
}

impl FairScheduler {
    /// Fair scheduler with the default 2 GB slots.
    pub fn new() -> Self {
        Self::with_slot_mem(DEFAULT_SLOT_MEM)
    }

    /// Fair scheduler with custom slot memory.
    pub fn with_slot_mem(slot_mem: f64) -> Self {
        assert!(slot_mem > 0.0);
        FairScheduler {
            inner: SlotScheduler::new(slot_mem, JobOrder::FewestSlots),
        }
    }
}

impl Default for FairScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulerPolicy for FairScheduler {
    fn name(&self) -> &str {
        "fair-slots"
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        self.inner.schedule(view)
    }
}

/// The slot-based Capacity scheduler (deployed at Yahoo! per §5.1),
/// approximated as a single queue served in arrival order.
#[derive(Debug, Clone)]
pub struct CapacityScheduler {
    inner: SlotScheduler,
}

impl CapacityScheduler {
    /// Capacity scheduler with the default 2 GB slots.
    pub fn new() -> Self {
        Self::with_slot_mem(DEFAULT_SLOT_MEM)
    }

    /// Capacity scheduler with custom slot memory.
    pub fn with_slot_mem(slot_mem: f64) -> Self {
        assert!(slot_mem > 0.0);
        CapacityScheduler {
            inner: SlotScheduler::new(slot_mem, JobOrder::Arrival),
        }
    }
}

impl Default for CapacityScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulerPolicy for CapacityScheduler {
    fn name(&self) -> &str {
        "capacity-slots"
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        self.inner.schedule(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_resources::MachineSpec;
    use tetris_sim::{ClusterConfig, Simulation};
    use tetris_workload::WorkloadSuiteConfig;

    #[test]
    fn completes_small_suite() {
        for sched in [true, false] {
            let sim = Simulation::build(
                ClusterConfig::uniform(6, MachineSpec::paper_large()),
                WorkloadSuiteConfig::small().generate(4),
            )
            .seed(4);
            let outcome = if sched {
                sim.scheduler(FairScheduler::new()).run()
            } else {
                sim.scheduler(CapacityScheduler::new()).run()
            };
            assert!(outcome.all_jobs_completed(), "sched={sched}");
        }
    }

    #[test]
    fn respects_slot_count() {
        // 32 GB machine, 2 GB slots → 16 slots; never more than 16 tasks
        // running per machine.
        let outcome = Simulation::build(
            ClusterConfig::uniform(3, MachineSpec::paper_large()),
            WorkloadSuiteConfig::small().generate(6),
        )
        .scheduler(FairScheduler::new())
        .seed(6)
        .run();
        for s in &outcome.samples {
            for ms in s.machines.as_ref().unwrap() {
                assert!(ms.running <= 16, "{} tasks on one machine", ms.running);
            }
        }
    }

    #[test]
    fn a_machine_offers_its_slots_less_its_resident_tasks() {
        // One 32 GB machine: 16 two-gigabyte slots. Three 4 GB residents
        // hold one slot each, so a job arriving later gets 13 at once and
        // the rest only as slots free.
        use tetris_workload::{TaskParams, WorkloadBuilder};
        let task = |mem, duration| TaskParams {
            cores: 1.0,
            mem,
            duration,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 0.0,
            remote_frac: 1.0,
        };
        let mut b = WorkloadBuilder::new();
        let residents = b.begin_job("residents", None, 0.0);
        b.add_stage(residents, "s", vec![], 3, |_| task(4.0 * GB, 1000.0));
        let late = b.begin_job("late", None, 5.0);
        b.add_stage(late, "s", vec![], 20, |_| task(GB, 10.0));
        let outcome = Simulation::build(
            ClusterConfig::uniform(1, MachineSpec::paper_large()),
            b.finish(),
        )
        .scheduler(FairScheduler::new())
        .run();
        let starts: Vec<f64> = outcome
            .tasks
            .iter()
            .filter(|t| t.job == late)
            .map(|t| t.start.unwrap())
            .collect();
        let first = starts.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(starts.iter().filter(|&&s| s == first).count(), 13);
    }

    #[test]
    fn overallocates_unexamined_resources() {
        // Slot schedulers ignore disk/network → demand ledger exceeds
        // capacity on IO-heavy workloads.
        use tetris_resources::units::MB;
        use tetris_workload::{TaskParams, WorkloadBuilder};
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("writers", None, 0.0);
        b.add_stage(j, "w", vec![], 8, |_| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 20.0,
            cpu_frac: 0.1,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 3000.0 * MB,
            remote_frac: 1.0,
        });
        let mut cfg = tetris_sim::SimConfig::default();
        cfg.sample_period = Some(1.0);
        let outcome = Simulation::build(
            ClusterConfig::uniform(1, MachineSpec::paper_large()),
            b.finish(),
        )
        .scheduler(FairScheduler::new())
        .config(cfg)
        .run();
        let cap = MachineSpec::paper_large().capacity();
        let over = outcome.samples.iter().any(|s| {
            s.cluster_allocated.get(Resource::DiskWrite) > cap.get(Resource::DiskWrite) * 1.5
        });
        assert!(over, "slot scheduler should over-allocate disk");
        assert!(outcome.mean_task_stretch() > 2.0);
    }

    #[test]
    fn fair_balances_slots_across_jobs() {
        // Two identical jobs on a tiny cluster: fair scheduling keeps their
        // running-task counts close, so they finish close together.
        use tetris_workload::{TaskParams, WorkloadBuilder};
        let mut b = WorkloadBuilder::new();
        for name in ["a", "b"] {
            let j = b.begin_job(name, None, 0.0);
            b.add_stage(j, "s", vec![], 8, |_| TaskParams {
                cores: 1.0,
                mem: 2.0 * GB,
                duration: 10.0,
                cpu_frac: 1.0,
                io_burst: 1.0,
                inputs: vec![],
                output_bytes: 0.0,
                remote_frac: 1.0,
            });
        }
        let outcome = Simulation::build(
            ClusterConfig::uniform(1, MachineSpec::paper_small()),
            b.finish(),
        )
        .scheduler(FairScheduler::new())
        .run();
        let a = outcome.jct(JobId(0)).unwrap();
        let b_ = outcome.jct(JobId(1)).unwrap();
        assert!((a - b_).abs() < 10.5, "fair: {a} vs {b_}");
    }

    #[test]
    fn capacity_serves_arrivals_in_order() {
        // Same two jobs but arriving 1s apart: capacity (FIFO) finishes
        // job 0 well before job 1.
        use tetris_workload::{TaskParams, WorkloadBuilder};
        let mut b = WorkloadBuilder::new();
        for (i, arr) in [0.0, 1.0].into_iter().enumerate() {
            let j = b.begin_job(format!("j{i}"), None, arr);
            b.add_stage(j, "s", vec![], 16, |_| TaskParams {
                cores: 1.0,
                mem: 2.0 * GB,
                duration: 10.0,
                cpu_frac: 1.0,
                io_burst: 1.0,
                inputs: vec![],
                output_bytes: 0.0,
                remote_frac: 1.0,
            });
        }
        let outcome = Simulation::build(
            ClusterConfig::uniform(1, MachineSpec::paper_small()),
            b.finish(),
        )
        .scheduler(CapacityScheduler::new())
        .run();
        let j0 = outcome.jobs[0].finish.unwrap();
        let j1 = outcome.jobs[1].finish.unwrap();
        assert!(j0 < j1, "FIFO violated: {j0} vs {j1}");
    }
}
