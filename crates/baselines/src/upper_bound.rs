//! The paper's "simple upper bound" on packing gains (§2.2.3).
//!
//! Finding the optimal schedule is APX-hard, so the paper bounds the
//! potential gains with a relaxation that is *easier* than the real
//! problem:
//!
//! 1. the cluster is one aggregated bin per resource (no machine-level
//!    fragmentation, no placement, all input local);
//! 2. tasks run at peak rates for exactly their ideal durations;
//! 3. over-allocation is explicitly impossible (a task is admitted only
//!    when its full demands fit the aggregate).
//!
//! "We believe that gains for this simpler problem are an upper bound on
//! the gains from optimal packing." Jobs are served shortest-remaining-
//! work-first, which favours average JCT; admission is greedy and
//! work-conserving, which favours makespan.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tetris_resources::ResourceVec;
use tetris_sim::SimTime;
use tetris_workload::{JobId, TaskUid, Workload};

/// Result of the aggregate-bin relaxation.
#[derive(Debug, Clone)]
pub struct UpperBoundOutcome {
    /// Finish time per job (seconds), indexed by job id.
    pub job_finish: Vec<Option<f64>>,
    /// Arrival per job (copied from the workload, for JCTs).
    pub job_arrival: Vec<f64>,
}

impl UpperBoundOutcome {
    /// JCT of one job.
    pub fn jct(&self, j: JobId) -> Option<f64> {
        self.job_finish[j.index()].map(|f| f - self.job_arrival[j.index()])
    }

    /// All finished JCTs.
    pub fn jct_vec(&self) -> Vec<f64> {
        (0..self.job_finish.len())
            .filter_map(|i| self.jct(JobId(i)))
            .collect()
    }

    /// Average JCT.
    pub fn avg_jct(&self) -> f64 {
        let v = self.jct_vec();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    /// Latest finish time.
    pub fn makespan(&self) -> f64 {
        self.job_finish
            .iter()
            .flatten()
            .fold(0.0f64, |a, &b| a.max(b))
    }

    /// True if every job finished.
    pub fn complete(&self) -> bool {
        self.job_finish.iter().all(|f| f.is_some())
    }
}

/// The aggregate-bin upper-bound "scheduler".
///
/// Not a [`tetris_sim::SchedulerPolicy`]: the relaxation deliberately has
/// no machines, so it runs its own tiny event loop.
#[derive(Debug, Clone, Default)]
pub struct UpperBoundScheduler {
    _private: (),
}

impl UpperBoundScheduler {
    /// New instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulate the relaxation of `workload` against the aggregate
    /// capacity `total_capacity`.
    pub fn simulate(&self, workload: &Workload, total_capacity: ResourceVec) -> UpperBoundOutcome {
        workload.validate().expect("invalid workload");
        let n_jobs = workload.jobs.len();

        #[derive(Clone)]
        struct Stage {
            pending: Vec<TaskUid>, // reversed: pop from the back
            running: usize,
            finished: usize,
            total: usize,
        }
        struct Job {
            arrived: bool,
            stages: Vec<Stage>,
            remaining_cost: f64,
            finished_tasks: usize,
            total_tasks: usize,
            finish: Option<f64>,
        }

        // Per-task cost for SRTF ordering (normalized by aggregate).
        let task_cost = |uid: TaskUid| {
            let t = workload.task(uid).expect("task");
            t.demand.normalized_by(&total_capacity).sum() * t.ideal_duration()
        };

        let mut jobs: Vec<Job> = workload
            .jobs
            .iter()
            .map(|j| Job {
                arrived: false,
                stages: j
                    .stages
                    .iter()
                    .map(|s| Stage {
                        pending: Vec::new(),
                        running: 0,
                        finished: 0,
                        total: s.tasks.len(),
                    })
                    .collect(),
                remaining_cost: j.tasks().map(|t| task_cost(t.uid)).sum(),
                finished_tasks: 0,
                total_tasks: j.num_tasks(),
                finish: None,
            })
            .collect();

        let mut avail = total_capacity;

        // Events: arrivals and task completions, in (time, seq) order.
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        enum Ev {
            Arrive(JobId),
            Done(TaskUid),
        }
        let mut heap: BinaryHeap<Reverse<(SimTime, u64, Ev)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for j in &workload.jobs {
            heap.push(Reverse((
                SimTime::from_secs(j.arrival),
                seq,
                Ev::Arrive(j.id),
            )));
            seq += 1;
        }

        let unlock_ready = |jobs: &mut Vec<Job>, ji: usize| {
            // Unlock stages whose deps are complete and that have no
            // pending/running/finished state yet.
            let spec = &workload.jobs[ji];
            for (si, s) in spec.stages.iter().enumerate() {
                let st = &jobs[ji].stages[si];
                let untouched = st.pending.is_empty() && st.running == 0 && st.finished == 0;
                if !untouched {
                    continue;
                }
                let ready = s
                    .deps
                    .iter()
                    .all(|&d| jobs[ji].stages[d].finished == jobs[ji].stages[d].total);
                if ready {
                    let mut uids: Vec<TaskUid> =
                        spec.stages[si].tasks.iter().map(|t| t.uid).collect();
                    uids.reverse();
                    jobs[ji].stages[si].pending = uids;
                }
            }
        };

        let mut now;
        while let Some(Reverse((t, _, ev))) = heap.pop() {
            now = t;
            match ev {
                Ev::Arrive(j) => {
                    jobs[j.index()].arrived = true;
                    unlock_ready(&mut jobs, j.index());
                }
                Ev::Done(uid) => {
                    let spec = workload.task(uid).expect("task");
                    let (ji, si) = (spec.job.index(), spec.stage);
                    avail += spec.demand;
                    jobs[ji].stages[si].running -= 1;
                    jobs[ji].stages[si].finished += 1;
                    jobs[ji].finished_tasks += 1;
                    if jobs[ji].stages[si].finished == jobs[ji].stages[si].total {
                        unlock_ready(&mut jobs, ji);
                    }
                    if jobs[ji].finished_tasks == jobs[ji].total_tasks {
                        jobs[ji].finish = Some(now.as_secs());
                    }
                }
            }
            // Drain simultaneous events before admitting.
            while let Some(Reverse((t2, _, _))) = heap.peek() {
                if *t2 != now {
                    break;
                }
                let Reverse((_, _, ev)) = heap.pop().expect("peeked");
                match ev {
                    Ev::Arrive(j) => {
                        jobs[j.index()].arrived = true;
                        unlock_ready(&mut jobs, j.index());
                    }
                    Ev::Done(uid) => {
                        let spec = workload.task(uid).expect("task");
                        let (ji, si) = (spec.job.index(), spec.stage);
                        avail += spec.demand;
                        jobs[ji].stages[si].running -= 1;
                        jobs[ji].stages[si].finished += 1;
                        jobs[ji].finished_tasks += 1;
                        if jobs[ji].stages[si].finished == jobs[ji].stages[si].total {
                            unlock_ready(&mut jobs, ji);
                        }
                        if jobs[ji].finished_tasks == jobs[ji].total_tasks {
                            jobs[ji].finish = Some(now.as_secs());
                        }
                    }
                }
            }

            // Admit greedily: jobs in ascending remaining work; within a
            // job, stage order.
            let mut order: Vec<usize> = (0..n_jobs)
                .filter(|&ji| jobs[ji].arrived && jobs[ji].finish.is_none())
                .collect();
            order.sort_by(|&a, &b| {
                jobs[a]
                    .remaining_cost
                    .partial_cmp(&jobs[b].remaining_cost)
                    .unwrap()
                    .then(a.cmp(&b))
            });
            for ji in order {
                for si in 0..jobs[ji].stages.len() {
                    while let Some(&uid) = jobs[ji].stages[si].pending.last() {
                        let spec = workload.task(uid).expect("task");
                        if !spec.demand.fits_within(&avail) {
                            break;
                        }
                        jobs[ji].stages[si].pending.pop();
                        jobs[ji].stages[si].running += 1;
                        avail -= spec.demand;
                        jobs[ji].remaining_cost -= task_cost(uid);
                        heap.push(Reverse((
                            now.after_secs(spec.ideal_duration()),
                            seq,
                            Ev::Done(uid),
                        )));
                        seq += 1;
                    }
                }
            }
        }

        UpperBoundOutcome {
            job_finish: jobs.into_iter().map(|j| j.finish).collect(),
            job_arrival: workload.jobs.iter().map(|j| j.arrival).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_resources::MachineSpec;
    use tetris_workload::WorkloadSuiteConfig;

    fn cap(n: usize) -> ResourceVec {
        MachineSpec::paper_large().capacity() * n as f64
    }

    #[test]
    fn completes_suite() {
        let w = WorkloadSuiteConfig::small().generate(4);
        let o = UpperBoundScheduler::new().simulate(&w, cap(6));
        assert!(o.complete());
        assert!(o.makespan() > 0.0);
        assert!(o.avg_jct() > 0.0);
    }

    #[test]
    fn respects_barriers() {
        let w = WorkloadSuiteConfig::small().generate(4);
        let o = UpperBoundScheduler::new().simulate(&w, cap(6));
        for j in &w.jobs {
            // A two-stage job can never beat map-dur + reduce-dur.
            let min_map = j.stages[0]
                .tasks
                .iter()
                .map(|t| t.ideal_duration())
                .fold(f64::INFINITY, f64::min);
            let min_red = j.stages[1]
                .tasks
                .iter()
                .map(|t| t.ideal_duration())
                .fold(f64::INFINITY, f64::min);
            let jct = o.jct(j.id).unwrap();
            assert!(
                jct >= min_map + min_red - 1e-3,
                "{}: jct {jct} < {min_map}+{min_red}",
                j.name
            );
        }
    }

    #[test]
    fn beats_or_matches_any_real_schedule() {
        use tetris_sim::{ClusterConfig, GreedyFifo, Simulation};
        let w = WorkloadSuiteConfig::small().generate(12);
        let real = Simulation::build(
            ClusterConfig::uniform(6, MachineSpec::paper_large()),
            w.clone(),
        )
        .scheduler(GreedyFifo::new())
        .seed(12)
        .run();
        let ub = UpperBoundScheduler::new().simulate(&w, cap(6));
        assert!(ub.complete());
        // The relaxation must not be slower than a real schedule on
        // average JCT (it ignores fragmentation, placement, contention,
        // and serves shortest-remaining-work first). Makespan gets slack:
        // SRTF admission order deliberately trades a little makespan for
        // JCT, so strict domination only holds for the JCT objective.
        assert!(
            ub.makespan() <= real.makespan() * 1.10,
            "ub {} vs real {}",
            ub.makespan(),
            real.makespan()
        );
        assert!(
            ub.avg_jct() <= real.avg_jct() + 1e-3,
            "ub {} vs real {}",
            ub.avg_jct(),
            real.avg_jct()
        );
    }

    #[test]
    fn single_task_takes_ideal_duration() {
        use tetris_resources::units::GB;
        use tetris_workload::{TaskParams, WorkloadBuilder};
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("j", None, 5.0);
        b.add_stage(j, "s", vec![], 1, |_| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 30.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
        let o = UpperBoundScheduler::new().simulate(&b.finish(), cap(1));
        assert!((o.jct(JobId(0)).unwrap() - 30.0).abs() < 1e-3);
        assert!((o.makespan() - 35.0).abs() < 1e-3);
    }
}
