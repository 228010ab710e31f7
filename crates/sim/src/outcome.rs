//! Results of a simulation run: per-job/task records, utilization samples,
//! and summary accessors used by the evaluation metrics; and the two reads
//! of the engine's state that produce them, `take_sample` and `finalize`.

use tetris_resources::ResourceVec;
use tetris_workload::{JobId, TaskSpec, TaskUid};

use crate::cluster::MachineId;
use crate::state::{Phase, SimState};
use crate::time::SimTime;

/// Final record of one job.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct JobRecord {
    /// Job id.
    pub id: JobId,
    /// Job name from the workload.
    pub name: String,
    /// Recurring-job family, if any.
    pub family: Option<String>,
    /// Arrival time (seconds).
    pub arrival: f64,
    /// When its first task started, if any did.
    pub first_start: Option<f64>,
    /// Completion time (None if the run ended first).
    pub finish: Option<f64>,
    /// Task count.
    pub num_tasks: usize,
}

impl JobRecord {
    /// Job completion time (finish − arrival), if finished.
    pub fn jct(&self) -> Option<f64> {
        self.finish.map(|f| f - self.arrival)
    }
}

/// Final record of one task.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TaskRecord {
    /// Task uid.
    pub uid: TaskUid,
    /// Owning job.
    pub job: JobId,
    /// Machine of the final attempt.
    pub machine: Option<MachineId>,
    /// Start of the final attempt (seconds).
    pub start: Option<f64>,
    /// Finish time (seconds).
    pub finish: Option<f64>,
    /// Ideal (peak-allocation, all-local) duration from the spec.
    pub ideal_duration: f64,
    /// Placement-adjusted duration estimate of the final attempt (a true
    /// lower bound on the simulated duration).
    pub planned_duration: Option<f64>,
    /// Number of attempts (>1 ⇒ failures).
    pub attempts: u32,
    /// True if the task was permanently abandoned after exhausting
    /// `max_task_attempts` (its `finish` records when it was given up).
    #[serde(default)]
    pub abandoned: bool,
}

impl TaskRecord {
    /// Actual duration of the final attempt, if it ran.
    pub fn duration(&self) -> Option<f64> {
        match (self.start, self.finish) {
            (Some(s), Some(f)) => Some(f - s),
            _ => None,
        }
    }

    /// Stretch = actual / planned duration (1.0 = ran at peak rates, more
    /// than 1 = slowed by contention). Falls back to the spec's ideal duration
    /// when no plan was recorded.
    pub fn stretch(&self) -> Option<f64> {
        let d = self.duration()?;
        let base = self.planned_duration.unwrap_or(self.ideal_duration);
        if base > 0.0 {
            Some(d / base)
        } else {
            None
        }
    }
}

/// Per-machine utilization snapshot.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct MachineSample {
    /// Demand ledger (may exceed capacity — over-allocation).
    pub allocated: ResourceVec,
    /// Actual usage rates (flows + external; never exceeds capacity on
    /// rate dimensions).
    pub usage: ResourceVec,
    /// Running tasks.
    pub running: usize,
}

/// Cluster-wide utilization snapshot.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Sample {
    /// Sample time (seconds).
    pub t: f64,
    /// Total running tasks.
    pub running_tasks: usize,
    /// Σ machine allocation ledgers.
    pub cluster_allocated: ResourceVec,
    /// Σ machine usage.
    pub cluster_usage: ResourceVec,
    /// Per-machine detail (if enabled).
    pub machines: Option<Vec<MachineSample>>,
    /// Per-job local allocation (if enabled), indexed by job id.
    pub per_job_alloc: Option<Vec<ResourceVec>>,
}

/// Engine counters (diagnostics and the overhead table).
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct EngineStats {
    /// Events processed.
    pub events: u64,
    /// schedule() invocations.
    pub schedule_calls: u64,
    /// Assignments applied.
    pub placements: u64,
    /// Assignments rejected as invalid.
    pub rejected_assignments: u64,
    /// Task attempts that failed and re-ran.
    pub task_failures: u64,
    /// Tasks permanently abandoned after exhausting `max_task_attempts`
    /// (terminal-failure audit: their jobs still complete).
    #[serde(default)]
    pub tasks_abandoned: u64,
    /// Machine crash events injected by the fault plan.
    #[serde(default)]
    pub machine_crashes: u64,
    /// Task attempts killed by machine crashes.
    #[serde(default)]
    pub crash_killed_attempts: u64,
    /// Seconds of task progress lost to crashes.
    #[serde(default)]
    pub lost_task_seconds: f64,
    /// Running tasks evicted by priority preemption (DESIGN.md §16;
    /// always 0 with `SimConfig::preemption` off).
    #[serde(default)]
    pub preemptions: u64,
}

/// Everything a run produced.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SimOutcome {
    /// Name of the scheduler that ran.
    pub scheduler: String,
    /// True if every job finished before the hard stop.
    pub completed: bool,
    /// Simulated time at which the run ended (seconds).
    pub final_time: f64,
    /// Per-job records, indexed by job id.
    pub jobs: Vec<JobRecord>,
    /// Per-task records, indexed by task uid.
    pub tasks: Vec<TaskRecord>,
    /// Utilization timeline.
    pub samples: Vec<Sample>,
    /// Engine counters.
    pub stats: EngineStats,
}

impl SimOutcome {
    /// True iff all jobs completed.
    pub fn all_jobs_completed(&self) -> bool {
        self.completed
    }

    /// Makespan: time at which the last job finished (the paper measures
    /// makespan on runs where all jobs arrive at t=0).
    pub fn makespan(&self) -> f64 {
        self.jobs
            .iter()
            .filter_map(|j| j.finish)
            .fold(0.0, f64::max)
    }

    /// Job completion times in job-id order (NaN-free; unfinished jobs are
    /// skipped).
    pub fn jct_vec(&self) -> Vec<f64> {
        self.jobs.iter().filter_map(|j| j.jct()).collect()
    }

    /// Average job completion time.
    pub fn avg_jct(&self) -> f64 {
        let v = self.jct_vec();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    /// JCT of one job.
    pub fn jct(&self, j: JobId) -> Option<f64> {
        self.jobs[j.index()].jct()
    }

    /// Mean stretch (actual/ideal duration) over completed tasks; values
    /// above 1 quantify contention-induced slowdown (over-allocation).
    pub fn mean_task_stretch(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for t in &self.tasks {
            if let Some(s) = t.stretch() {
                sum += s;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// One utilization sample of the cluster as it stands.
pub(crate) fn take_sample(state: &SimState) -> Sample {
    let mut cluster_allocated = ResourceVec::zero();
    let mut cluster_usage = ResourceVec::zero();
    let mut running = 0usize;
    let mut machines = state
        .cfg
        .record_machine_samples
        .then(|| Vec::with_capacity(state.machines.len()));
    for ms in &state.machines {
        let usage = ms.usage(&state.flows);
        cluster_allocated += ms.allocated;
        cluster_usage += usage;
        running += ms.running;
        if let Some(v) = machines.as_mut() {
            v.push(MachineSample {
                allocated: ms.allocated,
                usage,
                running: ms.running,
            });
        }
    }
    let per_job_alloc = state
        .cfg
        .record_job_samples
        .then(|| state.jobs.iter().map(|j| j.allocated).collect());
    Sample {
        t: state.now.as_secs(),
        running_tasks: running,
        cluster_allocated,
        cluster_usage,
        machines,
        per_job_alloc,
    }
}

/// The final record of one task as `state` holds it.
pub(crate) fn task_record(state: &SimState, spec: &TaskSpec) -> TaskRecord {
    let started = state.started(spec.uid);
    TaskRecord {
        uid: spec.uid,
        job: spec.job,
        machine: started.and_then(|s| s.machine),
        start: started.map(|s| s.start.as_secs()),
        finish: started.and_then(|s| s.finish).map(SimTime::as_secs),
        ideal_duration: spec.ideal_duration(),
        planned_duration: started.map(|s| s.planned),
        attempts: started.map_or(0, |s| s.attempts),
        abandoned: state.tasks[spec.uid.index()].phase == Phase::Abandoned,
    }
}

/// The outcome of a run that ended with `state`.
pub(crate) fn finalize(
    state: SimState,
    scheduler: String,
    samples: Vec<Sample>,
    mut stats: EngineStats,
    timed_out: bool,
) -> SimOutcome {
    let jobs: Vec<JobRecord> = state
        .workload
        .jobs
        .iter()
        .enumerate()
        .map(|(ji, spec)| {
            let js = &state.jobs[ji];
            JobRecord {
                id: spec.id,
                name: spec.name.clone(),
                family: spec.family.clone(),
                arrival: spec.arrival,
                first_start: js.first_start.map(SimTime::as_secs),
                finish: js.finish.map(SimTime::as_secs),
                num_tasks: spec.num_tasks(),
            }
        })
        .collect();

    stats.task_failures = state
        .started_tasks()
        .iter()
        .map(|t| (t.attempts.saturating_sub(1)) as u64)
        .sum();
    stats.tasks_abandoned = state.tasks_abandoned;

    let tasks: Vec<TaskRecord> = state
        .workload
        .tasks()
        .map(|spec| task_record(&state, spec))
        .collect();

    SimOutcome {
        scheduler,
        completed: !timed_out,
        final_time: state.now.as_secs(),
        jobs,
        tasks,
        samples,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: usize, arrival: f64, finish: Option<f64>) -> JobRecord {
        JobRecord {
            id: JobId(id),
            name: format!("j{id}"),
            family: None,
            arrival,
            first_start: finish.map(|_| arrival),
            finish,
            num_tasks: 1,
        }
    }

    fn outcome(jobs: Vec<JobRecord>) -> SimOutcome {
        SimOutcome {
            scheduler: "test".into(),
            completed: jobs.iter().all(|j| j.finish.is_some()),
            final_time: 0.0,
            jobs,
            tasks: vec![],
            samples: vec![],
            stats: EngineStats::default(),
        }
    }

    #[test]
    fn jct_and_makespan() {
        let o = outcome(vec![job(0, 10.0, Some(50.0)), job(1, 0.0, Some(30.0))]);
        assert_eq!(o.jct(JobId(0)), Some(40.0));
        assert_eq!(o.makespan(), 50.0);
        assert_eq!(o.avg_jct(), 35.0);
        assert!(o.all_jobs_completed());
    }

    #[test]
    fn unfinished_jobs_skipped() {
        let o = outcome(vec![job(0, 0.0, Some(10.0)), job(1, 0.0, None)]);
        assert!(!o.all_jobs_completed());
        assert_eq!(o.jct_vec(), vec![10.0]);
        assert_eq!(o.avg_jct(), 10.0);
    }

    #[test]
    fn empty_outcome_defaults() {
        let o = outcome(vec![]);
        assert_eq!(o.makespan(), 0.0);
        assert_eq!(o.avg_jct(), 0.0);
        assert_eq!(o.mean_task_stretch(), 0.0);
    }

    #[test]
    fn task_stretch() {
        let t = TaskRecord {
            uid: TaskUid(0),
            job: JobId(0),
            machine: Some(MachineId(0)),
            start: Some(0.0),
            finish: Some(20.0),
            ideal_duration: 8.0,
            planned_duration: Some(10.0),
            attempts: 1,
            abandoned: false,
        };
        assert_eq!(t.duration(), Some(20.0));
        assert_eq!(t.stretch(), Some(2.0));
    }
}
