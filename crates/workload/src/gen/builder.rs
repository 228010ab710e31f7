//! Low-level construction helpers shared by all generators.

use tetris_resources::{Resource, ResourceVec};

use crate::ids::{BlockId, JobId, TaskUid};
use crate::spec::{
    DiurnalCurve, InputSource, InputSpec, JobClass, JobSpec, PlacementConstraints, PriorityClass,
    StageSpec, TaskSpec, Workload,
};

/// Parameters describing one task to be built.
///
/// The builder derives a *consistent* demand/work pair from these: IO rate
/// demands are sized so that streaming the task's bytes takes
/// `duration / io_burst` seconds, and CPU work is `cores × duration ×
/// cpu_frac`. A CPU-bound task therefore has `cpu_frac = 1` and
/// `io_burst > 1` (its peak IO demands are low relative to its duration —
/// the paper's "tasks do substantial computation per data read and hence
/// have low peak I/O demands"), while an IO-bound task has `io_burst = 1`
/// and `cpu_frac < 1`.
#[derive(Debug, Clone)]
pub struct TaskParams {
    /// Peak CPU demand in cores.
    pub cores: f64,
    /// Peak memory in bytes.
    pub mem: f64,
    /// Target duration in seconds when run at peak allocation.
    pub duration: f64,
    /// Fraction of `duration` the CPU is busy (`cpu_work = cores × duration
    /// × cpu_frac`).
    pub cpu_frac: f64,
    /// IO burstiness: peak IO rates are `bytes / (duration / io_burst)`.
    pub io_burst: f64,
    /// Input chunks.
    pub inputs: Vec<InputSpec>,
    /// Bytes written to local disk.
    pub output_bytes: f64,
    /// Expected fraction of input read remotely; scales the peak NetIn
    /// demand (a shuffle reader on an `N`-machine cluster reads about
    /// `(N-1)/N` of its input over the network). Use `1.0` when unknown —
    /// over-estimating is safer than under-estimating (paper §4.1).
    pub remote_frac: f64,
}

impl TaskParams {
    /// Derive the task's peak-demand vector.
    pub fn demand(&self) -> ResourceVec {
        let mut d = ResourceVec::zero()
            .with(
                Resource::Cpu,
                if self.cpu_work() > 0.0 {
                    self.cores
                } else {
                    0.0
                },
            )
            .with(Resource::Mem, self.mem);
        let io_time = (self.duration / self.io_burst).max(1e-6);
        let in_bytes: f64 = self.inputs.iter().map(|i| i.bytes).sum();
        if in_bytes > 0.0 {
            let rate = in_bytes / io_time;
            d.set(Resource::DiskRead, rate);
            // Peak remote-read rate.
            d.set(Resource::NetIn, rate * self.remote_frac);
        }
        if self.output_bytes > 0.0 {
            d.set(Resource::DiskWrite, self.output_bytes / io_time);
        }
        d
    }

    /// CPU work in core-seconds.
    pub fn cpu_work(&self) -> f64 {
        self.cores * self.duration * self.cpu_frac
    }
}

/// Incrementally builds a [`Workload`], handing out dense task uids and
/// block ids.
#[derive(Debug, Default)]
pub struct WorkloadBuilder {
    jobs: Vec<JobSpec>,
    next_uid: usize,
    next_block: usize,
    demand_cap: Option<ResourceVec>,
}

impl WorkloadBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clamp every generated task's peak demand component-wise to `cap`
    /// (normally a machine profile's capacity). A task whose peak demand
    /// exceeds every machine is unschedulable for any feasibility-
    /// respecting policy, so generators must never emit one; clamping the
    /// peak *rate* simply means the task streams its bytes for longer.
    #[must_use]
    pub fn with_demand_cap(mut self, cap: ResourceVec) -> Self {
        self.demand_cap = Some(cap);
        self
    }

    /// Allocate a new stored data block.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.next_block);
        self.next_block += 1;
        id
    }

    /// Convenience: an input spec reading `bytes` from a freshly allocated
    /// block (the common map-task pattern: one task, one block).
    pub fn stored_input(&mut self, bytes: f64) -> InputSpec {
        InputSpec {
            source: InputSource::Stored(self.new_block()),
            bytes,
        }
    }

    /// Start building a job; returns its id.
    pub fn begin_job(
        &mut self,
        name: impl Into<String>,
        family: Option<String>,
        arrival: f64,
    ) -> JobId {
        let id = JobId(self.jobs.len());
        self.jobs.push(JobSpec {
            id,
            name: name.into(),
            family,
            arrival,
            class: JobClass::Batch,
            priority: PriorityClass::default(),
            constraints: PlacementConstraints::none(),
            stages: Vec::new(),
        });
        id
    }

    /// Set the workload class of a job begun earlier (default: batch).
    pub fn set_class(&mut self, job: JobId, class: JobClass) {
        self.jobs[job.index()].class = class;
    }

    /// Set the preemption priority of a job begun earlier (default:
    /// [`PriorityClass::BATCH`]).
    pub fn set_priority(&mut self, job: JobId, priority: PriorityClass) {
        self.jobs[job.index()].priority = priority;
    }

    /// Set the placement constraints of a job begun earlier (default:
    /// none).
    pub fn set_constraints(&mut self, job: JobId, constraints: PlacementConstraints) {
        self.jobs[job.index()].constraints = constraints;
    }

    /// Convenience: start a service job with its class, priority and
    /// constraints in one call.
    #[allow(clippy::too_many_arguments)]
    pub fn begin_service_job(
        &mut self,
        name: impl Into<String>,
        family: Option<String>,
        arrival: f64,
        priority: PriorityClass,
        slo_latency: f64,
        diurnal_curve: DiurnalCurve,
        constraints: PlacementConstraints,
    ) -> JobId {
        let id = self.begin_job(name, family, arrival);
        self.set_class(
            id,
            JobClass::Service {
                slo_latency,
                diurnal_curve,
            },
        );
        self.set_priority(id, priority);
        self.set_constraints(id, constraints);
        id
    }

    /// Append a stage of `n` tasks to job `job`, each built from the params
    /// returned by `make(task_index)`. Returns the stage index.
    pub fn add_stage(
        &mut self,
        job: JobId,
        name: impl Into<String>,
        deps: Vec<usize>,
        n: usize,
        mut make: impl FnMut(usize) -> TaskParams,
    ) -> usize {
        assert!(n > 0, "stage must have at least one task");
        let job_spec = &mut self.jobs[job.index()];
        let stage_idx = job_spec.stages.len();
        let mut tasks = Vec::with_capacity(n);
        for i in 0..n {
            let p = make(i);
            let mut demand = p.demand();
            if let Some(cap) = &self.demand_cap {
                demand = demand.min(cap);
            }
            tasks.push(TaskSpec {
                uid: TaskUid(self.next_uid),
                job,
                stage: stage_idx,
                index: i,
                demand,
                cpu_work: p.cpu_work(),
                output_bytes: p.output_bytes,
                inputs: p.inputs,
            });
            self.next_uid += 1;
        }
        job_spec.stages.push(StageSpec {
            name: name.into(),
            deps,
            tasks,
        });
        stage_idx
    }

    /// Finish: validate and return the workload.
    ///
    /// # Panics
    /// If the built workload violates a structural invariant — generators
    /// are supposed to be correct by construction, so this is a bug guard,
    /// not an input-validation path.
    pub fn finish(self) -> Workload {
        let w = Workload {
            jobs: self.jobs.into(),
            num_blocks: self.next_block,
        };
        if let Err(e) = w.validate() {
            panic!("generator produced invalid workload: {e}");
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_resources::units::{GB, MB};

    fn params(inputs: Vec<InputSpec>) -> TaskParams {
        TaskParams {
            cores: 2.0,
            mem: 4.0 * GB,
            duration: 20.0,
            cpu_frac: 1.0,
            io_burst: 2.0,
            inputs,
            output_bytes: 100.0 * MB,
            remote_frac: 1.0,
        }
    }

    #[test]
    fn demand_derivation_cpu_bound() {
        let mut b = WorkloadBuilder::new();
        let input = b.stored_input(200.0 * MB);
        let p = params(vec![input]);
        let d = p.demand();
        assert_eq!(d.get(Resource::Cpu), 2.0);
        assert_eq!(p.cpu_work(), 40.0);
        // IO must stream in duration/io_burst = 10s.
        assert!((d.get(Resource::DiskRead) - 20.0 * MB).abs() < 1.0);
        assert!((d.get(Resource::DiskWrite) - 10.0 * MB).abs() < 1.0);
        assert_eq!(d.get(Resource::NetIn), d.get(Resource::DiskRead));
    }

    #[test]
    fn zero_io_task_has_no_io_demand() {
        let p = TaskParams {
            inputs: vec![],
            output_bytes: 0.0,
            ..params(vec![])
        };
        let d = p.demand();
        assert_eq!(d.get(Resource::DiskRead), 0.0);
        assert_eq!(d.get(Resource::DiskWrite), 0.0);
        assert_eq!(d.get(Resource::NetIn), 0.0);
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = WorkloadBuilder::new();
        let j0 = b.begin_job("a", None, 0.0);
        let in0 = b.stored_input(MB);
        let in1 = b.stored_input(MB);
        b.add_stage(j0, "map", vec![], 2, |i| {
            let input = if i == 0 { in0 } else { in1 };
            TaskParams {
                inputs: vec![input],
                ..params(vec![])
            }
        });
        let j1 = b.begin_job("b", None, 5.0);
        b.add_stage(j1, "map", vec![], 1, |_| TaskParams {
            inputs: vec![],
            output_bytes: 0.0,
            ..params(vec![])
        });
        let w = b.finish();
        assert_eq!(w.jobs.len(), 2);
        assert_eq!(w.num_blocks, 2);
        assert_eq!(w.num_tasks(), 3);
        let uids: Vec<usize> = w.tasks().map(|t| t.uid.index()).collect();
        assert_eq!(uids, vec![0, 1, 2]);
    }

    #[test]
    fn built_tasks_ideal_duration_matches_target() {
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("a", None, 0.0);
        let input = b.stored_input(200.0 * MB);
        b.add_stage(j, "map", vec![], 1, |_| params(vec![input]));
        let w = b.finish();
        let t = w.task(TaskUid(0)).unwrap();
        // cpu-bound: cpu_work/cores = 20s dominates the 10s IO streams.
        assert!((t.ideal_duration() - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_stage_panics() {
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("a", None, 0.0);
        b.add_stage(j, "map", vec![], 0, |_| unreachable!());
    }
}
