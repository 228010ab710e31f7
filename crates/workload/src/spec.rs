//! Machine-independent workload descriptions: tasks, stages, jobs, DAGs.

use std::fmt;
use std::sync::Arc;

use tetris_resources::{Resource, ResourceVec};

use crate::ids::{BlockId, JobId, TaskUid};

/// Where a task's input bytes come from.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum InputSource {
    /// A stored (HDFS-style) data block. Replica → machine placement is
    /// decided when the workload is bound to a concrete cluster, so the
    /// workload itself stays machine-independent.
    Stored(BlockId),
    /// Shuffle: read the outputs of an upstream stage (by stage index within
    /// the same job). The set of source machines is known only at runtime —
    /// wherever the upstream tasks actually ran — which is exactly why the
    /// paper's disk/network demands are placement-dependent (§3.1).
    Shuffle {
        /// Index of the upstream stage whose outputs are read.
        stage: usize,
    },
}

/// One input chunk of a task.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct InputSpec {
    /// Where the bytes live.
    pub source: InputSource,
    /// How many bytes this task reads from that source.
    pub bytes: f64,
}

/// Static description of one task: peak demands (`d` of paper Table 4) and
/// total work (`f` terms of eqn. 5).
///
/// The *demand* vector holds peak rates (cores, bytes/s) plus peak memory
/// bytes; the *work* quantities ([`TaskSpec::cpu_work`],
/// [`TaskSpec::output_bytes`], input bytes) are what must be processed.
/// A task's runtime is therefore `work / allocated rate`, maximized over
/// dimensions — allocate less than peak and the task stretches, which is how
/// over-allocation by baseline schedulers manifests.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TaskSpec {
    /// Workload-unique task id.
    pub uid: TaskUid,
    /// Owning job.
    pub job: JobId,
    /// Stage index within the job.
    pub stage: usize,
    /// Index within the stage.
    pub index: usize,
    /// True peak resource demands.
    pub demand: ResourceVec,
    /// Total CPU work in core-seconds (`f^cpu`).
    pub cpu_work: f64,
    /// Bytes written to the local disk (`f^diskW`); also the bytes exposed
    /// to downstream shuffle readers.
    pub output_bytes: f64,
    /// Input chunks to read before/while computing.
    pub inputs: Vec<InputSpec>,
}

impl TaskSpec {
    /// Total input bytes across all chunks.
    pub fn input_bytes(&self) -> f64 {
        self.inputs.iter().map(|i| i.bytes).sum()
    }

    /// Lower bound on the task's duration: peak allocation, all inputs
    /// local. This is the `duration` the schedulers *estimate* with
    /// (paper §3.3.1 estimates durations from work and peak demands).
    pub fn ideal_duration(&self) -> f64 {
        let mut d: f64 = 0.0;
        let cpu = self.demand.get(Resource::Cpu);
        if self.cpu_work > 0.0 {
            d = d.max(self.cpu_work / cpu);
        }
        let dw = self.demand.get(Resource::DiskWrite);
        if self.output_bytes > 0.0 {
            d = d.max(self.output_bytes / dw);
        }
        let dr = self.demand.get(Resource::DiskRead);
        let inb = self.input_bytes();
        if inb > 0.0 {
            d = d.max(inb / dr);
        }
        d
    }

    /// True if any input is a shuffle read.
    pub fn reads_shuffle(&self) -> bool {
        self.inputs
            .iter()
            .any(|i| matches!(i.source, InputSource::Shuffle { .. }))
    }
}

/// Workload class of a job: finite batch analytics (the paper's default)
/// or a long-running service whose replicas must start promptly.
///
/// The class changes what "good scheduling" means. Batch jobs are measured
/// by completion time (JCT, makespan); a service is measured by *placement
/// latency* — how long a replica waits between becoming runnable and
/// actually starting — against its SLO, because a replica that is not
/// running is capacity the service does not have at peak.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum JobClass {
    /// Finite analytics job: runs to completion, then leaves.
    #[default]
    Batch,
    /// Long-running service with latency-sensitive replicas.
    Service {
        /// Placement-latency SLO in seconds: a replica that waits longer
        /// than this before starting counts as an SLO violation.
        slo_latency: f64,
        /// Diurnal load curve the service's replica demand follows
        /// (generators size replica waves from it; reports group
        /// violations by its load points).
        diurnal_curve: DiurnalCurve,
    },
}

impl JobClass {
    /// True for the service variant.
    pub fn is_service(&self) -> bool {
        matches!(self, JobClass::Service { .. })
    }

    /// The placement-latency SLO, if this is a service.
    pub fn slo_latency(&self) -> Option<f64> {
        match self {
            JobClass::Batch => None,
            JobClass::Service { slo_latency, .. } => Some(*slo_latency),
        }
    }
}

/// A periodic load curve: relative load multipliers sampled uniformly over
/// one period, linearly interpolated and wrapping. Services follow one of
/// these (user traffic rises by day, falls by night); generators emit
/// replica waves sized by [`DiurnalCurve::load_at`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DiurnalCurve {
    /// Curve period in seconds.
    pub period: f64,
    /// Relative load multipliers (≥ 0), sampled uniformly over the period.
    pub points: Vec<f64>,
}

impl DiurnalCurve {
    /// Constant load 1.0 (a service with no diurnal swing).
    pub fn flat() -> Self {
        DiurnalCurve {
            period: 1.0,
            points: vec![1.0],
        }
    }

    /// Load multiplier at absolute time `t` (linear interpolation between
    /// sample points, wrapping at the period).
    pub fn load_at(&self, t: f64) -> f64 {
        let n = self.points.len();
        if n == 1 {
            return self.points[0];
        }
        let phase = (t.rem_euclid(self.period)) / self.period * n as f64;
        let i = (phase as usize).min(n - 1);
        let frac = phase - i as f64;
        let a = self.points[i];
        let b = self.points[(i + 1) % n];
        a + (b - a) * frac
    }
}

/// Preemption priority of a job. Higher values may evict strictly lower
/// ones when they cannot place ("Priority Matters"-style preemption);
/// equal classes never preempt each other. Valid range is
/// `0..=PriorityClass::MAX` (checked by [`Workload::validate`]).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct PriorityClass(pub u8);

impl PriorityClass {
    /// Highest allowed priority.
    pub const MAX: PriorityClass = PriorityClass(9);
    /// Default batch priority (lowest).
    pub const BATCH: PriorityClass = PriorityClass(0);
    /// Conventional serving priority.
    pub const SERVICE: PriorityClass = PriorityClass(5);

    /// True iff a task of this class may evict a running task of `other`
    /// (strictly greater — equal classes never preempt each other).
    pub fn preempts(self, other: PriorityClass) -> bool {
        self.0 > other.0
    }
}

impl Default for PriorityClass {
    fn default() -> Self {
        PriorityClass::BATCH
    }
}

impl fmt::Display for PriorityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Kubernetes-style placement constraints a scheduler must honor for every
/// task of the job. The empty default constrains nothing, so batch
/// workloads are untouched.
///
/// All predicates are evaluated against *running* tasks and the machine
/// taint table — scheduler-visible state only, never simulation ground
/// truth.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct PlacementConstraints {
    /// Affinity: while at least one listed job has a running task, only
    /// machines hosting one are eligible. Vacuous when none runs anywhere,
    /// so the first replica can bootstrap.
    pub affinity: Vec<JobId>,
    /// Anti-affinity: machines hosting a running task of any listed job
    /// are ineligible.
    pub anti_affinity: Vec<JobId>,
    /// Spread floor: the job's running tasks must cover at least this many
    /// distinct machines before any machine may host a *second* task of
    /// the job. Must be ≤ cluster size (checked at bind time by
    /// [`Workload::validate_for_cluster`]).
    pub spread: Option<usize>,
    /// Taint-toleration bitmask: a machine whose `SimConfig::machine_taints`
    /// entry has bits outside this mask is ineligible. Untainted machines
    /// are always eligible; the default `0` tolerates no taints.
    pub tolerations: u64,
}

impl PlacementConstraints {
    /// No constraints (the batch default).
    pub fn none() -> Self {
        Self::default()
    }

    /// True if any job-level predicate is set (taint checks still apply on
    /// tainted clusters — use this only as a hot-path skip on untainted
    /// ones).
    pub fn has_any(&self) -> bool {
        !self.affinity.is_empty() || !self.anti_affinity.is_empty() || self.spread.is_some()
    }

    /// Builder: require co-location with `job`.
    #[must_use]
    pub fn with_affinity(mut self, job: JobId) -> Self {
        self.affinity.push(job);
        self
    }

    /// Builder: forbid co-location with `job`.
    #[must_use]
    pub fn with_anti_affinity(mut self, job: JobId) -> Self {
        self.anti_affinity.push(job);
        self
    }

    /// Builder: require the job to span at least `machines` machines.
    #[must_use]
    pub fn with_spread(mut self, machines: usize) -> Self {
        self.spread = Some(machines);
        self
    }

    /// Builder: tolerate the given taint bits.
    #[must_use]
    pub fn with_tolerations(mut self, mask: u64) -> Self {
        self.tolerations |= mask;
        self
    }
}

/// A stage: a set of tasks doing the same computation over different data
/// partitions, separated from upstream stages by a barrier.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StageSpec {
    /// Human-readable name ("map", "reduce", "join-2", ...).
    pub name: String,
    /// Upstream stage indices. All upstream tasks must finish before any
    /// task of this stage starts (strict barrier, paper §2.1/§3.5).
    pub deps: Vec<usize>,
    /// The stage's tasks.
    pub tasks: Vec<TaskSpec>,
}

impl StageSpec {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if the stage has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

/// A job: a DAG of stages plus an arrival time.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JobSpec {
    /// Dense job id within the workload.
    pub id: JobId,
    /// Human-readable name.
    pub name: String,
    /// Recurring-job family. Analytics jobs repeat hourly/daily on new data
    /// (paper §4.1); jobs in the same family share demand statistics, which
    /// is what the demand estimator exploits.
    pub family: Option<String>,
    /// Arrival time in seconds from the start of the trace.
    pub arrival: f64,
    /// Workload class: batch analytics or long-running service. Absent in
    /// pre-serving traces, so deserialization defaults to batch.
    #[serde(default)]
    pub class: JobClass,
    /// Preemption priority (default: lowest, the batch class).
    #[serde(default)]
    pub priority: PriorityClass,
    /// Placement constraints (default: none).
    #[serde(default)]
    pub constraints: PlacementConstraints,
    /// Stages in topological order (deps always point backwards).
    pub stages: Vec<StageSpec>,
}

/// Convenience alias: a `Job` is its static spec.
pub type Job = JobSpec;

impl JobSpec {
    /// Total number of tasks across stages.
    pub fn num_tasks(&self) -> usize {
        self.stages.iter().map(|s| s.tasks.len()).sum()
    }

    /// Iterate over all tasks of the job.
    pub fn tasks(&self) -> impl Iterator<Item = &TaskSpec> {
        self.stages.iter().flat_map(|s| s.tasks.iter())
    }
}

/// A complete workload: jobs plus the universe of stored data blocks their
/// map tasks read.
///
/// The job table is shared: a clone bumps a reference count, so every
/// simulation state and probe bound to one workload reads one copy of
/// it. Build a table as a `Vec` and convert it (`vec.into()`); change
/// one through [`Workload::jobs_mut`], which copies it first if another
/// workload still shares it.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Workload {
    /// Jobs, indexed by [`JobId`].
    pub jobs: Arc<[JobSpec]>,
    /// Number of distinct stored blocks referenced by `Stored` inputs.
    /// Block → machine replica placement happens at simulation bind time.
    pub num_blocks: usize,
}

/// Error from [`Workload::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// `jobs[i].id != i`.
    NonDenseJobId(usize),
    /// Task uid appears twice or lies outside `0..num_tasks()`, or the task
    /// back-references the wrong job/stage.
    BadTaskIdentity(TaskUid),
    /// Stage dep points at itself or forward (stages must be topo-ordered).
    BadStageDep {
        /// Offending job.
        job: JobId,
        /// Offending stage index.
        stage: usize,
        /// The invalid dependency value.
        dep: usize,
    },
    /// Shuffle input references a stage that is not a declared dependency.
    ShuffleNotADep {
        /// Offending task.
        task: TaskUid,
        /// The referenced stage index.
        stage: usize,
    },
    /// Stored input references a block id `>= num_blocks`.
    UnknownBlock(BlockId),
    /// A demand component is negative or NaN.
    BadDemand(TaskUid),
    /// An input's byte count is negative, NaN or infinite (zero is legal:
    /// the read completes the instant it starts).
    BadInputBytes(TaskUid),
    /// Task has work along a dimension but zero peak demand for it, so its
    /// duration would be infinite.
    WorkWithoutDemand {
        /// Offending task.
        task: TaskUid,
        /// Dimension with work but no demand.
        resource: Resource,
    },
    /// Negative arrival time.
    BadArrival(JobId),
    /// A job has no stages or a stage has no tasks.
    Empty(JobId),
    /// Priority outside `0..=PriorityClass::MAX`.
    BadPriority(JobId),
    /// Service SLO is zero, negative or NaN.
    BadSlo(JobId),
    /// Diurnal curve has a non-positive period, no points, or a
    /// negative/NaN point.
    BadDiurnal(JobId),
    /// Spread floor of zero (meaningless: every placement spans ≥ 1
    /// machine).
    BadSpread(JobId),
    /// Affinity/anti-affinity references an unknown job or the job itself.
    BadConstraintJob {
        /// Job carrying the constraint.
        job: JobId,
        /// The invalid referenced job.
        target: JobId,
    },
    /// Spread floor exceeds the cluster size the workload is bound to
    /// (only from [`Workload::validate_for_cluster`]).
    SpreadExceedsMachines {
        /// Job carrying the constraint.
        job: JobId,
        /// The requested spread floor.
        spread: usize,
        /// Machines in the target cluster.
        machines: usize,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::NonDenseJobId(i) => write!(f, "job at position {i} has wrong id"),
            ValidationError::BadTaskIdentity(t) => write!(f, "task {t} has bad identity"),
            ValidationError::BadStageDep { job, stage, dep } => {
                write!(f, "{job} stage {stage} has invalid dep {dep}")
            }
            ValidationError::ShuffleNotADep { task, stage } => {
                write!(f, "task {task} shuffles from non-dependency stage {stage}")
            }
            ValidationError::UnknownBlock(b) => write!(f, "unknown block {b}"),
            ValidationError::BadDemand(t) => write!(f, "task {t} has negative/NaN demand"),
            ValidationError::BadInputBytes(t) => {
                write!(f, "task {t} has a negative/NaN/infinite input size")
            }
            ValidationError::WorkWithoutDemand { task, resource } => {
                write!(f, "task {task} has {resource} work but zero demand")
            }
            ValidationError::BadArrival(j) => write!(f, "{j} has negative arrival"),
            ValidationError::Empty(j) => write!(f, "{j} has an empty stage list or stage"),
            ValidationError::BadPriority(j) => {
                write!(f, "{j} priority above {}", PriorityClass::MAX)
            }
            ValidationError::BadSlo(j) => write!(f, "{j} has non-positive SLO latency"),
            ValidationError::BadDiurnal(j) => write!(f, "{j} has an invalid diurnal curve"),
            ValidationError::BadSpread(j) => write!(f, "{j} has a zero spread floor"),
            ValidationError::BadConstraintJob { job, target } => {
                write!(f, "{job} constraint references invalid {target}")
            }
            ValidationError::SpreadExceedsMachines {
                job,
                spread,
                machines,
            } => write!(f, "{job} spread {spread} exceeds cluster size {machines}"),
        }
    }
}

impl std::error::Error for ValidationError {}

impl Workload {
    /// The job table, writable: copied first if another workload shares
    /// it ([`Arc::make_mut`]), so no clone sees the change.
    pub fn jobs_mut(&mut self) -> &mut [JobSpec] {
        Arc::make_mut(&mut self.jobs)
    }

    /// Total number of tasks across all jobs.
    pub fn num_tasks(&self) -> usize {
        self.jobs.iter().map(|j| j.num_tasks()).sum()
    }

    /// Look up a task by uid (O(#jobs + #stage tasks); build an index if you
    /// need this hot — the simulator does).
    pub fn task(&self, uid: TaskUid) -> Option<&TaskSpec> {
        self.jobs
            .iter()
            .flat_map(|j| j.tasks())
            .find(|t| t.uid == uid)
    }

    /// Iterate over all tasks.
    pub fn tasks(&self) -> impl Iterator<Item = &TaskSpec> {
        self.jobs.iter().flat_map(|j| j.tasks())
    }

    /// Check every structural invariant the simulator relies on.
    pub fn validate(&self) -> Result<(), ValidationError> {
        // Task uids are dense, `0..num_tasks()` each used once: the
        // simulator indexes per-task tables by them.
        let mut seen_uids = vec![false; self.num_tasks()];
        for (ji, job) in self.jobs.iter().enumerate() {
            if job.id.index() != ji {
                return Err(ValidationError::NonDenseJobId(ji));
            }
            if !(job.arrival >= 0.0) {
                return Err(ValidationError::BadArrival(job.id));
            }
            if job.stages.is_empty() || job.stages.iter().any(|s| s.is_empty()) {
                return Err(ValidationError::Empty(job.id));
            }
            if job.priority > PriorityClass::MAX {
                return Err(ValidationError::BadPriority(job.id));
            }
            if let JobClass::Service {
                slo_latency,
                diurnal_curve,
            } = &job.class
            {
                if !(*slo_latency > 0.0) {
                    return Err(ValidationError::BadSlo(job.id));
                }
                if !(diurnal_curve.period > 0.0)
                    || diurnal_curve.points.is_empty()
                    || diurnal_curve.points.iter().any(|p| !(*p >= 0.0))
                {
                    return Err(ValidationError::BadDiurnal(job.id));
                }
            }
            if job.constraints.spread == Some(0) {
                return Err(ValidationError::BadSpread(job.id));
            }
            for &target in job
                .constraints
                .affinity
                .iter()
                .chain(job.constraints.anti_affinity.iter())
            {
                if target.index() >= self.jobs.len() || target == job.id {
                    return Err(ValidationError::BadConstraintJob {
                        job: job.id,
                        target,
                    });
                }
            }
            for (si, stage) in job.stages.iter().enumerate() {
                for &dep in &stage.deps {
                    if dep >= si {
                        return Err(ValidationError::BadStageDep {
                            job: job.id,
                            stage: si,
                            dep,
                        });
                    }
                }
                for (ti, task) in stage.tasks.iter().enumerate() {
                    if task.job != job.id || task.stage != si || task.index != ti {
                        return Err(ValidationError::BadTaskIdentity(task.uid));
                    }
                    match seen_uids.get_mut(task.uid.index()) {
                        Some(seen) if !*seen => *seen = true,
                        _ => return Err(ValidationError::BadTaskIdentity(task.uid)),
                    }
                    if task.demand.has_nan() || task.demand.min_component() < 0.0 {
                        return Err(ValidationError::BadDemand(task.uid));
                    }
                    for input in &task.inputs {
                        if !(input.bytes >= 0.0 && input.bytes.is_finite()) {
                            return Err(ValidationError::BadInputBytes(task.uid));
                        }
                        match input.source {
                            InputSource::Stored(b) => {
                                if b.index() >= self.num_blocks {
                                    return Err(ValidationError::UnknownBlock(b));
                                }
                            }
                            InputSource::Shuffle { stage: up } => {
                                if !stage.deps.contains(&up) {
                                    return Err(ValidationError::ShuffleNotADep {
                                        task: task.uid,
                                        stage: up,
                                    });
                                }
                            }
                        }
                    }
                    // Work along a dimension requires non-zero peak demand.
                    let checks = [
                        (task.cpu_work, Resource::Cpu),
                        (task.output_bytes, Resource::DiskWrite),
                        (task.input_bytes(), Resource::DiskRead),
                    ];
                    for (work, r) in checks {
                        if work > 0.0 && task.demand.get(r) <= 0.0 {
                            return Err(ValidationError::WorkWithoutDemand {
                                task: task.uid,
                                resource: r,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// [`Workload::validate`] plus the bind-time checks that need the
    /// target cluster: a spread floor can only be met on a cluster with at
    /// least that many machines. The simulator calls this when a workload
    /// is bound to a concrete cluster.
    pub fn validate_for_cluster(&self, machines: usize) -> Result<(), ValidationError> {
        self.validate()?;
        for job in self.jobs.iter() {
            if let Some(spread) = job.constraints.spread {
                if spread > machines {
                    return Err(ValidationError::SpreadExceedsMachines {
                        job: job.id,
                        spread,
                        machines,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_resources::units::{GB, MB};

    fn simple_task(uid: usize, job: usize, stage: usize, index: usize) -> TaskSpec {
        TaskSpec {
            uid: TaskUid(uid),
            job: JobId(job),
            stage,
            index,
            demand: ResourceVec::zero()
                .with(Resource::Cpu, 1.0)
                .with(Resource::Mem, 2.0 * GB)
                .with(Resource::DiskRead, 50.0 * MB)
                .with(Resource::DiskWrite, 50.0 * MB),
            cpu_work: 30.0,
            output_bytes: 100.0 * MB,
            inputs: vec![InputSpec {
                source: InputSource::Stored(BlockId(0)),
                bytes: 200.0 * MB,
            }],
        }
    }

    fn simple_workload() -> Workload {
        let map = StageSpec {
            name: "map".into(),
            deps: vec![],
            tasks: vec![simple_task(0, 0, 0, 0), simple_task(1, 0, 0, 1)],
        };
        let mut rt = simple_task(2, 0, 1, 0);
        rt.inputs = vec![InputSpec {
            source: InputSource::Shuffle { stage: 0 },
            bytes: 150.0 * MB,
        }];
        let reduce = StageSpec {
            name: "reduce".into(),
            deps: vec![0],
            tasks: vec![rt],
        };
        Workload {
            jobs: vec![JobSpec {
                id: JobId(0),
                name: "job0".into(),
                family: None,
                arrival: 0.0,
                class: JobClass::Batch,
                priority: PriorityClass::default(),
                constraints: PlacementConstraints::none(),
                stages: vec![map, reduce],
            }]
            .into(),
            num_blocks: 1,
        }
    }

    #[test]
    fn valid_workload_passes() {
        assert_eq!(simple_workload().validate(), Ok(()));
    }

    #[test]
    fn ideal_duration_is_bottleneck() {
        let t = simple_task(0, 0, 0, 0);
        // cpu: 30s; read: 200MB/50MBps = 4s; write: 100/50 = 2s → 30s.
        assert!((t.ideal_duration() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn ideal_duration_io_bound() {
        let mut t = simple_task(0, 0, 0, 0);
        t.cpu_work = 1.0;
        assert!((t.ideal_duration() - 4.0).abs() < 1e-9);
    }

    /// `simple_workload()`'s wire bytes as a `Vec` job table wrote them:
    /// sharing the table changes no byte of a trace file.
    const SIMPLE_WORKLOAD_JSON: &str = concat!(
        r#"{"jobs":[{"id":0,"name":"job0","family":null,"arrival":0.0,"class":"Batch","#,
        r#""priority":0,"constraints":{"affinity":[],"anti_affinity":[],"spread":null,"#,
        r#""tolerations":0},"stages":[{"name":"map","deps":[],"tasks":[{"uid":0,"job":0,"#,
        r#""stage":0,"index":0,"demand":[1.0,2000000000.0,50000000.0,50000000.0,0.0,0.0],"#,
        r#""cpu_work":30.0,"output_bytes":100000000.0,"inputs":[{"source":{"Stored":0},"#,
        r#""bytes":200000000.0}]},{"uid":1,"job":0,"stage":0,"index":1,"demand":[1.0,"#,
        r#"2000000000.0,50000000.0,50000000.0,0.0,0.0],"cpu_work":30.0,"output_bytes":"#,
        r#"100000000.0,"inputs":[{"source":{"Stored":0},"bytes":200000000.0}]}]},{"name":"#,
        r#""reduce","deps":[0],"tasks":[{"uid":2,"job":0,"stage":1,"index":0,"demand":[1.0,"#,
        r#"2000000000.0,50000000.0,50000000.0,0.0,0.0],"cpu_work":30.0,"output_bytes":"#,
        r#"100000000.0,"inputs":[{"source":{"Shuffle":{"stage":0}},"bytes":150000000.0}]}]}]}],"#,
        r#""num_blocks":1}"#,
    );

    #[test]
    fn the_job_table_encodes_as_before_and_reads_back() {
        let w = simple_workload();
        assert_eq!(serde_json::to_string(&w).unwrap(), SIMPLE_WORKLOAD_JSON);
        let back: Workload = serde_json::from_str(SIMPLE_WORKLOAD_JSON).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn a_clone_shares_the_job_table_and_a_write_copies_it() {
        let w = simple_workload();
        let mut c = w.clone();
        assert!(Arc::ptr_eq(&w.jobs, &c.jobs), "a clone is a reference");
        c.jobs_mut()[0].arrival = 5.0;
        assert!(!Arc::ptr_eq(&w.jobs, &c.jobs), "the write copied first");
        assert_eq!(w.jobs[0].arrival, 0.0, "the original is untouched");
        assert_eq!(c.jobs[0].arrival, 5.0);
        // Now the clone's own: a second write lands in place.
        let table = Arc::as_ptr(&c.jobs);
        c.jobs_mut()[0].arrival = 6.0;
        assert_eq!(Arc::as_ptr(&c.jobs), table);
        assert_eq!(c.jobs[0].arrival, 6.0);
    }

    #[test]
    fn counts() {
        let w = simple_workload();
        assert_eq!(w.num_tasks(), 3);
        assert_eq!(w.jobs[0].num_tasks(), 3);
        assert!(w.task(TaskUid(2)).unwrap().reads_shuffle());
        assert!(!w.task(TaskUid(0)).unwrap().reads_shuffle());
    }

    #[test]
    fn detects_duplicate_uid() {
        let mut w = simple_workload();
        w.jobs_mut()[0].stages[0].tasks[1].uid = TaskUid(0);
        assert!(matches!(
            w.validate(),
            Err(ValidationError::BadTaskIdentity(_))
        ));
    }

    #[test]
    fn detects_forward_dep() {
        let mut w = simple_workload();
        w.jobs_mut()[0].stages[1].deps = vec![1];
        assert!(matches!(
            w.validate(),
            Err(ValidationError::BadStageDep { .. })
        ));
    }

    #[test]
    fn detects_shuffle_from_non_dep() {
        let mut w = simple_workload();
        w.jobs_mut()[0].stages[1].deps = vec![];
        assert!(matches!(
            w.validate(),
            Err(ValidationError::ShuffleNotADep { .. })
        ));
    }

    #[test]
    fn detects_unknown_block() {
        let mut w = simple_workload();
        w.num_blocks = 0;
        assert!(matches!(
            w.validate(),
            Err(ValidationError::UnknownBlock(_))
        ));
    }

    #[test]
    fn detects_work_without_demand() {
        let mut w = simple_workload();
        w.jobs_mut()[0].stages[0].tasks[0]
            .demand
            .set(Resource::DiskWrite, 0.0);
        assert!(matches!(
            w.validate(),
            Err(ValidationError::WorkWithoutDemand {
                resource: Resource::DiskWrite,
                ..
            })
        ));
    }

    #[test]
    fn detects_negative_demand() {
        let mut w = simple_workload();
        w.jobs_mut()[0].stages[0].tasks[0]
            .demand
            .set(Resource::Cpu, -1.0);
        assert!(matches!(w.validate(), Err(ValidationError::BadDemand(_))));
    }

    #[test]
    fn detects_bad_input_bytes() {
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            let mut w = simple_workload();
            w.jobs_mut()[0].stages[0].tasks[0].inputs[0].bytes = bad;
            assert_eq!(
                w.validate(),
                Err(ValidationError::BadInputBytes(TaskUid(0))),
                "{bad}"
            );
        }
        let mut w = simple_workload();
        w.jobs_mut()[0].stages[0].tasks[0].inputs[0].bytes = 0.0;
        assert_eq!(w.validate(), Ok(()));
    }

    #[test]
    fn detects_empty_stage() {
        let mut w = simple_workload();
        w.jobs_mut()[0].stages[0].tasks.clear();
        assert!(matches!(w.validate(), Err(ValidationError::Empty(_))));
    }

    #[test]
    fn detects_bad_arrival() {
        let mut w = simple_workload();
        w.jobs_mut()[0].arrival = -1.0;
        assert!(matches!(w.validate(), Err(ValidationError::BadArrival(_))));
    }

    #[test]
    fn detects_bad_priority() {
        let mut w = simple_workload();
        w.jobs_mut()[0].priority = PriorityClass(PriorityClass::MAX.0 + 1);
        assert!(matches!(w.validate(), Err(ValidationError::BadPriority(_))));
    }

    #[test]
    fn detects_bad_slo() {
        let mut w = simple_workload();
        w.jobs_mut()[0].class = JobClass::Service {
            slo_latency: 0.0,
            diurnal_curve: DiurnalCurve::flat(),
        };
        assert!(matches!(w.validate(), Err(ValidationError::BadSlo(_))));
    }

    #[test]
    fn detects_bad_diurnal_curve() {
        let mut w = simple_workload();
        for curve in [
            DiurnalCurve {
                period: 0.0,
                points: vec![1.0],
            },
            DiurnalCurve {
                period: 10.0,
                points: vec![],
            },
            DiurnalCurve {
                period: 10.0,
                points: vec![1.0, -0.5],
            },
        ] {
            w.jobs_mut()[0].class = JobClass::Service {
                slo_latency: 5.0,
                diurnal_curve: curve,
            };
            assert!(matches!(w.validate(), Err(ValidationError::BadDiurnal(_))));
        }
    }

    #[test]
    fn detects_zero_spread() {
        let mut w = simple_workload();
        w.jobs_mut()[0].constraints.spread = Some(0);
        assert!(matches!(w.validate(), Err(ValidationError::BadSpread(_))));
    }

    #[test]
    fn detects_bad_constraint_target() {
        let mut w = simple_workload();
        // Unknown job.
        w.jobs_mut()[0].constraints.anti_affinity = vec![JobId(7)];
        assert!(matches!(
            w.validate(),
            Err(ValidationError::BadConstraintJob { .. })
        ));
        // Self-reference.
        w.jobs_mut()[0].constraints.anti_affinity.clear();
        w.jobs_mut()[0].constraints.affinity = vec![JobId(0)];
        assert!(matches!(
            w.validate(),
            Err(ValidationError::BadConstraintJob { .. })
        ));
    }

    #[test]
    fn spread_checked_against_cluster() {
        let mut w = simple_workload();
        w.jobs_mut()[0].constraints.spread = Some(5);
        assert_eq!(w.validate(), Ok(()));
        assert!(matches!(
            w.validate_for_cluster(3),
            Err(ValidationError::SpreadExceedsMachines {
                spread: 5,
                machines: 3,
                ..
            })
        ));
        assert_eq!(w.validate_for_cluster(5), Ok(()));
    }

    #[test]
    fn valid_service_job_passes() {
        let mut w = simple_workload();
        w.jobs_mut()[0].class = JobClass::Service {
            slo_latency: 10.0,
            diurnal_curve: DiurnalCurve {
                period: 3600.0,
                points: vec![0.2, 1.0, 0.6],
            },
        };
        w.jobs_mut()[0].priority = PriorityClass::SERVICE;
        w.jobs_mut()[0].constraints = PlacementConstraints::none().with_spread(2);
        assert_eq!(w.validate(), Ok(()));
        assert!(w.jobs[0].class.is_service());
        assert_eq!(w.jobs[0].class.slo_latency(), Some(10.0));
    }

    #[test]
    fn priority_preempts_is_strict() {
        assert!(PriorityClass::SERVICE.preempts(PriorityClass::BATCH));
        assert!(!PriorityClass::BATCH.preempts(PriorityClass::BATCH));
        assert!(!PriorityClass::BATCH.preempts(PriorityClass::SERVICE));
    }

    #[test]
    fn diurnal_curve_interpolates_and_wraps() {
        let c = DiurnalCurve {
            period: 100.0,
            points: vec![0.0, 1.0],
        };
        assert!((c.load_at(0.0) - 0.0).abs() < 1e-9);
        assert!((c.load_at(25.0) - 0.5).abs() < 1e-9);
        // Second half interpolates back toward points[0] (wrap).
        assert!((c.load_at(75.0) - 0.5).abs() < 1e-9);
        assert!((c.load_at(125.0) - 0.5).abs() < 1e-9);
        assert_eq!(DiurnalCurve::flat().load_at(123.0), 1.0);
    }

    #[test]
    fn constraints_builder_and_emptiness() {
        let c = PlacementConstraints::none();
        assert!(!c.has_any());
        let c = c
            .with_affinity(JobId(1))
            .with_anti_affinity(JobId(2))
            .with_spread(3)
            .with_tolerations(0b101);
        assert!(c.has_any());
        assert_eq!(c.affinity, vec![JobId(1)]);
        assert_eq!(c.anti_affinity, vec![JobId(2)]);
        assert_eq!(c.spread, Some(3));
        assert_eq!(c.tolerations, 0b101);
    }

    #[test]
    fn validation_errors_display() {
        // Every variant renders without panicking.
        let errs: Vec<ValidationError> = vec![
            ValidationError::NonDenseJobId(1),
            ValidationError::BadTaskIdentity(TaskUid(1)),
            ValidationError::BadStageDep {
                job: JobId(0),
                stage: 1,
                dep: 2,
            },
            ValidationError::ShuffleNotADep {
                task: TaskUid(1),
                stage: 0,
            },
            ValidationError::UnknownBlock(BlockId(9)),
            ValidationError::BadDemand(TaskUid(1)),
            ValidationError::BadInputBytes(TaskUid(1)),
            ValidationError::WorkWithoutDemand {
                task: TaskUid(1),
                resource: Resource::Cpu,
            },
            ValidationError::BadArrival(JobId(0)),
            ValidationError::Empty(JobId(0)),
            ValidationError::BadPriority(JobId(0)),
            ValidationError::BadSlo(JobId(0)),
            ValidationError::BadDiurnal(JobId(0)),
            ValidationError::BadSpread(JobId(0)),
            ValidationError::BadConstraintJob {
                job: JobId(0),
                target: JobId(1),
            },
            ValidationError::SpreadExceedsMachines {
                job: JobId(0),
                spread: 4,
                machines: 2,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
