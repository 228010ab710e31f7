//! The deployment workload suite of paper §5.1.
//!
//! "We constructed a workload suite of over 200 jobs by picking uniformly at
//! random from the following choices. Job size (number of tasks) and the
//! selectivity of map and reduce tasks are chosen from one of four choices:
//! large & highly-selective, medium & inflating, medium & selective and,
//! small & selective. [...] A map- or reduce-stage could either have tasks
//! of high-mem or low-mem. Similarly the stage could either have tasks with
//! high-cpu or low-cpu [...]. Job arrival time is uniformly picked at random
//! between [0:1000]s."

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tetris_resources::units::{GB, MB};
use tetris_resources::MachineSpec;

use crate::gen::builder::{TaskParams, WorkloadBuilder};
use crate::spec::{InputSource, InputSpec, Workload};

/// The four job classes of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSizeClass {
    /// ~2000 tasks, output:input = 0.1.
    LargeHighlySelective,
    /// ~500 tasks, output:input = 2.0.
    MediumInflating,
    /// ~500 tasks, output:input = 0.5.
    MediumSelective,
    /// ~100 tasks, output:input = 0.5.
    SmallSelective,
}

impl JobSizeClass {
    /// All classes, picked uniformly at random by the generator.
    pub const ALL: [JobSizeClass; 4] = [
        JobSizeClass::LargeHighlySelective,
        JobSizeClass::MediumInflating,
        JobSizeClass::MediumSelective,
        JobSizeClass::SmallSelective,
    ];

    /// Number of map tasks before scaling.
    pub fn map_tasks(self) -> usize {
        match self {
            JobSizeClass::LargeHighlySelective => 2000,
            JobSizeClass::MediumInflating | JobSizeClass::MediumSelective => 500,
            JobSizeClass::SmallSelective => 100,
        }
    }

    /// Output-to-input ratio.
    pub fn selectivity(self) -> f64 {
        match self {
            JobSizeClass::LargeHighlySelective => 0.1,
            JobSizeClass::MediumInflating => 2.0,
            JobSizeClass::MediumSelective | JobSizeClass::SmallSelective => 0.5,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            JobSizeClass::LargeHighlySelective => "L-HS",
            JobSizeClass::MediumInflating => "M-I",
            JobSizeClass::MediumSelective => "M-S",
            JobSizeClass::SmallSelective => "S-S",
        }
    }
}

/// Configuration of the §5.1 workload suite generator.
///
/// `scale` multiplies task counts so experiments can be sized to the host:
/// the paper runs this suite on a 250-machine cluster; with `scale = 0.1`
/// and a 25-machine cluster the per-machine load — which is what determines
/// packing behaviour — is unchanged.
#[derive(Debug, Clone)]
pub struct WorkloadSuiteConfig {
    /// Number of jobs (paper: "over 200").
    pub n_jobs: usize,
    /// Task-count multiplier applied to every class size.
    pub scale: f64,
    /// Arrival window `[0, horizon]` seconds (paper: 1000 s).
    pub arrival_horizon: f64,
    /// Bytes read by each map task (one stored block each).
    pub map_input_bytes: f64,
    /// Target bytes of shuffle input per reduce task (sets reduce counts).
    pub reduce_input_target: f64,
    /// High/low memory per task in bytes (paper: 8 GB / 2 GB).
    pub mem_high: f64,
    /// Low-memory option.
    pub mem_low: f64,
    /// Machine profile whose capacity caps every task's peak demand
    /// (a task demanding more than any machine is unschedulable).
    pub machine_profile: MachineSpec,
}

impl Default for WorkloadSuiteConfig {
    fn default() -> Self {
        WorkloadSuiteConfig {
            n_jobs: 200,
            scale: 1.0,
            arrival_horizon: 1000.0,
            map_input_bytes: 512.0 * MB,
            reduce_input_target: 2.0 * GB,
            mem_high: 6.0 * GB,
            mem_low: 1.0 * GB,
            machine_profile: MachineSpec::paper_large(),
        }
    }
}

impl WorkloadSuiteConfig {
    /// The paper-scale suite (200 jobs, full class sizes).
    pub fn paper() -> Self {
        Self::default()
    }

    /// A laptop-scale suite preserving per-machine load when paired with a
    /// proportionally smaller cluster.
    pub fn scaled(n_jobs: usize, scale: f64) -> Self {
        WorkloadSuiteConfig {
            n_jobs,
            scale,
            ..Self::default()
        }
    }

    /// A tiny suite for unit/integration tests (seconds to simulate).
    /// Demands are capped to the *small* machine profile so tests can run
    /// the workload on either cluster flavour.
    pub fn small() -> Self {
        WorkloadSuiteConfig {
            n_jobs: 12,
            scale: 0.02,
            arrival_horizon: 200.0,
            machine_profile: MachineSpec::paper_small(),
            ..Self::default()
        }
    }

    /// Generate the workload from a seed.
    pub fn generate(&self, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = WorkloadBuilder::new().with_demand_cap(self.machine_profile.capacity());
        for jn in 0..self.n_jobs {
            let class = JobSizeClass::ALL[rng.gen_range(0..JobSizeClass::ALL.len())];
            let arrival = rng.gen_range(0.0..self.arrival_horizon);
            self.add_job(&mut b, &mut rng, jn, class, arrival);
        }
        b.finish()
    }

    /// Append one job of the given class (public so tests and the Fig-10
    /// deep-DAG variant can compose suites manually).
    pub fn add_job(
        &self,
        b: &mut WorkloadBuilder,
        rng: &mut StdRng,
        ordinal: usize,
        class: JobSizeClass,
        arrival: f64,
    ) {
        let n_maps = ((class.map_tasks() as f64 * self.scale).round() as usize).max(2);
        let sel = class.selectivity();
        let map_out = self.map_input_bytes * sel;
        let total_shuffle = map_out * n_maps as f64;
        let n_reduces =
            ((total_shuffle / self.reduce_input_target).round() as usize).clamp(1, n_maps.max(1));
        let reduce_in = total_shuffle / n_reduces as f64;

        let job = b.begin_job(format!("{}-{}", class.label(), ordinal), None, arrival);

        // Per-stage choices (paper: per-stage high/low mem and cpu).
        let map_mem = if rng.gen_bool(0.5) {
            self.mem_high
        } else {
            self.mem_low
        };
        let map_cpu_heavy = rng.gen_bool(0.5);
        let red_mem = if rng.gen_bool(0.5) {
            self.mem_high
        } else {
            self.mem_low
        };
        let red_cpu_heavy = rng.gen_bool(0.5);

        let map_base_dur = if map_cpu_heavy {
            rng.gen_range(60.0..180.0)
        } else {
            rng.gen_range(20.0..60.0)
        };
        let red_base_dur = if red_cpu_heavy {
            rng.gen_range(60.0..180.0)
        } else {
            rng.gen_range(20.0..60.0)
        };

        // Pre-draw per-task jitters to keep rng use deterministic in order.
        let map_inputs: Vec<InputSpec> = (0..n_maps)
            .map(|_| b.stored_input(self.map_input_bytes))
            .collect();
        let map_jitter: Vec<(f64, f64)> = (0..n_maps)
            .map(|_| (rng.gen_range(0.9..1.1), rng.gen_range(0.96..1.04)))
            .collect();
        b.add_stage(job, "map", vec![], n_maps, |i| {
            let (dj, mj) = map_jitter[i];
            stage_task(
                map_cpu_heavy,
                map_mem * mj,
                map_base_dur * dj,
                vec![map_inputs[i]],
                map_out,
            )
        });

        let red_jitter: Vec<(f64, f64)> = (0..n_reduces)
            .map(|_| (rng.gen_range(0.9..1.1), rng.gen_range(0.96..1.04)))
            .collect();
        b.add_stage(job, "reduce", vec![0], n_reduces, |i| {
            let (dj, mj) = red_jitter[i];
            stage_task(
                red_cpu_heavy,
                red_mem * mj,
                red_base_dur * dj,
                vec![InputSpec {
                    source: InputSource::Shuffle { stage: 0 },
                    bytes: reduce_in,
                }],
                // Reduce output is written to the local disk (final output).
                reduce_in * sel.min(1.0),
            )
        });
    }
}

/// Build one task's params from the stage-level high/low cpu choice.
fn stage_task(
    cpu_heavy: bool,
    mem: f64,
    duration: f64,
    inputs: Vec<InputSpec>,
    output_bytes: f64,
) -> TaskParams {
    if cpu_heavy {
        TaskParams {
            cores: 4.0,
            mem,
            duration,
            cpu_frac: 1.0,
            // CPU-heavy tasks do a lot of computation per byte: their peak
            // IO demands are low (IO could finish in half the duration).
            io_burst: 2.0,
            inputs,
            output_bytes,
            remote_frac: 1.0,
        }
    } else {
        TaskParams {
            cores: 1.0,
            mem,
            duration,
            cpu_frac: 0.5,
            // IO-bound: streaming the bytes takes the whole duration.
            io_burst: 1.0,
            inputs,
            output_bytes,
            remote_frac: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::InputSource;

    #[test]
    fn generates_requested_job_count() {
        let w = WorkloadSuiteConfig::small().generate(1);
        assert_eq!(w.jobs.len(), 12);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = WorkloadSuiteConfig::small();
        assert_eq!(cfg.generate(42), cfg.generate(42));
        assert_ne!(cfg.generate(42), cfg.generate(43));
    }

    #[test]
    fn jobs_are_two_stage_mapreduce() {
        let w = WorkloadSuiteConfig::small().generate(3);
        for j in w.jobs.iter() {
            assert_eq!(j.stages.len(), 2);
            assert_eq!(j.stages[0].name, "map");
            assert_eq!(j.stages[1].deps, vec![0]);
            for t in &j.stages[1].tasks {
                assert!(matches!(
                    t.inputs[0].source,
                    InputSource::Shuffle { stage: 0 }
                ));
            }
        }
    }

    #[test]
    fn arrivals_within_horizon() {
        let cfg = WorkloadSuiteConfig::small();
        let w = cfg.generate(9);
        for j in w.jobs.iter() {
            assert!(j.arrival >= 0.0 && j.arrival < cfg.arrival_horizon);
        }
    }

    #[test]
    fn shuffle_bytes_conserved() {
        // Total reduce input equals total map output per job.
        let w = WorkloadSuiteConfig::small().generate(5);
        for j in w.jobs.iter() {
            let map_out: f64 = j.stages[0].tasks.iter().map(|t| t.output_bytes).sum();
            let red_in: f64 = j.stages[1].tasks.iter().map(|t| t.input_bytes()).sum();
            assert!(
                (map_out - red_in).abs() < 1.0,
                "{}: {map_out} vs {red_in}",
                j.name
            );
        }
    }

    #[test]
    fn class_sizes_scale() {
        let cfg = WorkloadSuiteConfig {
            n_jobs: 40,
            scale: 0.1,
            ..WorkloadSuiteConfig::default()
        };
        let w = cfg.generate(7);
        // Large class should have ~200 maps, small ~10.
        let max_stage = w.jobs.iter().map(|j| j.stages[0].len()).max().unwrap();
        let min_stage = w.jobs.iter().map(|j| j.stages[0].len()).min().unwrap();
        assert!(max_stage >= 150, "max {max_stage}");
        assert!(min_stage <= 20, "min {min_stage}");
    }

    #[test]
    fn paper_scale_class_sizes() {
        assert_eq!(JobSizeClass::LargeHighlySelective.map_tasks(), 2000);
        assert_eq!(JobSizeClass::SmallSelective.map_tasks(), 100);
        assert_eq!(JobSizeClass::MediumInflating.selectivity(), 2.0);
    }

    #[test]
    fn inflating_jobs_write_more_than_they_read() {
        let w = WorkloadSuiteConfig::small().generate(11);
        let inflating: Vec<_> = w
            .jobs
            .iter()
            .filter(|j| j.name.starts_with("M-I"))
            .collect();
        assert!(!inflating.is_empty(), "seed should produce an M-I job");
        for j in inflating {
            let read: f64 = j.stages[0].tasks.iter().map(|t| t.input_bytes()).sum();
            let written: f64 = j.stages[0].tasks.iter().map(|t| t.output_bytes).sum();
            assert!(written > read);
        }
    }
}
