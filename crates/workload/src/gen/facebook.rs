//! Facebook-like trace generator.
//!
//! The paper's simulations replay a proprietary Facebook production trace.
//! This generator is a calibrated substitute: it produces a workload whose
//! published statistics match §2.2.2 —
//!
//! * wide per-resource demand ranges (minimum 5–10× below the median,
//!   maximum ~50× above) with high coefficients of variation;
//! * near-zero correlation of demand *across* resources (Table 2), because
//!   each stage's CPU, memory, duration and IO shape are drawn
//!   independently;
//! * low demand variation *within* a stage (tasks of a phase do the same
//!   computation on different partitions, §4.1);
//! * heavy-tailed job sizes and Poisson arrivals;
//! * recurring job families (analytics jobs repeat on new data, §4.1),
//!   which the demand estimator exploits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr_shim::LogNormal;
use tetris_resources::{
    units::{GB, MB},
    MachineSpec,
};

use crate::gen::builder::{TaskParams, WorkloadBuilder};
use crate::spec::{InputSource, InputSpec, Workload};

/// Minimal log-normal sampler (avoids pulling in `rand_distr` — justified
/// in DESIGN.md's dependency note; the two-line Box–Muller version below is
/// all we need).
mod rand_distr_shim {
    use rand::Rng;

    /// Log-normal distribution parameterized by the ln-space mean and σ.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct LogNormal {
        mu: f64,
        sigma: f64,
    }

    impl LogNormal {
        /// `median` is exp(mu); `sigma` is the ln-space standard deviation.
        pub(super) fn from_median(median: f64, sigma: f64) -> Self {
            LogNormal {
                mu: median.ln(),
                sigma,
            }
        }

        /// Draw one sample.
        pub(super) fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
            // Box–Muller.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (self.mu + self.sigma * z).exp()
        }
    }
}

/// Configuration of the Facebook-like trace generator.
#[derive(Debug, Clone)]
pub struct FacebookTraceConfig {
    /// Number of jobs.
    pub n_jobs: usize,
    /// Task-count multiplier (see [`crate::WorkloadSuiteConfig::scale`]).
    pub scale: f64,
    /// Mean job inter-arrival time in seconds (Poisson arrivals).
    pub mean_interarrival: f64,
    /// Fraction of jobs that belong to a recurring family.
    pub recurring_fraction: f64,
    /// Number of recurring families to draw from.
    pub n_families: usize,
    /// Fraction of jobs that are map-only.
    pub map_only_fraction: f64,
    /// Fraction of jobs with a second reduce stage (3-stage chain),
    /// approximating the deeper Bing/Scope DAGs.
    pub deep_dag_fraction: f64,
    /// Machine profile whose capacity caps every task's peak demand.
    pub machine_profile: MachineSpec,
}

impl Default for FacebookTraceConfig {
    fn default() -> Self {
        FacebookTraceConfig {
            n_jobs: 300,
            scale: 0.1,
            mean_interarrival: 8.0,
            recurring_fraction: 0.4,
            n_families: 20,
            map_only_fraction: 0.2,
            deep_dag_fraction: 0.1,
            machine_profile: MachineSpec::paper_large(),
        }
    }
}

/// Per-stage demand template; all tasks of a stage share it (with small
/// per-task jitter). Templates are what recur across jobs of a family.
#[derive(Debug, Clone)]
struct StageTemplate {
    cores: f64,
    mem: f64,
    duration: f64,
    cpu_frac: f64,
    io_burst: f64,
    input_per_task: f64,
    selectivity: f64,
    net_rate: f64,
}

impl StageTemplate {
    fn draw(rng: &mut StdRng, local_biased: bool) -> Self {
        // Independent draws per dimension → near-zero cross-resource
        // correlation (Table 2). Wide log-normals → high CoV (Fig. 2).
        let cores: f64 = *[0.25, 0.5, 1.0, 1.0, 2.0, 4.0]
            .get(rng.gen_range(0..6usize))
            .unwrap();
        // Memory scales mildly with core count (the paper's Table 2 finds
        // cores↔memory is the one moderately correlated pair).
        let mem = (LogNormal::from_median(2.0 * GB, 0.7).sample(rng) * cores.powf(0.45))
            .clamp(0.2 * GB, 24.0 * GB);
        let duration = LogNormal::from_median(32.0, 0.7)
            .sample(rng)
            .clamp(5.0, 600.0);
        let cpu_frac = rng.gen_range(0.3..1.0);
        let io_burst = rng.gen_range(1.0..3.0);
        let input_per_task = LogNormal::from_median(420.0 * MB, 1.0)
            .sample(rng)
            .clamp(8.0 * MB, 4.0 * GB);
        let selectivity = LogNormal::from_median(0.6, 0.8)
            .sample(rng)
            .clamp(0.02, 4.0);
        // Network-in demand: map stages read stored blocks and are usually
        // placed data-local (zero expected network-in); shuffle stages pull
        // input remotely at a fetch rate bounded by fetch parallelism, not
        // by the disk — so it is drawn *independently* of the disk rates.
        // This independence is what keeps disk and network demands
        // uncorrelated (Table 2).
        let net_rate = if local_biased && rng.gen_bool(0.7) {
            0.0
        } else {
            LogNormal::from_median(30.0 * MB, 1.1)
                .sample(rng)
                .clamp(0.5 * MB, 120.0 * MB)
        };
        StageTemplate {
            cores,
            mem,
            duration,
            cpu_frac,
            io_burst,
            input_per_task,
            selectivity,
            net_rate,
        }
    }

    fn task(&self, jitter: (f64, f64), inputs: Vec<InputSpec>, output_bytes: f64) -> TaskParams {
        let (dj, mj) = jitter;
        // Express the independently drawn network rate as a fraction of the
        // input streaming rate (TaskParams derives NetIn = rate × frac).
        let in_bytes: f64 = inputs.iter().map(|i| i.bytes).sum();
        let io_time = (self.duration * dj / self.io_burst).max(1e-6);
        let read_rate = if in_bytes > 0.0 {
            in_bytes / io_time
        } else {
            0.0
        };
        let remote_frac = if read_rate > 0.0 {
            (self.net_rate / read_rate).clamp(0.0, 1.0)
        } else {
            0.0
        };
        TaskParams {
            cores: self.cores,
            mem: self.mem * mj,
            duration: self.duration * dj,
            cpu_frac: self.cpu_frac,
            io_burst: self.io_burst,
            inputs,
            output_bytes,
            remote_frac,
        }
    }
}

/// Job shape (stage count) drawn per job.
#[derive(Debug, Clone)]
struct JobTemplate {
    n_maps: usize,
    map: StageTemplate,
    reduce: Option<StageTemplate>,
    reduce2: Option<StageTemplate>,
}

impl FacebookTraceConfig {
    /// Generate the trace from a seed.
    pub fn generate(&self, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        // Pre-draw family templates so recurring jobs share them.
        let families: Vec<JobTemplate> = (0..self.n_families)
            .map(|_| self.draw_job_template(&mut rng))
            .collect();

        let mut b = WorkloadBuilder::new().with_demand_cap(self.machine_profile.capacity());
        let mut arrival = 0.0f64;
        for jn in 0..self.n_jobs {
            // Exponential inter-arrivals (Poisson process).
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            arrival += -self.mean_interarrival * u.ln();

            let (template, family) =
                if rng.gen_bool(self.recurring_fraction) && !families.is_empty() {
                    let fi = rng.gen_range(0..families.len());
                    (families[fi].clone(), Some(format!("family-{fi}")))
                } else {
                    (self.draw_job_template(&mut rng), None)
                };
            self.add_job(&mut b, &mut rng, jn, &template, family, arrival);
        }
        b.finish()
    }

    fn draw_job_template(&self, rng: &mut StdRng) -> JobTemplate {
        // Heavy-tailed job sizes: 60 % small, 30 % medium, 10 % large.
        let n_maps_raw = match rng.gen_range(0..10) {
            0..=5 => rng.gen_range(5..50),
            6..=8 => rng.gen_range(50..500),
            _ => rng.gen_range(500..3000),
        };
        let n_maps = ((n_maps_raw as f64 * self.scale).round() as usize).max(1);
        let shape: f64 = rng.gen_range(0.0..1.0);
        let (has_reduce, has_reduce2) = if shape < self.map_only_fraction {
            (false, false)
        } else if shape < self.map_only_fraction + self.deep_dag_fraction {
            (true, true)
        } else {
            (true, false)
        };
        JobTemplate {
            n_maps,
            map: StageTemplate::draw(rng, true),
            reduce: has_reduce.then(|| StageTemplate::draw(rng, false)),
            reduce2: has_reduce2.then(|| StageTemplate::draw(rng, false)),
        }
    }

    fn add_job(
        &self,
        b: &mut WorkloadBuilder,
        rng: &mut StdRng,
        ordinal: usize,
        t: &JobTemplate,
        family: Option<String>,
        arrival: f64,
    ) {
        let job = b.begin_job(format!("fb-{ordinal}"), family, arrival);

        let map_out = t.map.input_per_task * t.map.selectivity;
        let map_inputs: Vec<InputSpec> = (0..t.n_maps)
            .map(|_| b.stored_input(t.map.input_per_task))
            .collect();
        let jitters: Vec<(f64, f64)> = (0..t.n_maps)
            .map(|_| (rng.gen_range(0.85..1.15), rng.gen_range(0.96..1.04)))
            .collect();
        let map_tmpl = t.map.clone();
        b.add_stage(job, "map", vec![], t.n_maps, |i| {
            map_tmpl.task(jitters[i], vec![map_inputs[i]], map_out)
        });

        let mut upstream_out = map_out * t.n_maps as f64;
        for (si, tmpl) in [&t.reduce, &t.reduce2].into_iter().flatten().enumerate() {
            // Chain: reduce1 depends on stage 0 (map), reduce2 on stage 1.
            let up = si;
            // Reduce count sized so each task gets ~its template input.
            let n =
                ((upstream_out / tmpl.input_per_task).round() as usize).clamp(1, (t.n_maps).max(1));
            let per_task_in = upstream_out / n as f64;
            let out = per_task_in * tmpl.selectivity;
            let jitters: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen_range(0.85..1.15), rng.gen_range(0.96..1.04)))
                .collect();
            let tmpl = tmpl.clone();
            b.add_stage(job, format!("reduce{}", si + 1), vec![up], n, |i| {
                tmpl.task(
                    jitters[i],
                    vec![InputSpec {
                        source: InputSource::Shuffle { stage: up },
                        bytes: per_task_in,
                    }],
                    out,
                )
            });
            upstream_out = out * n as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FacebookTraceConfig {
        FacebookTraceConfig {
            n_jobs: 60,
            scale: 0.05,
            ..FacebookTraceConfig::default()
        }
    }

    #[test]
    fn generates_and_validates() {
        let w = small().generate(1);
        assert_eq!(w.jobs.len(), 60);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(small().generate(5), small().generate(5));
        assert_ne!(small().generate(5), small().generate(6));
    }

    #[test]
    fn has_recurring_families() {
        let w = small().generate(2);
        let fams: Vec<_> = w.jobs.iter().filter_map(|j| j.family.clone()).collect();
        assert!(
            fams.len() >= 10,
            "expected ≥10 recurring jobs, got {}",
            fams.len()
        );
        // At least one family should repeat.
        let mut sorted = fams.clone();
        sorted.sort();
        sorted.dedup();
        assert!(sorted.len() < fams.len(), "no family repeats");
    }

    #[test]
    fn recurring_jobs_share_stage_shape() {
        let w = small().generate(3);
        use std::collections::HashMap;
        let mut by_family: HashMap<&str, Vec<&crate::JobSpec>> = HashMap::new();
        for j in &w.jobs {
            if let Some(f) = &j.family {
                by_family.entry(f).or_default().push(j);
            }
        }
        let repeated = by_family.values().find(|v| v.len() >= 2);
        if let Some(jobs) = repeated {
            let a = jobs[0];
            let b = jobs[1];
            assert_eq!(a.stages.len(), b.stages.len());
            // Same template → same per-stage core demand.
            assert_eq!(
                a.stages[0].tasks[0]
                    .demand
                    .get(tetris_resources::Resource::Cpu),
                b.stages[0].tasks[0]
                    .demand
                    .get(tetris_resources::Resource::Cpu),
            );
        }
    }

    #[test]
    fn arrivals_increase() {
        let w = small().generate(4);
        for win in w.jobs.windows(2) {
            assert!(win[1].arrival >= win[0].arrival);
        }
    }

    #[test]
    fn mix_of_dag_shapes() {
        let cfg = FacebookTraceConfig {
            n_jobs: 200,
            scale: 0.02,
            ..FacebookTraceConfig::default()
        };
        let w = cfg.generate(8);
        let map_only = w.jobs.iter().filter(|j| j.stages.len() == 1).count();
        let two_stage = w.jobs.iter().filter(|j| j.stages.len() == 2).count();
        let deep = w.jobs.iter().filter(|j| j.stages.len() == 3).count();
        assert!(map_only > 10, "map-only {map_only}");
        assert!(two_stage > 80, "two-stage {two_stage}");
        assert!(deep > 5, "deep {deep}");
    }

    #[test]
    fn job_sizes_are_heavy_tailed() {
        let cfg = FacebookTraceConfig {
            n_jobs: 300,
            scale: 1.0,
            ..FacebookTraceConfig::default()
        };
        let w = cfg.generate(9);
        let sizes: Vec<f64> = w.jobs.iter().map(|j| j.num_tasks() as f64).collect();
        let med = crate::stats::median(&sizes);
        let max = sizes.iter().cloned().fold(0.0, f64::max);
        assert!(max / med > 10.0, "max {max} median {med}");
    }
}
