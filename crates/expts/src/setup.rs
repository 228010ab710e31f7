//! Shared experiment setup: clusters, workloads, scheduler construction.
//!
//! Seeding is explicit everywhere: the master seed lives in
//! [`RunCtx`](crate::RunCtx) and flows into workload generation and
//! scheduler construction as plain data. (It used to arrive through a
//! process-wide environment variable — global mutable state that made
//! concurrent runs unsound; that channel is gone.)

use tetris_baselines::{
    CapacityScheduler, DrfScheduler, FairScheduler, RandomScheduler, SrtfScheduler,
};
use tetris_core::{TetrisConfig, TetrisScheduler};
use tetris_obs::Obs;
use tetris_resources::MachineSpec;
use tetris_sim::{ClusterConfig, SchedulerPolicy, SimConfig, SimOutcome, Simulation};
use tetris_workload::{FacebookTraceConfig, Workload, WorkloadSuiteConfig};

use crate::RunCtx;

/// Default master seed shared by all experiments (workload generation
/// offsets it per use so experiments are independent but reproducible).
pub const DEFAULT_SEED: u64 = 42;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop scale: 20 machines, task counts scaled to preserve
    /// per-machine load. Every experiment finishes in seconds.
    Laptop,
    /// Paper scale: 250 machines, full §5.1 workload. Minutes per run.
    Full,
}

impl Scale {
    /// The deployment cluster for this scale.
    pub fn cluster(self) -> ClusterConfig {
        match self {
            Scale::Laptop => ClusterConfig::uniform(20, MachineSpec::paper_large()),
            Scale::Full => ClusterConfig::paper_large(),
        }
    }

    /// Cluster with a load multiplier (for the Fig-11 load sweep: the
    /// paper varies load by shrinking the cluster).
    pub fn cluster_with_load(self, load: f64) -> ClusterConfig {
        let base = self.cluster().len() as f64;
        let n = ((base / load).round() as usize).max(2);
        ClusterConfig::uniform(n, MachineSpec::paper_large())
    }

    /// The §5.1 deployment workload suite at this scale with an explicit
    /// seed.
    pub fn suite_seeded(self, seed: u64) -> Workload {
        match self {
            Scale::Laptop => WorkloadSuiteConfig::scaled(50, 0.08).generate(seed),
            Scale::Full => WorkloadSuiteConfig::paper().generate(seed),
        }
    }

    /// The Facebook-like trace at this scale with an explicit seed.
    pub fn facebook_seeded(self, seed: u64) -> Workload {
        let cfg = match self {
            Scale::Laptop => FacebookTraceConfig {
                n_jobs: 120,
                scale: 0.06,
                mean_interarrival: 12.0,
                ..FacebookTraceConfig::default()
            },
            Scale::Full => FacebookTraceConfig {
                n_jobs: 350,
                scale: 0.8,
                mean_interarrival: 6.0,
                ..FacebookTraceConfig::default()
            },
        };
        cfg.generate(seed)
    }

    /// Short label ("laptop" / "full"), used in benchmark emissions.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Laptop => "laptop",
            Scale::Full => "full",
        }
    }
}

/// The schedulers experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedName {
    /// Tetris at the paper's operating point.
    Tetris,
    /// Slot-based Fair scheduler.
    Fair,
    /// Slot-based Capacity scheduler.
    Capacity,
    /// Shipped DRF (cpu + memory).
    Drf,
    /// Multi-resource SRTF without packing.
    Srtf,
    /// Pure packing (no SRTF, no fairness, no barrier hints).
    PackingOnly,
    /// Tetris masked to cpu+mem (over-allocation ablation).
    TetrisCpuMemOnly,
    /// Seeded random placement.
    Random,
}

impl SchedName {
    /// Every registered scheduler, next to the enum so a new variant is
    /// added here in the same edit: every-policy tests
    /// (`tests/policy_matrix.rs`) iterate this instead of keeping lists
    /// of their own.
    pub const ALL: [SchedName; 8] = [
        SchedName::Tetris,
        SchedName::Fair,
        SchedName::Capacity,
        SchedName::Drf,
        SchedName::Srtf,
        SchedName::PackingOnly,
        SchedName::TetrisCpuMemOnly,
        SchedName::Random,
    ];

    /// Construct the policy. `seed` feeds the stochastic schedulers
    /// (currently only [`SchedName::Random`]); deterministic policies
    /// ignore it.
    pub fn build(self, seed: u64) -> Box<dyn SchedulerPolicy> {
        match self {
            SchedName::Tetris => Box::new(TetrisScheduler::new(TetrisConfig::default())),
            SchedName::Fair => Box::new(FairScheduler::new()),
            SchedName::Capacity => Box::new(CapacityScheduler::new()),
            SchedName::Drf => Box::new(DrfScheduler::new()),
            SchedName::Srtf => Box::new(SrtfScheduler::new()),
            SchedName::PackingOnly => Box::new(TetrisScheduler::new(TetrisConfig::packing_only())),
            SchedName::TetrisCpuMemOnly => {
                let mut cfg = TetrisConfig::default();
                cfg.consider_io_dims = false;
                Box::new(TetrisScheduler::new(cfg))
            }
            SchedName::Random => Box::new(RandomScheduler::seeded(seed)),
        }
    }

    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            SchedName::Tetris => "tetris",
            SchedName::Fair => "fair",
            SchedName::Capacity => "capacity",
            SchedName::Drf => "drf",
            SchedName::Srtf => "srtf",
            SchedName::PackingOnly => "packing-only",
            SchedName::TetrisCpuMemOnly => "tetris-cpumem",
            SchedName::Random => "random",
        }
    }
}

/// Run a fully-built simulation with the context's observability attached
/// (noop recorder: metrics accumulate, no event stream) and fold the
/// run's metrics into the context. Observability never perturbs outcomes
/// (enforced by an integration test in `tetris-sim`), so results are
/// byte-identical to an unobserved run.
pub fn run_observed(ctx: &RunCtx, sim: Simulation<'_>) -> SimOutcome {
    let mut obs = Obs::noop();
    let outcome = sim.observe(&mut obs).run();
    ctx.absorb(&obs.metrics);
    outcome
}

/// Run one `(cluster, workload, scheduler)` combination.
pub fn run(
    ctx: &RunCtx,
    cluster: &ClusterConfig,
    workload: &Workload,
    sched: SchedName,
    cfg: &SimConfig,
) -> SimOutcome {
    run_observed(
        ctx,
        Simulation::build(cluster.clone(), workload.clone())
            .scheduler(sched.build(cfg.seed))
            .config(cfg.clone()),
    )
}

/// Run a custom Tetris configuration.
pub fn run_tetris(
    ctx: &RunCtx,
    cluster: &ClusterConfig,
    workload: &Workload,
    tetris: TetrisConfig,
    cfg: &SimConfig,
) -> SimOutcome {
    run_observed(
        ctx,
        Simulation::build(cluster.clone(), workload.clone())
            .scheduler(TetrisScheduler::new(tetris))
            .config(cfg.clone()),
    )
}

/// Zero all arrivals (the paper's makespan measurements assume "all jobs
/// arrived at the beginning of the trace", §5.3.1).
pub fn with_zero_arrivals(mut w: Workload) -> Workload {
    for j in w.jobs_mut() {
        j.arrival = 0.0;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laptop_setup_is_consistent() {
        let ctx = RunCtx::default();
        assert_eq!(ctx.cluster().len(), 20);
        let w = ctx.suite();
        assert!(w.validate().is_ok());
        assert_eq!(w.jobs.len(), 50);
        let fb = ctx.facebook();
        assert!(fb.validate().is_ok());
    }

    #[test]
    fn load_multiplier_shrinks_cluster() {
        let base = Scale::Laptop.cluster_with_load(1.0).len();
        let double = Scale::Laptop.cluster_with_load(2.0).len();
        assert_eq!(base, 20);
        assert_eq!(double, 10);
        assert!(Scale::Laptop.cluster_with_load(100.0).len() >= 2);
    }

    #[test]
    fn all_schedulers_build() {
        for s in SchedName::ALL {
            let p = s.build(DEFAULT_SEED);
            assert!(!p.name().is_empty());
            assert!(!s.label().is_empty());
        }
    }

    #[test]
    fn zero_arrivals() {
        let w = with_zero_arrivals(RunCtx::default().suite());
        assert!(w.jobs.iter().all(|j| j.arrival == 0.0));
    }

    #[test]
    fn runs_feed_metrics_into_the_context() {
        let ctx = RunCtx::default();
        let cluster = ctx.cluster();
        let w = ctx.suite();
        let cfg = ctx.sim_config();
        let _ = run(&ctx, &cluster, &w, SchedName::Tetris, &cfg);
        let m = ctx.take_metrics();
        assert!(m.counter(tetris_obs::names::PLACEMENTS) > 0);
        assert!(m.histogram(tetris_obs::names::HEARTBEAT_NS).is_some());
    }
}
