//! The per-run experiment context.
//!
//! `RunCtx` replaces the old environment-variable seed channel: the seed
//! used to be process-global mutable state (set by the binary, read back
//! by the library), which is thread-unsafe and made parallel multi-seed
//! sweeps unsound by construction. Here the
//! seed is plain data — every worker thread owns its own `RunCtx`, so
//! concurrent runs with different seeds cannot interfere, and a run is a
//! pure function of `(scale, seed)`.
//!
//! The context also accumulates observability metrics: every simulation an
//! experiment launches through [`crate::setup`] runs with a noop-recorder
//! [`Obs`] attached, and its registry (heartbeat/schedule latency
//! histograms, placement counters — the continuous Table-8 measurement)
//! is folded into the context. The parallel runner merges per-worker
//! registries into the suite-wide benchmark snapshot.

use std::cell::RefCell;

use tetris_obs::MetricsRegistry;
use tetris_sim::{ClusterConfig, SimConfig};
use tetris_workload::Workload;

use crate::setup::{Scale, DEFAULT_SEED};

/// Everything an experiment needs to run: the scale and the master seed,
/// plus the metrics accumulator. Cheap to construct; one per run.
#[derive(Debug)]
pub struct RunCtx {
    /// Cluster/workload scale.
    pub scale: Scale,
    /// Master seed. Workload generation offsets it per use so experiments
    /// are independent but reproducible.
    pub seed: u64,
    /// Workload-size multiplier (`--scale F`, default 1.0). Experiments
    /// that generate their own workloads (e.g. `churn`) multiply job
    /// counts by it, which is how CI smokes run them in seconds.
    pub scale_factor: f64,
    /// Metrics folded in from every simulation this context ran.
    /// `RefCell` keeps `run(&RunCtx)` a shared borrow for the experiment
    /// code while the setup helpers record into it; a context is owned by
    /// exactly one worker thread, never shared across threads.
    collected: RefCell<MetricsRegistry>,
}

impl RunCtx {
    /// Context for `scale` with the given master seed.
    pub fn new(scale: Scale, seed: u64) -> Self {
        RunCtx {
            scale,
            seed,
            scale_factor: 1.0,
            collected: RefCell::new(MetricsRegistry::new()),
        }
    }

    /// Builder: set the workload-size multiplier (must be positive).
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        self.scale_factor = factor;
        self
    }

    /// The deployment cluster for this scale.
    pub fn cluster(&self) -> ClusterConfig {
        self.scale.cluster()
    }

    /// Cluster with a load multiplier (Fig-11 load sweep).
    pub fn cluster_with_load(&self, load: f64) -> ClusterConfig {
        self.scale.cluster_with_load(load)
    }

    /// The §5.1 deployment workload suite at this scale and seed.
    pub fn suite(&self) -> Workload {
        self.scale.suite_seeded(self.seed)
    }

    /// The Facebook-like trace at this scale (simulation experiments).
    pub fn facebook(&self) -> Workload {
        self.scale.facebook_seeded(self.seed + 1)
    }

    /// Seeds used by multi-seed sweep experiments (tail-dominated metrics
    /// like zero-arrival makespan are noisy on a single workload draw).
    pub fn sweep_seeds(&self) -> Vec<u64> {
        vec![self.seed + 1, self.seed + 11, self.seed + 21]
    }

    /// Default simulator configuration for experiments at this seed.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::default();
        cfg.seed = self.seed;
        if self.scale == Scale::Full {
            // Keep memory bounded on quarter-million-task runs.
            cfg.record_machine_samples = false;
            cfg.sample_period = Some(20.0);
        }
        cfg
    }

    /// Fold a finished simulation's metrics registry into this context.
    pub fn absorb(&self, metrics: &MetricsRegistry) {
        self.collected.borrow_mut().merge(metrics);
    }

    /// Take the accumulated metrics, leaving the context empty (the
    /// runner calls this once per finished experiment).
    pub fn take_metrics(&self) -> MetricsRegistry {
        self.collected.take()
    }
}

impl Default for RunCtx {
    /// Laptop scale, seed 42 — the configuration every checked-in
    /// reference output was produced under.
    fn default() -> Self {
        RunCtx::new(Scale::Laptop, DEFAULT_SEED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_workloads() {
        let a = RunCtx::new(Scale::Laptop, 7);
        let b = RunCtx::new(Scale::Laptop, 7);
        assert_eq!(
            serde_json::to_string(&a.suite()).unwrap(),
            serde_json::to_string(&b.suite()).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&a.facebook()).unwrap(),
            serde_json::to_string(&b.facebook()).unwrap()
        );
        assert_eq!(a.sim_config().seed, 7);
        assert_eq!(a.sweep_seeds(), vec![8, 18, 28]);
    }

    #[test]
    fn different_seeds_differ() {
        let a = RunCtx::new(Scale::Laptop, 7);
        let b = RunCtx::new(Scale::Laptop, 8);
        assert_ne!(
            serde_json::to_string(&a.suite()).unwrap(),
            serde_json::to_string(&b.suite()).unwrap()
        );
    }

    #[test]
    fn concurrent_contexts_do_not_interfere() {
        // The exact failure mode the old env-var seed had: one thread
        // setting the seed changed what another thread's runs meant.
        // With RunCtx the seed is owned data, so workloads generated
        // concurrently under different seeds must match their serial
        // counterparts byte for byte.
        let serial_7 = serde_json::to_string(&RunCtx::new(Scale::Laptop, 7).suite()).unwrap();
        let serial_8 = serde_json::to_string(&RunCtx::new(Scale::Laptop, 8).suite()).unwrap();
        let handles: Vec<_> = [7u64, 8, 7, 8]
            .into_iter()
            .map(|seed| {
                std::thread::spawn(move || {
                    let ctx = RunCtx::new(Scale::Laptop, seed);
                    let mut out = Vec::new();
                    for _ in 0..4 {
                        out.push(serde_json::to_string(&ctx.suite()).unwrap());
                    }
                    (seed, out)
                })
            })
            .collect();
        for h in handles {
            let (seed, outs) = h.join().unwrap();
            let want = if seed == 7 { &serial_7 } else { &serial_8 };
            for got in outs {
                assert_eq!(&got, want, "seed {seed} run diverged under concurrency");
            }
        }
    }

    #[test]
    fn absorb_accumulates_metrics() {
        let ctx = RunCtx::default();
        let mut m = MetricsRegistry::new();
        m.counter_add("placements", 3);
        ctx.absorb(&m);
        ctx.absorb(&m);
        let taken = ctx.take_metrics();
        assert_eq!(taken.counter("placements"), 6);
        assert_eq!(ctx.take_metrics().counter("placements"), 0);
    }
}
