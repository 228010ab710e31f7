//! Demand estimation (paper §4.1).
//!
//! Tetris does not assume oracle knowledge of task demands. It estimates
//! them from (a) prior runs of recurring jobs, (b) the measured statistics
//! of already-completed tasks of the same phase (tasks of a phase are
//! statistically similar), and (c) deliberate *over*-estimation when
//! neither is available — "over-estimation is better than
//! under-estimation which needlessly slows down tasks"; the resource
//! tracker reclaims what over-estimates leave idle.
//!
//! In the simulator the estimate affects the scheduler's *choices*
//! (scores, feasibility); enforcement is by true peak demand, consistent
//! with Tetris's enforcement of allocations (§4.2, a flow-rate cap here).

use std::collections::BTreeSet;

use tetris_resources::ResourceVec;
use tetris_sim::ClusterView;
use tetris_workload::{JobId, TaskSpec};

/// How task demands are estimated.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EstimationMode {
    /// Oracle: use true peak demands (the default for experiments, as in
    /// the paper's simulator).
    #[default]
    Exact,
    /// The paper's learning scheme: demands are known (from phase
    /// statistics / prior runs) once `warmup` tasks of the phase have
    /// finished or the job's family has completed a prior run; before
    /// that, demands are over-estimated by `overestimate`×.
    Learned {
        /// Over-estimation factor for cold phases (> 1).
        overestimate: f64,
        /// Number of finished tasks of a phase after which its statistics
        /// are considered known.
        warmup: usize,
    },
    /// Robustness testing: every rate demand is multiplied by a
    /// deterministic per-task log-normal factor with ln-space σ = `sigma`
    /// (memory is left exact: under-reserving a space resource is not an
    /// estimation error, it is an OOM). The paper argues Tetris tolerates
    /// estimation error because the tracker corrects it (§4.1); this mode
    /// quantifies that.
    Noisy {
        /// ln-space standard deviation of the multiplicative error.
        sigma: f64,
    },
}

/// Stateful demand estimator used by the Tetris scheduler.
#[derive(Debug, Clone, Default)]
pub(crate) struct DemandEstimator {
    mode_learned: Option<(f64, usize)>,
    noise_sigma: Option<f64>,
    /// Families with at least one completed prior run.
    known_families: BTreeSet<String>,
    /// Families seen active, to detect completions.
    active_families: BTreeSet<String>,
}

impl DemandEstimator {
    /// Build an estimator for the given mode.
    pub(crate) fn new(mode: EstimationMode) -> Self {
        let mut noise_sigma = None;
        let mode_learned = match mode {
            EstimationMode::Exact => None,
            EstimationMode::Learned {
                overestimate,
                warmup,
            } => {
                assert!(overestimate >= 1.0, "overestimate must be ≥ 1");
                Some((overestimate, warmup))
            }
            EstimationMode::Noisy { sigma } => {
                assert!(sigma >= 0.0 && sigma.is_finite(), "invalid sigma");
                noise_sigma = Some(sigma);
                None
            }
        };
        DemandEstimator {
            mode_learned,
            noise_sigma,
            known_families: BTreeSet::new(),
            active_families: BTreeSet::new(),
        }
    }

    /// Track family completions: call once per `schedule()` invocation.
    /// A family becomes "known" when a previously active job of that
    /// family is no longer active (it completed a run).
    pub(crate) fn update(&mut self, view: &ClusterView<'_>) {
        if self.mode_learned.is_none() {
            return;
        }
        let mut current: Vec<&str> = view
            .active_jobs()
            .filter_map(|j| view.job_family(j))
            .collect();
        current.sort_unstable();
        current.dedup();
        // Families that left the active set completed a run: now known.
        // Strings are only cloned when membership actually changes.
        let known = &mut self.known_families;
        self.active_families.retain(|fam| {
            let still_active = current.binary_search(&fam.as_str()).is_ok();
            if !still_active {
                known.insert(fam.clone());
            }
            still_active
        });
        for fam in current {
            if !self.active_families.contains(fam) {
                self.active_families.insert(fam.to_string());
            }
        }
    }

    /// Estimated peak demand of a task.
    ///
    /// `job` and `finished_in_stage` locate the task's phase progress;
    /// `family` is the owning job's recurring family, if any.
    pub(crate) fn estimate(
        &self,
        spec: &TaskSpec,
        _job: JobId,
        family: Option<&str>,
        finished_in_stage: usize,
    ) -> ResourceVec {
        if let Some(sigma) = self.noise_sigma {
            return noisy_demand(spec, sigma);
        }
        match self.mode_learned {
            None => spec.demand,
            Some((over, warmup)) => {
                let known_family = family.is_some_and(|f| self.known_families.contains(f));
                if known_family || finished_in_stage >= warmup {
                    spec.demand
                } else {
                    spec.demand * over
                }
            }
        }
    }
}

/// Deterministic multiplicative log-normal error per (task, resource).
fn noisy_demand(spec: &TaskSpec, sigma: f64) -> ResourceVec {
    use tetris_resources::Resource;
    let mut d = spec.demand;
    for r in Resource::ALL {
        if r == Resource::Mem {
            continue; // never misestimate a space resource
        }
        let v = d.get(r);
        if v > 0.0 {
            // splitmix64 on (uid, dim) → uniform pair → Box–Muller normal.
            let mut x = spec.uid.index() as u64 ^ ((r.index() as u64) << 56);
            let mut next = || {
                x = x.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                (z ^ (z >> 31)) as f64 / u64::MAX as f64
            };
            let u1 = next().max(f64::EPSILON);
            let u2 = next();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            d.set(r, v * (sigma * z).exp());
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_resources::Resource;
    use tetris_workload::TaskUid;

    fn spec() -> TaskSpec {
        TaskSpec {
            uid: TaskUid(0),
            job: JobId(0),
            stage: 0,
            index: 0,
            demand: ResourceVec::zero().with(Resource::Cpu, 2.0),
            cpu_work: 10.0,
            output_bytes: 0.0,
            inputs: vec![],
        }
    }

    #[test]
    fn exact_mode_passes_through() {
        let e = DemandEstimator::new(EstimationMode::Exact);
        let d = e.estimate(&spec(), JobId(0), None, 0);
        assert_eq!(d.get(Resource::Cpu), 2.0);
    }

    #[test]
    fn cold_phase_overestimates() {
        let e = DemandEstimator::new(EstimationMode::Learned {
            overestimate: 1.5,
            warmup: 3,
        });
        let d = e.estimate(&spec(), JobId(0), None, 0);
        assert_eq!(d.get(Resource::Cpu), 3.0);
    }

    #[test]
    fn warm_phase_is_exact() {
        let e = DemandEstimator::new(EstimationMode::Learned {
            overestimate: 1.5,
            warmup: 3,
        });
        let d = e.estimate(&spec(), JobId(0), None, 3);
        assert_eq!(d.get(Resource::Cpu), 2.0);
    }

    #[test]
    fn known_family_is_exact_even_cold() {
        let mut e = DemandEstimator::new(EstimationMode::Learned {
            overestimate: 2.0,
            warmup: 100,
        });
        e.known_families.insert("daily-report".into());
        let d = e.estimate(&spec(), JobId(0), Some("daily-report"), 0);
        assert_eq!(d.get(Resource::Cpu), 2.0);
        let d2 = e.estimate(&spec(), JobId(0), Some("other"), 0);
        assert_eq!(d2.get(Resource::Cpu), 4.0);
    }

    #[test]
    #[should_panic(expected = "overestimate")]
    fn rejects_underestimation_factor() {
        DemandEstimator::new(EstimationMode::Learned {
            overestimate: 0.5,
            warmup: 1,
        });
    }
}

#[cfg(test)]
mod noisy_tests {
    use super::*;
    use tetris_resources::Resource;
    use tetris_workload::TaskUid;

    fn spec_with(uid: usize) -> TaskSpec {
        TaskSpec {
            uid: TaskUid(uid),
            job: JobId(0),
            stage: 0,
            index: 0,
            demand: ResourceVec::zero()
                .with(Resource::Cpu, 2.0)
                .with(Resource::Mem, 4e9)
                .with(Resource::DiskRead, 50e6),
            cpu_work: 10.0,
            output_bytes: 0.0,
            inputs: vec![],
        }
    }

    #[test]
    fn zero_sigma_is_exact() {
        let e = DemandEstimator::new(EstimationMode::Noisy { sigma: 0.0 });
        assert_eq!(
            e.estimate(&spec_with(1), JobId(0), None, 0),
            spec_with(1).demand
        );
    }

    #[test]
    fn noise_is_deterministic_per_task() {
        let e = DemandEstimator::new(EstimationMode::Noisy { sigma: 0.5 });
        let a = e.estimate(&spec_with(1), JobId(0), None, 0);
        let b = e.estimate(&spec_with(1), JobId(0), None, 5);
        assert_eq!(a, b);
        let c = e.estimate(&spec_with(2), JobId(0), None, 0);
        assert_ne!(a, c);
    }

    #[test]
    fn memory_is_never_misestimated() {
        let e = DemandEstimator::new(EstimationMode::Noisy { sigma: 1.0 });
        let d = e.estimate(&spec_with(3), JobId(0), None, 0);
        assert_eq!(d.get(Resource::Mem), 4e9);
        assert!(d.get(Resource::Cpu) > 0.0);
        assert!(d.get(Resource::DiskRead) > 0.0);
    }

    #[test]
    fn noise_magnitude_tracks_sigma() {
        // Over many tasks, the spread of ln(est/true) ≈ sigma.
        let sigma = 0.5;
        let e = DemandEstimator::new(EstimationMode::Noisy { sigma });
        let ratios: Vec<f64> = (0..2000)
            .map(|i| {
                let s = spec_with(i);
                (e.estimate(&s, JobId(0), None, 0).get(Resource::Cpu) / 2.0).ln()
            })
            .collect();
        let std = tetris_workload::stats::std_dev(&ratios);
        assert!((std - sigma).abs() < 0.1, "measured σ = {std}");
        let mean = tetris_workload::stats::mean(&ratios);
        assert!(mean.abs() < 0.1, "ln-space mean = {mean}");
    }

    #[test]
    #[should_panic(expected = "invalid sigma")]
    fn rejects_bad_sigma() {
        DemandEstimator::new(EstimationMode::Noisy { sigma: f64::NAN });
    }
}
