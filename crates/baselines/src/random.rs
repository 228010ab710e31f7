//! Seeded random placement — a floor baseline for sanity checks and
//! ablation tables (not one of the paper's comparators).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tetris_resources::ResourceVec;
use tetris_sim::{Assignment, ClusterView, MachineId, SchedulerPolicy};

/// Random scheduler: shuffles pending tasks, places each on a uniformly
/// random machine among those where its full plan fits.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// Seeded instance (determinism matters even for the floor baseline).
    pub fn seeded(seed: u64) -> Self {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl SchedulerPolicy for RandomScheduler {
    fn name(&self) -> &str {
        "random"
    }

    /// The rng stream is the one piece of cross-call state here, and it
    /// is not re-derivable from the view: a recovered run must resume it
    /// where the checkpoint left it.
    fn export_state(&self) -> Option<String> {
        let [a, b, c, d] = self.rng.state();
        Some(format!("{a:x} {b:x} {c:x} {d:x}"))
    }

    fn import_state(&mut self, state: &str) {
        // The blob arrives through a CRC-framed, fingerprint-checked
        // journal: a parse failure is a bug, not an input error.
        let mut words = state
            .split(' ')
            .map(|w| u64::from_str_radix(w, 16).expect("valid rng state word"));
        let s = std::array::from_fn(|_| words.next().expect("four rng state words"));
        self.rng = StdRng::from_state(s);
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let mut tasks: Vec<_> = view
            .active_jobs()
            .flat_map(|j| {
                view.job_pending_stages(j)
                    .flat_map(|(_, slice)| slice.iter().copied())
            })
            .collect();
        // Fisher–Yates with the policy's own rng.
        for i in (1..tasks.len()).rev() {
            let k = self.rng.gen_range(0..=i);
            tasks.swap(i, k);
        }
        let query = view.query();
        let mut avail: Vec<ResourceVec> = query.iter_all().map(|m| view.available(m)).collect();
        let n = view.num_machines();
        let mut out = Vec::new();
        for t in tasks {
            // Random starting machine, linear probe for a fit.
            let start = self.rng.gen_range(0..n);
            for off in 0..n {
                let m = MachineId((start + off) % n);
                let plan = view.plan(t, m);
                let fits = plan.local.fits_within(&avail[m.index()])
                    && plan
                        .remote
                        .iter()
                        .all(|(s, d)| d.fits_within(&avail[s.index()]));
                if fits {
                    avail[m.index()] -= plan.local;
                    for (s, d) in &plan.remote {
                        avail[s.index()] -= *d;
                    }
                    out.push(Assignment::new(t, m));
                    break;
                }
            }
        }
        out
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
        let outcome = Simulation::build(
            ClusterConfig::uniform(6, MachineSpec::paper_large()),
            WorkloadSuiteConfig::small().generate(9),
        )
        .scheduler(RandomScheduler::seeded(9))
        .seed(9)
        .run();
        assert!(outcome.all_jobs_completed());
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |pseed| {
            Simulation::build(
                ClusterConfig::uniform(4, MachineSpec::paper_large()),
                WorkloadSuiteConfig::small().generate(2),
            )
            .scheduler(RandomScheduler::seeded(pseed))
            .seed(2)
            .run()
        };
        assert_eq!(run(1).makespan(), run(1).makespan());
        // Different policy seed → (almost surely) different schedule.
        assert_ne!(
            run(1).tasks.iter().map(|t| t.machine).collect::<Vec<_>>(),
            run(2).tasks.iter().map(|t| t.machine).collect::<Vec<_>>()
        );
    }
}
