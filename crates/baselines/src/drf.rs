//! Dominant Resource Fairness (Ghodsi et al., NSDI'11) as shipped with
//! YARN and evaluated by the paper (§5.1).
//!
//! DRF offers the next resources to the job whose *dominant share* — the
//! maximum over resource dimensions of (job's allocation / cluster
//! capacity) — is smallest. Crucially, "available implementations of DRF
//! and the earlier schedulers only consider CPU and memory" (§6): disk and
//! network are neither counted in shares nor checked at placement, so DRF
//! over-allocates them just like the slot schedulers. An extended variant
//! over all six dimensions is provided for the §2.1 discussion.

use tetris_resources::{Resource, ResourceVec};
use tetris_sim::{Assignment, ClusterView, SchedulerPolicy, WorkingLedger};
use tetris_workload::JobId;

use crate::PendingCursor;

/// The DRF scheduler (progressive filling over dominant shares).
#[derive(Debug, Clone)]
pub struct DrfScheduler {
    dims: Vec<Resource>,
    extended: bool,
    ledger: WorkingLedger,
}

impl DrfScheduler {
    /// Shipped DRF: CPU + memory only.
    pub fn new() -> Self {
        DrfScheduler {
            dims: vec![Resource::Cpu, Resource::Mem],
            extended: false,
            ledger: WorkingLedger::default(),
        }
    }

    /// Extended DRF over all six dimensions (the §2.1 worked example:
    /// even all-dimension DRF packs worse than Tetris).
    pub fn extended() -> Self {
        DrfScheduler {
            dims: Resource::ALL.to_vec(),
            extended: true,
            ledger: WorkingLedger::default(),
        }
    }
}

impl Default for DrfScheduler {
    fn default() -> Self {
        Self::new()
    }
}

struct JobQueue<'a> {
    id: JobId,
    alloc: ResourceVec,
    pending: PendingCursor<'a>,
    /// Set once the head task cannot be placed anywhere; DRF then skips
    /// the job this round (no head-of-line blocking of everyone else).
    stuck: bool,
}

impl SchedulerPolicy for DrfScheduler {
    fn name(&self) -> &str {
        if self.extended {
            "drf-all-dims"
        } else {
            "drf"
        }
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let total = view.total_capacity();
        let ledger = &mut self.ledger;
        ledger.begin(view);

        let mut jobs: Vec<JobQueue<'_>> = view
            .active_jobs()
            .map(|j| JobQueue {
                id: j,
                alloc: view.job_allocated(j),
                pending: PendingCursor::new(view, j),
                stuck: false,
            })
            .filter(|j| j.pending.head().is_some())
            .collect();

        let mut preferred = Vec::new();
        let mut out = Vec::new();
        loop {
            // Progressive filling: job with the minimum dominant share.
            let mut pick: Option<(usize, f64)> = None;
            for (i, j) in jobs.iter().enumerate() {
                if j.stuck || j.pending.head().is_none() {
                    continue;
                }
                let share = j.alloc.dominant_share(&total, &self.dims);
                let better = match pick {
                    None => true,
                    Some((bi, bs)) => share < bs || (share == bs && j.id < jobs[bi].id),
                };
                if better {
                    pick = Some((i, share));
                }
            }
            let Some((ji, _)) = pick else { break };

            let task = jobs[ji].pending.head().expect("picked job has a head task");
            let demand = view.task(task).demand.project(&self.dims);

            // Place: prefer data-local machines, else spread to the
            // machine with the most available memory (YARN's continuous
            // scheduling balances load rather than packing) — checking
            // ONLY `self.dims`. Placement constraints (§16) filter the
            // same way, and cost nothing on unconstrained jobs.
            view.preferred_machines_into(task, &mut preferred);
            let (job, dims) = (jobs[ji].id, &self.dims);
            // The memory left on `m`, if the demand fits there.
            let mut fit_mem = |m| {
                let a = ledger.available(view, m);
                let fits = demand.fits_within(&a.project(dims)) && ledger.allows(view, job, m);
                fits.then_some(a.get(Resource::Mem))
            };
            let target = preferred.iter().copied().find(|&m| fit_mem(m).is_some());
            // Else the most memory, the lowest id on ties.
            let target = target.or_else(|| {
                let fitting = view
                    .query()
                    .iter_all()
                    .filter_map(|m| Some((fit_mem(m)?, m)));
                fitting
                    .reduce(|b, x| if x.0 > b.0 { x } else { b })
                    .map(|x| x.1)
            });
            match target {
                Some(m) => {
                    ledger.charge(view, task, m, &demand);
                    jobs[ji].alloc += demand;
                    jobs[ji].pending.advance();
                    out.push(Assignment::new(task, m));
                }
                None => {
                    jobs[ji].stuck = true;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    trait NameOf {
        fn name_of(&self) -> &str;
    }

    impl NameOf for tetris_sim::SimOutcome {
        fn name_of(&self) -> &str {
            &self.scheduler
        }
    }
    use tetris_resources::{units::GB, MachineSpec};
    use tetris_sim::{ClusterConfig, Simulation};
    use tetris_workload::{JobId, TaskParams, WorkloadBuilder, WorkloadSuiteConfig};

    #[test]
    fn completes_small_suite() {
        let outcome = Simulation::build(
            ClusterConfig::uniform(6, MachineSpec::paper_large()),
            WorkloadSuiteConfig::small().generate(7),
        )
        .scheduler(DrfScheduler::new())
        .seed(7)
        .run();
        assert!(outcome.all_jobs_completed());
    }

    #[test]
    fn equalizes_dominant_shares() {
        // Job A: cpu-heavy tasks (2 cores, 1 GB); job B: memory-heavy
        // (0.5 core, 4 GB). On a 4-core/16 GB machine DRF should run ~2 A
        // tasks (dom share 2×2/4 = flexible) alongside B tasks rather than
        // letting either monopolize.
        let mut b = WorkloadBuilder::new();
        let a = b.begin_job("cpuish", None, 0.0);
        b.add_stage(a, "s", vec![], 20, |_| TaskParams {
            cores: 2.0,
            mem: GB,
            duration: 10.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
        let bb = b.begin_job("memish", None, 0.0);
        b.add_stage(bb, "s", vec![], 20, |_| TaskParams {
            cores: 0.5,
            mem: 4.0 * GB,
            duration: 10.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
        let outcome = Simulation::build(
            ClusterConfig::uniform(1, MachineSpec::paper_small()),
            b.finish(),
        )
        .scheduler(DrfScheduler::new())
        .run();
        assert!(outcome.all_jobs_completed());
        // DRF equalizes dominant *shares* while both jobs have pending
        // work: at an early sample the two dominant shares must be close
        // (paper §2.1: each job gets an equal dominant share).
        let total = MachineSpec::paper_small().capacity();
        let early = outcome
            .samples
            .iter()
            .find(|s| s.t >= 10.0)
            .expect("early sample");
        let allocs = early.per_job_alloc.as_ref().unwrap();
        let ds_a = allocs[0].dominant_share(&total, &Resource::ALL);
        let ds_b = allocs[1].dominant_share(&total, &Resource::ALL);
        assert!(ds_a > 0.0 && ds_b > 0.0, "both jobs must be running");
        // Task granularity bounds how close progressive filling can get
        // (the paper: "long-running or resource-hungry tasks cause
        // short-term unfairness ... bounded task sizes limit [it]"): here
        // one 2-core task is 0.5 of the machine, so shares can differ by
        // up to one task's dominant share.
        assert!(
            (ds_a - ds_b).abs() <= 0.5 + 1e-9,
            "dominant shares diverged: {ds_a} vs {ds_b}"
        );
        assert!(ds_a >= 0.25 && ds_b >= 0.25, "a job was starved");
        let _ = JobId(0);
    }

    #[test]
    fn ignores_io_and_overallocates() {
        use tetris_resources::units::MB;
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("writers", None, 0.0);
        b.add_stage(j, "w", vec![], 8, |_| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 20.0,
            cpu_frac: 0.1,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 3000.0 * MB,
            remote_frac: 1.0,
        });
        let mut cfg = tetris_sim::SimConfig::default();
        cfg.sample_period = Some(1.0);
        let outcome = Simulation::build(
            ClusterConfig::uniform(1, MachineSpec::paper_large()),
            b.finish(),
        )
        .scheduler(DrfScheduler::new())
        .config(cfg)
        .run();
        let cap = MachineSpec::paper_large().capacity();
        let over = outcome.samples.iter().any(|s| {
            s.cluster_allocated.get(Resource::DiskWrite) > cap.get(Resource::DiskWrite) * 1.5
        });
        assert!(over, "DRF should over-allocate disk");
    }

    #[test]
    fn extended_variant_checks_all_dims() {
        use tetris_resources::units::MB;
        // Two network-saturating tasks: extended DRF runs them one at a
        // time; shipped DRF piles both on.
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("net", None, 0.0);
        b.add_stage(j, "s", vec![], 2, |_| TaskParams {
            cores: 0.1,
            mem: 0.1 * GB,
            duration: 10.0,
            cpu_frac: 0.1,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 1250.0 * MB, // 125 MB/s = full small-profile NIC? disk!
            remote_frac: 1.0,
        });
        // output → DiskWrite at 125 MB/s > small profile's 100 MB/s? use
        // large profile: 200 MB/s cap; demand 125 each; two demand 250.
        let cluster = ClusterConfig::uniform(1, MachineSpec::paper_large());
        let shipped = Simulation::build(cluster.clone(), b.finish())
            .scheduler(DrfScheduler::new())
            .run();
        // With both running, each gets 100 MB/s → 12.5 s each.
        assert!(shipped.mean_task_stretch() > 1.2);

        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("net", None, 0.0);
        b.add_stage(j, "s", vec![], 2, |_| TaskParams {
            cores: 0.1,
            mem: 0.1 * GB,
            duration: 10.0,
            cpu_frac: 0.1,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 1250.0 * MB,
            remote_frac: 1.0,
        });
        let serial = Simulation::build(cluster, b.finish())
            .scheduler(DrfScheduler::extended())
            .run();
        // Extended DRF serializes: no stretch.
        assert!(serial.mean_task_stretch() < 1.05);
        assert_eq!(serial.name_of(), "drf-all-dims");
    }

    #[test]
    fn name() {
        assert_eq!(DrfScheduler::new().name(), "drf");
    }
}
