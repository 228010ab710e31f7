//! Multi-resource SRTF without packing (§3.3.1 / §5.3.1 ablation).
//!
//! Serves jobs in ascending order of remaining work (the same score the
//! Tetris combination uses) and first-fits their tasks. Full
//! six-dimension feasibility is respected — this isolates the *ordering*
//! heuristic from the *packing* heuristic, which is how the paper
//! decomposes its gains ("Using only the SRTF heuristic lowers the
//! improvement...").

use tetris_resources::{Resource, ResourceVec};
use tetris_sim::{Assignment, ClusterView, MachineId, PlacementPlan, SchedulerPolicy};
use tetris_workload::JobId;

/// SRTF-only scheduler.
///
/// The schedule pass walks every pending task; at saturation that is
/// thousands of tasks per event, so the pass prefilters each task on the
/// placement-*independent* demand dimensions (Cpu, Mem, DiskWrite — a
/// placement plan's local demand equals the spec on exactly these) before
/// paying for any per-machine placement plan. The prefilter only rejects
/// tasks/machines the full feasibility check would also reject, so
/// decisions are identical to the exhaustive pass (proven by
/// `tests/schedule_equivalence.rs`).
#[derive(Debug, Clone, Default)]
pub struct SrtfScheduler {
    /// Skip the prefilter and buffer reuse: the from-scratch reference
    /// that the equivalence test compares against.
    exhaustive: bool,
    scratch: Scratch,
}

/// Buffers reused across `schedule()` calls (cleared, never shrunk).
#[derive(Debug, Clone, Default)]
struct Scratch {
    jobs: Vec<(JobId, f64)>,
    avail: Vec<ResourceVec>,
    preferred: Vec<MachineId>,
    candidates: Vec<MachineId>,
    plan: PlacementPlan,
}

/// The demand components a placement plan cannot change: Cpu, Mem and
/// DiskWrite are taken verbatim from the spec regardless of machine, while
/// DiskRead/NetIn/NetOut depend on where the inputs live (zeroed here, so
/// the result is component-wise `<=` any machine's plan-local demand).
fn placement_independent(demand: &ResourceVec) -> ResourceVec {
    ResourceVec::zero()
        .with(Resource::Cpu, demand.get(Resource::Cpu))
        .with(Resource::Mem, demand.get(Resource::Mem))
        .with(Resource::DiskWrite, demand.get(Resource::DiskWrite))
}

impl SrtfScheduler {
    /// New instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// From-scratch reference pass: no prefilter, no scratch reuse. Slower
    /// but structurally identical to the original algorithm; exists so the
    /// equivalence test can prove the optimized pass decision-identical.
    pub fn exhaustive() -> Self {
        SrtfScheduler {
            exhaustive: true,
            ..Self::default()
        }
    }
}

impl SchedulerPolicy for SrtfScheduler {
    fn name(&self) -> &str {
        "srtf"
    }

    fn uses_tracker(&self) -> bool {
        true
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let n = view.num_machines().max(1);
        let reference = view.total_capacity() / n as f64;
        let exhaustive = self.exhaustive;
        let Scratch {
            jobs,
            avail,
            preferred,
            candidates,
            plan,
        } = &mut self.scratch;
        // Fault awareness: skipping down machines and stably pushing
        // suspect ones last are both exact no-ops without fault injection
        // (every machine is up and trusted then), so decisions stay
        // byte-identical to the pre-fault pass.
        let query = view.query();
        let any_suspect = query.iter_all().any(|m| view.is_suspect(m));

        jobs.clear();
        jobs.extend(
            view.active_jobs()
                .map(|j| (j, tetris_core::job_remaining_work(view, j, &reference))),
        );
        jobs.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

        avail.clear();
        avail.extend(query.iter_all().map(|m| view.available(m)));

        // Upper envelope of availability on the placement-independent
        // dims (∞ elsewhere so those always pass). Availability only
        // shrinks during the pass, so the envelope stays an upper bound:
        // a task that fails it fails the full check on every machine.
        let mut env = ResourceVec::zero()
            .with(Resource::Cpu, f64::NEG_INFINITY)
            .with(Resource::Mem, f64::NEG_INFINITY)
            .with(Resource::DiskWrite, f64::NEG_INFINITY)
            .with(Resource::DiskRead, f64::INFINITY)
            .with(Resource::NetIn, f64::INFINITY)
            .with(Resource::NetOut, f64::INFINITY);
        for a in avail.iter() {
            env = env.max(a);
        }

        let mut out = Vec::new();
        for &(j, _) in jobs.iter() {
            let constrained = view.job_constrained(j);
            for t in view
                .job_pending_stages(j)
                .flat_map(|(_, slice)| slice.iter().copied())
            {
                let quick = placement_independent(&view.task(t).demand);
                if !exhaustive && !quick.fits_within(&env) {
                    continue; // provably unplaceable on every machine
                }
                // Prefer data-local placements, else first machine where
                // the full plan (local + remote) fits.
                view.preferred_machines_into(t, preferred);
                candidates.clear();
                candidates.extend(preferred.iter().copied().chain(query.iter_all()));
                candidates.retain(|&m| !view.is_down(m));
                if any_suspect {
                    // Stable partition: suspect machines considered last.
                    candidates.sort_by_key(|&m| view.is_suspect(m));
                }
                for m in candidates.iter().copied() {
                    // Cheap exact reject before computing the plan: the
                    // plan's local demand is >= `quick` component-wise.
                    if !exhaustive && !quick.fits_within(&avail[m.index()]) {
                        continue;
                    }
                    if constrained && !view.constraints_allow(j, m) {
                        continue;
                    }
                    view.plan_into(t, m, plan);
                    if plan.try_charge(m, avail) {
                        out.push(Assignment::new(t, m));
                        break;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_resources::{units::GB, MachineSpec};
    use tetris_sim::{ClusterConfig, Simulation};
    use tetris_workload::{JobId, TaskParams, WorkloadBuilder, WorkloadSuiteConfig};

    #[test]
    fn completes_small_suite() {
        let outcome = Simulation::build(
            ClusterConfig::uniform(6, MachineSpec::paper_large()),
            WorkloadSuiteConfig::small().generate(1),
        )
        .scheduler(SrtfScheduler::new())
        .seed(1)
        .run();
        assert!(outcome.all_jobs_completed());
    }

    #[test]
    fn short_job_finishes_first() {
        // A long job (30 tasks) and a short one (2 tasks) arrive together
        // on a tiny cluster; SRTF must finish the short one first even
        // though the long one came first by id.
        let mut b = WorkloadBuilder::new();
        let long = b.begin_job("long", None, 0.0);
        b.add_stage(long, "s", vec![], 30, |_| TaskParams {
            cores: 2.0,
            mem: 4.0 * GB,
            duration: 10.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
        let short = b.begin_job("short", None, 0.0);
        b.add_stage(short, "s", vec![], 2, |_| TaskParams {
            cores: 2.0,
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
        .scheduler(SrtfScheduler::new())
        .run();
        let long_jct = outcome.jct(JobId(0)).unwrap();
        let short_jct = outcome.jct(JobId(1)).unwrap();
        assert!(
            short_jct < long_jct / 2.0,
            "short {short_jct} vs long {long_jct}"
        );
    }
}
