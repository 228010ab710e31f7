//! Multi-resource SRTF without packing (§3.3.1 / §5.3.1 ablation).
//!
//! Serves jobs in ascending order of remaining work (the same score the
//! Tetris combination uses) and first-fits their tasks. Full
//! six-dimension feasibility is respected — this isolates the *ordering*
//! heuristic from the *packing* heuristic, which is how the paper
//! decomposes its gains ("Using only the SRTF heuristic lowers the
//! improvement...").

use tetris_resources::{Resource, ResourceVec};
use tetris_sim::{Assignment, ClusterView, MachineId, SchedulerPolicy, WorkingLedger};
use tetris_workload::JobId;

/// SRTF-only scheduler.
///
/// One walk a task: its preferred machines, then every up machine by id,
/// suspect machines after the rest (DESIGN.md §10). A machine is planned
/// only if the task's placement-independent demand (Cpu, Mem, DiskWrite:
/// the components a plan takes verbatim from the spec) fits it. A demand
/// that fits no up machine is remembered for the call: availability only
/// shrinks within a call, so a later task whose demand is at least as
/// large on all three dimensions is skipped without a visit (DESIGN.md §9).
#[derive(Debug, Clone, Default)]
pub struct SrtfScheduler {
    scratch: Scratch,
}

/// Buffers reused across `schedule()` calls (cleared, never shrunk).
#[derive(Debug, Clone, Default)]
struct Scratch {
    jobs: Vec<(JobId, f64)>,
    ledger: WorkingLedger,
    preferred: Vec<MachineId>,
    /// The up machines by id, suspect ones last.
    order: Vec<MachineId>,
    /// The minimal placement-independent demands that fit no up machine
    /// this call.
    unplaceable: Vec<ResourceVec>,
}

/// The dimensions on which a placement plan's local demand equals the
/// spec on every machine; the others depend on where the inputs live.
const PLACEMENT_INDEPENDENT: [Resource; 3] = [Resource::Cpu, Resource::Mem, Resource::DiskWrite];

/// `a <= b` on every placement-independent dimension.
fn covered_by(a: &ResourceVec, b: &ResourceVec) -> bool {
    PLACEMENT_INDEPENDENT.iter().all(|&r| a.get(r) <= b.get(r))
}

impl SrtfScheduler {
    /// New instance.
    pub fn new() -> Self {
        Self::default()
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
        let Scratch {
            jobs,
            ledger,
            preferred,
            order,
            unplaceable,
        } = &mut self.scratch;
        ledger.begin(view);
        unplaceable.clear();
        // The up machines, suspect ones last (a stable partition). Without
        // fault injection every machine is up and trusted: the ids.
        order.clear();
        order.extend(view.query().iter_all().filter(|&m| !view.is_down(m)));
        order.sort_by_key(|&m| view.is_suspect(m));
        let trusted = order.partition_point(|&m| !view.is_suspect(m));

        jobs.clear();
        jobs.extend(
            view.active_jobs()
                .map(|j| (j, tetris_core::job_remaining_work(view, j, &reference))),
        );
        jobs.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

        let mut out = Vec::new();
        for &(j, _) in jobs.iter() {
            for t in view.job_pending(j) {
                let quick = view.task(t).demand.project(&PLACEMENT_INDEPENDENT);
                if unplaceable.iter().any(|u| covered_by(u, &quick)) {
                    continue;
                }
                // Data-local machines first, each in its trust class.
                view.preferred_machines_into(t, preferred);
                let preferred_if = |suspect: bool| {
                    preferred
                        .iter()
                        .filter(move |&&m| !view.is_down(m) && view.is_suspect(m) == suspect)
                };
                let mut walk = preferred_if(false)
                    .chain(&order[..trusted])
                    .chain(preferred_if(true))
                    .chain(&order[trusted..]);
                let mut room = false;
                let fit = walk.find(|&&m| {
                    // The plan's local demand is >= `quick` on every
                    // dimension: a cheap exact reject before planning.
                    if !quick.fits_within(&ledger.available(view, m)) {
                        return false;
                    }
                    room = true;
                    ledger.allows(view, j, m) && ledger.try_place(view, t, m).is_ok()
                });
                match fit {
                    Some(&m) => out.push(Assignment::new(t, m)),
                    None if !room => {
                        unplaceable.retain(|u| !covered_by(&quick, u));
                        unplaceable.push(quick);
                    }
                    None => {}
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
