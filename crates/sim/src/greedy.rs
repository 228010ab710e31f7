//! [`GreedyFifo`], the simulator's own reference policy.

use tetris_resources::ResourceVec;

use crate::state::PlacementPlan;
use crate::view::{Assignment, ClusterView, SchedulerPolicy};

/// A deliberately naive reference policy: first-fit in task-uid order over
/// machines in id order, honouring full six-dimension feasibility. Useful
/// as a sanity baseline and for engine tests; not one of the paper's
/// comparators.
#[derive(Debug, Default, Clone)]
pub struct GreedyFifo {
    _private: (),
}

impl GreedyFifo {
    /// New instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SchedulerPolicy for GreedyFifo {
    fn name(&self) -> &str {
        "greedy-fifo"
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let query = view.query();
        let mut avail: Vec<ResourceVec> = query.iter_all().map(|m| view.available(m)).collect();
        let mut out = Vec::new();
        let mut plan = PlacementPlan::default();
        for j in view.active_jobs() {
            for t in view.job_pending(j) {
                // Full feasibility: local demand at the host and
                // disk/net-out demand at every remote input source.
                let host = query.iter_all().find(|&m| {
                    view.plan_into(t, m, &mut plan);
                    plan.try_charge(m, &mut avail)
                });
                if let Some(m) = host {
                    out.push(Assignment::new(t, m));
                }
            }
        }
        out
    }
}
