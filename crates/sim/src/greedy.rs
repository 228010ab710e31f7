//! [`GreedyFifo`], the simulator's own reference policy.

use crate::view::{Assignment, ClusterView, SchedulerPolicy, WorkingLedger};

/// A deliberately naive reference policy: first-fit in task-uid order over
/// the machines that are up, in id order, honouring full six-dimension
/// feasibility and §16 placement constraints. Useful as a sanity baseline
/// and for engine tests; not one of the paper's comparators.
#[derive(Debug, Default, Clone)]
pub struct GreedyFifo {
    ledger: WorkingLedger,
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
        let (query, ledger) = (view.query(), &mut self.ledger);
        ledger.begin(view);
        let mut out = Vec::new();
        for j in view.active_jobs() {
            for t in view.job_pending(j) {
                // Full feasibility: local demand at the host and
                // disk/net-out demand at every remote input source.
                let host = query.iter_all().find(|&m| {
                    !view.is_down(m)
                        && ledger.allows(view, j, m)
                        && ledger.try_place(view, t, m).is_ok()
                });
                out.extend(host.map(|m| Assignment::new(t, m)));
            }
        }
        out
    }
}
