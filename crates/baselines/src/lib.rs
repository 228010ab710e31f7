//! # tetris-baselines
//!
//! The comparator schedulers of the Tetris paper's evaluation (§5.1) plus
//! ablation and floor baselines:
//!
//! * [`FairScheduler`] / [`CapacityScheduler`] — slot-based Hadoop 1.x
//!   schedulers (slots defined on memory only; CPU/disk/network never
//!   examined → fragmentation *and* over-allocation);
//! * [`DrfScheduler`] — Dominant Resource Fairness as shipped (CPU+memory
//!   only), plus an all-dimension extended variant;
//! * [`SrtfScheduler`] — multi-resource shortest-remaining-work ordering
//!   without packing (the §5.3.1 ablation);
//! * [`RandomScheduler`] — seeded random placement floor;
//! * [`UpperBoundScheduler`] — the §2.2.3 aggregate-bin relaxation that
//!   upper-bounds the gains any packing scheduler can hope for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drf;
mod random;
mod slots;
mod srtf_only;
mod upper_bound;

pub use drf::DrfScheduler;
pub use random::RandomScheduler;
pub use slots::{CapacityScheduler, FairScheduler, DEFAULT_SLOT_MEM};
pub use srtf_only::SrtfScheduler;
pub use upper_bound::{UpperBoundOutcome, UpperBoundScheduler};

use tetris_sim::ClusterView;
use tetris_workload::{JobId, TaskUid};

/// Cursor over one job's pending tasks in stage order, over the view's
/// zero-copy per-stage slices: the queue walk the slot schedulers and DRF
/// share. Owners keep their per-job ordering keys beside it.
struct PendingCursor<'a> {
    stages: Vec<(usize, &'a [TaskUid])>,
    stage_pos: usize,
    off: usize,
}

impl<'a> PendingCursor<'a> {
    fn new(view: &ClusterView<'a>, j: JobId) -> Self {
        PendingCursor {
            stages: view.job_pending_stages(j).collect(),
            stage_pos: 0,
            off: 0,
        }
    }

    /// The next unplaced pending task, if any.
    fn head(&self) -> Option<TaskUid> {
        let (_, slice) = self.stages.get(self.stage_pos)?;
        slice.get(self.off).copied()
    }

    /// Step past the head, skipping exhausted stages.
    fn advance(&mut self) {
        self.off += 1;
        while let Some((_, slice)) = self.stages.get(self.stage_pos) {
            if self.off < slice.len() {
                break;
            }
            self.stage_pos += 1;
            self.off = 0;
        }
    }
}
