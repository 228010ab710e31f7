//! The barrier knob (paper §3.5, "DAG Awareness").
//!
//! "Given a barrier knob value b ∈ [0,1), whenever resources are available
//! Tetris preferentially offers them to tasks that remain after b fraction
//! of tasks in the stage preceding a barrier have finished." Delay in the
//! last few tasks before a barrier directly delays the job, while
//! prioritizing them takes little from everyone else. The end of a job
//! counts as a barrier too.

use tetris_sim::StageProgress;

/// True if the stage's stragglers should be promoted: it feeds a barrier,
/// at least `b` of it has finished, and it still has pending tasks.
pub(crate) fn stage_promoted(stage: &StageProgress, barrier_knob: f64) -> bool {
    assert!(
        (0.0..=1.0).contains(&barrier_knob),
        "barrier knob must be in [0,1]"
    );
    if barrier_knob >= 1.0 {
        // b = 1: promotion disabled.
        return false;
    }
    if !stage.feeds_barrier || stage.pending == 0 || stage.total == 0 {
        return false;
    }
    let finished_frac = stage.finished as f64 / stage.total as f64;
    finished_frac >= barrier_knob
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(total: usize, finished: usize, pending: usize, feeds: bool) -> StageProgress {
        StageProgress {
            total,
            finished,
            running: total - finished - pending,
            pending,
            feeds_barrier: feeds,
            unlocked: true,
        }
    }

    #[test]
    fn promotes_stragglers_past_threshold() {
        assert!(stage_promoted(&stage(10, 9, 1, true), 0.9));
        assert!(!stage_promoted(&stage(10, 10, 0, true), 0.9)); // no pending
    }

    #[test]
    fn below_threshold_not_promoted() {
        assert!(!stage_promoted(&stage(10, 5, 5, true), 0.9));
    }

    #[test]
    fn non_barrier_stage_never_promoted() {
        assert!(!stage_promoted(&stage(10, 9, 1, false), 0.9));
    }

    #[test]
    fn knob_one_disables_promotion() {
        assert!(!stage_promoted(&stage(10, 9, 1, true), 1.0));
    }

    #[test]
    fn knob_zero_promotes_everything_with_a_barrier() {
        assert!(stage_promoted(&stage(10, 0, 10, true), 0.0));
    }

    #[test]
    #[should_panic(expected = "barrier knob")]
    fn rejects_out_of_range() {
        stage_promoted(&stage(1, 0, 1, true), 1.5);
    }
}
