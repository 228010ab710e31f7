//! The incremental scheduling path, over the shared scenario: Tetris with
//! its caches, validated by the view's epochs, against [`ColdTetris`], the
//! same policy dropping every cache before each call, at the draw's shard
//! count. Each draw moves the cache keys its own way — arrivals,
//! placements and finishes, failure retries, crash kills and
//! abandonments, restarts after backoff, replica moves, tracker flakes,
//! suspicion flips and preemptions. The two runs must be
//! indistinguishable: identical outcomes and identical traces, which carry
//! every assignment and its score breakdown.

use tetris_core::{ColdTetris, EstimationMode, TetrisScheduler};
use tetris_sim::SchedulerPolicy;
use tetris_testkit::{forall, same_outcome, Policy, SchedName};

#[test]
fn warm_tetris_matches_cold_tetris() {
    const TETRIS: [SchedName; 3] = [
        SchedName::Tetris,
        SchedName::PackingOnly,
        SchedName::TetrisCpuMemOnly,
    ];
    forall("warm_tetris_matches_cold_tetris", 24, |s| {
        let tetris = TETRIS[s.draw as usize % 3];
        let s = s.with_policy(Policy::Named(tetris));
        let mut cfg = s.policy.tetris_config().expect("a Tetris policy");
        if s.draw % 2 == 1 {
            // Inexact estimates turn the candidate cache off: the policy
            // must still match through the fallback path.
            cfg.estimation = EstimationMode::Noisy { sigma: 0.3 };
        }
        let warm = s.run_with(s.sharded(|| -> Box<dyn SchedulerPolicy> {
            Box::new(TetrisScheduler::new(cfg.clone()))
        }));
        let cold = s.run_with(s.sharded(|| -> Box<dyn SchedulerPolicy> {
            Box::new(ColdTetris(TetrisScheduler::new(cfg.clone())))
        }));
        same_outcome(&warm, &cold);
        // Placements must exist, or the comparison is vacuous.
        assert!(warm.outcome.stats.placements > 0);
    });
}
