//! Tetris over the shared scenario at knobs drawn over their whole range:
//! every run keeps [`check_invariants`] — it settles, never over-commits
//! without idle reclamation and never over-commits memory with it — and
//! replays identically. Alignment scores stay finite, and monotone as a
//! scenario's demands shrink.

use tetris_core::AlignmentKind;
use tetris_resources::{Resource, ResourceVec};
use tetris_testkit::{check_invariants, forall, same_outcome};

#[test]
fn tetris_keeps_every_invariant_at_any_knobs() {
    forall("tetris_keeps_every_invariant_at_any_knobs", 16, |s| {
        let s = s.with_tetris_knobs();
        let run = s.run();
        check_invariants(&s, &run);
        same_outcome(&run, &s.run());
    });
}

#[test]
fn alignment_scores_finite_and_monotone_under_scaling() {
    forall(
        "alignment_scores_finite_and_monotone_under_scaling",
        32,
        |s| {
            // For the cosine scorer, shrinking a fitting demand shrinks the
            // score (bigger aligned tasks are preferred, §3.2).
            let capacity = s.cluster.machines[0].capacity();
            let avail = capacity * 0.8;
            let frac = 0.1 + 0.9 * (s.draw % 1000) as f64 / 1000.0;
            for job in s.workload.jobs.iter() {
                let task = &job.stages[0].tasks[0];
                let d = ResourceVec::zero()
                    .with(Resource::Cpu, task.demand.get(Resource::Cpu))
                    .with(Resource::Mem, task.demand.get(Resource::Mem));
                if !d.fits_within(&avail) {
                    continue;
                }
                let k = AlignmentKind::Cosine;
                let full = k.score(&d, &avail, &capacity);
                let scaled = k.score(&(d * frac), &avail, &capacity);
                assert!(full.is_finite() && scaled.is_finite());
                assert!(scaled <= full + 1e-12);
                for kind in AlignmentKind::ALL {
                    assert!(kind.score(&d, &avail, &capacity).is_finite());
                }
            }
        },
    );
}
