//! The baseline schedulers over the shared scenario: each keeps
//! [`check_invariants`] at the fit it promises — the slot schedulers never
//! run more tasks than a machine has slots, DRF never over-commits CPU or
//! memory, SRTF and random placement nothing, and none of them memory —
//! and replays identically.

use tetris_testkit::{check_invariants, forall, same_outcome, Policy, SchedName};

#[test]
fn baselines_keep_every_invariant_and_replay() {
    const BASELINES: [SchedName; 5] = [
        SchedName::Fair,
        SchedName::Capacity,
        SchedName::Drf,
        SchedName::Srtf,
        SchedName::Random,
    ];
    forall("baselines_keep_every_invariant_and_replay", 20, |s| {
        let baseline = BASELINES[s.draw as usize % BASELINES.len()];
        let s = s.with_policy(Policy::Named(baseline));
        let run = s.run();
        check_invariants(&s, &run);
        same_outcome(&run, &s.run());
    });
}
