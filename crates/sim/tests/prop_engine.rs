//! Engine invariants over the shared scenario (DESIGN.md §6): every draw
//! keeps [`check_invariants`] with every proposal admitted, a draw runs the
//! same way twice, and a calm draw runs every task exactly once.

use tetris_resources::{units::GB, units::MB, MachineSpec};
use tetris_sim::ClusterConfig;
use tetris_testkit::{check_invariants, forall, same_outcome, Policy, Scenario};
use tetris_workload::{InputSource, InputSpec, TaskParams, Workload, WorkloadBuilder};

#[test]
fn every_draw_keeps_every_invariant() {
    let (mut crashes, mut abandoned, mut conflicts) = (0, 0, 0);
    forall("every_draw_keeps_every_invariant", 32, |s| {
        let run = s.run();
        check_invariants(&s, &run);
        let stats = &run.outcome.stats;
        assert_eq!(stats.rejected_assignments, 0, "a proposal was refused");
        crashes += stats.machine_crashes;
        abandoned += stats.tasks_abandoned;
        conflicts += run.conflicts;
    });
    // The draws reach the paths the invariants guard (preemption's is
    // `prop_serving`'s saturated draws).
    let reached = [crashes, abandoned, conflicts];
    assert!(
        reached.iter().all(|&n| n > 0),
        "crashes, abandoned, conflicts: {reached:?}"
    );
}

#[test]
fn a_draw_runs_the_same_twice() {
    forall("a_draw_runs_the_same_twice", 16, |s| {
        same_outcome(&s.run(), &s.run())
    });
}

#[test]
fn calm_draws_run_every_task_once() {
    forall("calm_draws_run_every_task_once", 24, |s| {
        let s = s.calm();
        let run = s.run();
        check_invariants(&s, &run);
        assert!(run.outcome.all_jobs_completed());
        assert!(run.outcome.tasks.iter().all(|t| t.attempts == 1));
    });
}

/// The three workloads an earlier generator shrank its failures to, under
/// `GreedyFifo` at seed 0 on three small machines: map stages over 64 MB
/// blocks, and in each a map whose output a one-task reduce shuffles.
/// Per job: (maps, cores, map disk-read rate, output MB, arrival).
type Job = (usize, f64, f64, f64, f64);

#[rustfmt::skip]
const SHRUNK: [&[Job]; 3] = [
    &[(2, 0.25, 32e6, 174.845_323_441_885_86, 0.0)],
    &[(4, 0.25, 9_733_119.650_151_718, 167.665_012_219_855, 0.0)],
    &[
        (2, 0.619_418_884_894_525_5, 32e6, 0.0, 11.883_666_570_370_847),
        (3, 1.942_523_937_846_127, 3_519_597.978_448_466_4, 0.0, 0.0),
        (6, 1.321_475_813_850_957_2, 9_524_890.014_911_354, 182.176_304_277_136_53, 6.470_784_421_300_938),
    ],
];

#[test]
fn shrunk_map_and_shuffle_workloads_keep_every_invariant() {
    for jobs in SHRUNK {
        let s = Scenario::fixed(
            ClusterConfig::uniform(3, MachineSpec::paper_small()),
            shrunk(jobs),
            Policy::Greedy,
        );
        let run = s.run();
        check_invariants(&s, &run);
        assert!(run.outcome.all_jobs_completed());
        assert!(run.outcome.tasks.iter().all(|t| t.attempts == 1));
    }
}

fn shrunk(jobs: &[Job]) -> Workload {
    let mut b = WorkloadBuilder::new().with_demand_cap(MachineSpec::paper_small().capacity());
    for (ji, &(n, cores, read_rate, out_mb, arrival)) in jobs.iter().enumerate() {
        let j = b.begin_job(format!("j{ji}"), None, arrival);
        let duration = 64.0 * MB / read_rate;
        let params = |inputs, cpu_frac, output_bytes| TaskParams {
            cores,
            mem: 0.25 * GB,
            duration,
            cpu_frac,
            io_burst: 1.0,
            inputs,
            output_bytes,
            remote_frac: 1.0,
        };
        let inputs: Vec<_> = (0..n).map(|_| b.stored_input(64.0 * MB)).collect();
        let map = b.add_stage(j, "map", vec![], n, |i| {
            params(vec![inputs[i]], 1.0, out_mb * MB)
        });
        if out_mb > 0.0 {
            let shuffle = InputSpec {
                source: InputSource::Shuffle { stage: map },
                bytes: out_mb * MB * n as f64,
            };
            b.add_stage(j, "reduce", vec![map], 1, |_| {
                params(vec![shuffle], 0.5, MB)
            });
        }
    }
    b.finish()
}
