//! Property-based invariants of the simulation engine under randomly
//! generated workloads: conservation (every task completes exactly once on
//! feasible workloads), determinism, non-negative availability under a
//! feasibility-respecting policy, and monotonic sample times.

use proptest::prelude::*;
use tetris_resources::{units::GB, units::MB, MachineSpec, Resource};
use tetris_sim::{ClusterConfig, GreedyFifo, SimConfig, Simulation};
use tetris_workload::{TaskParams, Workload, WorkloadBuilder};

/// Random small workload: 1–4 jobs, 1–2 stages, 1–6 tasks per stage, with
/// demands guaranteed to fit the small machine profile.
fn arb_workload() -> impl Strategy<Value = Workload> {
    let job = (
        1usize..=2,          // stages
        1usize..=6,          // tasks per stage
        0.25f64..=2.0,       // cores
        0.25f64..=4.0,       // mem GB
        2.0f64..=30.0,       // duration
        0.0f64..=200.0,      // output MB
        0.0f64..=60.0,       // arrival
        proptest::bool::ANY, // io heavy?
    );
    proptest::collection::vec(job, 1..=4).prop_map(|jobs| {
        let mut b = WorkloadBuilder::new().with_demand_cap(MachineSpec::paper_small().capacity());
        for (ji, (stages, n, cores, mem_gb, dur, out_mb, arrival, io_heavy)) in
            jobs.into_iter().enumerate()
        {
            let j = b.begin_job(format!("j{ji}"), None, arrival);
            let inputs: Vec<_> = (0..n).map(|_| b.stored_input(64.0 * MB)).collect();
            b.add_stage(j, "map", vec![], n, |i| TaskParams {
                cores,
                mem: mem_gb * GB,
                duration: dur,
                cpu_frac: if io_heavy { 0.3 } else { 1.0 },
                io_burst: 1.0,
                inputs: vec![inputs[i]],
                output_bytes: out_mb * MB,
                remote_frac: 1.0,
            });
            if stages == 2 && out_mb > 0.0 {
                let total_out = out_mb * MB * n as f64;
                b.add_stage(j, "reduce", vec![0], 1, |_| TaskParams {
                    cores,
                    mem: mem_gb * GB,
                    duration: dur,
                    cpu_frac: 0.5,
                    io_burst: 1.0,
                    inputs: vec![tetris_workload::InputSpec {
                        source: tetris_workload::InputSource::Shuffle { stage: 0 },
                        bytes: total_out,
                    }],
                    output_bytes: MB,
                    remote_frac: 1.0,
                });
            }
        }
        b.finish()
    })
}

fn run(w: Workload, seed: u64) -> tetris_sim::SimOutcome {
    let mut cfg = SimConfig::default();
    cfg.seed = seed;
    cfg.max_time = 100_000.0;
    Simulation::build(ClusterConfig::uniform(3, MachineSpec::paper_small()), w)
        .scheduler(GreedyFifo::new())
        .config(cfg)
        .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_tasks_complete_exactly_once(w in arb_workload(), seed in 0u64..100) {
        let total = w.num_tasks();
        let o = run(w, seed);
        prop_assert!(o.all_jobs_completed(), "workload did not complete");
        let finished = o.tasks.iter().filter(|t| t.finish.is_some()).count();
        prop_assert_eq!(finished, total);
        for t in &o.tasks {
            prop_assert_eq!(t.attempts, 1);
        }
    }

    #[test]
    fn deterministic_given_seed(w in arb_workload(), seed in 0u64..100) {
        let a = run(w.clone(), seed);
        let b = run(w, seed);
        prop_assert_eq!(a.makespan(), b.makespan());
        prop_assert_eq!(a.stats.events, b.stats.events);
        prop_assert_eq!(
            a.tasks.iter().map(|t| t.finish).collect::<Vec<_>>(),
            b.tasks.iter().map(|t| t.finish).collect::<Vec<_>>()
        );
    }

    #[test]
    fn feasible_policy_never_overallocates(w in arb_workload(), seed in 0u64..100) {
        // GreedyFifo respects 6-dim feasibility, so allocation ledgers must
        // never exceed capacity → sampled allocation ≤ capacity.
        let o = run(w, seed);
        let cap = MachineSpec::paper_small().capacity();
        for s in &o.samples {
            for ms in s.machines.as_ref().unwrap() {
                for r in Resource::ALL {
                    prop_assert!(
                        ms.allocated.get(r) <= cap.get(r) * (1.0 + 1e-9) + 1e-6,
                        "over-allocated {r}: {}",
                        ms.allocated.get(r)
                    );
                }
            }
        }
    }

    #[test]
    fn task_durations_at_least_ideal(w in arb_workload(), seed in 0u64..100) {
        // No task can beat its peak-allocation lower bound (modulo µs
        // rounding).
        let o = run(w, seed);
        for t in &o.tasks {
            if let (Some(d), Some(planned)) = (t.duration(), t.planned_duration) {
                prop_assert!(
                    d >= planned * (1.0 - 1e-6) - 1e-3,
                    "task {} ran in {d}, planned lower bound {planned}",
                    t.uid
                );
                prop_assert!(t.stretch().unwrap() >= 1.0 - 1e-6);
            }
        }
    }

    #[test]
    fn samples_monotonic_and_jcts_positive(w in arb_workload(), seed in 0u64..100) {
        let o = run(w, seed);
        for pair in o.samples.windows(2) {
            prop_assert!(pair[1].t > pair[0].t);
        }
        for j in &o.jobs {
            let jct = j.jct().unwrap();
            prop_assert!(jct > 0.0);
            prop_assert!(j.first_start.unwrap() >= j.arrival);
        }
    }
}
