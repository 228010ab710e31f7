//! Property-based invariants of the baseline schedulers.

use proptest::prelude::*;
use tetris_baselines::{CapacityScheduler, DrfScheduler, FairScheduler, SrtfScheduler};
use tetris_resources::{units::GB, units::MB, MachineSpec, Resource};
use tetris_sim::{SchedulerPolicy, SimConfig, Simulation};
use tetris_workload::{TaskParams, Workload, WorkloadBuilder};

fn arb_workload() -> impl Strategy<Value = Workload> {
    let job = (
        1usize..=6,    // tasks
        0.25f64..=2.0, // cores
        0.25f64..=6.0, // mem GB
        2.0f64..=20.0, // duration
        0.0f64..=30.0, // arrival
    );
    proptest::collection::vec(job, 1..=4).prop_map(|jobs| {
        let mut b = WorkloadBuilder::new().with_demand_cap(MachineSpec::paper_small().capacity());
        for (ji, (n, cores, mem_gb, dur, arrival)) in jobs.into_iter().enumerate() {
            let j = b.begin_job(format!("j{ji}"), None, arrival);
            let inputs: Vec<_> = (0..n).map(|_| b.stored_input(16.0 * MB)).collect();
            b.add_stage(j, "map", vec![], n, |i| TaskParams {
                cores,
                mem: mem_gb * GB,
                duration: dur,
                cpu_frac: 1.0,
                io_burst: 1.0,
                inputs: vec![inputs[i]],
                output_bytes: 4.0 * MB,
                remote_frac: 1.0,
            });
        }
        b.finish()
    })
}

fn run(w: &Workload, policy: Box<dyn SchedulerPolicy>) -> tetris_sim::SimOutcome {
    let mut cfg = SimConfig::default();
    cfg.seed = 11;
    cfg.max_time = 50_000.0;
    Simulation::build(
        tetris_sim::ClusterConfig::uniform(2, MachineSpec::paper_small()),
        w.clone(),
    )
    .scheduler(policy)
    .config(cfg)
    .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn slot_schedulers_respect_slot_counts(w in arb_workload()) {
        // paper_small: 16 GB / 2 GB slots = 8 slots per machine.
        for fair in [true, false] {
            let policy: Box<dyn SchedulerPolicy> = if fair {
                Box::new(FairScheduler::new())
            } else {
                Box::new(CapacityScheduler::new())
            };
            let o = run(&w, policy);
            prop_assert!(o.all_jobs_completed());
            for s in &o.samples {
                for ms in s.machines.as_ref().unwrap() {
                    prop_assert!(ms.running <= 8, "{} tasks on one machine", ms.running);
                }
            }
        }
    }

    #[test]
    fn drf_never_overallocates_its_dims(w in arb_workload()) {
        let o = run(&w, Box::new(DrfScheduler::new()));
        prop_assert!(o.all_jobs_completed());
        let cap = MachineSpec::paper_small().capacity();
        for s in &o.samples {
            for ms in s.machines.as_ref().unwrap() {
                for r in [Resource::Cpu, Resource::Mem] {
                    prop_assert!(
                        ms.allocated.get(r) <= cap.get(r) * (1.0 + 1e-9) + 1e-6,
                        "DRF over-allocated {r}: {}",
                        ms.allocated.get(r)
                    );
                }
            }
        }
    }

    #[test]
    fn srtf_completes_and_never_overallocates(w in arb_workload()) {
        let o = run(&w, Box::new(SrtfScheduler::new()));
        prop_assert!(o.all_jobs_completed());
        let cap = MachineSpec::paper_small().capacity();
        for s in &o.samples {
            for ms in s.machines.as_ref().unwrap() {
                // SRTF respects every dimension; memory must never exceed.
                prop_assert!(
                    ms.allocated.get(Resource::Mem) <= cap.get(Resource::Mem) * (1.0 + 1e-9),
                    "SRTF over-committed memory"
                );
            }
        }
    }

    #[test]
    fn all_baselines_deterministic(w in arb_workload()) {
        for mk in [
            || Box::new(FairScheduler::new()) as Box<dyn SchedulerPolicy>,
            || Box::new(DrfScheduler::new()) as Box<dyn SchedulerPolicy>,
        ] {
            let a = run(&w, mk());
            let b = run(&w, mk());
            prop_assert_eq!(a.makespan(), b.makespan());
            prop_assert_eq!(
                a.tasks.iter().map(|t| t.finish).collect::<Vec<_>>(),
                b.tasks.iter().map(|t| t.finish).collect::<Vec<_>>()
            );
        }
    }
}
