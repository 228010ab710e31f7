//! Property-based invariants of the Tetris scheduler under random
//! workloads: completion, determinism, strict no-over-allocation when
//! idle reclamation is off, and score sanity across all alignment kinds.

use proptest::prelude::*;
use tetris_core::{AlignmentKind, TetrisConfig, TetrisScheduler};
use tetris_resources::{units::GB, units::MB, MachineSpec, Resource, ResourceVec};
use tetris_sim::{ClusterConfig, SimConfig, Simulation};
use tetris_workload::{TaskParams, Workload, WorkloadBuilder};

fn arb_workload() -> impl Strategy<Value = Workload> {
    let job = (
        1usize..=5,     // tasks per stage
        0.25f64..=3.0,  // cores
        0.25f64..=6.0,  // mem GB
        2.0f64..=25.0,  // duration
        0.0f64..=300.0, // output MB
        0.0f64..=40.0,  // arrival
    );
    proptest::collection::vec(job, 1..=4).prop_map(|jobs| {
        let mut b = WorkloadBuilder::new().with_demand_cap(MachineSpec::paper_small().capacity());
        for (ji, (n, cores, mem_gb, dur, out_mb, arrival)) in jobs.into_iter().enumerate() {
            let j = b.begin_job(format!("j{ji}"), None, arrival);
            let inputs: Vec<_> = (0..n).map(|_| b.stored_input(32.0 * MB)).collect();
            b.add_stage(j, "map", vec![], n, |i| TaskParams {
                cores,
                mem: mem_gb * GB,
                duration: dur,
                cpu_frac: 0.7,
                io_burst: 1.0,
                inputs: vec![inputs[i]],
                output_bytes: out_mb * MB,
                remote_frac: 1.0,
            });
        }
        b.finish()
    })
}

fn arb_config() -> impl Strategy<Value = TetrisConfig> {
    (
        0.0f64..=0.99,
        prop_oneof![Just(0.8), Just(0.9), Just(1.0)],
        0.0f64..=0.3,
        prop_oneof![Just(0.0), Just(1.0), Just(2.0)],
        proptest::sample::select(AlignmentKind::ALL.to_vec()),
    )
        .prop_map(|(f, b, rp, m, align)| {
            let mut cfg = TetrisConfig::default();
            cfg.fairness_knob = f;
            cfg.barrier_knob = b;
            cfg.remote_penalty = rp;
            cfg.srtf_multiplier = m;
            cfg.alignment = align;
            cfg
        })
}

fn run(w: &Workload, tc: TetrisConfig, reclaim: bool) -> tetris_sim::SimOutcome {
    let mut cfg = SimConfig::default();
    cfg.seed = 7;
    cfg.reclaim_idle = reclaim;
    cfg.max_time = 50_000.0;
    Simulation::build(
        ClusterConfig::uniform(3, MachineSpec::paper_small()),
        w.clone(),
    )
    .scheduler(TetrisScheduler::new(tc))
    .config(cfg)
    .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn completes_under_any_knob_setting(w in arb_workload(), tc in arb_config()) {
        let o = run(&w, tc, true);
        prop_assert!(o.all_jobs_completed(), "did not complete");
        let done = o.tasks.iter().filter(|t| t.finish.is_some()).count();
        prop_assert_eq!(done, w.num_tasks());
    }

    #[test]
    fn never_overallocates_without_reclamation(w in arb_workload(), tc in arb_config()) {
        let o = run(&w, tc, false);
        prop_assert!(o.all_jobs_completed());
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
    fn memory_never_overcommitted_even_with_reclamation(
        w in arb_workload(),
        tc in arb_config(),
    ) {
        let o = run(&w, tc, true);
        let cap = MachineSpec::paper_small().capacity().get(Resource::Mem);
        for s in &o.samples {
            for ms in s.machines.as_ref().unwrap() {
                prop_assert!(
                    ms.allocated.get(Resource::Mem) <= cap * (1.0 + 1e-9),
                    "memory over-committed: {}",
                    ms.allocated.get(Resource::Mem)
                );
            }
        }
    }

    #[test]
    fn deterministic_replay(w in arb_workload(), tc in arb_config()) {
        let a = run(&w, tc.clone(), true);
        let b = run(&w, tc, true);
        prop_assert_eq!(a.makespan(), b.makespan());
        prop_assert_eq!(
            a.tasks.iter().map(|t| (t.machine, t.finish)).collect::<Vec<_>>(),
            b.tasks.iter().map(|t| (t.machine, t.finish)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn alignment_scores_finite_and_monotone_under_scaling(
        cpu in 0.1f64..4.0,
        mem in 0.1f64..8.0,
        frac in 0.1f64..1.0,
    ) {
        // For the cosine scorer, shrinking a fitting demand shrinks the
        // score (bigger aligned tasks are preferred, §3.2).
        let capacity = MachineSpec::paper_large().capacity();
        let avail = capacity * 0.8;
        let d = ResourceVec::zero()
            .with(Resource::Cpu, cpu)
            .with(Resource::Mem, mem * GB);
        let k = AlignmentKind::Cosine;
        let full = k.score(&d, &avail, &capacity);
        let scaled = k.score(&(d * frac), &avail, &capacity);
        prop_assert!(full.is_finite() && scaled.is_finite());
        prop_assert!(scaled <= full + 1e-12);
        for kind in AlignmentKind::ALL {
            prop_assert!(kind.score(&d, &avail, &capacity).is_finite());
        }
    }
}
