//! End-to-end tests of the simulation engine with the reference policy.

use tetris_resources::{units::GB, units::MB, MachineSpec, Resource, ResourceVec};
use tetris_sim::{
    Assignment, ClusterConfig, ExternalLoad, GreedyFifo, MachineId, SchedulerPolicy, SimConfig,
    Simulation,
};
use tetris_workload::{
    motivating_example, JobId, TaskParams, WorkloadBuilder, WorkloadSuiteConfig,
};

fn small_cluster(n: usize) -> ClusterConfig {
    ClusterConfig::uniform(n, MachineSpec::paper_small())
}

#[test]
fn single_task_runs_for_its_ideal_duration() {
    let mut b = WorkloadBuilder::new();
    let j = b.begin_job("j", None, 0.0);
    b.add_stage(j, "s", vec![], 1, |_| TaskParams {
        cores: 1.0,
        mem: GB,
        duration: 42.0,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 1.0,
    });
    let outcome = Simulation::build(small_cluster(1), b.finish())
        .scheduler(GreedyFifo::new())
        .run();
    assert!(outcome.all_jobs_completed());
    assert!((outcome.jct(JobId(0)).unwrap() - 42.0).abs() < 1e-3);
    assert_eq!(outcome.tasks[0].attempts, 1);
    assert!((outcome.tasks[0].stretch().unwrap() - 1.0).abs() < 1e-6);
}

#[test]
fn mapreduce_respects_barrier() {
    // One map (10s) then one reduce (10s): job takes ≥ 20s.
    let mut b = WorkloadBuilder::new();
    let j = b.begin_job("j", None, 0.0);
    let input = b.stored_input(10.0 * MB);
    b.add_stage(j, "map", vec![], 1, |_| TaskParams {
        cores: 1.0,
        mem: GB,
        duration: 10.0,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![input],
        output_bytes: 10.0 * MB,
        remote_frac: 1.0,
    });
    b.add_stage(j, "reduce", vec![0], 1, |_| TaskParams {
        cores: 1.0,
        mem: GB,
        duration: 10.0,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![tetris_workload::InputSpec {
            source: tetris_workload::InputSource::Shuffle { stage: 0 },
            bytes: 10.0 * MB,
        }],
        output_bytes: MB,
        remote_frac: 1.0,
    });
    let outcome = Simulation::build(small_cluster(2), b.finish())
        .scheduler(GreedyFifo::new())
        .run();
    assert!(outcome.all_jobs_completed());
    let jct = outcome.jct(JobId(0)).unwrap();
    assert!(jct >= 20.0 - 1e-3, "barrier violated: jct={jct}");
    // Reduce must start only after map finishes.
    assert!(outcome.tasks[1].start.unwrap() >= outcome.tasks[0].finish.unwrap() - 1e-6);
}

#[test]
fn suite_completes_and_is_deterministic() {
    let w = WorkloadSuiteConfig::small().generate(11);
    let run = |seed| {
        Simulation::build(small_cluster(8), w.clone())
            .scheduler(GreedyFifo::new())
            .seed(seed)
            .run()
    };
    let a = run(5);
    let b = run(5);
    let c = run(6);
    assert!(a.all_jobs_completed());
    // Bit-level determinism.
    assert_eq!(a.makespan(), b.makespan());
    assert_eq!(a.avg_jct(), b.avg_jct());
    assert_eq!(a.stats.events, b.stats.events);
    assert_eq!(
        a.tasks.iter().map(|t| t.finish).collect::<Vec<_>>(),
        b.tasks.iter().map(|t| t.finish).collect::<Vec<_>>()
    );
    // Different sim seed → different block placement → some task runs
    // differently.
    let finishes =
        |o: &tetris_sim::SimOutcome| o.tasks.iter().map(|t| t.finish).collect::<Vec<_>>();
    assert_ne!(
        finishes(&a),
        finishes(&c),
        "different seeds produced identical runs"
    );
}

#[test]
fn every_scheduled_task_completes_exactly_once() {
    let w = WorkloadSuiteConfig::small().generate(3);
    let total = w.num_tasks();
    let outcome = Simulation::build(small_cluster(6), w)
        .scheduler(GreedyFifo::new())
        .run();
    assert!(outcome.all_jobs_completed());
    let finished = outcome.tasks.iter().filter(|t| t.finish.is_some()).count();
    assert_eq!(finished, total);
    for t in &outcome.tasks {
        assert_eq!(t.attempts, 1);
        assert!(t.finish.unwrap() >= t.start.unwrap());
    }
}

#[test]
fn usage_samples_never_exceed_capacity_on_rate_dims() {
    let w = WorkloadSuiteConfig::small().generate(9);
    let cluster = small_cluster(4);
    let cap = cluster.capacity(MachineId(0));
    let outcome = Simulation::build(cluster, w)
        .scheduler(GreedyFifo::new())
        .run();
    for s in &outcome.samples {
        for ms in s.machines.as_ref().unwrap() {
            for r in Resource::ALL {
                if r == Resource::Mem {
                    continue;
                }
                assert!(
                    ms.usage.get(r) <= cap.get(r) * (1.0 + 1e-6),
                    "usage {} exceeds capacity on {r}",
                    ms.usage.get(r)
                );
            }
        }
    }
}

#[test]
fn contention_stretches_tasks() {
    // Policy that dumps 4 disk-hungry tasks on one machine: each demands
    // the full disk write bandwidth, so they take ~4× the ideal duration.
    struct DumpAll;
    impl SchedulerPolicy for DumpAll {
        fn name(&self) -> &str {
            "dump-all"
        }
        fn schedule(&mut self, view: &tetris_sim::ClusterView<'_>) -> Vec<Assignment> {
            let mut out = Vec::new();
            for j in view.active_jobs() {
                for t in view.job_pending(j) {
                    out.push(Assignment::new(t, MachineId(0)));
                }
            }
            out
        }
    }

    let mut b = WorkloadBuilder::new();
    let j = b.begin_job("j", None, 0.0);
    b.add_stage(j, "s", vec![], 4, |_| TaskParams {
        cores: 0.5,
        mem: GB,
        duration: 10.0,
        cpu_frac: 0.1,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 1000.0 * MB, // 100 MB/s = the small profile's disk
        remote_frac: 1.0,
    });
    let outcome = Simulation::build(small_cluster(2), b.finish())
        .scheduler(DumpAll)
        .run();
    assert!(outcome.all_jobs_completed());
    // Four writers over-subscribe the 100 MB/s disk 4× (ρ = 4). With the
    // default interference model (α = 1, floor 0.25) the disk delivers
    // 100/4 = 25 MB/s, 6.25 MB/s per task → 1000 MB takes 160 s.
    let jct = outcome.jct(JobId(0)).unwrap();
    assert!((jct - 160.0).abs() < 1.0, "expected ~160s, got {jct}");
    let stretch = outcome.mean_task_stretch();
    assert!(stretch > 10.0, "stretch {stretch}");
}

#[test]
fn contention_without_interference_is_work_conserving() {
    // Same setup but with interference disabled: the disk still delivers
    // its full 100 MB/s, so 4000 MB finish in 40 s.
    struct DumpAll;
    impl SchedulerPolicy for DumpAll {
        fn name(&self) -> &str {
            "dump-all"
        }
        fn schedule(&mut self, view: &tetris_sim::ClusterView<'_>) -> Vec<Assignment> {
            let mut out = Vec::new();
            for j in view.active_jobs() {
                for t in view.job_pending(j) {
                    out.push(Assignment::new(t, MachineId(0)));
                }
            }
            out
        }
    }
    let mut b = WorkloadBuilder::new();
    let j = b.begin_job("j", None, 0.0);
    b.add_stage(j, "s", vec![], 4, |_| TaskParams {
        cores: 0.5,
        mem: GB,
        duration: 10.0,
        cpu_frac: 0.1,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 1000.0 * MB,
        remote_frac: 1.0,
    });
    let mut cfg = SimConfig::default();
    cfg.interference = tetris_sim::Interference::none();
    let outcome = Simulation::build(small_cluster(2), b.finish())
        .scheduler(DumpAll)
        .config(cfg)
        .run();
    let jct = outcome.jct(JobId(0)).unwrap();
    assert!((jct - 40.0).abs() < 0.5, "expected ~40s, got {jct}");
}

#[test]
fn external_load_contends_with_tasks() {
    // A disk-write task co-located with ingestion writing at full disk
    // bandwidth: the task runs at half speed while ingestion lasts.
    let mut b = WorkloadBuilder::new();
    let j = b.begin_job("j", None, 0.0);
    b.add_stage(j, "s", vec![], 1, |_| TaskParams {
        cores: 0.5,
        mem: GB,
        duration: 10.0,
        cpu_frac: 0.1,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 1000.0 * MB,
        remote_frac: 1.0,
    });
    let mut cfg = SimConfig::default();
    cfg.external_loads.push(ExternalLoad {
        machine: MachineId(0),
        start: 0.0,
        duration: 1000.0,
        load: ResourceVec::zero().with(Resource::DiskWrite, 100.0 * MB),
    });
    let outcome = Simulation::build(small_cluster(1), b.finish())
        .scheduler(GreedyFifo::new())
        .config(cfg)
        .run();
    assert!(outcome.all_jobs_completed());
    let jct = outcome.jct(JobId(0)).unwrap();
    // Demand 100 (task) + 100 (ingestion) over-subscribes the 100 MB/s
    // disk 2× → effective capacity 100/2 = 50, task share 25 MB/s → 40 s
    // instead of 10.
    assert!((jct - 40.0).abs() < 0.5, "expected ~40s, got {jct}");
}

#[test]
fn task_failures_rerun_and_still_complete() {
    let w = WorkloadSuiteConfig::small().generate(2);
    let mut cfg = SimConfig::default();
    cfg.task_failure_prob = 0.2;
    cfg.max_task_attempts = 5;
    cfg.seed = 3;
    let outcome = Simulation::build(small_cluster(8), w)
        .scheduler(GreedyFifo::new())
        .config(cfg)
        .run();
    assert!(outcome.all_jobs_completed());
    assert!(outcome.stats.task_failures > 0, "no failures triggered");
    assert!(outcome.tasks.iter().any(|t| t.attempts > 1));
}

#[test]
fn fig1_workload_runs_under_reference_policy() {
    let ex = motivating_example(10.0);
    // The Fig-1 cluster: 3 machines of 6 cores / 12 GB / 1 Gbps; disks
    // oversized so the example stays network-bound as in the paper.
    let spec = MachineSpec::new()
        .cores(6.0)
        .memory(12.0 * GB)
        .disks(8, 100.0 * MB)
        .nic(tetris_resources::units::gbps(1.0));
    let outcome = Simulation::build(ClusterConfig::uniform(3, spec), ex.workload)
        .scheduler(GreedyFifo::new())
        .run();
    assert!(outcome.all_jobs_completed());
    // Sanity: no job can finish faster than 2 phases × t.
    for j in &outcome.jobs {
        assert!(j.jct().unwrap() >= 20.0 - 1e-3);
    }
}

#[test]
fn unplaceable_task_times_out_gracefully() {
    // Task demands 64 GB on 16 GB machines; GreedyFifo never places it.
    let mut b = WorkloadBuilder::new();
    let j = b.begin_job("j", None, 0.0);
    b.add_stage(j, "s", vec![], 1, |_| TaskParams {
        cores: 1.0,
        mem: 64.0 * GB,
        duration: 10.0,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 1.0,
    });
    let mut cfg = SimConfig::default();
    cfg.max_time = 1000.0;
    let outcome = Simulation::build(small_cluster(2), b.finish())
        .scheduler(GreedyFifo::new())
        .config(cfg)
        .run();
    assert!(!outcome.all_jobs_completed());
    assert!(outcome.jobs[0].finish.is_none());
}

#[test]
fn arrivals_are_respected() {
    let mut b = WorkloadBuilder::new();
    for (i, arr) in [0.0, 100.0].into_iter().enumerate() {
        let j = b.begin_job(format!("j{i}"), None, arr);
        b.add_stage(j, "s", vec![], 1, |_| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 10.0,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
    }
    let outcome = Simulation::build(small_cluster(4), b.finish())
        .scheduler(GreedyFifo::new())
        .run();
    assert!(outcome.tasks[1].start.unwrap() >= 100.0);
    assert!((outcome.jct(JobId(1)).unwrap() - 10.0).abs() < 1e-3);
}

#[test]
fn diamond_dag_respects_multi_dependency_barrier() {
    // extract → {transform-a, transform-b} → join: the join stage must not
    // start until BOTH transforms completed.
    let w = tetris_workload::diamond_dag(3, 10.0);
    let outcome = Simulation::build(small_cluster(4), w.clone())
        .scheduler(GreedyFifo::new())
        .seed(3)
        .run();
    assert!(outcome.all_jobs_completed());
    let stage_end = |si: usize| {
        w.jobs[0].stages[si]
            .tasks
            .iter()
            .map(|t| outcome.tasks[t.uid.index()].finish.unwrap())
            .fold(0.0f64, f64::max)
    };
    let stage_start = |si: usize| {
        w.jobs[0].stages[si]
            .tasks
            .iter()
            .map(|t| outcome.tasks[t.uid.index()].start.unwrap())
            .fold(f64::INFINITY, f64::min)
    };
    // Transforms start only after extract; join after both transforms.
    assert!(stage_start(1) >= stage_end(0) - 1e-6);
    assert!(stage_start(2) >= stage_end(0) - 1e-6);
    assert!(stage_start(3) >= stage_end(1).max(stage_end(2)) - 1e-6);
    // Four barrier-separated 10s waves ⇒ ≥ 40s... transforms run in
    // parallel, so three waves: extract, transforms, join ⇒ ≥ 30s.
    assert!(outcome.jct(JobId(0)).unwrap() >= 30.0 - 1e-3);
}

#[test]
fn evacuation_slows_remote_reads_from_the_evacuating_machine() {
    // Evacuation (§4.3) re-replicates a machine's data elsewhere: it
    // consumes DiskRead + NetOut on the source. A task on another machine
    // reading its input remotely from that source runs slower while the
    // evacuation lasts.
    let build = || {
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("reader", None, 0.0);
        let input = b.stored_input(500.0 * MB);
        b.add_stage(j, "read", vec![], 1, |_| TaskParams {
            cores: 0.5,
            mem: GB,
            duration: 10.0,
            cpu_frac: 0.05,
            io_burst: 1.0,
            inputs: vec![input],
            output_bytes: 0.0,
            remote_frac: 1.0,
        });
        b.finish()
    };
    // Replication 1 and seed chosen so we can find the replica machine and
    // place the reader elsewhere via GreedyFifo-preferred... GreedyFifo
    // prefers fit, so pin the reader remotely with a custom policy.
    struct PlaceOn(MachineId);
    impl SchedulerPolicy for PlaceOn {
        fn name(&self) -> &str {
            "place-on"
        }
        fn schedule(&mut self, view: &tetris_sim::ClusterView<'_>) -> Vec<Assignment> {
            view.active_jobs()
                .flat_map(|j| view.job_pending(j))
                .map(|t| Assignment::new(t, self.0))
                .collect()
        }
    }

    let run = |evacuate: bool| {
        let mut cfg = SimConfig::default();
        cfg.seed = 5;
        cfg.replication = 1;
        // Find where the block landed by doing a dry run first: with
        // seed 5 / replication 1 the placement is deterministic, so run
        // once with the reader pinned to each machine and keep the remote
        // case (reader sees NetIn usage > 0).
        if evacuate {
            // Evacuation consumes most of every machine's DiskRead+NetOut
            // for the window (applied cluster-wide so it covers the source
            // wherever the block landed).
            for m in 0..2 {
                cfg.external_loads.push(ExternalLoad {
                    machine: MachineId(m),
                    start: 0.0,
                    duration: 60.0,
                    load: ResourceVec::zero()
                        .with(Resource::DiskRead, 80.0 * MB)
                        .with(Resource::NetOut, 100.0 * MB),
                });
            }
        }
        // Pin the reader to machine 1; with replication 1 the block is on
        // some machine — if it is machine 1 the read is local and the test
        // is vacuous, so assert remoteness below via task stretch > 1
        // under evacuation.
        Simulation::build(small_cluster(2), build())
            .scheduler(PlaceOn(MachineId(1)))
            .config(cfg)
            .run()
    };
    let quiet = run(false);
    let busy = run(true);
    assert!(quiet.all_jobs_completed() && busy.all_jobs_completed());
    let d_quiet = quiet.tasks[0].duration().unwrap();
    let d_busy = busy.tasks[0].duration().unwrap();
    assert!(
        d_busy > d_quiet * 1.3,
        "evacuation did not slow the remote read: {d_busy} vs {d_quiet}"
    );
}

#[test]
fn flow_throughput_matches_token_bucket_enforcement() {
    // §4.2: allocations are enforced by token buckets on disk and network.
    // The simulator enforces them by capping each flow's rate at its
    // allocation, so an uncontended writer delivers exactly its
    // allocated bytes/second.
    let mut b = WorkloadBuilder::new();
    let j = b.begin_job("writer", None, 0.0);
    b.add_stage(j, "w", vec![], 1, |_| TaskParams {
        cores: 0.5,
        mem: GB,
        duration: 20.0,
        cpu_frac: 0.05,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 800.0 * MB, // 40 MB/s allocation
        remote_frac: 1.0,
    });
    let outcome = Simulation::build(small_cluster(1), b.finish())
        .scheduler(GreedyFifo::new())
        .run();
    let d = outcome.tasks[0].duration().unwrap();
    let simulated_rate = 800.0 * MB / d;
    let allocated_rate = 40.0 * MB;
    assert!(
        (simulated_rate - allocated_rate).abs() / allocated_rate < 0.01,
        "simulated {simulated_rate} vs allocated {allocated_rate}"
    );
}

#[test]
fn scheduler_accepts_boxed_policies() {
    // `.scheduler(...)` takes `impl Into<Box<dyn SchedulerPolicy>>`, so
    // already-boxed policies (the old `scheduler_boxed` callers) pass
    // straight through and behave identically to unboxed ones.
    let w = WorkloadSuiteConfig::small().generate(9);
    let via_scheduler = Simulation::build(small_cluster(3), w.clone())
        .scheduler(GreedyFifo::new())
        .seed(9)
        .run();
    let via_boxed = Simulation::build(small_cluster(3), w)
        .scheduler(Box::new(GreedyFifo::new()) as Box<dyn tetris_sim::SchedulerPolicy>)
        .seed(9)
        .run();
    assert_eq!(
        serde_json::to_string(&via_scheduler).unwrap(),
        serde_json::to_string(&via_boxed).unwrap(),
        "boxed and unboxed entry points diverged"
    );
}
