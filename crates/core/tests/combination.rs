//! The §3.3 worked example and scheduler-level behaviours: packing alone
//! mis-orders jobs; the SRTF term fixes it; heterogeneous clusters place
//! big tasks on big machines.

use tetris_core::{TetrisConfig, TetrisScheduler};
use tetris_resources::{units::GB, MachineSpec};
use tetris_sim::{ClusterConfig, Simulation};
use tetris_workload::{two_job_packing_example, JobId, TaskParams, WorkloadBuilder};

/// Paper §3.3: two machines of 16 cores/32 GB; job 0 has six
/// (16-core, 16 GB) tasks — perfectly aligned, so pure packing runs them
/// first — job 1 has two (8-core, 8 GB) tasks. Equal durations: serving
/// the small job first lowers the average. The combined scorer must do
/// that; the packing-only scorer must not.
#[test]
fn srtf_term_fixes_the_packing_only_ordering() {
    let w = two_job_packing_example(6, 2, 10.0);
    let cluster = ClusterConfig::uniform(2, MachineSpec::paper_large());
    let run = |cfg: TetrisConfig| {
        Simulation::build(cluster.clone(), w.clone())
            .scheduler(TetrisScheduler::new(cfg))
            .seed(1)
            .run()
    };

    let packing = run(TetrisConfig::packing_only());
    let mut combined_cfg = TetrisConfig::default();
    combined_cfg.fairness_knob = 0.0; // isolate the SRTF effect
    let combined = run(combined_cfg);

    // Pure packing prefers the big, perfectly-aligned tasks: the small job
    // waits behind at least part of the big one.
    let small_under_packing = packing.jct(JobId(1)).unwrap();
    let small_under_combined = combined.jct(JobId(1)).unwrap();
    assert!(
        small_under_combined < small_under_packing,
        "combined {small_under_combined} should beat packing-only {small_under_packing}"
    );
    // And the average improves.
    assert!(combined.avg_jct() <= packing.avg_jct() + 1e-6);
    // Total work is conserved: makespan unchanged (both fill the cluster).
    assert!((combined.makespan() - packing.makespan()).abs() < 10.0 + 1e-6);
}

/// Heterogeneous cluster: one big machine (16 cores) among small ones
/// (4 cores). A 12-core task is only feasible on the big machine, and
/// Tetris must find it while packing the small tasks elsewhere.
#[test]
fn heterogeneous_cluster_places_big_tasks_on_big_machines() {
    let mut machines = vec![MachineSpec::paper_small(); 3];
    machines.push(MachineSpec::paper_large());
    let cluster = ClusterConfig { machines };

    let mut b = WorkloadBuilder::new();
    let j = b.begin_job("mixed", None, 0.0);
    b.add_stage(j, "small", vec![], 9, |_| TaskParams {
        cores: 2.0,
        mem: 2.0 * GB,
        duration: 10.0,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 1.0,
    });
    let big = b.begin_job("big", None, 0.0);
    b.add_stage(big, "large", vec![], 2, |_| TaskParams {
        cores: 12.0,
        mem: 16.0 * GB,
        duration: 10.0,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 1.0,
    });

    let outcome = Simulation::build(cluster, b.finish())
        .scheduler(TetrisScheduler::new(TetrisConfig::default()))
        .seed(2)
        .run();
    assert!(outcome.all_jobs_completed());
    // Every large task ran on the one machine that can hold it.
    for t in outcome.tasks.iter().filter(|t| t.job == JobId(1)) {
        assert_eq!(t.machine.unwrap().index(), 3, "large task on small machine");
    }
}

/// Alignment actually steers placement: with two machines where one has
/// its network consumed by a reservation-heavy task, a network-hungry task
/// goes to the other machine even though CPU/memory fit on both.
#[test]
fn alignment_prefers_machines_with_the_needed_resource_free() {
    let cluster = ClusterConfig::uniform(2, MachineSpec::paper_large());
    let mut b = WorkloadBuilder::new();
    // Job 0: one long network-saturating task (to be placed first).
    let j0 = b.begin_job("nethog", None, 0.0);
    b.add_stage(j0, "s", vec![], 1, |_| TaskParams {
        cores: 1.0,
        mem: GB,
        duration: 100.0,
        cpu_frac: 0.05,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 12.0 * GB, // ~120 MB/s of disk write... use net
        remote_frac: 1.0,
    });
    // Job 1 arrives later: two disk-write-hungry tasks.
    let j1 = b.begin_job("writers", None, 5.0);
    b.add_stage(j1, "s", vec![], 1, |_| TaskParams {
        cores: 1.0,
        mem: GB,
        duration: 50.0,
        cpu_frac: 0.05,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 8.0 * GB, // 160 MB/s — only fits where disk is free
        remote_frac: 1.0,
    });
    let outcome = Simulation::build(cluster, b.finish())
        .scheduler(TetrisScheduler::new(TetrisConfig::default()))
        .seed(3)
        .run();
    assert!(outcome.all_jobs_completed());
    let hog = outcome.tasks[0].machine.unwrap();
    let writer = outcome.tasks[1].machine.unwrap();
    assert_ne!(
        hog, writer,
        "the disk-hungry task should avoid the disk-loaded machine"
    );
    // Neither task was stretched: placement avoided the contention.
    assert!(outcome.mean_task_stretch() < 1.01);
}
