//! Hand-constructed example workloads from the paper's text.

use tetris_resources::units::{gbps, GB, MB};

use crate::gen::builder::{TaskParams, WorkloadBuilder};
use crate::spec::{InputSource, InputSpec, Workload};

/// The Figure-1 motivating example, plus the constants needed to interpret
/// its results.
///
/// Three jobs on an 18-core / 36 GB / 3 Gbps cluster, each with a map phase
/// and a network-bound reduce phase behind a barrier:
///
/// * job A: 18 map tasks of (1 core, 2 GB);
/// * jobs B, C: 6 map tasks of (3 cores, 1 GB) each;
/// * all jobs: 3 reduce tasks needing 1 Gbps of network and negligible
///   CPU/memory.
///
/// All tasks run for `t` time units. DRF finishes every job at `6t`; a
/// packing schedule finishes them at `2t, 3t, 4t` in some job order —
/// better for *every* job.
#[derive(Debug, Clone)]
pub struct MotivatingExample {
    /// The workload (jobs A, B, C in ids 0, 1, 2).
    pub workload: Workload,
    /// The task duration `t` in seconds.
    pub t: f64,
}

/// Build the Figure-1 workload with task length `t` seconds.
///
/// Sizing notes (the paper's example abstracts IO away; we make it
/// concrete): each reduce task pulls `1 Gbps × t` bytes of *remote* shuffle
/// data, so that running alone on a machine it streams at exactly its
/// 1 Gbps network demand for `t` seconds, and three co-located reduces
/// contend 3:1 and take `3t` — reproducing the paper's DRF timeline.
/// Map outputs are sized so the per-job shuffle volume matches, and map
/// inputs/disks are sized to never be the bottleneck.
pub fn motivating_example(t: f64) -> MotivatingExample {
    let nic = gbps(1.0); // 125 MB/s

    // On a 3-machine cluster (one third of the aggregate each), a reduce
    // reads uniformly from all 3 machines: 2/3 of its input is remote.
    // Remote bytes must equal nic × t  ⇒  input = 1.5 × nic × t.
    let reduce_in = 1.5 * nic * t;
    let shuffle_per_job = 3.0 * reduce_in;

    let mut b = WorkloadBuilder::new();

    let add_job = |b: &mut WorkloadBuilder, name: &str, n_maps: usize, cores: f64, mem: f64| {
        let job = b.begin_job(name, None, 0.0);
        let map_out = shuffle_per_job / n_maps as f64;
        let inputs: Vec<InputSpec> = (0..n_maps).map(|_| b.stored_input(128.0 * MB)).collect();
        b.add_stage(job, "map", vec![], n_maps, |i| TaskParams {
            cores,
            mem,
            duration: t,
            cpu_frac: 1.0,
            io_burst: 1.0,
            inputs: vec![inputs[i]],
            output_bytes: map_out,
            remote_frac: 1.0,
        });
        b.add_stage(job, "reduce", vec![0], 3, |_| TaskParams {
            // "very little CPU or memory": exactly zero, as in the paper's
            // idealized example.
            cores: 0.0,
            mem: 0.0,
            duration: t,
            cpu_frac: 0.0,
            io_burst: 1.0,
            inputs: vec![InputSpec {
                source: InputSource::Shuffle { stage: 0 },
                bytes: reduce_in,
            }],
            output_bytes: 0.1 * reduce_in,
            // On the 3-machine cluster two thirds of the shuffle input is
            // remote, so peak NetIn = (2/3) × in/t = exactly 1 Gbps.
            remote_frac: 2.0 / 3.0,
        });
    };

    add_job(&mut b, "A", 18, 1.0, 2.0 * GB);
    add_job(&mut b, "B", 6, 3.0, 1.0 * GB);
    add_job(&mut b, "C", 6, 3.0, 1.0 * GB);

    MotivatingExample {
        workload: b.finish(),
        t,
    }
}

/// The §3.3 example showing that packing efficiency alone does not minimize
/// average job completion time: on machines of 16 cores / 32 GB, job 0 has
/// `n_big` tasks of (16 cores, 16 GB) — perfectly aligned, scheduled first
/// by pure packing — while job 1 has `n_small` tasks of (8 cores, 8 GB).
/// With equal durations, running the *small* job first lowers the average.
pub fn two_job_packing_example(n_big: usize, n_small: usize, t: f64) -> Workload {
    let mut b = WorkloadBuilder::new();
    let j0 = b.begin_job("big-tasks", None, 0.0);
    b.add_stage(j0, "work", vec![], n_big, |_| TaskParams {
        cores: 16.0,
        mem: 16.0 * GB,
        duration: t,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 1.0,
    });
    let j1 = b.begin_job("small-tasks", None, 0.0);
    b.add_stage(j1, "work", vec![], n_small, |_| TaskParams {
        cores: 8.0,
        mem: 8.0 * GB,
        duration: t,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 1.0,
    });
    b.finish()
}

/// A diamond DAG: `extract → {transform-a, transform-b} → join`, where the
/// join stage depends on **both** middle stages. Exercises multi-dependency
/// barriers (every other generator produces chains).
///
/// All stages have `n` tasks of `t` seconds (1 core, 1 GB), with data
/// flowing along every edge.
pub fn diamond_dag(n: usize, t: f64) -> Workload {
    use tetris_resources::units::GB;
    let mut b = WorkloadBuilder::new();
    let j = b.begin_job("diamond", None, 0.0);
    let inputs: Vec<InputSpec> = (0..n).map(|_| b.stored_input(64.0 * MB)).collect();
    let base = |inputs: Vec<InputSpec>, out: f64| TaskParams {
        cores: 1.0,
        mem: GB,
        duration: t,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs,
        output_bytes: out,
        remote_frac: 1.0,
    };
    // Stage 0: extract.
    b.add_stage(j, "extract", vec![], n, |i| {
        base(vec![inputs[i]], 64.0 * MB)
    });
    let per_task = 64.0 * MB * n as f64 / n as f64;
    // Stages 1, 2: two independent transforms of the extract output.
    for name in ["transform-a", "transform-b"] {
        b.add_stage(j, name, vec![0], n, |_| {
            base(
                vec![InputSpec {
                    source: InputSource::Shuffle { stage: 0 },
                    bytes: per_task,
                }],
                32.0 * MB,
            )
        });
    }
    // Stage 3: join — blocked on BOTH transforms.
    b.add_stage(j, "join", vec![1, 2], n, |_| {
        base(
            vec![
                InputSpec {
                    source: InputSource::Shuffle { stage: 1 },
                    bytes: 32.0 * MB,
                },
                InputSpec {
                    source: InputSource::Shuffle { stage: 2 },
                    bytes: 32.0 * MB,
                },
            ],
            8.0 * MB,
        )
    });
    b.finish()
}

#[cfg(test)]
mod diamond_tests {
    use super::*;

    #[test]
    fn diamond_shape_is_valid() {
        let w = diamond_dag(4, 10.0);
        assert!(w.validate().is_ok());
        assert_eq!(w.jobs[0].stages.len(), 4);
        assert_eq!(w.jobs[0].stages[3].deps, vec![1, 2]);
        assert_eq!(w.num_tasks(), 16);
    }

    #[test]
    fn join_reads_both_transforms() {
        let w = diamond_dag(2, 5.0);
        let join = &w.jobs[0].stages[3].tasks[0];
        assert_eq!(join.inputs.len(), 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_resources::Resource;

    #[test]
    fn fig1_shape() {
        let ex = motivating_example(10.0);
        let w = &ex.workload;
        assert!(w.validate().is_ok());
        assert_eq!(w.jobs.len(), 3);
        assert_eq!(w.jobs[0].stages[0].len(), 18);
        assert_eq!(w.jobs[1].stages[0].len(), 6);
        assert_eq!(w.jobs[2].stages[0].len(), 6);
        for j in w.jobs.iter() {
            assert_eq!(j.stages[1].len(), 3);
        }
    }

    #[test]
    fn fig1_map_demands() {
        let ex = motivating_example(10.0);
        let a_map = &ex.workload.jobs[0].stages[0].tasks[0];
        assert_eq!(a_map.demand.get(Resource::Cpu), 1.0);
        assert_eq!(a_map.demand.get(Resource::Mem), 2.0 * GB);
        let b_map = &ex.workload.jobs[1].stages[0].tasks[0];
        assert_eq!(b_map.demand.get(Resource::Cpu), 3.0);
        assert_eq!(b_map.demand.get(Resource::Mem), 1.0 * GB);
    }

    #[test]
    fn fig1_reduce_is_network_bound() {
        let ex = motivating_example(10.0);
        let r = &ex.workload.jobs[0].stages[1].tasks[0];
        assert_eq!(r.demand.get(Resource::Cpu), 0.0);
        assert_eq!(r.demand.get(Resource::Mem), 0.0);
        // Peak network-in demand ≈ 1.5 Gbps... the remote *portion* streams
        // at up to the NIC's 1 Gbps given per-source caps; the key property
        // is that the demand is network-dominant and ≥ 1 Gbps.
        assert!(r.demand.get(Resource::NetIn) >= gbps(1.0) - 1.0);
        assert!(r.reads_shuffle());
    }

    #[test]
    fn fig1_shuffle_volume_conserved() {
        let ex = motivating_example(10.0);
        for j in ex.workload.jobs.iter() {
            let map_out: f64 = j.stages[0].tasks.iter().map(|t| t.output_bytes).sum();
            let red_in: f64 = j.stages[1].tasks.iter().map(|t| t.input_bytes()).sum();
            assert!((map_out - red_in).abs() < 1.0);
        }
    }

    #[test]
    fn fig1_maps_fill_cluster_exactly() {
        // A's maps: 18 × (1 core, 2 GB) = the whole 18-core/36 GB cluster.
        let ex = motivating_example(10.0);
        let total: f64 = ex.workload.jobs[0].stages[0]
            .tasks
            .iter()
            .map(|t| t.demand.get(Resource::Cpu))
            .sum();
        assert_eq!(total, 18.0);
        let mem: f64 = ex.workload.jobs[0].stages[0]
            .tasks
            .iter()
            .map(|t| t.demand.get(Resource::Mem))
            .sum();
        assert_eq!(mem, 36.0 * GB);
    }

    #[test]
    fn two_job_example_shape() {
        let w = two_job_packing_example(6, 2, 10.0);
        assert!(w.validate().is_ok());
        assert_eq!(w.jobs[0].num_tasks(), 6);
        assert_eq!(w.jobs[1].num_tasks(), 2);
    }
}
