//! The paper's Figure-1 motivating example, end to end.
//!
//! Three jobs on a 3-machine cluster (18 cores / 36 GB / 3 Gbps total):
//! job A has 18 one-core/2 GB map tasks, jobs B and C have 6 three-core/
//! 1 GB maps each, and every job finishes with 3 network-saturating
//! reduce tasks behind a barrier. All tasks run for `t` time units.
//!
//! DRF gives every job an equal dominant share and finishes everything at
//! `6t`; Tetris's packing serializes complementary phases and finishes the
//! jobs at `{2t, 3t, 4t}` — a 33 % better makespan and average JCT, with
//! *every* job finishing earlier.
//!
//! ```sh
//! cargo run --release --example motivating_example
//! ```

use tetris::{
    metrics::Gantt,
    prelude::*,
    resources::units::{gbps, GB, MB},
    sim::{Interference, SimConfig},
    workload::motivating_example,
};

fn main() {
    let t_unit = 10.0; // seconds per paper "t"
    let ex = motivating_example(t_unit);

    let spec = MachineSpec::new()
        .cores(6.0)
        .memory(12.0 * GB)
        .disks(8, 100.0 * MB) // oversized: the example is network-bound
        .nic(gbps(1.0));
    let cluster = ClusterConfig::uniform(3, spec);

    let mut cfg = SimConfig::default();
    cfg.seed = 1;
    // The paper's arithmetic assumes idealized proportional sharing.
    cfg.interference = Interference::none();

    println!("Figure 1 — three jobs, two phases each, t = {t_unit}s\n");
    println!(
        "{:<14} {:>6} {:>6} {:>6} {:>9} {:>9}",
        "scheduler", "A", "B", "C", "avg JCT", "makespan"
    );
    for (name, sched) in [
        (
            "tetris",
            Box::new(TetrisScheduler::new(TetrisConfig::default())) as Box<dyn SchedulerPolicy>,
        ),
        ("drf", Box::new(DrfScheduler::new())),
        ("drf-all-dims", Box::new(DrfScheduler::extended())),
    ] {
        let o = Simulation::build(cluster.clone(), ex.workload.clone())
            .scheduler(sched)
            .config(cfg.clone())
            .run();
        if name == "tetris" {
            println!(
                "-- tetris schedule (A/B/C per machine, {}s buckets) --",
                ex.t / 2.0
            );
            println!(
                "{}",
                Gantt::new(&o, 3, (o.makespan() / (ex.t / 2.0)).ceil() as usize).render()
            );
        }
        let f = |x: f64| format!("{:.1}t", x / ex.t);
        println!(
            "{:<14} {:>6} {:>6} {:>6} {:>9} {:>9}",
            name,
            f(o.jobs[0].jct().unwrap()),
            f(o.jobs[1].jct().unwrap()),
            f(o.jobs[2].jct().unwrap()),
            f(o.avg_jct()),
            f(o.makespan()),
        );
    }
    println!(
        "\npaper: packing finishes the jobs at {{2t, 3t, 4t}} (some order);\n\
         DRF finishes everything at 6t or later."
    );
}
