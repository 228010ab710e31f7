//! Writing your own scheduling policy against the simulator's
//! `SchedulerPolicy` trait — and measuring it against Tetris.
//!
//! The example policy is "widest-task-first": place the pending task with
//! the largest normalized demand sum first, on the emptiest machine where
//! it fits — a greedy packer with no fairness constraint at all. It is a
//! genuinely strong baseline on raw average JCT (unconstrained greed often
//! is), and the comparison shows the axis it ignores: how many jobs do worse
//! than under a fair allocation. This is the paper's point that raw
//! efficiency and fairness must be traded deliberately (§3.4), and how
//! you'd measure any policy of your own.
//!
//! ```sh
//! cargo run --release --example custom_policy
//! ```

use tetris::prelude::*;

/// Widest-task-first with emptiest-machine placement.
struct WidestFirst;

impl SchedulerPolicy for WidestFirst {
    fn name(&self) -> &str {
        "widest-first"
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let total = view.total_capacity();
        // Collect pending tasks, widest (largest normalized demand) first.
        let mut tasks: Vec<(f64, _)> = view
            .active_jobs()
            .flat_map(|j| view.job_pending_stages(j))
            .flat_map(|(_, slice)| slice.iter().copied())
            .map(|t| (view.task(t).demand.normalized_by(&total).sum(), t))
            .collect();
        tasks.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());

        let query = view.query();
        let mut avail: Vec<ResourceVec> = query.iter_all().map(|m| view.available(m)).collect();
        let mut out = Vec::new();
        for (_, t) in tasks {
            // Emptiest machine (most free normalized resources) that fits.
            let mut best: Option<(f64, MachineId)> = None;
            for m in query.iter_all() {
                let plan = view.plan(t, m);
                let fits = plan.local.fits_within(&avail[m.index()])
                    && plan
                        .remote
                        .iter()
                        .all(|(s, d)| d.fits_within(&avail[s.index()]));
                if fits {
                    let freeness = avail[m.index()].normalized_by(&view.capacity(m)).sum();
                    if best.is_none_or(|(bf, _)| freeness > bf) {
                        best = Some((freeness, m));
                    }
                }
            }
            if let Some((_, m)) = best {
                let plan = view.plan(t, m);
                avail[m.index()] -= plan.local;
                for (s, d) in &plan.remote {
                    avail[s.index()] -= *d;
                }
                out.push(Assignment::new(t, m));
            }
        }
        out
    }
}

use tetris::{metrics::SlowdownSummary, sim::MachineId};

fn main() {
    let cluster = ClusterConfig::uniform(20, MachineSpec::paper_large());
    let workload = WorkloadSuiteConfig::scaled(50, 0.08).generate(42);

    let run = |sched: Box<dyn SchedulerPolicy>| {
        Simulation::build(cluster.clone(), workload.clone())
            .scheduler(sched)
            .seed(42)
            .run()
    };
    let fair = run(Box::new(FairScheduler::new()));

    println!(
        "{:<14} {} {:>12}",
        "",
        RunMetrics::header(),
        "slowed-vs-fair"
    );
    for (name, sched) in [
        (
            "tetris",
            Box::new(TetrisScheduler::new(TetrisConfig::default())) as Box<dyn SchedulerPolicy>,
        ),
        ("widest-first", Box::new(WidestFirst)),
    ] {
        let o = run(sched);
        let slow = SlowdownSummary::compare(&o, &fair);
        println!(
            "{:<14} {} {:>11.0}%",
            name,
            RunMetrics::of(&o).row(),
            slow.frac_slowed * 100.0
        );
    }
    println!(
        "\nUnconstrained greed is a strong baseline on raw average JCT — the\n\
         interesting column is the last one: Tetris's fairness knob caps how\n\
         many jobs do worse than a fair allocation, which a pure packer\n\
         cannot promise. Swap in your own `SchedulerPolicy` and measure both."
    );
}
