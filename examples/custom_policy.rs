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

/// Widest-task-first with emptiest-machine placement. The working ledger
/// is what the call has charged so far: it plans each placement, checks
/// it on every dimension at the host and at each remote input source,
/// charges it, and applies the placement constraints.
#[derive(Default)]
struct WidestFirst {
    ledger: WorkingLedger,
}

impl SchedulerPolicy for WidestFirst {
    fn name(&self) -> &str {
        "widest-first"
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let total = view.total_capacity();
        // Collect pending tasks, widest (largest normalized demand) first.
        let mut tasks: Vec<(f64, _, _)> = view
            .active_jobs()
            .flat_map(|j| view.job_pending(j).map(move |t| (j, t)))
            .map(|(j, t)| (view.task(t).demand.normalized_by(&total).sum(), j, t))
            .collect();
        tasks.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());

        let ledger = &mut self.ledger;
        ledger.begin(view);
        let mut out = Vec::new();
        let mut machines = Vec::new();
        for (_, j, t) in tasks {
            // Emptiest machine (most free normalized resources) first; the
            // first one the ledger places the task on wins.
            machines.clear();
            for m in view.query().iter_all() {
                let freeness = ledger.available(view, m).normalized_by(&view.capacity(m));
                machines.push((freeness.sum(), m));
            }
            machines.sort_by(|a, b| b.0.total_cmp(&a.0));
            let host = machines
                .iter()
                .map(|&(_, m)| m)
                .find(|&m| ledger.allows(view, j, m) && ledger.try_place(view, t, m).is_ok());
            out.extend(host.map(|m| Assignment::new(t, m)));
        }
        out
    }
}

use tetris::{metrics::SlowdownSummary, sim::WorkingLedger};

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
        ("widest-first", Box::new(WidestFirst::default())),
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
