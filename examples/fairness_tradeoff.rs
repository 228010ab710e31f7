//! Sweep the fairness knob `f` and print the efficiency↔fairness
//! trade-off the paper exposes (§3.4, Figs. 8–9).
//!
//! `f = 0` packs with no fairness constraint; `f → 1` always serves the
//! job furthest below its fair share. The paper's finding — and this
//! example's output — is that the trade-off is unusually gentle for
//! cluster scheduling: a fair job choice still leaves many tasks to pick
//! from, so `f ≈ 0.25` keeps nearly all of the efficiency while slowing
//! almost no job relative to a fair scheduler.
//!
//! ```sh
//! cargo run --release --example fairness_tradeoff
//! ```

use tetris::{metrics::SlowdownSummary, prelude::*};

fn main() {
    let cluster = ClusterConfig::uniform(20, MachineSpec::paper_large());
    let workload = WorkloadSuiteConfig::scaled(50, 0.08).generate(7);

    let run = |sched: Box<dyn SchedulerPolicy>| {
        Simulation::build(cluster.clone(), workload.clone())
            .scheduler(sched)
            .seed(7)
            .run()
    };
    let fair = run(Box::new(FairScheduler::new()));

    println!(
        "{:>5} {:>12} {:>14} {:>12} {:>18}",
        "f", "avg JCT (s)", "JCT gain", "jobs slowed", "avg slowdown"
    );
    for f in [0.0, 0.25, 0.5, 0.75, 0.99] {
        let mut cfg = TetrisConfig::default();
        cfg.fairness_knob = f;
        let o = run(Box::new(TetrisScheduler::new(cfg)));
        let imp = ImprovementSummary::compare(&o, &fair);
        let slow = SlowdownSummary::compare(&o, &fair);
        println!(
            "{:>5.2} {:>12.1} {:>13.1}% {:>11.0}% {:>17.1}%",
            f,
            o.avg_jct(),
            imp.avg_jct,
            slow.frac_slowed * 100.0,
            slow.avg_slowdown_pct,
        );
    }
    println!(
        "\npaper: f ≈ 0.25 gives nearly the best efficiency while only a few\n\
         percent of jobs slow down, by little — performance and fairness\n\
         coexist in data-parallel clusters."
    );
}
