//! §2.2.3 — the aggregate-bin upper bound on packing gains.
//!
//! The paper's motivation analysis: an idealized packer with one big bin
//! per resource, no fragmentation and no over-allocation, improves
//! makespan/avg-JCT over the production schedulers by tens of percent —
//! and the gains are lopsided (a fraction of jobs slow down under the
//! SRTF-flavoured order).

use tetris_baselines::UpperBoundScheduler;
use tetris_metrics::{pct_improvement, TextTable};

use crate::setup::{run, with_zero_arrivals, SchedName};
use crate::{Report, RunCtx};

/// Run the upper-bound comparison.
pub fn ub(ctx: &RunCtx) -> Report {
    let cluster = ctx.cluster();
    let total = cluster.total_capacity();
    let w = ctx.facebook();
    let cfg = ctx.sim_config();

    let ub = UpperBoundScheduler::new().simulate(&w, total);
    let fair = run(ctx, &cluster, &w, SchedName::Fair, &cfg);
    let drf = run(ctx, &cluster, &w, SchedName::Drf, &cfg);

    // Makespan on the all-at-zero variant (§5.3.1 convention).
    let w0 = with_zero_arrivals(w.clone());
    let ub0 = UpperBoundScheduler::new().simulate(&w0, cluster.total_capacity());
    let fair0 = run(ctx, &cluster, &w0, SchedName::Fair, &cfg);
    let drf0 = run(ctx, &cluster, &w0, SchedName::Drf, &cfg);

    let mut report = Report::new(String::new());
    let mut t = TextTable::new(vec![
        "baseline",
        "UB avg-JCT gain",
        "UB makespan gain",
        "jobs slowed",
    ]);
    for (name, base, base0) in [("fair", &fair, &fair0), ("drf", &drf, &drf0)] {
        let jct_gain = pct_improvement(base.avg_jct(), ub.avg_jct());
        let mk_gain = pct_improvement(base0.makespan(), ub0.makespan());
        // Fraction of jobs that would slow down under the bound's order.
        let slowed = base
            .jobs
            .iter()
            .filter(|j| {
                let jb = j.jct();
                let ju = ub.jct(j.id);
                matches!((jb, ju), (Some(b), Some(u)) if u > b)
            })
            .count() as f64
            / base.jobs.len() as f64;
        t.row(vec![
            name.to_string(),
            format!("{jct_gain:+.1}%"),
            format!("{mk_gain:+.1}%"),
            format!("{:.0}%", slowed * 100.0),
        ]);
        report.push(format!("ub_jct_gain_vs_{name}"), jct_gain);
        report.push(format!("ub_makespan_gain_vs_{name}"), mk_gain);
    }

    report.text = format!(
        "§2.2.3 — simple upper bound (one aggregate bin, no fragmentation, no\n\
         over-allocation, SRTF order) vs production schedulers, Facebook-like trace\n\
         paper: makespan/avg-JCT gains of tens of percent; gains lopsided (some\n\
         jobs slow down under the bound).\n\n{}",
        t.render()
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_bound_beats_both_baselines() {
        let r = ub(&RunCtx::default());
        // Every gain row must be positive (the bound dominates).
        for line in r
            .text
            .lines()
            .filter(|l| l.starts_with("fair") || l.starts_with("drf"))
        {
            let plus = line.matches('+').count();
            assert!(plus >= 2, "non-positive upper-bound gain: {line}");
        }
        assert!(r.get("ub_jct_gain_vs_fair").unwrap() > 0.0);
        assert!(r.get("ub_makespan_gain_vs_drf").unwrap() > 0.0);
    }
}
