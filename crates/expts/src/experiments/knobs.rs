//! Figures 8–10 and §5.3.2 — the fairness and barrier knobs.

use tetris_metrics::{relative_integral_unfairness, SlowdownSummary, TextTable};
use tetris_workload::JobId;

use super::gains::{facebook_draws, mean_gains, sweep};
use crate::setup::{run, run_tetris, SchedName};
use crate::{Report, RunCtx};

/// The knob values swept (paper Figs. 8/9 use {0, 0.25, 0.5, 0.75, →1}).
pub const FAIRNESS_KNOBS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 0.99];

/// Figure 8: JCT and makespan gains vs the fairness knob. Paper: f ≈ 0.25
/// achieves nearly the best efficiency; even f → 1 retains sizeable gains
/// (a fair job choice still leaves many tasks to pick from).
pub fn fig8(ctx: &RunCtx) -> Report {
    let configs = sweep(&FAIRNESS_KNOBS, |tc, f| tc.fairness_knob = f);
    let baselines = [SchedName::Fair, SchedName::Drf];
    let gains = mean_gains(ctx, &[ctx.suite()], &baselines, &configs);

    let mut report = Report::new(String::new());
    let mut t = TextTable::new(vec![
        "f",
        "JCT gain vs fair",
        "JCT gain vs drf",
        "makespan vs fair",
        "makespan vs drf",
    ]);
    for (f, g) in FAIRNESS_KNOBS.into_iter().zip(gains) {
        let [fair, drf] = [g[0], g[1]];
        t.row(vec![
            format!("{f:.2}"),
            format!("{:+.1}%", fair.jct),
            format!("{:+.1}%", drf.jct),
            format!("{:+.1}%", fair.makespan),
            format!("{:+.1}%", drf.makespan),
        ]);
        report.push(format!("f{f:.2}_jct_gain_vs_fair"), fair.jct);
        report.push(format!("f{f:.2}_makespan_gain_vs_fair"), fair.makespan);
    }
    report.text = format!(
        "Figure 8 — fairness knob sweep (f = 0 most efficient, f → 1 most fair)\n\
         paper: f ≈ 0.25 gives nearly the best efficiency; even f → 1 retains\n\
         sizeable gains.\n\n{}",
        t.render()
    );
    report
}

/// Figure 9: the unfairness side of the sweep — fraction of jobs slowed vs
/// the fair baselines and their average/worst slowdown. Paper: for
/// f ∈ [0.25, 0.5] only a few percent of jobs slow down, by a few percent.
pub fn fig9(ctx: &RunCtx) -> Report {
    let cluster = ctx.cluster();
    let w = ctx.suite();
    let cfg = ctx.sim_config();
    let fair = run(ctx, &cluster, &w, SchedName::Fair, &cfg);
    let drf = run(ctx, &cluster, &w, SchedName::Drf, &cfg);

    let mut report = Report::new(String::new());
    let mut t = TextTable::new(vec![
        "f",
        "slowed vs fair",
        "avg (max) slowdown",
        "slowed vs drf",
        "avg (max) slowdown ",
    ]);
    let configs = sweep(&FAIRNESS_KNOBS, |tc, f| tc.fairness_knob = f);
    for (f, tc) in FAIRNESS_KNOBS.into_iter().zip(configs) {
        let o = run_tetris(ctx, &cluster, &w, tc, &cfg);
        let sf = SlowdownSummary::compare(&o, &fair);
        let sd = SlowdownSummary::compare(&o, &drf);
        t.row(vec![
            format!("{f:.2}"),
            format!("{:.0}%", sf.frac_slowed * 100.0),
            format!("{:.0}% ({:.0}%)", sf.avg_slowdown_pct, sf.max_slowdown_pct),
            format!("{:.0}%", sd.frac_slowed * 100.0),
            format!("{:.0}% ({:.0}%)", sd.avg_slowdown_pct, sd.max_slowdown_pct),
        ]);
        report.push(format!("f{f:.2}_frac_slowed_vs_fair"), sf.frac_slowed);
    }
    report.text = format!(
        "Figure 9 — job slowdown vs fair baselines across the fairness knob\n\
         paper: f ∈ [0.25, 0.5] slows only a few percent of jobs, by little.\n\n{}",
        t.render()
    );
    report
}

/// §5.3.2 — relative integral unfairness under the default knob. Paper:
/// only a few jobs have negative values, and the average negative value is
/// small (violations of fair allocation are transient).
pub fn riu(ctx: &RunCtx) -> Report {
    let cluster = ctx.cluster();
    let w = ctx.suite();
    let mut cfg = ctx.sim_config();
    cfg.record_job_samples = true;
    let o = run(ctx, &cluster, &w, SchedName::Tetris, &cfg);

    let values: Vec<f64> = (0..o.jobs.len())
        .filter_map(|i| relative_integral_unfairness(&o, JobId(i)))
        .collect();
    let negatives: Vec<f64> = values.iter().copied().filter(|&v| v < -0.05).collect();
    let avg_neg = tetris_workload::stats::mean(&negatives);
    let frac_underserved = negatives.len() as f64 / values.len().max(1) as f64;
    let worst = values.iter().copied().fold(0.0f64, f64::min);
    Report::new(format!(
        "§5.3.2 — relative integral unfairness of Tetris (f = 0.25)\n\
         per-job ∫(actual − fair share)/fair dt, normalized by job lifetime;\n\
         negative ⇒ the job was underserved relative to a fair allocation.\n\
         paper: only a few jobs negative, and only slightly.\n\n\
         jobs measured: {}\n\
         underserved (< −0.05): {} ({:.0}%)\n\
         average underservice among those: {:.2}\n\
         worst: {:.2}\n",
        values.len(),
        negatives.len(),
        100.0 * frac_underserved,
        avg_neg,
        worst,
    ))
    .metric("jobs_measured", values.len() as f64)
    .metric("frac_underserved", frac_underserved)
    .metric("avg_underservice", avg_neg)
    .metric("worst_underservice", worst)
}

/// The barrier knob values swept in Figure 10.
pub const BARRIER_KNOBS: [f64; 6] = [0.5, 0.75, 0.85, 0.9, 0.95, 1.0];

/// Figure 10 — barrier knob sweep. Paper: b ≈ 0.9 is net positive on both
/// metrics; very small b (promote too early) is worse than no promotion.
/// Gains are averaged over three workload seeds (zero-arrival makespan is
/// tail-dominated and noisy on a single draw).
pub fn fig10(ctx: &RunCtx) -> Report {
    let configs = sweep(&BARRIER_KNOBS, |tc, b| tc.barrier_knob = b);
    // Deep DAGs make barrier handling matter: the Facebook-like trace has
    // map-only, 2- and 3-stage jobs.
    let gains = mean_gains(ctx, &facebook_draws(ctx), &[SchedName::Drf], &configs);

    let mut report = Report::new(String::new());
    let mut t = TextTable::new(vec!["b", "JCT gain vs drf", "makespan vs drf"]);
    for (b, g) in BARRIER_KNOBS.into_iter().zip(gains) {
        let drf = g[0];
        t.row(vec![
            format!("{b:.2}"),
            format!("{:+.1}%", drf.jct),
            format!("{:+.1}%", drf.makespan),
        ]);
        report.push(format!("b{b:.2}_jct_gain_vs_drf"), drf.jct);
        report.push(format!("b{b:.2}_makespan_gain_vs_drf"), drf.makespan);
    }
    report.text = format!(
        "Figure 10 — barrier knob sweep (b = 1 disables straggler promotion;\n\
         mean of 3 workload seeds)\n\
         paper: b ≈ 0.9 balances stagnation-avoidance against picking\n\
         worse-packing tasks; b below ~0.85 hurts.\n\n{}",
        t.render()
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_core::TetrisConfig;
    use tetris_metrics::ImprovementSummary;

    /// Tetris-vs-Fair JCT gain at one knob value.
    fn jct_gain_at_f(ctx: &RunCtx, f: f64) -> f64 {
        let cluster = ctx.cluster();
        let w = ctx.suite();
        let cfg = ctx.sim_config();
        let fair = run(ctx, &cluster, &w, SchedName::Fair, &cfg);
        let mut tc = TetrisConfig::default();
        tc.fairness_knob = f;
        let o = run_tetris(ctx, &cluster, &w, tc, &cfg);
        let imp = ImprovementSummary::compare(&o, &fair);
        imp.avg_jct
    }

    #[test]
    fn fig8_all_knobs_still_beat_fair() {
        // Paper: "even with f → 1 ... Tetris offers sizable gains".
        for f in [0.0, 0.5, 0.99] {
            let gain = jct_gain_at_f(&RunCtx::default(), f);
            assert!(gain > 10.0, "f={f}: gain {gain}");
        }
    }

    #[test]
    fn fig8_names_each_knob_value_at_two_decimals() {
        let r = fig8(&RunCtx::default());
        assert_eq!(r.metrics.len(), 2 * FAIRNESS_KNOBS.len());
        assert!(r.get("f0.25_jct_gain_vs_fair").is_some());
        assert!(r.get("f0.75_makespan_gain_vs_fair").is_some());
    }

    #[test]
    fn fig9_moderate_knob_limits_slowdowns() {
        let ctx = RunCtx::default();
        let cluster = ctx.cluster();
        let w = ctx.suite();
        let cfg = ctx.sim_config();
        let fair = run(&ctx, &cluster, &w, SchedName::Fair, &cfg);
        let mut tc = TetrisConfig::default();
        tc.fairness_knob = 0.25;
        let o = run_tetris(&ctx, &cluster, &w, tc, &cfg);
        let s = SlowdownSummary::compare(&o, &fair);
        assert!(
            s.frac_slowed < 0.25,
            "too many jobs slowed at f=0.25: {:.2}",
            s.frac_slowed
        );
    }

    #[test]
    fn riu_reports() {
        let r = riu(&RunCtx::default());
        assert!(r.text.contains("underserved"));
        assert!(r.get("jobs_measured").unwrap() > 0.0);
    }

    #[test]
    fn fig10_has_six_rows() {
        let r = fig10(&RunCtx::default());
        assert!(r.text.contains("0.90"));
        assert!(r.text.contains("1.00"));
        assert_eq!(r.metrics.len(), 12);
        assert!(r.get("b0.90_makespan_gain_vs_drf").is_some());
    }
}
