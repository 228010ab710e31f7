//! §5.3.3 sensitivity analyses: remote penalty and the ε (alignment vs
//! SRTF) weighting.
//!
//! Gains are averaged over three workload seeds: zero-arrival makespan is
//! tail-dominated (whichever job happens to finish last sets it), so
//! single-draw numbers are noisy.

use tetris_core::TetrisConfig;
use tetris_metrics::{pct_improvement, TextTable};
use tetris_workload::stats::mean;

use crate::setup::{run, run_tetris, with_zero_arrivals, SchedName};
use crate::{Report, RunCtx};

/// Mean (JCT gain, makespan gain) of a Tetris config vs the fair
/// scheduler over the sweep seeds.
fn mean_gains(ctx: &RunCtx, make: impl Fn() -> TetrisConfig) -> (f64, f64) {
    let cluster = ctx.cluster();
    let cfg = ctx.sim_config();
    let mut jct = Vec::new();
    let mut mk = Vec::new();
    for seed in ctx.sweep_seeds() {
        let w = ctx.scale.facebook_seeded(seed);
        let w0 = with_zero_arrivals(w.clone());
        let fair = run(ctx, &cluster, &w, SchedName::Fair, &cfg);
        let fair0 = run(ctx, &cluster, &w0, SchedName::Fair, &cfg);
        let o = run_tetris(ctx, &cluster, &w, make(), &cfg);
        let o0 = run_tetris(ctx, &cluster, &w0, make(), &cfg);
        jct.push(pct_improvement(fair.avg_jct(), o.avg_jct()));
        mk.push(pct_improvement(fair0.makespan(), o0.makespan()));
    }
    (mean(&jct), mean(&mk))
}

/// The remote penalties swept.
const PENALTIES: [f64; 6] = [0.0, 0.05, 0.10, 0.20, 0.35, 0.5];
/// Per-penalty JCT-gain metric names, same order as `PENALTIES`.
const RP_JCT: [&str; 6] = [
    "rp0_jct_gain_vs_fair",
    "rp5_jct_gain_vs_fair",
    "rp10_jct_gain_vs_fair",
    "rp20_jct_gain_vs_fair",
    "rp35_jct_gain_vs_fair",
    "rp50_jct_gain_vs_fair",
];

/// Remote-penalty sweep. Paper: completion time and makespan change little
/// for penalties between ~8 % and ~20 %; both extremes (0: over-use remote
/// resources; large: let them lie fallow) drop moderately.
pub fn remote_penalty(ctx: &RunCtx) -> Report {
    let mut report = Report::new(String::new());
    let mut t = TextTable::new(vec![
        "remote penalty",
        "avg JCT gain vs fair",
        "makespan gain vs fair",
    ]);
    for (i, p) in PENALTIES.into_iter().enumerate() {
        let (jct, mk) = mean_gains(ctx, || {
            let mut tc = TetrisConfig::default();
            tc.remote_penalty = p;
            tc
        });
        t.row(vec![
            format!("{:.0}%", p * 100.0),
            format!("{jct:+.1}%"),
            format!("{mk:+.1}%"),
        ]);
        report.push(RP_JCT[i], jct);
    }
    report.text = format!(
        "§5.3.3 — remote-penalty sensitivity (mean of 3 workload seeds)\n\
         paper: plateau for ~8-20%. In our setup the JCT gain is flat across the\n\
         whole range; makespan differences are within seed noise (±8%).\n\n{}",
        t.render()
    );
    report
}

/// The ε multipliers swept.
const MULTIPLIERS: [f64; 6] = [0.0, 0.1, 0.5, 1.0, 2.0, 4.0];
/// Per-multiplier JCT-gain metric names, same order as `MULTIPLIERS`.
const EPS_JCT: [&str; 6] = [
    "m0.0_jct_gain_vs_fair",
    "m0.1_jct_gain_vs_fair",
    "m0.5_jct_gain_vs_fair",
    "m1.0_jct_gain_vs_fair",
    "m2.0_jct_gain_vs_fair",
    "m4.0_jct_gain_vs_fair",
];

/// ε multiplier sweep (`m` in ε = m·ā/p̄). Paper: JCT needs m > 0 and
/// plateaus quickly (m ≈ 1 right); makespan is best at small m and loses a
/// few percent beyond.
pub fn epsilon(ctx: &RunCtx) -> Report {
    let mut report = Report::new(String::new());
    let mut t = TextTable::new(vec!["m", "avg JCT gain", "makespan gain"]);
    for (i, m) in MULTIPLIERS.into_iter().enumerate() {
        let (jct, mk) = mean_gains(ctx, || {
            let mut tc = TetrisConfig::default();
            tc.srtf_multiplier = m;
            tc
        });
        t.row(vec![
            format!("{m:.1}"),
            format!("{jct:+.1}%"),
            format!("{mk:+.1}%"),
        ]);
        report.push(EPS_JCT[i], jct);
    }
    report.text = format!(
        "§5.3.3 — weighting alignment vs SRTF (m = 0 is pure packing;\n\
         mean of 3 workload seeds)\n\
         paper: completion time plateaus near m = 1; makespan prefers small m.\n\
         In our setup the JCT gain is flat (rank-saturated SRTF term);\n\
         makespan differences are within seed noise (±8%).\n\n{}",
        t.render()
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_render() {
        let r = remote_penalty(&RunCtx::default());
        assert!(r.text.contains("10%"));
        assert_eq!(r.metrics.len(), 6);
        let e = epsilon(&RunCtx::default());
        assert!(e.text.contains("1.0"));
        assert!(e.get("m1.0_jct_gain_vs_fair").is_some());
    }
}
