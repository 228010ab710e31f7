//! Figures 4 and 5 and Table 6 — the deployment experiments (§5.2):
//! the §5.1 workload suite under Tetris, the Capacity scheduler and DRF.

use tetris_metrics::{pct_improvement, timeline, ImprovementSummary, RunMetrics, TightnessTable};
use tetris_resources::{MachineSpec, Resource};
use tetris_workload::stats::mean;

use crate::setup::{run, with_zero_arrivals, SchedName};
use crate::{Report, RunCtx};

/// Figure 4(a): CDF of per-job JCT change of Tetris vs CS and vs DRF;
/// Figure 4(b): makespan reduction. Paper: median ≈ +30–40 %, top decile
/// > 50 %, makespan ≈ +30 %; gains slightly larger vs CS than vs DRF.
pub fn fig4(ctx: &RunCtx) -> Report {
    let cluster = ctx.cluster();
    let w = ctx.suite();
    let cfg = ctx.sim_config();

    let tetris = run(ctx, &cluster, &w, SchedName::Tetris, &cfg);
    let cs = run(ctx, &cluster, &w, SchedName::Capacity, &cfg);
    let drf = run(ctx, &cluster, &w, SchedName::Drf, &cfg);
    let fair = run(ctx, &cluster, &w, SchedName::Fair, &cfg);

    // Makespan convention: all jobs at t=0 (§5.3.1). The zero-arrival
    // makespan is tail-dominated (whichever job finishes last sets it), so
    // it is averaged over three workload seeds; Tetris runs each once.
    let draws0: Vec<_> = ctx
        .sweep_seeds()
        .into_iter()
        .map(|s| with_zero_arrivals(ctx.scale.suite_seeded(s)))
        .collect();
    let makespans = |s| -> Vec<f64> {
        let run0 = |w0| run(ctx, &cluster, w0, s, &cfg).makespan();
        draws0.iter().map(run0).collect()
    };
    let tetris0 = makespans(SchedName::Tetris);
    let makespan_gain = |base| {
        let gains = makespans(base).into_iter().zip(&tetris0);
        let gains = gains.map(|(b, &t)| pct_improvement(b, t));
        mean(&gains.collect::<Vec<_>>())
    };

    let mut out = String::new();
    out.push_str(
        "Figure 4 — deployment workload suite: Tetris vs baselines\n\
         paper: median job ≈ +30–40%, top decile > +50%, makespan ≈ +30%.\n\n",
    );
    out.push_str(&format!("{}\n", RunMetrics::header()));
    for o in [&tetris, &cs, &drf, &fair] {
        out.push_str(&format!("{}\n", RunMetrics::of(o).row()));
    }
    out.push('\n');

    let mut report = Report::new(String::new());
    // Each baseline's tag names its metrics (`cs`, not the scheduler's
    // label `capacity`).
    for (base, base_name, tag) in [
        (&cs, SchedName::Capacity, "cs"),
        (&drf, SchedName::Drf, "drf"),
    ] {
        let imp = ImprovementSummary::compare(&tetris, base);
        let mk = makespan_gain(base_name);
        out.push_str(&format!(
            "vs {:<16} median {:+.1}%  p90 {:+.1}%  avg-of-JCTs {:+.1}%  \
             makespan(4b) {:+.1}%  jobs slowed {:.0}%\n",
            base.scheduler,
            imp.median(),
            imp.percentile(0.9),
            imp.avg_jct,
            mk,
            imp.frac_slowed() * 100.0,
        ));
        out.push('\n');
        out.push_str(&imp.render_cdf(10));
        out.push('\n');
        report.push(format!("median_jct_gain_vs_{tag}"), imp.median());
        report.push(format!("p90_jct_gain_vs_{tag}"), imp.percentile(0.9));
        report.push(format!("avg_jct_gain_vs_{tag}"), imp.avg_jct);
        report.push(format!("makespan_gain_vs_{tag}"), mk);
        report.push(format!("frac_slowed_vs_{tag}"), imp.frac_slowed());
    }
    report.text = out;
    report
}

/// Figure 5: number of running tasks and cluster utilization over time for
/// Tetris, CS and DRF. Paper: Tetris sustains consistently more running
/// tasks, rotates which resource is the bottleneck, and never drives
/// allocation above capacity; CS/DRF fragment (under-use what they
/// schedule on) and over-allocate disk/network (allocation > 100 %).
pub fn fig5(ctx: &RunCtx) -> Report {
    let cluster = ctx.cluster();
    let total = cluster.total_capacity();
    let w = with_zero_arrivals(ctx.suite());
    let cfg = ctx.sim_config();

    let mut out = String::new();
    out.push_str(
        "Figure 5 — running tasks & utilization (A% = allocated, U% = used;\n\
         allocation above 100% is over-allocation)\n",
    );
    let mut report = Report::new(String::new());
    for sched in [SchedName::Tetris, SchedName::Capacity, SchedName::Drf] {
        let o = run(ctx, &cluster, &w, sched, &cfg);
        let tl = timeline::cluster_timeline(&o, &total);
        out.push_str(&format!(
            "\n== {} (makespan {:.0}s) ==\n{}",
            o.scheduler,
            o.makespan(),
            timeline::render(&timeline::decimate(&tl, 12))
        ));
        report.push(format!("{}_makespan_s", sched.label()), o.makespan());
    }
    report.text = out;
    report
}

/// Table 6: probability that a machine's committed demand exceeds {80, 90,
/// 100} % of a resource's capacity, per scheduler. Paper: Tetris drives
/// higher utilization yet the >100 % column is empty; baselines both
/// under-use (fragmentation) and over-allocate disk/network.
pub fn table6(ctx: &RunCtx) -> Report {
    let cluster = ctx.cluster();
    let w = with_zero_arrivals(ctx.suite());
    let mut cfg = ctx.sim_config();
    cfg.record_machine_samples = true; // needed even at full scale
    let cap = MachineSpec::paper_large().capacity();

    let mut out = String::new();
    out.push_str(
        "Table 6 — P(machine committed above fraction of capacity); the >100%\n\
         column is over-allocation, impossible under Tetris's feasibility checks\n\
         (up to idle-reclamation of observed-unused resources).\n",
    );
    let mut report = Report::new(String::new());
    for sched in [SchedName::Tetris, SchedName::Capacity, SchedName::Drf] {
        let o = run(ctx, &cluster, &w, sched, &cfg);
        let t =
            TightnessTable::machines(&o, &cap, &[0.8, 0.9, 1.0]).expect("machine samples enabled");
        out.push_str(&format!("\n### {}\n{}", o.scheduler, t.render()));
        report.push(
            format!("{}_p_mem_over_100", sched.label()),
            t.get(Resource::Mem, 2),
        );
    }
    report.text = out;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_tetris_wins_median_and_makespan() {
        let r = fig4(&RunCtx::default());
        let s = &r.text;
        for line in s.lines().filter(|l| l.starts_with("vs ")) {
            // median and makespan improvements must be positive.
            let median: f64 = line
                .split("median ")
                .nth(1)
                .unwrap()
                .split('%')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            let makespan: f64 = line
                .split("makespan(4b) ")
                .nth(1)
                .unwrap()
                .split('%')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(median > 5.0, "median gain too small: {line}");
            assert!(makespan > 5.0, "makespan gain too small: {line}");
        }
        // Typed metrics agree with the rendered text.
        assert!(r.get("median_jct_gain_vs_cs").unwrap() > 5.0);
        assert!(r.get("makespan_gain_vs_drf").unwrap() > 5.0);
    }

    #[test]
    fn table6_tetris_never_overcommits_memory() {
        let r = table6(&RunCtx::default());
        // The Tetris block's mem row must show 0 probability above 100 %.
        let tetris_block: String = r
            .text
            .split("### tetris")
            .nth(1)
            .unwrap()
            .split("###")
            .next()
            .unwrap()
            .to_string();
        let mem_row = tetris_block
            .lines()
            .find(|l| l.trim_start().starts_with("mem"))
            .unwrap();
        let last: f64 = mem_row.split_whitespace().last().unwrap().parse().unwrap();
        assert_eq!(last, 0.0, "Tetris over-committed memory: {mem_row}");
        assert_eq!(r.get("tetris_p_mem_over_100"), Some(0.0));
    }

    #[test]
    fn fig5_renders_three_blocks() {
        let r = fig5(&RunCtx::default());
        assert_eq!(r.text.matches("==").count(), 6);
        assert!(r.get("tetris_makespan_s").unwrap() > 0.0);
    }
}
