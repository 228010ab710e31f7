//! Tables 2 and 3 and Figure 2 — the workload-analysis artifacts (§2.2.2).

use tetris_metrics::TightnessTable;
use tetris_resources::Resource;
use tetris_workload::{within_stage_cov, CorrelationMatrix, DemandDiversity, Heatmap};

use crate::setup::{run, SchedName};
use crate::{Report, RunCtx};

/// Table 2: correlation matrix of per-task resource demands over the
/// Facebook-like trace. Paper finding: little cross-resource correlation;
/// the largest (cores↔memory) only moderate.
pub fn table2(ctx: &RunCtx) -> Report {
    let w = ctx.facebook();
    let m = CorrelationMatrix::compute(&w);
    Report::new(format!(
        "Table 2 — correlation of per-task demands ({} tasks)\n\
         paper: all pairs weak; max (cores↔memory) moderate.\n\n{}\n\
         max off-diagonal |r| = {:.2}\n",
        w.num_tasks(),
        m.render(),
        m.max_off_diagonal()
    ))
    .metric("tasks", w.num_tasks() as f64)
    .metric("max_abs_offdiag_corr", m.max_off_diagonal())
}

/// Figure 2: demand heat-maps (cores vs memory / disk / network) with
/// log-scale counts, plus the min/median/max/CoV summary the paper
/// narrates ("minimum values are 5–10× lower than the median, which in
/// turn is ~50× lower than the maximum").
pub fn fig2(ctx: &RunCtx) -> Report {
    let w = ctx.facebook();
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 2 — task demand diversity over the Facebook-like trace ({} tasks)\n\n",
        w.num_tasks()
    ));
    out.push_str(&DemandDiversity::compute(&w).render());
    let within = within_stage_cov(&w);
    out.push_str(&format!(
        "\nwithin-stage CoV (§4.1; basis for phase-based estimation): \
         cores {:.2}, memory {:.2}, disk {:.2}, network {:.2}\n",
        within[0], within[1], within[2], within[3]
    ));
    for (dim, name) in [(1usize, "memory"), (2, "disk"), (3, "network")] {
        let h = Heatmap::compute(&w, dim, 24);
        out.push_str(&format!(
            "\ncores (→) vs {name} (↑), log-scale counts; {} of {} cells occupied:\n{}",
            h.occupied_cells(),
            24 * 24,
            h.render()
        ));
    }
    Report::new(out)
        .metric("within_stage_cov_cores", within[0])
        .metric("within_stage_cov_memory", within[1])
        .metric("within_stage_cov_disk", within[2])
        .metric("within_stage_cov_network", within[3])
}

/// Table 3: probability that a resource is used above {50, 80, 99} % of
/// aggregate capacity while replaying the trace. We replay under Tetris:
/// the table is about the *workload's* pressure on each resource, and a
/// melting slot scheduler (tasks crawling under interference) depresses
/// the measured IO usage. Paper finding: multiple resources become tight,
/// at different times.
pub fn table3(ctx: &RunCtx) -> Report {
    let cluster = ctx.cluster();
    let total = cluster.total_capacity();
    let w = ctx.facebook();
    let cfg = ctx.sim_config();
    let o = run(ctx, &cluster, &w, SchedName::Tetris, &cfg);
    let t = TightnessTable::cluster(&o, &total, &[0.5, 0.8, 0.99]);
    Report::new(format!(
        "Table 3 — tightness of cluster resources (Facebook-like trace replay;\n\
         fraction of samples with aggregate usage above the threshold)\n\
         paper: several resources tight, at different times.\n\n{}",
        t.render()
    ))
    .metric("p_cpu_over_80", t.get(Resource::Cpu, 1))
    .metric("p_mem_over_80", t.get(Resource::Mem, 1))
    .metric("p_netin_over_80", t.get(Resource::NetIn, 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_reports_weak_correlation() {
        let r = table2(&RunCtx::default());
        assert!(r.text.contains("max off-diagonal"));
        // The typed metric carries the paper's qualitative claim.
        let v = r.get("max_abs_offdiag_corr").unwrap();
        assert!(v < 0.6, "correlation too strong: {v}");
        // And it matches what the text renders.
        assert!(r.text.contains(&format!("max off-diagonal |r| = {v:.2}")));
    }

    #[test]
    fn fig2_renders_three_heatmaps() {
        let r = fig2(&RunCtx::default());
        assert!(r.text.contains("memory"));
        assert!(r.text.contains("disk"));
        assert!(r.text.contains("network"));
        assert!(r.text.matches("cells occupied").count() == 3);
        assert_eq!(r.metrics.len(), 4);
    }

    #[test]
    fn table3_multiple_resources_get_tight() {
        let r = table3(&RunCtx::default());
        assert!(r.text.contains("cpu"));
        assert!(r.text.contains("net_in"));
    }
}
