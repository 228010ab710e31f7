//! Extension experiments beyond the paper's figures: the §3.5 future-work
//! starvation reservations and the §4.1 estimation-robustness story,
//! quantified.

use tetris_core::{EstimationMode, StarvationConfig, TetrisConfig, TetrisScheduler};
use tetris_metrics::{pct_improvement, TextTable};
use tetris_resources::{units::GB, MachineSpec};
use tetris_sim::{ClusterConfig, SimConfig, Simulation};
use tetris_workload::{JobId, TaskParams, WorkloadBuilder};

use crate::setup::{run, run_observed, run_tetris, SchedName};
use crate::{Report, RunCtx};

/// The estimate-noise levels swept (multiplicative log-normal ln-σ).
const SIGMAS: [f64; 3] = [0.2, 0.5, 1.0];

/// §4.1 robustness: Tetris's gains vs the fair scheduler as the demand
/// estimates degrade (multiplicative log-normal error of ln-σ `sigma`).
/// The paper's claim: estimation error is survivable because allocations
/// are enforced and the tracker reclaims what over-estimates strand.
pub fn estimation(ctx: &RunCtx) -> Report {
    let cluster = ctx.cluster();
    let w = ctx.facebook();
    let cfg = ctx.sim_config();
    let fair = run(ctx, &cluster, &w, SchedName::Fair, &cfg);
    let oracle = run(ctx, &cluster, &w, SchedName::Tetris, &cfg);
    let oracle_gain = pct_improvement(fair.avg_jct(), oracle.avg_jct());

    let mut report = Report::new(String::new()).metric("oracle_jct_gain_vs_fair", oracle_gain);
    let mut t = TextTable::new(vec![
        "estimate error (ln-σ)",
        "avg JCT gain vs fair",
        "fraction of oracle gain",
    ]);
    t.row(vec![
        "0.0 (oracle)".to_string(),
        format!("{oracle_gain:+.1}%"),
        "100%".to_string(),
    ]);
    for sigma in SIGMAS {
        let mut tc = TetrisConfig::default();
        tc.estimation = EstimationMode::Noisy { sigma };
        let o = run_tetris(ctx, &cluster, &w, tc, &cfg);
        let gain = pct_improvement(fair.avg_jct(), o.avg_jct());
        t.row(vec![
            format!("{sigma:.1}"),
            format!("{gain:+.1}%"),
            format!("{:.0}%", 100.0 * gain / oracle_gain.max(1e-9)),
        ]);
        report.push(format!("sigma{sigma:.1}_jct_gain_vs_fair"), gain);
    }
    report.text = format!(
        "Extension — sensitivity to demand-estimation error (§4.1 robustness\n\
         claim quantified). ln-σ = 0.5 means a typical estimate is off by\n\
         ~1.6× either way.\n\n{}",
        t.render()
    );
    report
}

/// §3.5 future work: starvation-prevention reservations, demonstrated on
/// the adversarial churn workload (small tasks perpetually backfill the
/// cores a large task needs). The workload is hand-built and the sim seed
/// fixed, so the demonstration is identical at every scale and seed.
pub fn starvation(ctx: &RunCtx) -> Report {
    let spec = MachineSpec::new()
        .cores(16.0)
        .memory(32.0 * GB)
        .disks(4, 50e6)
        .nic(125e6);
    let mut b = WorkloadBuilder::new();
    let churn = b.begin_job("churn", None, 0.0);
    b.add_stage(churn, "small", vec![], 200, |i| TaskParams {
        cores: 2.0,
        mem: 2.0 * GB,
        duration: 8.0 + (i % 7) as f64 * 1.3,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 1.0,
    });
    let big = b.begin_job("big", None, 5.0);
    b.add_stage(big, "large", vec![], 1, |_| TaskParams {
        cores: 14.0,
        mem: 8.0 * GB,
        duration: 10.0,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 0.0,
        remote_frac: 1.0,
    });
    let w = b.finish();

    let run_one = |starve: Option<StarvationConfig>| {
        let mut tc = TetrisConfig::default();
        tc.srtf_multiplier = 0.0;
        tc.fairness_knob = 0.0;
        tc.starvation = starve;
        let mut cfg = SimConfig::default();
        cfg.seed = 1;
        run_observed(
            ctx,
            Simulation::build(ClusterConfig::uniform(1, spec), w.clone())
                .scheduler(TetrisScheduler::new(tc))
                .config(cfg),
        )
    };

    let mut report = Report::new(String::new());
    let mut t = TextTable::new(vec!["config", "large-task JCT", "churn JCT", "makespan"]);
    for (name, starve, tag) in [
        ("no reservations (paper §3.5)", None, "no"),
        (
            "reservations, patience 60s",
            Some(StarvationConfig {
                patience: 60.0,
                max_reservations: 1,
            }),
            "with",
        ),
    ] {
        let o = run_one(starve);
        t.row(vec![
            name.to_string(),
            format!("{:.0}s", o.jct(JobId(1)).unwrap()),
            format!("{:.0}s", o.jct(JobId(0)).unwrap()),
            format!("{:.0}s", o.makespan()),
        ]);
        report.push(
            format!("large_jct_{tag}_reservation_s"),
            o.jct(JobId(1)).unwrap(),
        );
        report.push(format!("makespan_{tag}_reservation_s"), o.makespan());
    }
    report.text = format!(
        "Extension — starvation prevention by reservation (the paper's §3.5\n\
         future-work item). One machine, a churn of 2-core tasks, and one\n\
         14-core task that plain packing starves: freed cores are re-taken\n\
         before 14 accumulate. A reservation drains the machine once the\n\
         task has waited past the patience threshold.\n\n{}",
        t.render()
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimation_report_degrades_gracefully() {
        let r = estimation(&RunCtx::default());
        assert!(r.text.contains("oracle"));
        assert!(r.text.contains("0.5"));
        assert!(r.get("oracle_jct_gain_vs_fair").is_some());
        assert_eq!(r.metrics.len(), 1 + SIGMAS.len());
        assert!(r.get("sigma0.5_jct_gain_vs_fair").is_some());
    }

    #[test]
    fn starvation_report_shows_both_rows() {
        let r = starvation(&RunCtx::default());
        assert!(r.text.contains("no reservations"));
        assert!(r.text.contains("patience 60s"));
        // Reservations must un-starve the large task.
        assert!(
            r.get("large_jct_with_reservation_s").unwrap()
                < r.get("large_jct_no_reservation_s").unwrap()
        );
    }
}
