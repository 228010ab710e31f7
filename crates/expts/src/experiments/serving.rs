//! Serving — diurnal service load over a batch backlog (§16 extension).
//!
//! The 26th experiment caps the typed spec API: a mixed workload of
//! [`ServingMixConfig`] replica waves (elevated [`PriorityClass`], spread
//! constraints, an SLO on placement latency) over an all-batch backlog
//! that saturates the cluster from t = 0. With `SimConfig::preemption`
//! on, schedulers may evict strictly-lower-priority batch tasks when a
//! service wave cannot place — the question is who turns that license
//! into met SLOs without wrecking the backlog.
//!
//! Per diurnal sample point (wave) we measure the fraction of replicas
//! whose placement latency (task start − wave arrival) exceeds the SLO,
//! plus the latency CDF, preemption counts, and the batch backlog's
//! makespan. The §16 acceptance gate: Tetris's SLO-violation rate stays
//! at or below the Capacity baseline's at **every** diurnal load point.

use tetris_metrics::TextTable;
use tetris_sim::{SimConfig, SimOutcome};
use tetris_workload::{ServingMixConfig, Workload};

use crate::setup::{run, SchedName};
use crate::{Report, RunCtx, Scale};

/// The schedulers compared, in presentation order.
const SCHEDS: [SchedName; 3] = [SchedName::Tetris, SchedName::Drf, SchedName::Capacity];

/// The serving mix at this context's scale. Full scale multiplies the
/// laptop mix to keep per-machine pressure comparable on the 250-machine
/// cluster.
fn mix(ctx: &RunCtx) -> ServingMixConfig {
    let mult = match ctx.scale {
        Scale::Laptop => 1.0,
        Scale::Full => 10.0,
    };
    ServingMixConfig::laptop(ctx.scale_factor * mult)
}

/// Sim config: the shared default plus preemption. Taints stay empty —
/// the mix exercises priority/spread; taints are covered by unit and
/// property tests.
fn sim_cfg(ctx: &RunCtx) -> SimConfig {
    let mut cfg = ctx.sim_config();
    cfg.seed = ctx.seed + 77;
    cfg.preemption = true;
    cfg
}

/// Per-replica placement latencies grouped by wave, plus the batch
/// makespan. Replicas that never started count as violations with an
/// effectively-infinite latency (the run's final time stands in so CDFs
/// stay finite).
struct ServingStats {
    /// `[wave] -> (violations, replicas)`.
    wave_viol: Vec<(usize, usize)>,
    /// All replica placement latencies, unsorted.
    latencies: Vec<f64>,
    /// Overall violation count.
    violations: usize,
    /// Latest finish over batch (non-service) jobs.
    batch_makespan: f64,
}

fn wave_of(mixcfg: &ServingMixConfig, arrival: f64) -> usize {
    let step = mixcfg.period / mixcfg.waves as f64;
    ((arrival / step).round() as usize).min(mixcfg.waves - 1)
}

fn stats(mixcfg: &ServingMixConfig, w: &Workload, o: &SimOutcome) -> ServingStats {
    let mut s = ServingStats {
        wave_viol: vec![(0, 0); mixcfg.waves],
        latencies: Vec::new(),
        violations: 0,
        batch_makespan: 0.0,
    };
    for t in &o.tasks {
        let spec = &w.jobs[t.job.index()];
        let Some(slo) = spec.class.slo_latency() else {
            // Batch task: fold into the backlog makespan.
            if let Some(f) = t.finish {
                s.batch_makespan = s.batch_makespan.max(f);
            }
            continue;
        };
        let k = wave_of(mixcfg, spec.arrival);
        let latency = t.start.unwrap_or(o.final_time) - spec.arrival;
        let violated = t.start.is_none() || latency > slo;
        s.wave_viol[k].1 += 1;
        if violated {
            s.wave_viol[k].0 += 1;
            s.violations += 1;
        }
        s.latencies.push(latency);
    }
    s
}

/// Quantile of an unsorted latency sample (nearest-rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[i]
}

/// Run the serving SLO experiment.
pub fn serving(ctx: &RunCtx) -> Report {
    let mixcfg = mix(ctx);
    let w = mixcfg.generate(ctx.seed + 33);
    let cluster = ctx.cluster();
    let cfg = sim_cfg(ctx);

    let mut out = String::new();
    out.push_str(&format!(
        "Serving — {} services x {} diurnal waves (period {:.0}s, peak {} \
         replicas,\nSLO {:.0}s, spread floor {:?}) over a {}-job batch backlog, \
         preemption on.\nSLO violation: replica start - wave arrival > SLO (never-started \
         counts).\nexpectation: Tetris's violation rate <= Capacity's at every wave — \
         packing\nfinds room the slot baselines must preempt for, and both preempt \
         under the\nsame priority rules.\n\n",
        mixcfg.n_services,
        mixcfg.waves,
        mixcfg.period,
        mixcfg.peak_replicas,
        mixcfg.slo_latency,
        mixcfg.spread,
        mixcfg.batch_jobs,
    ));

    let mut waves_t = TextTable::new(vec![
        "scheduler",
        "wave",
        "t(s)",
        "load",
        "replicas",
        "viol%",
    ]);
    let mut summary_t = TextTable::new(vec![
        "scheduler",
        "viol%",
        "p50(s)",
        "p90(s)",
        "p99(s)",
        "preempt",
        "batch-mk(s)",
    ]);
    let mut report = Report::new(String::new());

    for sched in SCHEDS {
        let o = run(ctx, &cluster, &w, sched, &cfg);
        let s = stats(&mixcfg, &w, &o);
        let name = sched.label();
        for (k, &(viol, total)) in s.wave_viol.iter().enumerate() {
            let rate = if total == 0 {
                0.0
            } else {
                viol as f64 / total as f64
            };
            let t_k = mixcfg.wave_arrival(k);
            waves_t.row(vec![
                name.to_string(),
                format!("{k}"),
                format!("{t_k:.0}"),
                format!("{:.2}", mixcfg.curve.load_at(t_k)),
                format!("{total}"),
                format!("{:.1}", rate * 100.0),
            ]);
            // Per-wave violation rate: the §16 gate reads these.
            report.push(format!("{name}_viol_w{k}"), rate);
        }
        let mut lat = s.latencies.clone();
        lat.sort_unstable_by(f64::total_cmp);
        let overall = if lat.is_empty() {
            0.0
        } else {
            s.violations as f64 / lat.len() as f64
        };
        let (p50, p90, p99) = (
            quantile(&lat, 0.50),
            quantile(&lat, 0.90),
            quantile(&lat, 0.99),
        );
        summary_t.row(vec![
            name.to_string(),
            format!("{:.1}", overall * 100.0),
            format!("{p50:.1}"),
            format!("{p90:.1}"),
            format!("{p99:.1}"),
            format!("{}", o.stats.preemptions),
            format!("{:.0}", s.batch_makespan),
        ]);
        report.push(format!("{name}_slo_viol_rate"), overall);
        report.push(format!("{name}_slo_p99_s"), p99);
        report.push(format!("{name}_preemptions"), o.stats.preemptions as f64);
        report.push(format!("{name}_batch_makespan_s"), s.batch_makespan);
    }

    out.push_str("placement-latency SLO violations per diurnal wave:\n");
    out.push_str(&waves_t.render());
    out.push_str("\nlatency CDF and preemption summary:\n");
    out.push_str(&summary_t.render());
    report.text = out;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::DEFAULT_SEED;

    /// The §16 acceptance gate: Tetris's SLO-violation rate stays at or
    /// below the Capacity baseline's at every diurnal load point.
    #[test]
    fn tetris_meets_slo_no_worse_than_capacity_at_every_wave() {
        let ctx = RunCtx::new(Scale::Laptop, DEFAULT_SEED);
        let r = serving(&ctx);
        for k in 0..mix(&ctx).waves {
            let t = r.get(&format!("tetris_viol_w{k}")).unwrap();
            let c = r.get(&format!("capacity_viol_w{k}")).unwrap();
            assert!(
                t <= c + 1e-9,
                "wave {k}: tetris viol {t:.3} exceeds capacity viol {c:.3}\n{}",
                r.text
            );
        }
        assert!(
            r.get("tetris_slo_viol_rate").unwrap()
                <= r.get("capacity_slo_viol_rate").unwrap() + 1e-9
        );
    }

    /// Preemption actually fires in this regime (the backlog saturates
    /// the cluster before the first peak), and the report carries every
    /// typed headline the bench emission expects.
    #[test]
    fn serving_reports_all_headlines_and_preempts() {
        let ctx = RunCtx::new(Scale::Laptop, DEFAULT_SEED).scaled(0.5);
        let r = serving(&ctx);
        assert_eq!(
            r.metrics.len(),
            SCHEDS.len() * (mix(&ctx).waves + 4),
            "per-wave + summary metrics per scheduler"
        );
        for (name, v) in &r.metrics {
            assert!(v.is_finite() && *v >= 0.0, "{name} = {v}");
            if name.contains("_viol_") {
                assert!(*v <= 1.0, "{name} = {v}");
            }
        }
        assert!(r.get("drf_viol_w7").is_some());
        assert!(r.get("capacity_slo_p99_s").is_some());
        let preempts: f64 = SCHEDS
            .iter()
            .map(|s| r.get(&format!("{}_preemptions", s.label())).unwrap())
            .sum();
        assert!(
            preempts > 0.0,
            "no scheduler preempted — regime too idle?\n{}",
            r.text
        );
    }

    /// The experiment is a pure function of its context.
    #[test]
    fn serving_is_deterministic() {
        let a = serving(&RunCtx::new(Scale::Laptop, 7).scaled(0.3));
        let b = serving(&RunCtx::new(Scale::Laptop, 7).scaled(0.3));
        assert_eq!(a.text, b.text);
        assert_eq!(a.metrics, b.metrics);
    }
}
