//! Churn — graceful degradation under machine crash/recover cycling
//! (robustness extension; paper §3.1 "failures", §4.3 evacuation).
//!
//! Sweeps the fraction of machines undergoing crash/recover cycles
//! (0%, 2%, 10%) and compares Tetris against the Capacity baseline and
//! SRTF-only on makespan and average-JCT **inflation**: the metric at
//! fraction `f` divided by the same scheduler's metric with faults off.
//! Inflation isolates *degradation* from absolute speed — Tetris is
//! faster in absolute terms everywhere; the claim under test is that it
//! also degrades no worse than the slot baseline when machines churn.
//! Crashes kill resident tasks (re-queued after a restart backoff, capped
//! by `max_task_attempts`) and trigger block re-replication off the dead
//! machine through the §4.3 external-load machinery, so the surviving
//! cluster is busier exactly when capacity is scarcest. Failing machines
//! flake before they die: their tracker goes stale [`FLAKE_LEAD`] seconds
//! ahead of the crash, and the suspicion score turns that into a warning
//! only tracker-aware scheduling can act on.

use tetris_metrics::table::TextTable;
use tetris_resources::MachineSpec;
use tetris_sim::{ClusterConfig, SimConfig, SimOutcome, Simulation};
use tetris_workload::{Workload, WorkloadSuiteConfig};

use crate::setup::{run_observed, SchedName};
use crate::{Report, RunCtx};

/// Failure sweep: fraction of machines that crash/recover-cycle.
pub const CRASH_FRACS: [f64; 3] = [0.0, 0.02, 0.10];
/// Cluster size at `--scale 1.0`. Scaled with the workload (below) so a
/// smoke run keeps the same jobs-per-machine load — the degradation
/// comparison only means something in the experiment's operating regime.
const MACHINES: usize = 50;
/// Crash/recover cycles per affected machine.
const CYCLES: u32 = 3;
/// Independent fault-plan draws averaged per sweep point.
const DRAWS: u64 = 2;
/// Seconds a crashed machine stays down.
const DOWNTIME: f64 = 150.0;
/// Window of simulated seconds in which crashes begin.
const WINDOW: (f64, f64) = (60.0, 1500.0);
/// Failing machines flake first: seconds of stale tracker reports before
/// each crash. Tracker-aware scheduling turns this into a warning —
/// suspicion crosses the threshold within a few report periods and Tetris
/// stops placing new work on the doomed machine (§4.1's tracker as a
/// health signal); slot scheduling never reads usage and keeps piling on.
const FLAKE_LEAD: f64 = 90.0;
/// Jobs at `--scale 1.0`; the CLI multiplier shrinks this for smokes.
const BASE_JOBS: f64 = 75.0;

/// The schedulers compared, in presentation order.
const SCHEDS: [SchedName; 3] = [SchedName::Tetris, SchedName::Capacity, SchedName::Srtf];

/// Headline metric names per scheduler: baseline makespan, then makespan
/// and mean-JCT inflation at the 2% and 10% sweep points. `&'static`
/// because [`Report`] metrics are static keys.
fn metric_names(s: SchedName) -> [&'static str; 5] {
    match s {
        SchedName::Tetris => [
            "tetris_makespan_s",
            "tetris_makespan_infl_2pct",
            "tetris_makespan_infl_10pct",
            "tetris_jct_infl_2pct",
            "tetris_jct_infl_10pct",
        ],
        SchedName::Capacity => [
            "capacity_makespan_s",
            "capacity_makespan_infl_2pct",
            "capacity_makespan_infl_10pct",
            "capacity_jct_infl_2pct",
            "capacity_jct_infl_10pct",
        ],
        SchedName::Srtf => [
            "srtf_makespan_s",
            "srtf_makespan_infl_2pct",
            "srtf_makespan_infl_10pct",
            "srtf_jct_infl_2pct",
            "srtf_jct_infl_10pct",
        ],
        other => unreachable!("churn does not run {other:?}"),
    }
}

fn workload(ctx: &RunCtx) -> Workload {
    let n_jobs = ((BASE_JOBS * ctx.scale_factor).round() as usize).max(3);
    WorkloadSuiteConfig {
        n_jobs,
        scale: 0.08,
        arrival_horizon: 400.0,
        machine_profile: MachineSpec::paper_large(),
        ..WorkloadSuiteConfig::default()
    }
    .generate(ctx.seed + 60)
}

fn cluster(ctx: &RunCtx) -> ClusterConfig {
    let n_machines = ((MACHINES as f64 * ctx.scale_factor).round() as usize).max(10);
    ClusterConfig::uniform(n_machines, MachineSpec::paper_large())
}

fn sweep_cfg(ctx: &RunCtx, frac: f64, salt: u64) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.seed = ctx.seed + salt * 1009;
    if frac > 0.0 {
        cfg.faults.crash_frac = frac;
        cfg.faults.crash_cycles = CYCLES;
        cfg.faults.downtime = DOWNTIME;
        cfg.faults.window = WINDOW;
        cfg.faults.flake_lead = FLAKE_LEAD;
        // Evacuation rides along at the plan's default re-replication
        // constants: lost replicas stream off through §4.3 external-load
        // flows the moment a machine dies. Slowdown windows exist in the
        // FaultPlan but stay off here — churn isolates crash/recover
        // cycling; stragglers hit every scheduler's IO equally and only
        // blur the degradation comparison.
    }
    cfg
}

/// One `(scheduler, crash fraction, draw)` run. All fault randomness flows
/// from the sim seed, so a sweep point is a pure function of its inputs —
/// every scheduler compared at one point draws the identical fault plan.
fn run_one(ctx: &RunCtx, sched: SchedName, frac: f64, salt: u64) -> SimOutcome {
    let cfg = sweep_cfg(ctx, frac, salt);
    run_observed(
        ctx,
        Simulation::build(cluster(ctx), workload(ctx))
            .scheduler(sched.build(cfg.seed))
            .config(cfg),
    )
}

/// A sweep point averages [`DRAWS`] independent fault-plan draws so one
/// unlucky crash placement does not decide the verdict. The faults-off
/// baseline is averaged over the same salts (the scheduler tie-break RNG
/// is salted too), keeping numerator and denominator comparable.
fn run_point(ctx: &RunCtx, sched: SchedName, frac: f64) -> (f64, f64, u64, u64) {
    let (mut mk, mut jct, mut crashes, mut abandoned) = (0.0, 0.0, 0, 0);
    for salt in 0..DRAWS {
        let o = run_one(ctx, sched, frac, salt);
        mk += o.makespan();
        jct += o.avg_jct();
        crashes += o.stats.machine_crashes;
        abandoned += o.stats.tasks_abandoned;
    }
    let n = DRAWS as f64;
    (mk / n, jct / n, crashes, abandoned)
}

/// Run the churn degradation sweep.
pub fn churn(ctx: &RunCtx) -> Report {
    let mut out = String::new();
    out.push_str(&format!(
        "Churn — graceful degradation: {CYCLES} crash/recover cycles on a sweep of\n\
         machine fractions ({} machines, {DOWNTIME:.0}s downtime, crashes in \
         [{:.0}s, {:.0}s]).\n\
         Inflation = metric under churn / same scheduler's metric with faults off.\n\
         expectation: Tetris's inflation stays at or below the Capacity baseline's\n\
         at every sweep point — packing + SRTF re-absorb the lost work faster than\n\
         slot scheduling, which also ignores the re-replication traffic (§4.3).\n\n",
        MACHINES, WINDOW.0, WINDOW.1,
    ));
    let mut t = TextTable::new(vec![
        "scheduler",
        "fail%",
        "makespan(s)",
        "infl",
        "meanJCT(s)",
        "infl",
        "crashes",
        "abandoned",
    ]);
    let mut report = Report::new(String::new());
    for sched in SCHEDS {
        let names = metric_names(sched);
        let mut base: Option<(f64, f64)> = None;
        for (fi, &frac) in CRASH_FRACS.iter().enumerate() {
            let (mk, jct, crashes, abandoned) = run_point(ctx, sched, frac);
            let (b_mk, b_jct) = *base.get_or_insert((mk, jct));
            let (mk_infl, jct_infl) = (mk / b_mk, jct / b_jct);
            t.row(vec![
                sched.label().to_string(),
                format!("{:.0}", frac * 100.0),
                format!("{mk:.0}"),
                format!("{mk_infl:.3}"),
                format!("{jct:.0}"),
                format!("{jct_infl:.3}"),
                format!("{crashes}"),
                format!("{abandoned}"),
            ]);
            match fi {
                0 => report.push(names[0], mk),
                1 => {
                    report.push(names[1], mk_infl);
                    report.push(names[3], jct_infl);
                }
                _ => {
                    report.push(names[2], mk_infl);
                    report.push(names[4], jct_infl);
                }
            }
        }
    }
    out.push_str(&t.render());
    report.text = out;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::DEFAULT_SEED;
    use crate::Scale;

    /// The acceptance check, twice under two seeds: Tetris's makespan and
    /// JCT inflation stay at or below Capacity's at every sweep point.
    #[test]
    fn tetris_degrades_no_worse_than_capacity_under_two_seeds() {
        for seed in [DEFAULT_SEED, DEFAULT_SEED + 7] {
            let ctx = RunCtx::new(Scale::Laptop, seed).scaled(0.5);
            let r = churn(&ctx);
            for (t_name, c_name) in [
                ("tetris_makespan_infl_2pct", "capacity_makespan_infl_2pct"),
                ("tetris_makespan_infl_10pct", "capacity_makespan_infl_10pct"),
                ("tetris_jct_infl_2pct", "capacity_jct_infl_2pct"),
                ("tetris_jct_infl_10pct", "capacity_jct_infl_10pct"),
            ] {
                let t = r.get(t_name).unwrap();
                let c = r.get(c_name).unwrap();
                assert!(
                    t <= c + 1e-9,
                    "seed {seed}: {t_name} = {t:.3} exceeds {c_name} = {c:.3}"
                );
            }
        }
    }

    #[test]
    fn churn_report_covers_all_schedulers_and_sweep_points() {
        let ctx = RunCtx::new(Scale::Laptop, DEFAULT_SEED).scaled(0.2);
        let r = churn(&ctx);
        assert_eq!(r.metrics.len(), 15, "5 metrics x 3 schedulers");
        for s in SCHEDS {
            for name in metric_names(s) {
                let v = r.get(name).unwrap_or_else(|| panic!("missing {name}"));
                assert!(v.is_finite() && v > 0.0, "{name} = {v}");
            }
        }
        // Faults actually fired: inflation is computed against a run that
        // really had crashes (2% of 20 machines = 1, 10% = 2, cycling).
        assert!(r.text.contains("crashes"), "{}", r.text);
    }
}
