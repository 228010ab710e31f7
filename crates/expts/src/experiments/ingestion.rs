//! Figure 6 — the resource-tracker micro-benchmark (§5.2.1).
//!
//! Data ingestion starts writing at full disk bandwidth on one machine of
//! the small cluster. Tetris's tracker observes the rising disk usage and
//! stops scheduling tasks there until ingestion ends; the Capacity
//! scheduler proceeds unaware, and the resulting contention lowers disk
//! throughput, slowing both its tasks and the ingestion itself.

use tetris_metrics::timeline;
use tetris_resources::units::MB;
use tetris_resources::{MachineSpec, Resource, ResourceVec};
use tetris_sim::{ClusterConfig, ExternalLoad, MachineId, SimConfig, SimOutcome, Simulation};
use tetris_workload::WorkloadSuiteConfig;

use crate::setup::{run_observed, SchedName};
use crate::{Report, RunCtx};

/// The loaded machine.
pub const LOADED: MachineId = MachineId(0);
/// Ingestion window (seconds).
pub const INGEST_START: f64 = 150.0;
/// Ingestion duration (seconds).
pub const INGEST_LEN: f64 = 300.0;

fn setup(seed: u64) -> (ClusterConfig, tetris_workload::Workload, SimConfig) {
    // The paper's small cluster with a steady stream of small jobs.
    let cluster = ClusterConfig::paper_small();
    let w = WorkloadSuiteConfig {
        n_jobs: 40,
        scale: 0.02,
        arrival_horizon: 600.0,
        machine_profile: MachineSpec::paper_small(),
        ..WorkloadSuiteConfig::default()
    }
    .generate(seed + 6);
    let mut cfg = SimConfig::default();
    cfg.seed = seed;
    cfg.sample_period = Some(5.0);
    // Ingestion at the machine's full disk-write bandwidth.
    cfg.external_loads.push(ExternalLoad {
        machine: LOADED,
        start: INGEST_START,
        duration: INGEST_LEN,
        load: ResourceVec::zero().with(Resource::DiskWrite, 100.0 * MB),
    });
    (cluster, w, cfg)
}

fn run_one(ctx: &RunCtx, sched: SchedName) -> SimOutcome {
    let (cluster, w, cfg) = setup(ctx.seed);
    run_observed(
        ctx,
        Simulation::build(cluster, w)
            .scheduler(sched.build(cfg.seed))
            .config(cfg),
    )
}

/// Mean number of tasks running on the loaded machine during the
/// ingestion window.
pub fn tasks_during_ingestion(o: &SimOutcome) -> f64 {
    let vals: Vec<f64> = o
        .samples
        .iter()
        .filter(|s| s.t >= INGEST_START + 20.0 && s.t <= INGEST_START + INGEST_LEN)
        .filter_map(|s| {
            s.machines
                .as_ref()
                .map(|m| m[LOADED.index()].running as f64)
        })
        .collect();
    tetris_workload::stats::mean(&vals)
}

/// Run Figure 6 (fixed-size micro-benchmark; scale-independent).
pub fn fig6(ctx: &RunCtx) -> Report {
    let cap = MachineSpec::paper_small().capacity();
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 6 — ingestion starts on {LOADED} at t={INGEST_START}s for {INGEST_LEN}s,\n\
         writing at the machine's full disk bandwidth. Timeline of that machine\n\
         (tasks running; dskU% includes the ingestion stream).\n\
         paper: Tetris stops scheduling onto the loaded machine; CS does not, and\n\
         contention lowers disk throughput for tasks and ingestion alike.\n",
    ));
    let mut report = Report::new(String::new());
    for sched in [SchedName::Tetris, SchedName::Capacity] {
        let o = run_one(ctx, sched);
        let tl = timeline::machine_timeline(&o, LOADED, &cap).expect("machine samples");
        let tasks = tasks_during_ingestion(&o);
        out.push_str(&format!(
            "\n== {} — mean tasks on {LOADED} during ingestion: {:.1}; mean stretch {:.2} ==\n{}",
            o.scheduler,
            tasks,
            o.mean_task_stretch(),
            timeline::render(&timeline::decimate(&tl, 16))
        ));
        let name = sched.label();
        report.push(format!("{name}_tasks_during_ingestion"), tasks);
        report.push(format!("{name}_mean_stretch"), o.mean_task_stretch());
    }
    report.text = out;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tetris_backs_off_the_loaded_machine() {
        let ctx = RunCtx::default();
        let tetris = run_one(&ctx, SchedName::Tetris);
        let cs = run_one(&ctx, SchedName::Capacity);
        let t_tasks = tasks_during_ingestion(&tetris);
        let c_tasks = tasks_during_ingestion(&cs);
        assert!(
            t_tasks < c_tasks * 0.6,
            "tetris kept scheduling onto the loaded machine: {t_tasks:.2} vs CS {c_tasks:.2}"
        );
    }

    #[test]
    fn cs_tasks_get_stretched_by_contention() {
        let ctx = RunCtx::default();
        let tetris = run_one(&ctx, SchedName::Tetris);
        let cs = run_one(&ctx, SchedName::Capacity);
        assert!(
            cs.mean_task_stretch() > tetris.mean_task_stretch() + 0.05,
            "CS {:.3} vs tetris {:.3}",
            cs.mean_task_stretch(),
            tetris.mean_task_stretch()
        );
    }
}
