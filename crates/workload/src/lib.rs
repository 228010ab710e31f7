//! # tetris-workload
//!
//! Workload model and trace tooling for the Tetris reproduction.
//!
//! A [`Workload`] is a machine-independent description of a set of
//! data-parallel jobs: each [`JobSpec`] is a DAG of [`StageSpec`]s separated
//! by barriers, and each stage is a set of [`TaskSpec`]s with peak resource
//! demands and total work along every dimension (the `d` and `f` terms of
//! paper §3.1, Tables 4 and 5).
//!
//! Because the paper's Facebook/Bing traces are proprietary, this crate
//! ships **seeded synthetic generators** calibrated to the statistics the
//! paper publishes (§2.2.2): wide per-resource demand ranges (min ≈ 5–10×
//! below median, max ≈ 50× above), high coefficients of variation, and
//! near-zero correlation *across* resources, with low variation *within* a
//! stage. Three generators are provided:
//!
//! * [`WorkloadSuiteConfig`] — the deployment workload suite of §5.1
//!   (four job-size/selectivity classes, high/low mem, high/low cpu,
//!   uniform arrivals);
//! * [`FacebookTraceConfig`] — a Facebook-like trace with heavy-tailed job
//!   sizes and recurring job families (used by the simulation experiments);
//! * [`motivating_example`] — the exact three-job workload of the
//!   paper's Figure 1.
//!
//! `analysis` reproduces the paper's workload tables (correlation matrix,
//! heat-map, CoV) from any workload, and [`trace`] round-trips workloads to
//! JSON so that recurring-job demand estimation has "prior runs" to learn
//! from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod gen;
mod ids;
mod spec;
pub mod stats; // Free functions: `stats::mean` would be a vague `mean` at the root.
pub mod trace; // Free functions: `trace-tool` names `trace::save` and `trace::load`.

pub use analysis::{within_stage_cov, CorrelationMatrix, DemandDiversity, Heatmap};
pub use gen::{
    diamond_dag, motivating_example, two_job_packing_example, FacebookTraceConfig,
    ServingMixConfig, TaskParams, WorkloadBuilder, WorkloadSuiteConfig,
};
pub use ids::{BlockId, JobId, TaskUid};
pub use spec::{
    DiurnalCurve, InputSource, InputSpec, Job, JobClass, JobSpec, PlacementConstraints,
    PriorityClass, StageSpec, TaskSpec, ValidationError, Workload,
};
