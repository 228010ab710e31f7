//! Seeded workload generators.
//!
//! Three generators cover the paper's evaluation inputs:
//!
//! * [`WorkloadSuiteConfig`] — the deployment workload suite of §5.1;
//! * [`FacebookTraceConfig`] — a Facebook-like trace calibrated to the
//!   statistics of §2.2.2 (used by the simulation experiments);
//! * [`motivating_example`] — the exact three-job workload of Figure 1.
//!
//! All generators are pure functions of their configuration and a seed.

mod builder;
mod examples;
mod facebook;
mod serving;
mod suite;

pub use builder::{TaskParams, WorkloadBuilder};
pub use examples::{diamond_dag, motivating_example, two_job_packing_example};
pub use facebook::FacebookTraceConfig;
pub use serving::ServingMixConfig;
pub use suite::WorkloadSuiteConfig;
