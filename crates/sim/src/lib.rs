//! # tetris-sim
//!
//! Deterministic discrete-event cluster simulator for the Tetris
//! (SIGCOMM'14) reproduction.
//!
//! The simulator models what the paper's analytical section (§3.1) makes a
//! scheduler responsible for:
//!
//! * machines with six resource dimensions ([`ClusterConfig`]);
//! * tasks whose **durations depend on placement and contention**
//!   (paper eqn. 5): every running task is decomposed into rate-capped
//!   flows over `(machine, resource)` links, over-subscribed links share
//!   proportionally, and a task finishes when all its flows do — so a
//!   scheduler that over-allocates disk or network stretches every task it
//!   co-locates, which is the effect Tetris exists to avoid;
//! * online job arrivals, DAG barriers, shuffle data whose location is
//!   determined by upstream placement, HDFS-style replicated blocks,
//!   task failures, and external cluster activity (ingestion/evacuation,
//!   §4.3) observed through a periodically-reporting resource tracker
//!   (§4.1);
//! * a policy interface ([`SchedulerPolicy`]) through which Tetris and all
//!   baselines plug in, seeing only scheduler-observable state.
//!
//! Runs are **bit-reproducible**: the event queue breaks ties by insertion
//! order, no hash-ordered iteration exists on any decision path, and all
//! randomness flows from one seed.
//!
//! ## Example
//!
//! ```
//! use tetris_sim::{ClusterConfig, GreedyFifo, Simulation};
//! use tetris_resources::MachineSpec;
//! use tetris_workload::WorkloadSuiteConfig;
//!
//! let outcome = Simulation::build(
//!         ClusterConfig::uniform(4, MachineSpec::paper_large()),
//!         WorkloadSuiteConfig::small().generate(1),
//!     )
//!     .scheduler(GreedyFifo::new())
//!     .seed(1)
//!     .run();
//! assert!(outcome.all_jobs_completed());
//! println!("makespan: {:.0}s avg JCT: {:.0}s", outcome.makespan(), outcome.avg_jct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod config;
mod engine;
mod events;
mod fault;
mod index;
mod journal;
mod outcome;
pub mod pool;
pub mod probe;
mod recovery;
pub mod sharded;
mod state;
mod telemetry;
pub mod time;
pub mod token_bucket;
pub mod tracker;
mod view;

pub use cluster::{ClusterConfig, MachineId};
pub use config::{ExternalLoad, Interference, SimConfig};
pub use engine::{GreedyFifo, Simulation};
pub use fault::{FaultPlan, SchedulerCrash};
pub use index::IndexStatsSnapshot;
pub use journal::{DiscardedTail, Journal, JournalError, JournalStats, JOURNAL_VERSION};
pub use outcome::{EngineStats, JobRecord, MachineSample, Sample, SimOutcome, TaskRecord};
pub use recovery::{Recovered, RecoveryError, RecoveryStats, RunResult};
pub use sharded::{owner_shard, CommitOverlay, ShardedScheduler, ShardedStats};
pub use state::{PlacementPlan, TaskCompletion};
pub use time::SimTime;
pub use view::{
    plan_priority_preemption, Assignment, ClusterView, MachineQuery, MarkAllDirty, SchedulerEvent,
    SchedulerPolicy, StageProgress,
};
// Re-exported so policies can annotate assignments without naming the obs
// crate themselves.
pub use tetris_obs::{DecisionScores, PlacementProvenance, RejectedCandidate};
