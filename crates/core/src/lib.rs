//! # tetris-core
//!
//! The Tetris multi-resource cluster scheduler (SIGCOMM'14), the primary
//! contribution of the paper this workspace reproduces.
//!
//! Tetris packs tasks onto machines by treating both as points in a
//! six-dimensional resource space:
//!
//! * `align` — the **alignment score**: a capacity-normalized dot
//!   product between a task's placement-adjusted peak demands and a
//!   machine's available resources (§3.2), with a penalty for remote
//!   input, plus the four alternative scorers of Table 7;
//! * `srtf` — the **multi-resource SRTF** job score (total normalized
//!   resource × duration of remaining tasks, §3.3) and the `a + ε·p`
//!   combination with `ε = m·ā/p̄`;
//! * `fairness` — the **fairness knob** `f`: only the `⌈(1−f)·|J|⌉`
//!   jobs furthest below fair share are eligible (§3.4);
//! * `barrier` — the **barrier knob** `b`: stragglers of an almost-done
//!   stage feeding a barrier get absolute priority (§3.5);
//! * `estimate` — demand estimation from recurring jobs and phase
//!   statistics, with deliberate over-estimation when cold (§4.1);
//! * [`TetrisScheduler`] — all of the above behind the simulator's
//!   [`tetris_sim::SchedulerPolicy`] interface, feasibility-checked on
//!   every dimension at the host *and* at every remote input source, so
//!   over-allocation is impossible (§3.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod align;
mod barrier;
mod estimate;
mod fairness;
mod scheduler;
mod srtf;

pub use align::AlignmentKind;
pub use estimate::EstimationMode;
pub use scheduler::{ColdTetris, StarvationConfig, TetrisConfig, TetrisScheduler};
pub use srtf::job_remaining_work;
