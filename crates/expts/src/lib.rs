//! # tetris-expts
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation, each regenerating the corresponding rows/series from the
//! simulator. Run via the `reproduce` binary:
//!
//! ```sh
//! cargo run -p tetris-expts --release --bin reproduce -- all
//! cargo run -p tetris-expts --release --bin reproduce -- all --jobs 4
//! cargo run -p tetris-expts --release --bin reproduce -- fig4 fig8
//! cargo run -p tetris-expts --release --bin reproduce -- --full fig7
//! cargo run -p tetris-expts --release --bin reproduce -- sweep fig4 --seeds 1..9
//! ```
//!
//! The default scale runs every experiment on a 20-machine cluster with
//! task counts scaled to keep per-machine load comparable to the paper's
//! 250-machine deployment (`--full` uses the paper-scale cluster and
//! workload — minutes, not seconds). Absolute numbers are not expected to
//! match the paper (our substrate is a simulator, and the supplied paper
//! text lost its digits); the *shape* — who wins, by roughly what factor,
//! where the knees fall — is the reproduction target. EXPERIMENTS.md
//! records both.
//!
//! Every experiment is a pure function `fn(&RunCtx) -> Report`: the
//! [`RunCtx`] carries the scale and master seed as plain data (no global
//! state), and the [`Report`] carries the rendered text plus typed
//! headline metrics. That purity is what lets [`runner`] execute the
//! suite — or a multi-seed sweep — on a thread pool with byte-identical
//! results to serial execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli; // `reproduce` names `cli::parse` and `cli::Cmd`.
mod ctx;
pub mod experiments; // `reproduce` names `experiments::find` and `experiments::registry`.
pub mod instrument; // `reproduce` names `instrument::instrumented_run`.
mod report;
pub mod runner; // `reproduce` names `runner::run_experiments` and `runner::run_sweep`.
pub mod setup; // `perfbench` names `setup::run_observed`.

pub use ctx::RunCtx;
pub use report::Report;
pub use setup::{Scale, SchedName};
