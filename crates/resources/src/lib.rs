//! # tetris-resources
//!
//! Multi-dimensional resource model shared by every crate in the Tetris
//! workspace.
//!
//! The SIGCOMM'14 Tetris paper schedules tasks along **six** resource
//! dimensions (paper Tables 4 and 5): CPU cores, memory, disk read
//! bandwidth, disk write bandwidth, network-in bandwidth and network-out
//! bandwidth. This crate provides:
//!
//! * [`Resource`] — the dimension enum, including the distinction between
//!   *space* resources (memory: held for a task's whole lifetime) and *rate*
//!   resources (everything else: consumed at some rate over time);
//! * [`ResourceVec`] — a fixed-size vector over the six dimensions with the
//!   arithmetic the packing heuristics need (dot products, normalization,
//!   fits-within tests, max–min helpers);
//! * [`MachineSpec`] — a builder that turns a human-readable machine
//!   description ("16 cores, 32 GB, 4 disks at 50 MB/s, 1 Gbps NIC") into a
//!   capacity vector;
//! * [`units`] — unit constants and pretty-printing helpers.
//!
//! ## Conventions
//!
//! All quantities are `f64` in base units: CPU in **cores**, memory in
//! **bytes**, all bandwidths in **bytes/second**. Total *work* (the `f`
//! terms of paper eqn. 5) uses core-seconds for CPU and bytes for IO, so
//! `work / rate` is always seconds.
//!
//! ## Example
//!
//! ```
//! use tetris_resources::{MachineSpec, ResourceVec, Resource, units};
//!
//! let machine = MachineSpec::new()
//!     .cores(16.0)
//!     .memory(32.0 * units::GB)
//!     .disks(4, 50.0 * units::MB)
//!     .nic(units::gbps(1.0))
//!     .capacity();
//!
//! let task = ResourceVec::zero()
//!     .with(Resource::Cpu, 2.0)
//!     .with(Resource::Mem, 4.0 * units::GB);
//!
//! assert!(task.fits_within(&machine));
//! let norm = task.normalized_by(&machine);
//! assert!((norm.get(Resource::Cpu) - 0.125).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod machine_spec;
mod resource;
pub mod units; // `units::GB` and `units::gbps` read as units only behind the namespace.
mod vec;

pub use machine_spec::MachineSpec;
pub use resource::{Resource, ResourceKind, NUM_RESOURCES};
pub use vec::{ResourceVec, FIT_TOLERANCE};
