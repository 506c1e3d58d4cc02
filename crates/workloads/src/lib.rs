//! # workloads — synthetic CloudSuite-like server workload profiles
//!
//! The paper evaluates six CloudSuite workloads (Data Serving, MapReduce,
//! Media Streaming, SAT Solver, Web Frontend, Web Search) on Flexus
//! full-system simulation. This crate substitutes deterministic synthetic
//! profiles parameterised by the published characteristics of scale-out
//! server workloads (*Clearing the Clouds*, ASPLOS 2012): low
//! instruction-level parallelism, low memory-level parallelism, large
//! instruction footprints that miss in the L1-I and hit in the LLC, and
//! moderate data working sets.
//!
//! A [`CoreStream`] turns a profile into a per-core, per-instruction event
//! stream. Streams are seeded by `(workload, core)` only, so **the same
//! instruction sequence is replayed no matter which network organisation
//! is simulated** — performance differences between organisations come
//! exclusively from timing, exactly like trace-driven simulation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod profile;
pub mod stream;

pub use profile::{BurstShape, WorkloadKind, WorkloadProfile, WORKLOAD_KEYS};
pub use stream::{CoreStream, InstrEvent};
