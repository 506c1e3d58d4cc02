//! # noc — a cycle-accurate network-on-chip simulator
//!
//! This crate is the interconnect substrate of the *Near-Ideal
//! Networks-on-Chip for Servers* (HPCA 2017) reproduction: a flit-level,
//! cycle-accurate simulator for the network organisations the paper
//! evaluates on a 64-core tiled server processor:
//!
//! * [`mesh::MeshNetwork`] — the baseline 2-D mesh with a one-stage
//!   speculative router pipeline (two cycles per hop at zero load). Its
//!   router core also carries the PRA extensions of the paper's Figure 4
//!   (timeslot schedules, latch and bypass pseudo-VCs, reserved credits)
//!   as [`reserve::ReservingCore`], which the `pra` crate's planes book.
//! * [`smart::SmartNetwork`] — the SMART single-cycle multi-hop network
//!   (two-stage pipeline plus SMART-hop setup; up to two tiles per cycle).
//! * [`ideal::IdealNetwork`] — the hypothetical zero-router-delay network
//!   (only wire delay, serialization and contention remain).
//!
//! All organisations implement the [`network::Network`] trait, so system
//! models and benchmarks are generic over the interconnect.
//!
//! ## Quick start
//!
//! ```
//! use noc::config::NocConfig;
//! use noc::flit::Packet;
//! use noc::mesh::MeshNetwork;
//! use noc::network::Network;
//! use noc::types::{MessageClass, NodeId, PacketId};
//!
//! let mut net = MeshNetwork::new(NocConfig::paper());
//! net.inject(Packet::new(
//!     PacketId(1),
//!     NodeId::new(0),
//!     NodeId::new(63),
//!     MessageClass::Request,
//!     1,
//! ));
//! let delivered = net.run_to_drain(1_000);
//! assert_eq!(delivered.len(), 1);
//! println!("latency: {} cycles", delivered[0].delivered);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arbiter;
pub mod buffer;
pub mod cancel;
pub mod config;
pub mod credit;
pub mod digest;
pub mod faults;
pub mod flit;
pub mod ideal;
pub mod mesh;
pub mod network;
pub(crate) mod ni;
pub mod reliable;
pub mod reserve;
pub mod routing;
pub mod smart;
pub mod stats;
pub mod trace;
pub mod traffic;
pub mod types;
pub mod watchdog;
pub mod wcla;
pub mod zeroload;

pub use cancel::CancelToken;
pub use config::NocConfig;
pub use digest::{StateDigest, StateHasher};
pub use flit::{Flit, Packet};
pub use network::{Delivered, Network};
pub use reliable::{ReliabilityConfig, ReliableStats, RetrySemantics};
pub use types::{Cycle, MessageClass, NodeId, PacketId};
