//! # pra — Proactive Resource Allocation for server NoCs
//!
//! The primary contribution of *Near-Ideal Networks-on-Chip for Servers*
//! (HPCA 2017): eliminating per-hop resource-allocation time from a
//! single-cycle multi-hop mesh by allocating router resources to packets
//! **before** they need them, using two opportunity windows —
//!
//! 1. the LLC's serial tag/data lookup interval (a hit is known 4 cycles
//!    before the response data is ready), and
//! 2. in-network blocking time behind multi-flit transmissions whose end
//!    is exactly predictable (Long Stall Detection).
//!
//! The crate provides:
//!
//! * [`network`] — [`network::ReservingMesh`], the one shell (mesh,
//!   announce queue, [`noc::network::Network`] impl) of both reserving
//!   organisations, generic over its [`network::ControlPlane`];
//! * [`control`] — PRA's plane: the narrow bufferless control network of
//!   2-hop multi-drop segments (lag bookkeeping, ACK conversions,
//!   static-priority drops), making [`network::PraNetwork`] (Mesh+PRA);
//! * [`lsd`] — the Long Stall Detection scan, part of PRA's plane;
//! * [`frfc`] — flit-reservation flow control (Peh & Dally, HPCA 2000),
//!   the closest prior work: a one-hop-per-cycle wave plane, making
//!   [`frfc::FrfcNetwork`], a comparison organisation;
//! * [`stats`] — control-plane statistics (Figure 7, Section V.B).
//!
//! ## Quick start
//!
//! ```
//! use noc::config::NocConfig;
//! use noc::flit::Packet;
//! use noc::network::Network;
//! use noc::types::{MessageClass, NodeId, PacketId};
//! use pra::network::PraNetwork;
//!
//! let mut net = PraNetwork::new(NocConfig::paper());
//! let response = Packet::new(
//!     PacketId(1),
//!     NodeId::new(9),
//!     NodeId::new(0),
//!     MessageClass::Response,
//!     5,
//! );
//! net.announce(&response, 4); // LLC tag hit: data ready in 4 cycles
//! for _ in 0..4 {
//!     net.step();
//! }
//! net.inject(response);
//! let delivered = net.run_to_drain(1_000);
//! assert_eq!(delivered.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod control;
pub mod frfc;
pub mod lsd;
pub mod network;
pub mod schedule;
pub mod stats;

pub use control::{ControlConfig, ControlNetwork};
pub use frfc::FrfcNetwork;
pub use network::PraNetwork;
pub use stats::{ControlOrigin, DropReason, PraStats};
