//! Network organisations and the one handle that builds and drives any
//! of them.
//!
//! Both the sweep runner and the figure binaries name networks by
//! [`Organization`] and build them with [`AnyNetwork::new`] (`bench`
//! re-exports both).

use noc::cancel::CancelToken;
use noc::config::NocConfig;
use noc::flit::Packet;
use noc::ideal::IdealNetwork;
use noc::mesh::MeshNetwork;
use noc::network::{Delivered, Network};
use noc::reliable::ReliableStats;
use noc::smart::SmartNetwork;
use noc::stats::NetStats;
use noc::types::Cycle;
use noc::watchdog::AuditReport;
use pra::frfc::FrfcNetwork;
use pra::network::PraNetwork;

/// The network organisations of the evaluation (the paper's four, plus
/// flit-reservation flow control as the closest-prior-work baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Organization {
    /// Baseline mesh (1-stage speculative pipeline).
    Mesh,
    /// SMART single-cycle multi-hop network.
    Smart,
    /// The paper's proposal: mesh + proactive resource allocation.
    MeshPra,
    /// Hypothetical zero-router-delay network.
    Ideal,
    /// Flit-reservation flow control (Peh & Dally, HPCA 2000).
    Frfc,
}

impl Organization {
    /// All four, in the paper's figure order.
    pub const ALL: [Organization; 4] = [
        Organization::Mesh,
        Organization::Smart,
        Organization::MeshPra,
        Organization::Ideal,
    ];

    /// Figure label.
    pub fn name(self) -> &'static str {
        match self {
            Organization::Mesh => "Mesh",
            Organization::Smart => "SMART",
            Organization::MeshPra => "Mesh+PRA",
            Organization::Ideal => "Ideal",
            Organization::Frfc => "Mesh+FRFC",
        }
    }

    /// Stable machine-readable key (sweep specs and result rows).
    pub fn key(self) -> &'static str {
        match self {
            Organization::Mesh => "mesh",
            Organization::Smart => "smart",
            Organization::MeshPra => "mesh_pra",
            Organization::Ideal => "ideal",
            Organization::Frfc => "frfc",
        }
    }

    /// Parses a [`Organization::key`] string (sweep specs).
    pub fn from_key(key: &str) -> Option<Organization> {
        match key {
            "mesh" => Some(Organization::Mesh),
            "smart" => Some(Organization::Smart),
            "mesh_pra" | "pra" => Some(Organization::MeshPra),
            "ideal" => Some(Organization::Ideal),
            "frfc" => Some(Organization::Frfc),
            _ => None,
        }
    }
}

/// The network of one [`Organization`], as a plain enum over the five
/// concrete types.
///
/// Every [`Network`] method is one `match` on the variant, then a direct
/// (inlinable) call into the concrete type. The discriminant never
/// changes after [`AnyNetwork::new`], so inside a driver loop the branch
/// is perfectly predicted; there is no heap indirection and no vtable.
/// Adding an organisation means one variant here, one arm in
/// [`AnyNetwork::new`] and one in the forwarding macro; every match is
/// exhaustive, so the compiler enforces all three.
#[derive(Debug)]
pub enum AnyNetwork {
    /// Baseline mesh.
    Mesh(MeshNetwork),
    /// SMART.
    Smart(SmartNetwork),
    /// Mesh + proactive resource allocation.
    MeshPra(PraNetwork),
    /// Zero-router-delay ideal network.
    Ideal(IdealNetwork),
    /// Flit-reservation flow control.
    Frfc(FrfcNetwork),
}

impl AnyNetwork {
    /// Builds the network of organisation `org` on `cfg`.
    pub fn new(org: Organization, cfg: NocConfig) -> AnyNetwork {
        match org {
            Organization::Mesh => AnyNetwork::Mesh(MeshNetwork::new(cfg)),
            Organization::Smart => AnyNetwork::Smart(SmartNetwork::new(cfg)),
            Organization::MeshPra => AnyNetwork::MeshPra(PraNetwork::new(cfg)),
            Organization::Ideal => AnyNetwork::Ideal(IdealNetwork::new(cfg)),
            Organization::Frfc => AnyNetwork::Frfc(FrfcNetwork::new(cfg)),
        }
    }
}

/// Forwards one call to whichever concrete network `$self` holds.
macro_rules! each {
    ($self:expr, $net:ident => $call:expr) => {
        match $self {
            AnyNetwork::Mesh($net) => $call,
            AnyNetwork::Smart($net) => $call,
            AnyNetwork::MeshPra($net) => $call,
            AnyNetwork::Ideal($net) => $call,
            AnyNetwork::Frfc($net) => $call,
        }
    };
}

impl Network for AnyNetwork {
    fn config(&self) -> &NocConfig {
        each!(self, n => n.config())
    }
    fn now(&self) -> Cycle {
        each!(self, n => n.now())
    }
    fn inject(&mut self, packet: Packet) {
        each!(self, n => n.inject(packet))
    }
    fn step(&mut self) {
        each!(self, n => n.step())
    }
    fn drain_delivered(&mut self) -> Vec<Delivered> {
        each!(self, n => n.drain_delivered())
    }
    fn drain_delivered_into(&mut self, out: &mut Vec<Delivered>) {
        each!(self, n => n.drain_delivered_into(out))
    }
    fn set_skip_ahead(&mut self, enabled: bool) {
        each!(self, n => n.set_skip_ahead(enabled))
    }
    fn in_flight(&self) -> usize {
        each!(self, n => n.in_flight())
    }
    fn stats(&self) -> &NetStats {
        each!(self, n => n.stats())
    }
    fn reset_stats(&mut self) {
        each!(self, n => n.reset_stats())
    }
    fn announce(&mut self, packet: &Packet, lead: u32) {
        each!(self, n => n.announce(packet, lead))
    }
    fn install_cancel(&mut self, token: CancelToken) {
        each!(self, n => n.install_cancel(token))
    }
    fn state_digest(&self) -> Option<u64> {
        each!(self, n => n.state_digest())
    }
    fn audit(&self) -> Option<AuditReport> {
        each!(self, n => n.audit())
    }
    fn reliable_stats(&self) -> Option<ReliableStats> {
        each!(self, n => n.reliable_stats())
    }
    #[cfg(feature = "obs")]
    fn install_obs(&mut self, sink: niobs::SharedSink) {
        each!(self, n => n.install_obs(sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip() {
        for org in [
            Organization::Mesh,
            Organization::Smart,
            Organization::MeshPra,
            Organization::Ideal,
            Organization::Frfc,
        ] {
            assert_eq!(Organization::from_key(org.key()), Some(org));
        }
        assert_eq!(Organization::from_key("warp"), None);
    }

    #[test]
    fn any_network_forwards_reset() {
        let mut net = AnyNetwork::new(Organization::Mesh, NocConfig::paper());
        net.inject(noc::flit::Packet::new(
            noc::types::PacketId(1),
            noc::types::NodeId::new(0),
            noc::types::NodeId::new(1),
            noc::types::MessageClass::Request,
            1,
        ));
        for _ in 0..10 {
            net.step();
        }
        net.drain_delivered();
        assert!(net.stats().delivered() > 0);
        net.reset_stats();
        assert_eq!(net.stats().delivered(), 0);
        assert_eq!(net.stats().injected(), 0);
    }
}
