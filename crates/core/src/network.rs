//! The reserving network: Mesh+PRA, the paper's proposal, and FRFC, its
//! closest prior work, over one shell.
//!
//! Both organisations drive the reserving mesh router core,
//! [`ReservingCore`] (Figure 4 of the paper), through [`HopPlan`]s. They differ only in how their control plane
//! books routers (Section VI): PRA's [`ControlNetwork`] (Figure 5) and
//! per-router LSD units book bounded multi-hop segments, FRFC's
//! [`Waves`] one hop per cycle. [`ReservingMesh`] is the shell they share
//! and implements [`Network`], so system models and benchmarks can swap
//! either in for any other organisation; a [`ControlPlane`] supplies what
//! differs. [`PraNetwork`] and [`FrfcNetwork`] name the two instances.
//!
//! The [`Network::announce`] hook is the LLC integration point: a slice
//! that knows at *tag-hit* time that a response will be ready once the
//! data lookup completes calls `announce(&packet, lead)`, and the control
//! plane launches a control packet timed so that the data packet rides a
//! pre-allocated path the moment it is injected.
//!
//! [`Waves`]: crate::frfc::Waves
//! [`FrfcNetwork`]: crate::frfc::FrfcNetwork

use noc::cancel::CancelToken;
use noc::config::NocConfig;
use noc::digest::{StateDigest, StateHasher};
use noc::flit::Packet;
use noc::network::{Delivered, Network};
use noc::reserve::{FlitSource, HopPlan, Landing, ReservingCore};
use noc::stats::NetStats;
use noc::types::{Cycle, MessageClass, NodeId, PacketId, Port};

use crate::control::{ControlConfig, ControlNetwork};
use crate::stats::PraStats;

/// An announced packet awaiting its control-plane launch.
#[derive(Debug, Clone, Copy)]
pub struct Announce {
    /// Router the data packet is injected at.
    pub src: NodeId,
    /// Destination of the data packet.
    pub dest: NodeId,
    /// The data packet.
    pub packet: PacketId,
    /// Message class of the data packet.
    pub class: MessageClass,
    /// Length of the data packet in flits.
    pub len: u8,
    /// Cycle at which the control plane launches at the source.
    pub launch_at: Cycle,
    /// Cycle at which the data's head flit can first use the source
    /// router's output port.
    pub due0: Cycle,
}

/// What a control plane adds to the shared [`ReservingMesh`]: how far
/// ahead of the data it may launch, the launch itself, its per-cycle work
/// and its statistics.
pub trait ControlPlane {
    /// The largest lead, in cycles, a launch may keep over the data; the
    /// shell delays the launch of a longer announce to stay within it.
    fn max_lag(&self) -> Cycle;

    /// Launches the control packet of `a` (due this cycle).
    fn launch(&mut self, mesh: &ReservingCore, a: &Announce);

    /// The plane's work for the coming cycle, `mesh.now() + 1`, before
    /// the mesh steps.
    fn step(&mut self, mesh: &mut ReservingCore);

    /// Control-plane statistics.
    fn stats(&self) -> &PraStats;

    /// Zeroes the statistics (measurement-window boundary).
    fn reset_stats(&mut self);

    /// Attaches an observability sink for control-plane events.
    fn set_obs(&mut self, _sink: niobs::SharedSink) {}

    /// The plane state the network's digest covers; `None` leaves the
    /// whole network undigested.
    fn digested(&self) -> Option<&dyn StateDigest> {
        None
    }
}

/// The paper's Mesh+PRA organisation.
///
/// # Examples
///
/// ```
/// use noc::config::NocConfig;
/// use noc::flit::Packet;
/// use noc::network::Network;
/// use noc::types::{MessageClass, NodeId, PacketId};
/// use pra::network::PraNetwork;
///
/// let mut net = PraNetwork::new(NocConfig::paper());
/// let p = Packet::new(
///     PacketId(1),
///     NodeId::new(0),
///     NodeId::new(6),
///     MessageClass::Response,
///     5,
/// );
/// // The LLC knows 4 cycles ahead of time that this response is coming.
/// net.announce(&p, 4);
/// for _ in 0..4 {
///     net.step();
/// }
/// net.inject(p);
/// let d = net.run_to_drain(100);
/// assert_eq!(d.len(), 1);
/// ```
pub type PraNetwork = ReservingMesh<ControlNetwork>;

/// A mesh whose reservation datapath is booked by the control plane `P`.
#[derive(Debug)]
pub struct ReservingMesh<P> {
    mesh: ReservingCore,
    plane: P,
    pending: Vec<Announce>,
    /// How many `pending` announces launch at a cycle congruent to each
    /// bucket index — derived state, excluded from the digest. A zero
    /// count for the coming cycle proves nothing launches, so the scan
    /// over `pending` runs only on cycles with a launch due.
    launches: Vec<u32>,
    cancel: CancelToken,
}

/// The booking of the ejection port at `dest` for a packet whose last
/// reserved hop is `last`. Both planes end a fully reserved path with it.
pub(crate) fn ejection_after(last: &HopPlan, dest: NodeId, reserve: u8) -> HopPlan {
    let in_dir = last
        .out_port
        .direction()
        .expect("a hop leaves through a mesh port");
    HopPlan {
        node: dest,
        out_port: Port::Local,
        start: last.start + 1,
        source: FlitSource::Vc {
            port: Port::Dir(in_dir.opposite()),
            vc: last.class.vc(),
        },
        landing: Landing::Vc(last.class.vc()),
        reserve,
        ..*last
    }
}

/// Buckets of [`ReservingMesh::launches`].
const LAUNCH_WHEEL: usize = 64;

fn launch_bucket(cycle: Cycle) -> usize {
    (cycle % LAUNCH_WHEEL as Cycle) as usize
}

impl PraNetwork {
    /// Builds a Mesh+PRA network with the paper's control configuration
    /// (max lag 4, both opportunity windows enabled).
    pub fn new(cfg: NocConfig) -> Self {
        Self::with_control(cfg, ControlConfig::default())
    }

    /// Builds a Mesh+PRA network with an explicit control configuration
    /// (ablation studies switch the opportunity windows individually).
    pub fn with_control(cfg: NocConfig, ctrl: ControlConfig) -> Self {
        ReservingMesh::with_plane(cfg.clone(), ControlNetwork::new(cfg, ctrl))
    }
}

impl<P: ControlPlane> ReservingMesh<P> {
    /// Builds the mesh of `cfg` under the control plane `plane`.
    pub(crate) fn with_plane(cfg: NocConfig, plane: P) -> Self {
        ReservingMesh {
            mesh: ReservingCore::new(cfg),
            plane,
            pending: Vec::new(),
            launches: vec![0; LAUNCH_WHEEL],
            cancel: CancelToken::new(),
        }
    }

    /// Control-plane statistics (Figure 7 and Section V.B).
    pub fn pra_stats(&self) -> &PraStats {
        self.plane.stats()
    }

    /// Read access to the underlying data network.
    pub fn mesh(&self) -> &ReservingCore {
        &self.mesh
    }

    // hot
    fn fire_pending(&mut self) {
        let t = self.mesh.now() + 1;
        if self.launches[launch_bucket(t)] == 0 {
            return;
        }
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].launch_at == t {
                let a = self.pending.swap_remove(i);
                self.launches[launch_bucket(t)] -= 1;
                self.plane.launch(&self.mesh, &a);
            } else {
                i += 1;
            }
        }
    }
}

impl<P: ControlPlane> Network for ReservingMesh<P> {
    fn config(&self) -> &NocConfig {
        self.mesh.config()
    }

    fn now(&self) -> Cycle {
        self.mesh.now()
    }

    fn inject(&mut self, packet: Packet) {
        self.mesh.inject(packet);
    }

    fn step(&mut self) {
        if self.cancel.is_cancelled() {
            // The mesh advances the clock and skips its own work too.
            self.mesh.step();
            return;
        }
        self.fire_pending();
        self.plane.step(&mut self.mesh);
        self.mesh.step();
    }

    fn drain_delivered(&mut self) -> Vec<Delivered> {
        self.mesh.drain_delivered()
    }

    fn drain_delivered_into(&mut self, out: &mut Vec<Delivered>) {
        self.mesh.drain_delivered_into(out);
    }

    // Safe to forward: all control-plane work (pending announces and the
    // plane's step) mutates the mesh *before* `mesh.step()` in
    // [`ReservingMesh::step`], through entry points that invalidate the
    // mesh's idle flag.
    fn set_skip_ahead(&mut self, enabled: bool) {
        self.mesh.set_skip_ahead(enabled);
    }

    fn in_flight(&self) -> usize {
        self.mesh.in_flight()
    }

    fn stats(&self) -> &NetStats {
        self.mesh.stats()
    }

    fn reset_stats(&mut self) {
        self.mesh.reset_stats();
        self.plane.reset_stats();
    }

    fn audit(&self) -> Option<noc::watchdog::AuditReport> {
        self.mesh.audit()
    }

    fn reliable_stats(&self) -> Option<noc::reliable::ReliableStats> {
        self.mesh.reliable_stats()
    }

    fn install_cancel(&mut self, token: CancelToken) {
        self.cancel = token.clone();
        self.mesh.install_cancel(token);
    }

    fn state_digest(&self) -> Option<u64> {
        let plane = self.plane.digested()?;
        let mut h = StateHasher::new();
        self.mesh.digest_state(&mut h);
        plane.digest_state(&mut h);
        h.write_usize(self.pending.len());
        for a in &self.pending {
            h.write_usize(a.src.index());
            h.write_usize(a.dest.index());
            h.write_u64(a.packet.0);
            h.write_usize(a.class.vc());
            h.write_u8(a.len);
            h.write_u64(a.launch_at);
            h.write_u64(a.due0);
        }
        Some(h.finish())
    }

    fn install_obs(&mut self, sink: niobs::SharedSink) {
        self.mesh.install_obs(sink.clone());
        self.plane.set_obs(sink);
    }

    /// The LLC window: `packet` will be injected after `lead` more cycles
    /// (the remaining data-lookup time). A lead longer than the plane's
    /// maximum lag delays the launch so the lag stays within range; a
    /// zero lead is useless and ignored.
    fn announce(&mut self, packet: &Packet, lead: u32) {
        if lead == 0 || packet.src == packet.dest {
            return;
        }
        let now = self.mesh.now();
        // The data head can first use the source router's port one cycle
        // after injection (source queue -> local VC during that cycle).
        let due0 = now + lead as Cycle + 1;
        let lag = (lead as Cycle).min(self.plane.max_lag());
        let launch_at = (due0 - lag).max(now + 1);
        self.launches[launch_bucket(launch_at)] += 1;
        self.pending.push(Announce {
            src: packet.src,
            dest: packet.dest,
            packet: packet.id,
            class: packet.class,
            len: packet.len_flits,
            launch_at,
            due0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc::zeroload::{mesh_latency, pra_best_latency};

    fn pkt(id: u64, src: u16, dest: u16, class: MessageClass, len: u8) -> Packet {
        Packet::new(
            PacketId(id),
            NodeId::new(src),
            NodeId::new(dest),
            class,
            len,
        )
    }

    /// Announce, wait `lead` cycles, inject — the LLC protocol.
    fn announced_run(net: &mut PraNetwork, p: Packet, lead: u32) -> Cycle {
        net.announce(&p, lead);
        for _ in 0..lead {
            net.step();
        }
        let p = p.at(net.now());
        net.inject(p);
        let d = net.run_to_drain(1_000);
        assert_eq!(d.len(), 1);
        d[0].delivered - d[0].packet.created
    }

    #[test]
    fn announced_response_rides_preallocated_path() {
        let cfg = NocConfig::paper();
        // 4 straight hops, lag 4: full pre-allocation.
        let mut net = PraNetwork::new(cfg.clone());
        let lat = announced_run(&mut net, pkt(1, 0, 4, MessageClass::Response, 5), 4);
        let best =
            pra_best_latency(&cfg, NodeId::new(0), NodeId::new(4), 5) - (net.now() - net.now()); // latency measured from injection
        assert_eq!(net.pra_stats().injected_llc, 1);
        assert_eq!(net.mesh().stats().wasted_reservations, 0);
        assert!(
            lat <= best,
            "pre-allocated latency {lat} must be at or under the analytic best {best}"
        );
        let mesh_lat = mesh_latency(&cfg, NodeId::new(0), NodeId::new(4), 5);
        assert!(
            lat < mesh_lat,
            "PRA {lat} must beat the plain mesh {mesh_lat}"
        );
    }

    #[test]
    fn long_route_gets_partial_preallocation() {
        let cfg = NocConfig::paper();
        let mut net = PraNetwork::new(cfg.clone());
        let lat = announced_run(&mut net, pkt(1, 0, 63, MessageClass::Response, 5), 4);
        let mesh_lat = mesh_latency(&cfg, NodeId::new(0), NodeId::new(63), 5);
        assert!(
            lat < mesh_lat,
            "partial PRA {lat} still beats mesh {mesh_lat}"
        );
        assert_eq!(net.mesh().stats().wasted_reservations, 0);
        assert!(net.pra_stats().hops_preallocated >= 4);
    }

    #[test]
    fn unannounced_traffic_behaves_like_mesh() {
        let cfg = NocConfig::paper();
        let mut net = PraNetwork::new(cfg.clone());
        net.inject(pkt(1, 0, 5, MessageClass::Request, 1));
        let d = net.run_to_drain(100);
        assert_eq!(
            d[0].delivered - d[0].packet.created,
            mesh_latency(&cfg, NodeId::new(0), NodeId::new(5), 1)
        );
    }

    #[test]
    fn turns_are_handled_on_preallocated_paths() {
        let cfg = NocConfig::paper();
        // 0 -> 18 = (2,2): two east, two south; lag 4 covers all 4 hops.
        let mut net = PraNetwork::new(cfg.clone());
        let lat = announced_run(&mut net, pkt(1, 0, 18, MessageClass::Response, 5), 4);
        assert_eq!(net.mesh().stats().wasted_reservations, 0);
        let mesh_lat = mesh_latency(&cfg, NodeId::new(0), NodeId::new(18), 5);
        assert!(
            lat < mesh_lat,
            "PRA {lat} must beat mesh {mesh_lat} across a turn"
        );
    }

    #[test]
    fn announce_with_zero_lead_is_ignored() {
        let mut net = PraNetwork::new(NocConfig::paper());
        let p = pkt(1, 0, 5, MessageClass::Response, 5);
        net.announce(&p, 0);
        net.inject(p);
        let d = net.run_to_drain(200);
        assert_eq!(d.len(), 1);
        assert_eq!(net.pra_stats().injected(), 0);
    }

    #[test]
    fn long_lead_is_deferred_not_dropped() {
        let cfg = NocConfig::paper();
        let mut net = PraNetwork::new(cfg.clone());
        let lat = announced_run(&mut net, pkt(1, 0, 4, MessageClass::Response, 5), 12);
        assert_eq!(net.pra_stats().injected_llc, 1);
        assert_eq!(net.mesh().stats().wasted_reservations, 0);
        let mesh_lat = mesh_latency(&cfg, NodeId::new(0), NodeId::new(4), 5);
        assert!(lat < mesh_lat);
    }

    #[test]
    fn random_server_traffic_with_announcements_all_delivered() {
        use nistats::rng::Rng;
        let cfg = NocConfig::paper();
        let mut net = PraNetwork::new(cfg);
        let mut rng = Rng::new(23);
        let mut queue: Vec<(u64, Packet)> = Vec::new(); // (inject_at, packet)
        let mut sent = 0u64;
        for cycle in 1..4_000u64 {
            if cycle < 2_500 && rng.gen_bool(0.25) {
                let src = rng.gen_range_u16(0, 64);
                let dest = (src + rng.gen_range_u16(1, 64)) % 64;
                sent += 1;
                if rng.gen_bool(0.5) {
                    // LLC-style announced response.
                    let p = pkt(sent, src, dest, MessageClass::Response, 5);
                    net.announce(&p, 4);
                    queue.push((cycle + 4, p));
                } else {
                    net.inject(pkt(sent, src, dest, MessageClass::Request, 1));
                }
            }
            let mut i = 0;
            while i < queue.len() {
                if queue[i].0 == cycle {
                    let (_, p) = queue.swap_remove(i);
                    let now = net.now();
                    net.inject(p.at(now));
                } else {
                    i += 1;
                }
            }
            net.step();
        }
        let mut delivered = net.drain_delivered().len() as u64;
        delivered += net.run_to_drain(50_000).len() as u64;
        assert_eq!(delivered, sent, "no packet may be lost under PRA");
        // The control plane was active and mostly effective.
        assert!(net.pra_stats().injected() > 0);
        let wasted = net.mesh().stats().wasted_reservations;
        let moves = net.mesh().stats().reserved_moves;
        assert!(
            wasted as f64 <= 0.2 * (moves.max(1) as f64),
            "waste {wasted} should be small next to {moves} forced moves"
        );
    }

    #[test]
    fn pra_beats_mesh_under_load() {
        use noc::traffic::{measure_latency, Pattern, TrafficGen};
        let cfg = NocConfig::paper();
        // Announced traffic is what PRA accelerates; this test uses the
        // generic generator (no announcements), so PRA should at least
        // never be slower than the mesh (LSD may still help).
        let mut mesh = noc::mesh::MeshNetwork::new(cfg.clone());
        let mut g1 = TrafficGen::new(cfg.clone(), Pattern::CoreToLlc, 0.03, 77);
        let base = measure_latency(&mut mesh, &mut g1, 500, 2_000);
        let mut pra = PraNetwork::new(cfg.clone());
        let mut g2 = TrafficGen::new(cfg, Pattern::CoreToLlc, 0.03, 77);
        let with_pra = measure_latency(&mut pra, &mut g2, 500, 2_000);
        assert!(
            with_pra <= base * 1.05,
            "PRA ({with_pra}) must not trail the mesh ({base})"
        );
    }
}
