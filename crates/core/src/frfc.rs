//! Flit-reservation flow control (FRFC) — the closest prior work.
//!
//! Peh & Dally (HPCA 2000): control flits race ahead of data on a faster
//! control network and reserve buffers and channel bandwidth for specific
//! future cycles, so data flits use resources without allocation stalls.
//! The paper differentiates PRA from FRFC on two axes (Section VI):
//!
//! * FRFC reserves **per flit** and does **not** support single-cycle
//!   multi-hop traversal (per-flit reservation would reorder flits on a
//!   multi-hop path) — reserved data still moves one hop per cycle;
//! * its control packets advance one hop per cycle, the same speed as the
//!   reserved data, so the lead never shrinks: FRFC can cover arbitrarily
//!   long paths, while PRA's lag budget bounds coverage at ~7 hops.
//!
//! This implementation is the [`Waves`] control plane of the shared
//! [`ReservingMesh`] shell, over the same reservation datapath as
//! [`PraNetwork`], with single-hop chunks: each reserved hop reads from
//! the local VC and lands in the next router's VC, eliminating the
//! allocation stage (1 cycle/hop instead of 2) but never bypassing a
//! router. Its lag is unbounded, so an announce launches its wave on the
//! next cycle and the wave stays `lead` cycles ahead of the data. Waves
//! book the *earliest available* slots (shifting by up to
//! [`FrfcNetwork::MAX_SHIFT`] cycles, with data waiting in buffers) —
//! FRFC's flit-granular flexibility.
//!
//! **Measured verdict** (see `figures frfc_compare` in `bench`): FRFC
//! excels for single-flit requests (~40% latency cut at server loads) but its
//! whole-route reservations serialize competing multi-flit responses —
//! five-slot exclusive port windows on every hop of every packet — so the
//! system-level gain nets out near zero, while PRA's bounded multi-hop
//! windows deliver. This is the quantitative form of the paper's Section
//! VI argument for not building on FRFC.
//!
//! [`PraNetwork`]: crate::network::PraNetwork

use noc::config::NocConfig;
use noc::network::Network as _;
use noc::reserve::{FlitSource, HopPlan, Landing, ReservingCore};
use noc::routing::{neighbor, Route};
use noc::types::{Cycle, MessageClass, NodeId, PacketId, Port};

use crate::network::{ejection_after, Announce, ControlPlane, ReservingMesh};
use crate::stats::{ControlOrigin, DropReason, PraStats};

/// An in-flight FRFC reservation wave: one position reserved per cycle.
#[derive(Debug)]
struct Wave {
    packet: PacketId,
    class: MessageClass,
    len: u8,
    route: Route,
    /// Next route position to reserve.
    pos: usize,
    /// Router at route position `pos`.
    node: NodeId,
    /// Earliest cycle the data's head flit can use the next position's
    /// output port (advances with each reserved hop, including any slot
    /// shifts absorbed in buffers).
    due_next: Cycle,
    /// Cycle this wave processes its next position.
    process_at: Cycle,
    /// Stopped reserving (an unresolvable conflict); the data continues
    /// reactively from wherever its reserved prefix ends.
    dead: bool,
}

/// The FRFC control plane: the in-flight reservation waves and their
/// statistics (reservations installed, waves dropped). Its state is not
/// digested.
#[derive(Debug, Default)]
pub struct Waves {
    waves: Vec<Wave>,
    stats: PraStats,
}

/// The mesh + flit-reservation flow control organisation.
///
/// # Examples
///
/// ```
/// use noc::config::NocConfig;
/// use noc::flit::Packet;
/// use noc::network::Network;
/// use noc::types::{MessageClass, NodeId, PacketId};
/// use pra::frfc::FrfcNetwork;
///
/// let mut net = FrfcNetwork::new(NocConfig::paper());
/// let p = Packet::new(PacketId(1), NodeId::new(0), NodeId::new(7),
///                     MessageClass::Response, 5);
/// net.announce(&p, 4);
/// for _ in 0..4 { net.step(); }
/// net.inject(p);
/// assert_eq!(net.run_to_drain(500).len(), 1);
/// ```
pub type FrfcNetwork = ReservingMesh<Waves>;

impl FrfcNetwork {
    /// Builds a mesh with FRFC reservation support.
    pub fn new(cfg: NocConfig) -> Self {
        ReservingMesh::with_plane(cfg, Waves::default())
    }

    /// How far a wave may shift a hop's reservation past its earliest
    /// possible cycle before giving up (the data waits the shift out in
    /// the hop's input buffer — FRFC's flit-granular flexibility).
    pub const MAX_SHIFT: Cycle = 6;
}

impl ControlPlane for Waves {
    /// FRFC control flits leave as soon as the transfer is known; with a
    /// lead of `l` cycles they stay `l` cycles ahead of the data the whole
    /// way (both move one hop per cycle).
    fn max_lag(&self) -> Cycle {
        Cycle::MAX
    }

    /// Starts the wave of `a`, unless the source NI's backlog makes the
    /// injection time unpredictable.
    // hot
    fn launch(&mut self, mesh: &ReservingCore, a: &Announce) {
        if mesh.source_backlog(a.src, a.class) != 0 {
            self.stats.refused_at_ni += 1;
            return;
        }
        let route = Route::compute(mesh.config(), a.src, a.dest);
        if route.hops() == 0 {
            return;
        }
        self.stats.record_injected(ControlOrigin::Llc);
        self.waves.push(Wave {
            packet: a.packet,
            class: a.class,
            len: a.len,
            route,
            pos: 0,
            node: a.src,
            due_next: a.due0,
            process_at: a.launch_at,
            dead: false,
        });
    }

    /// Advances every wave by one position (FRFC control flits move one
    /// hop per cycle, reserving the earliest available slots as they go).
    // hot
    fn step(&mut self, mesh: &mut ReservingCore) {
        let t = mesh.now() + 1;
        let mut retired = false;
        for w in &mut self.waves {
            if w.dead || w.process_at != t {
                continue;
            }
            let node = w.node;
            let dir = w.route.dir_at(w.pos).expect("position on route");
            let source = if w.pos == 0 {
                FlitSource::Vc {
                    port: Port::Local,
                    vc: w.class.vc(),
                }
            } else {
                let from = w.route.dir_at(w.pos - 1).expect("on route").opposite();
                FlitSource::Vc {
                    port: Port::Dir(from),
                    vc: w.class.vc(),
                }
            };
            // Earliest legal slot: not in the past, not before the data
            // can be there.
            let desired = w.due_next.max(t);
            let mut installed = None;
            for shift in 0..=FrfcNetwork::MAX_SHIFT {
                let start = desired + shift;
                // Data flits park in the input buffer while waiting for a
                // shifted slot; reserve that extra occupancy.
                // Bounded by `w.len`, itself a u8 flit count.
                let occupancy = u8::try_from((shift + 2).min(w.len as Cycle))
                    .expect("occupancy bounded by packet length");
                let plan = HopPlan {
                    node,
                    out_port: Port::Dir(dir),
                    start,
                    packet: w.packet,
                    len: w.len,
                    class: w.class,
                    source,
                    landing: Landing::Vc(w.class.vc()),
                    reserve: occupancy,
                };
                if mesh.install_hop(&plan).is_ok() {
                    installed = Some(plan);
                    break;
                }
            }
            let Some(plan) = installed else {
                w.dead = true;
                retired = true;
                self.stats.alloc_fail_kinds[0] += 1;
                self.stats.record_drop(DropReason::AllocationFailed, 0);
                continue;
            };
            self.stats.hops_preallocated += 1;
            self.stats.segments_processed += 1;
            w.pos += 1;
            w.node = neighbor(mesh.config(), node, dir).expect("route stays on the mesh");
            w.due_next = plan.start + 1;
            if w.pos >= w.route.hops() {
                // Reserve the ejection port too, then retire the wave.
                let eject = ejection_after(&plan, w.route.dest(), w.len.min(2));
                if mesh.install_hop(&eject).is_ok() {
                    self.stats.hops_preallocated += 1;
                }
                w.dead = true;
                retired = true;
                self.stats.record_drop(DropReason::Completed, 0);
            } else {
                w.process_at = t + 1;
            }
        }
        if retired {
            self.waves.retain(|w| !w.dead);
        }
    }

    fn stats(&self) -> &PraStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = PraStats::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc::flit::Packet;
    use noc::network::Network;
    use noc::zeroload::{mesh_latency, pra_best_latency};

    /// Analytic zero-load latency of a fully reserved FRFC transfer: one
    /// cycle of injection, one cycle per hop, serialization, and a direct
    /// pre-allocated ejection (delivered within the final slot cycle).
    fn frfc_latency(cfg: &NocConfig, src: NodeId, dest: NodeId, len_flits: u8) -> Cycle {
        let hops = cfg.coord(src).manhattan(cfg.coord(dest)) as Cycle;
        1 + hops + (len_flits as Cycle - 1)
    }

    fn pkt(id: u64, src: u16, dest: u16, class: MessageClass, len: u8) -> Packet {
        Packet::new(
            PacketId(id),
            NodeId::new(src),
            NodeId::new(dest),
            class,
            len,
        )
    }

    fn announced(net: &mut FrfcNetwork, p: Packet, lead: u32) -> Cycle {
        net.announce(&p, lead);
        for _ in 0..lead {
            net.step();
        }
        let p = p.at(net.now());
        net.inject(p);
        let d = net.run_to_drain(2_000);
        assert_eq!(d.len(), 1);
        d[0].delivered - d[0].packet.created
    }

    #[test]
    fn reserved_transfer_runs_one_cycle_per_hop() {
        let cfg = NocConfig::paper();
        for (s, d, len) in [(0u16, 5u16, 1u8), (0, 7, 1), (0, 63, 1), (0, 6, 5)] {
            let mut net = FrfcNetwork::new(cfg.clone());
            let lat = announced(&mut net, pkt(1, s, d, MessageClass::Response, len), 4);
            assert_eq!(
                lat,
                frfc_latency(&cfg, NodeId::new(s), NodeId::new(d), len),
                "{s}->{d} len {len}"
            );
            assert_eq!(net.mesh().stats().wasted_reservations, 0);
        }
    }

    #[test]
    fn frfc_covers_long_paths_pra_cannot() {
        // 14 hops: FRFC's constant lead reserves the whole path; PRA's lag
        // budget stops at 7.
        let cfg = NocConfig::paper();
        let mut net = FrfcNetwork::new(cfg.clone());
        let lat = announced(&mut net, pkt(1, 0, 63, MessageClass::Request, 1), 4);
        assert_eq!(lat, frfc_latency(&cfg, NodeId::new(0), NodeId::new(63), 1));
        // 1 + 14 = 15 vs mesh's 31.
        assert_eq!(lat, 15);
    }

    #[test]
    fn pra_beats_frfc_within_the_lag_budget() {
        // The paper's differentiation: on short paths PRA's single-cycle
        // multi-hop traversal halves FRFC's per-hop cycle; the analytic
        // PRA bound is looser than the measured path, so compare measured
        // against measured.
        let cfg = NocConfig::paper();
        for (s, d) in [(0u16, 4u16), (0, 6), (27, 30)] {
            let mut fnet = FrfcNetwork::new(cfg.clone());
            let frfc = announced(&mut fnet, pkt(1, s, d, MessageClass::Response, 5), 4);
            let mut pnet = crate::network::PraNetwork::new(cfg.clone());
            pnet.announce(&pkt(2, s, d, MessageClass::Response, 5), 4);
            for _ in 0..4 {
                pnet.step();
            }
            let now = pnet.now();
            pnet.inject(pkt(2, s, d, MessageClass::Response, 5).at(now));
            let dd = pnet.run_to_drain(2_000);
            let pra = dd[0].delivered - dd[0].packet.created;
            assert!(pra < frfc, "{s}->{d}: PRA {pra} !< FRFC {frfc}");
            let bound = pra_best_latency(&cfg, NodeId::new(s), NodeId::new(d), 5);
            assert!(pra <= bound, "{s}->{d}: PRA {pra} above its bound {bound}");
        }
    }

    #[test]
    fn unannounced_traffic_is_plain_mesh() {
        let cfg = NocConfig::paper();
        let mut net = FrfcNetwork::new(cfg.clone());
        net.inject(pkt(1, 0, 5, MessageClass::Request, 1));
        let d = net.run_to_drain(200);
        assert_eq!(
            d[0].delivered - d[0].packet.created,
            mesh_latency(&cfg, NodeId::new(0), NodeId::new(5), 1)
        );
    }

    #[test]
    fn conflicting_waves_fall_back_safely() {
        let cfg = NocConfig::paper();
        let mut net = FrfcNetwork::new(cfg);
        let a = pkt(1, 0, 7, MessageClass::Response, 5);
        let b = pkt(2, 1, 57, MessageClass::Response, 5);
        net.announce(&a, 4);
        net.announce(&b, 4);
        for _ in 0..4 {
            net.step();
        }
        let now = net.now();
        net.inject(a.at(now));
        net.inject(b.at(now));
        let d = net.run_to_drain(5_000);
        assert_eq!(d.len(), 2, "conflicts never lose packets");
    }

    #[test]
    fn mistimed_injection_wastes_but_delivers() {
        let cfg = NocConfig::paper();
        let mut net = FrfcNetwork::new(cfg);
        let p = pkt(1, 0, 6, MessageClass::Response, 5);
        net.announce(&p, 4);
        for _ in 0..9 {
            net.step();
        }
        let now = net.now();
        net.inject(p.at(now));
        let d = net.run_to_drain(2_000);
        assert_eq!(d.len(), 1);
        assert!(net.mesh().stats().wasted_reservations > 0);
    }
}
