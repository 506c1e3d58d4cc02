//! The ideal (zero-router-delay) network.
//!
//! The paper's upper bound: "a hypothetical network-on-chip with router
//! delay of zero cycles. For the ideal network-on-chip, only wire delays
//! are considered. A header flit can pass over up to two hops in a single
//! cycle if the required crossbars and links are free. Body flits follow
//! the header flit in subsequent cycles. While router delay is zero,
//! packets may get blocked in a router due to contention."
//!
//! Accordingly this model keeps buffering (per input port and class, like
//! the realistic routers — per-port buffering preserves XY's
//! channel-dependency acyclicity), link contention (one flit per link per
//! cycle) and serialization — but spends **no** cycles on allocation:
//! every flit moves toward its destination every cycle, up to
//! [`NocConfig::max_hops_per_cycle`] hops, oldest packet first.

use crate::buffer::{vc_lane, FlitStore};
use crate::cancel::CancelToken;
use crate::config::NocConfig;
use crate::digest::{StateDigest, StateHasher};
use crate::flit::{Flit, Packet};
use crate::mesh::{nonzero_word, ones};
use crate::network::{Delivered, DeliveryLedger, Network, Reassembly, SourceQueues};
use crate::routing::{neighbor, route_port};
use crate::stats::NetStats;
use crate::types::{Cycle, Direction, NodeId, Port};

/// The ideal zero-router-latency network.
///
/// # Examples
///
/// ```
/// use noc::config::NocConfig;
/// use noc::flit::Packet;
/// use noc::ideal::IdealNetwork;
/// use noc::network::Network;
/// use noc::types::{MessageClass, NodeId, PacketId};
///
/// let mut net = IdealNetwork::new(NocConfig::paper());
/// net.inject(Packet::new(
///     PacketId(1),
///     NodeId::new(0),
///     NodeId::new(63),
///     MessageClass::Request,
///     1,
/// ));
/// let d = net.run_to_drain(100);
/// // 14 hops at 2 hops/cycle: far faster than the mesh's 2 cycles/hop.
/// assert!(d[0].delivered < 12);
/// ```
#[derive(Debug)]
pub struct IdealNetwork {
    cfg: NocConfig,
    now: Cycle,
    /// The input buffers, one lane per `(node, in_port, class)` (see
    /// [`vc_lane`]).
    buffers: FlitStore,
    sources: Vec<SourceQueues>,
    reasm: Vec<Reassembly>,
    ledger: DeliveryLedger,
    /// Flits that finished their wire traversal this cycle, buffered at the
    /// start of the next (end-of-cycle latching): `(node, in_port, class,
    /// flit)`.
    arrivals: Vec<(usize, usize, usize, Flit)>,
    /// Exact activity counters: flits held in each node's input buffers
    /// and in its NI source queues. A node whose count is zero has no
    /// front to move and nothing to inject, so the phases skip it.
    buffered: Vec<usize>,
    src_pending: Vec<usize>,
    /// Working buffers of [`IdealNetwork::advance_flits`], reused every
    /// cycle. Empty between steps, so excluded from the digest.
    scratch: AdvanceScratch,
    stats: NetStats,
    cancel: CancelToken,
}

/// Reusable per-cycle working state of [`IdealNetwork::advance_flits`].
#[derive(Debug, Default)]
struct AdvanceScratch {
    /// Candidate fronts `(created, packet, seq, node, port, class)`.
    candidates: Vec<(Cycle, u64, u8, usize, usize, usize)>,
    /// `link_busy[node * 4 + dir]`: the link carried a flit this cycle.
    link_busy: Vec<bool>,
    /// Arrivals staged this cycle per `(node, in_port, class)` buffer:
    /// count and the last staged flit, so same-cycle landings respect
    /// capacity and packet contiguity.
    staged: Vec<Option<(usize, Flit)>>,
    /// Indices of `staged` entries touched this cycle, to reset them.
    staged_touched: Vec<usize>,
    /// The hop plan of the flit being moved.
    path: Vec<(usize, Direction)>,
}

impl IdealNetwork {
    /// Builds an ideal network for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`NocConfig::validate`].
    pub fn new(cfg: NocConfig) -> Self {
        cfg.validate().expect("invalid NoC configuration");
        let n = cfg.nodes();
        IdealNetwork {
            buffers: FlitStore::new(n * Port::COUNT * cfg.vcs_per_port, cfg.vc_depth),
            sources: (0..n).map(|_| SourceQueues::new()).collect(),
            reasm: (0..n).map(|_| Reassembly::new()).collect(),
            ledger: DeliveryLedger::new(),
            arrivals: Vec::new(),
            buffered: vec![0; n],
            src_pending: vec![0; n],
            scratch: AdvanceScratch {
                link_busy: vec![false; n * 4],
                staged: vec![None; n * Port::COUNT * cfg.vcs_per_port],
                ..AdvanceScratch::default()
            },
            stats: NetStats::new(),
            cancel: CancelToken::new(),
            cfg,
            now: 0,
        }
    }

    /// The lane of `(node, port, class)` in `buffers`.
    // hot
    #[inline(always)]
    fn lane(&self, node: usize, port: usize, class: usize) -> usize {
        vc_lane(self.cfg.vcs_per_port, node, port, class)
    }

    // hot
    fn deliver_arrivals(&mut self) {
        let mut arrivals = std::mem::take(&mut self.arrivals);
        for (node, port, class, flit) in arrivals.drain(..) {
            if flit.dest.index() == node {
                if let Some(head) = self.reasm[node].accept(flit) {
                    let hops = self
                        .cfg
                        .coord(head.src)
                        .manhattan(self.cfg.coord(head.dest));
                    self.ledger.complete(head, self.now, hops, &mut self.stats);
                }
            } else {
                self.buffers
                    .push(self.lane(node, port, class), flit)
                    .unwrap_or_else(|e| panic!("ideal arrival invariant violated: {e}"));
                self.buffered[node] += 1;
            }
        }
        self.arrivals = arrivals;
    }

    // hot
    fn inject_from_sources(&mut self) {
        for w in 0..self.src_pending.len().div_ceil(64) {
            for node in ones(nonzero_word(&self.src_pending, w)).map(|b| w * 64 + b) {
                for class in 0..self.cfg.vcs_per_port {
                    let Some(front) = self.sources[node].queues[class].front() else {
                        continue;
                    };
                    let lane = self.lane(node, Port::Local.index(), class);
                    if self.buffers.free(lane) == 0 || !self.buffers.follows(lane, front) {
                        continue;
                    }
                    let mut flit = *front;
                    flit.injected = self.now;
                    self.sources[node].queues[class].pop_front();
                    self.buffers
                        .push(lane, flit)
                        .expect("space and contiguity checked");
                    self.src_pending[node] -= 1;
                    self.buffered[node] += 1;
                }
            }
        }
    }

    /// Moves every front flit up to `max_hops_per_cycle` hops, oldest
    /// packet first, subject to link availability and buffer space.
    // hot
    fn advance_flits(&mut self) {
        let mut s = std::mem::take(&mut self.scratch);
        // Candidate fronts, sorted by age for deterministic oldest-first
        // service (ideal arbitration).
        for w in 0..self.buffered.len().div_ceil(64) {
            for node in ones(nonzero_word(&self.buffered, w)).map(|b| w * 64 + b) {
                for port in 0..Port::COUNT {
                    for class in 0..self.cfg.vcs_per_port {
                        if let Some(f) = self.buffers.front(self.lane(node, port, class)) {
                            s.candidates
                                .push((f.created, f.packet.0, f.seq, node, port, class));
                        }
                    }
                }
            }
        }
        s.candidates.sort_unstable();

        // One flit per link per cycle; links are identified by
        // (node, direction). One buffer read per (node, class) per cycle is
        // implicit (only the front flit is considered).
        let busy_idx = |node: usize, d: Direction| node * 4 + d as usize;

        for &(_, _, _, node, port, class) in &s.candidates {
            let from = self.lane(node, port, class);
            let Some(&flit) = self.buffers.front(from) else {
                continue;
            };
            let here = NodeId::new(node as u16);
            if flit.dest == here {
                // Loopback (e.g. a core accessing its own LLC slice):
                // eject straight into the local NI.
                let flit = self.buffers.pop(from).expect("front checked");
                self.buffered[node] -= 1;
                self.stats.local_grants += 1;
                self.arrivals.push((node, port, class, flit));
                continue;
            }

            // Plan up to max_hops_per_cycle hops along the XY route,
            // stopping early at busy links, occupied pass-through routers,
            // or the destination.
            let path = &mut s.path;
            path.clear();
            let mut at = here;
            while path.len() < usize::from(self.cfg.max_hops_per_cycle) {
                let port = route_port(&self.cfg, at, flit.dest);
                let Some(dir) = port.direction() else {
                    break; // at the destination
                };
                if s.link_busy[busy_idx(at.index(), dir)] {
                    break;
                }
                if at != here {
                    // Passing through `at`: the buffer this flit would
                    // otherwise land in must be empty, or it would
                    // overtake queued traffic of its own class.
                    let in_port = incoming_port(path);
                    if !self.buffers.is_empty(self.lane(at.index(), in_port, class)) {
                        break;
                    }
                }
                let next = neighbor(&self.cfg, at, dir).expect("route stays on mesh");
                path.push((at.index(), dir));
                at = next;
                if next == flit.dest {
                    break;
                }
            }
            // Shorten until the landing point can accept the flit,
            // accounting for arrivals already staged there this cycle.
            while let Some(&(n0, d0)) = path.last() {
                let landing = neighbor(&self.cfg, NodeId::new(n0 as u16), d0).expect("on mesh");
                if landing == flit.dest {
                    break;
                }
                let k = self.lane(landing.index(), Port::Dir(d0.opposite()).index(), class);
                let (staged_n, follow_ok) = match s.staged[k] {
                    Some((n, last)) => (
                        n,
                        last.is_tail() || (last.packet == flit.packet && flit.seq == last.seq + 1),
                    ),
                    None => (0, self.buffers.follows(k, &flit)),
                };
                if self.buffers.free(k) > staged_n && follow_ok {
                    break;
                }
                path.pop();
            }
            let Some(&(n_last, d_last)) = path.last() else {
                continue;
            };
            let landing = neighbor(&self.cfg, NodeId::new(n_last as u16), d_last).expect("on mesh");
            let land_port = Port::Dir(d_last.opposite()).index();
            // Commit: claim links, move the flit.
            for &(n, d) in path.iter() {
                s.link_busy[busy_idx(n, d)] = true;
                self.stats.link_traversals += 1;
            }
            let flit = self.buffers.pop(from).expect("front checked above");
            self.buffered[node] -= 1;
            self.stats.local_grants += 1;
            if landing != flit.dest {
                let k = self.lane(landing.index(), land_port, class);
                let staged_n = match s.staged[k] {
                    Some((n, _)) => n,
                    None => {
                        s.staged_touched.push(k);
                        0
                    }
                };
                s.staged[k] = Some((staged_n + 1, flit));
            }
            self.arrivals
                .push((landing.index(), land_port, class, flit));
        }

        s.candidates.clear();
        s.link_busy.fill(false);
        for k in s.staged_touched.drain(..) {
            s.staged[k] = None;
        }
        self.scratch = s;
    }

    /// Debug-build check that the activity counters are exact: each
    /// node's `buffered` count equals the flits in its input buffers and
    /// its `src_pending` count the flits in its NI source queues.
    #[cfg(debug_assertions)]
    fn assert_activity_counters(&self) {
        for n in 0..self.cfg.nodes() {
            let held = self
                .buffers
                .buffered(crate::buffer::router_lanes(self.cfg.vcs_per_port, n));
            debug_assert_eq!(self.buffered[n], held, "buffered[{n}] out of step");
            let queued: usize = self.sources[n].queues.iter().map(|q| q.len()).sum();
            debug_assert_eq!(self.src_pending[n], queued, "src_pending[{n}] out of step");
        }
    }
}

/// The input-port index a flit arriving over the last link of `path`
/// lands on.
fn incoming_port(path: &[(usize, Direction)]) -> usize {
    let (_, d) = *path.last().expect("nonempty path");
    Port::Dir(d.opposite()).index()
}

impl Network for IdealNetwork {
    fn config(&self) -> &NocConfig {
        &self.cfg
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn inject(&mut self, packet: Packet) {
        let mut packet = packet;
        if packet.created == 0 {
            packet.created = self.now;
        }
        self.stats.record_injected(packet.class);
        self.ledger.register(packet);
        self.src_pending[packet.src.index()] += usize::from(packet.len_flits);
        self.sources[packet.src.index()].enqueue_packet(&packet);
    }

    // hot
    fn step(&mut self) {
        self.now += 1;
        self.stats.cycles += 1;
        if self.cancel.is_cancelled() {
            return; // the clock advanced; bounded loops still terminate
        }
        self.deliver_arrivals();
        self.inject_from_sources();
        self.advance_flits();
        #[cfg(debug_assertions)]
        self.assert_activity_counters();
    }

    fn drain_delivered(&mut self) -> Vec<Delivered> {
        self.ledger.drain()
    }

    fn drain_delivered_into(&mut self, out: &mut Vec<Delivered>) {
        self.ledger.drain_into(out);
    }

    fn in_flight(&self) -> usize {
        self.ledger.in_flight()
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn install_cancel(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    fn state_digest(&self) -> Option<u64> {
        let mut h = StateHasher::new();
        self.digest_state(&mut h);
        Some(h.finish())
    }
}

impl StateDigest for IdealNetwork {
    fn digest_state(&self, h: &mut StateHasher) {
        h.write_u64(self.now);
        for lane in 0..self.buffers.lanes() {
            self.buffers.digest_lane(lane, h);
        }
        for src in &self.sources {
            src.digest_state(h);
        }
        for reasm in &self.reasm {
            reasm.digest_state(h);
        }
        self.ledger.digest_state(h);
        h.write_usize(self.arrivals.len());
        for &(node, port, class, flit) in &self.arrivals {
            h.write_usize(node);
            h.write_usize(port);
            h.write_usize(class);
            flit.digest_state(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{MessageClass, PacketId};

    fn net() -> IdealNetwork {
        IdealNetwork::new(NocConfig::paper())
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

    #[test]
    fn zero_load_two_hops_per_cycle() {
        let mut lat = Vec::new();
        for dest in [1u16, 2, 4, 6] {
            let mut n = net();
            n.inject(pkt(1, 0, dest, MessageClass::Request, 1));
            let d = n.run_to_drain(100);
            lat.push(d[0].delivered - d[0].packet.created);
        }
        // Injection (1 cycle) + ceil(hops / 2) wire cycles.
        assert_eq!(lat, vec![2, 2, 3, 4]);
    }

    #[test]
    fn much_faster_than_mesh_on_long_paths() {
        let mut n = net();
        n.inject(pkt(1, 0, 63, MessageClass::Request, 1));
        let d = n.run_to_drain(100);
        let lat = d[0].delivered - d[0].packet.created;
        // 14 hops at 2 hops/cycle ≈ 8 cycles; the mesh takes 31.
        assert!(lat <= 9, "ideal latency {lat} too high");
    }

    #[test]
    fn multi_flit_serialization_still_applies() {
        let mut a = net();
        a.inject(pkt(1, 0, 7, MessageClass::Response, 1));
        let da = a.run_to_drain(100);
        let mut b = net();
        b.inject(pkt(1, 0, 7, MessageClass::Response, 5));
        let db = b.run_to_drain(100);
        let one = da[0].delivered - da[0].packet.created;
        let five = db[0].delivered - db[0].packet.created;
        assert_eq!(five - one, 4, "four extra serialization cycles");
    }

    #[test]
    fn all_random_packets_delivered() {
        use nistats::rng::Rng;
        let mut rng = Rng::new(11);
        let mut n = net();
        let mut sent = 0u64;
        for cycle in 0..2_000u64 {
            if cycle < 1_000 && rng.gen_bool(0.4) {
                let src = rng.gen_range_u16(0, 64);
                let mut dest = rng.gen_range_u16(0, 64);
                if dest == src {
                    dest = (dest + 1) % 64;
                }
                let class = match rng.gen_range_u8(0, 3) {
                    0 => MessageClass::Request,
                    1 => MessageClass::Coherence,
                    _ => MessageClass::Response,
                };
                let len = if class == MessageClass::Response {
                    5
                } else {
                    1
                };
                sent += 1;
                n.inject(pkt(sent, src, dest, class, len));
            }
            n.step();
        }
        let mut delivered = n.drain_delivered().len() as u64;
        delivered += n.run_to_drain(10_000).len() as u64;
        assert_eq!(delivered, sent);
    }

    #[test]
    fn contention_is_still_modeled() {
        // Many packets to one destination must serialize on the final link.
        let mut n = net();
        for i in 0..16u64 {
            n.inject(pkt(i + 1, (i % 8) as u16 * 8, 63, MessageClass::Request, 1));
        }
        let d = n.run_to_drain(10_000);
        assert_eq!(d.len(), 16);
        let last = d.iter().map(|x| x.delivered).max().unwrap();
        assert!(
            last >= 8,
            "16 single-flit packets over shared links take time"
        );
    }

    #[test]
    fn ideal_beats_mesh_on_average_latency() {
        use crate::mesh::MeshNetwork;
        use nistats::rng::Rng;
        let mut lat = Vec::new();
        for ideal in [false, true] {
            let mut rng = Rng::new(3);
            let mut n: Box<dyn Network> = if ideal {
                Box::new(IdealNetwork::new(NocConfig::paper()))
            } else {
                Box::new(MeshNetwork::new(NocConfig::paper()))
            };
            let mut sent = 0;
            for cycle in 0..3_000u64 {
                if cycle < 2_000 && rng.gen_bool(0.2) {
                    let src = rng.gen_range_u16(0, 64);
                    let dest = (src + rng.gen_range_u16(1, 64)) % 64;
                    sent += 1;
                    let class = if sent % 2 == 0 {
                        MessageClass::Request
                    } else {
                        MessageClass::Response
                    };
                    let len = if class == MessageClass::Response {
                        5
                    } else {
                        1
                    };
                    n.inject(pkt(sent, src, dest, class, len));
                }
                n.step();
                n.drain_delivered();
            }
            lat.push(n.stats().avg_latency());
        }
        assert!(
            lat[1] < lat[0] * 0.55,
            "ideal ({}) should be far below mesh ({})",
            lat[1],
            lat[0]
        );
    }

    /// Busy paths the benchmark does not reach (see
    /// [`crate::traffic::assert_busy_pins`]). The pins were recorded
    /// before the step loop gained its activity counters and scratch
    /// reuse.
    #[test]
    fn busy_paths_match_pinned_fingerprints() {
        crate::traffic::assert_busy_pins(
            IdealNetwork::new,
            |_, _| {},
            [
                (2559, 15434998910776717908),
                (297, 16494255736890123369),
                (5716, 4348967998049097892),
                (378, 15128530651851071632),
            ],
        );
    }
}
