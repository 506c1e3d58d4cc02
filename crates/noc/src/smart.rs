//! The SMART single-cycle multi-hop network.
//!
//! SMART (Krishna et al., HPCA 2013) lets a flit traverse several hops in
//! one clock cycle over repeated wires, at the cost of an extra pipeline
//! stage that broadcasts a *SMART-hop setup request* (SSR) over a
//! dedicated multi-drop network. Per Table I of the paper: a SMART hop is
//! a two-stage router pipeline (RC/VA/SSA, then multi-tile link
//! allocation) followed by a single-cycle link traversal covering up to
//! two tiles — **three cycles per router traversal at zero load**, each
//! covering up to [`NocConfig::max_hops_per_cycle`] tiles.
//!
//! The paper's server-class wire budget (fat tiles, 2 GHz) caps the
//! traversal at two tiles, which is exactly why SMART barely beats the
//! mesh there (Figure 2): it saves one cycle per bypassed router but pays
//! one cycle of setup per traversal.
//!
//! # Modelling notes
//!
//! * Buffers are per input port and class, exactly as in the mesh model;
//!   whole-packet buffer reservation at the landing router stands in for
//!   SMART's "stop-anywhere" buffer guarantee. (Per-port buffering also
//!   preserves XY's channel-dependency acyclicity, which whole-packet
//!   reservation needs for deadlock freedom.)
//! * Bypass paths hold their links for the packet duration; local flits
//!   wanting a held link wait (SMART's `Prio=Local` applies at SSR time:
//!   an establishment never extends through a router whose local traffic
//!   already claimed the link).
//! * Multi-hop bypass is straight-line only (SMART-1D), matching the
//!   control-segment restriction of the paper's PRA network.

use crate::arbiter::RoundRobin;
use crate::buffer::{vc_lane, FlitStore};
use crate::cancel::CancelToken;
use crate::config::NocConfig;
use crate::flit::{Flit, Packet};
use crate::mesh::{nonzero_word, ones};
use crate::network::{Delivered, DeliveryLedger, Network, Reassembly, SourceQueues};
use crate::routing::{neighbor, route_port};
use crate::stats::NetStats;
use crate::types::{Cycle, Direction, NodeId, PacketId, Port};

/// Per-(node, port, class) buffer bookkeeping beside its FIFO lane.
#[derive(Debug, Clone, Default)]
struct BufState {
    /// Slots promised to in-flight transfers landing here.
    reserved: u8,
    /// Multi-flit packet currently streaming into this buffer.
    owner: Option<PacketId>,
    /// A transfer or pipeline stage is already working on this buffer's
    /// front packet.
    busy: bool,
}

/// An SSR awaiting processing (SA won in the previous cycle).
#[derive(Debug, Clone, Copy)]
struct SsrRequest {
    node: usize,
    port: usize,
    class: usize,
    packet: PacketId,
    len: u8,
    dest: NodeId,
    dir: Direction,
}

/// An established multi-hop path streaming one flit per cycle.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    node: usize,
    port: usize,
    class: usize,
    packet: PacketId,
    next_seq: u8,
    remaining: u8,
    /// The straight run of links held for the duration of the transfer:
    /// `hops` links leaving `node` in direction `dir` (SMART-1D paths
    /// never turn). `None` for an ejection into the local NI.
    path: Option<(Direction, u8)>,
    /// Landing `(node, input port)`.
    landing: (usize, usize),
}

/// Index of the link leaving `node` in direction `dir` in
/// [`SmartNetwork::held`].
fn link_index(node: usize, dir: Direction) -> usize {
    node * 4 + dir as usize
}

/// The node `hops` straight steps from `from` in direction `dir`.
fn straight_from(cfg: &NocConfig, from: usize, dir: Direction, hops: usize) -> usize {
    let mut at = NodeId::new(from as u16);
    for _ in 0..hops {
        at = neighbor(cfg, at, dir).expect("straight path stays on the mesh");
    }
    at.index()
}

/// Marks the `hops` links of the straight path leaving `from` in
/// direction `dir` as held (`value == true`) or released.
fn mark_path(
    held: &mut [bool],
    cfg: &NocConfig,
    from: usize,
    dir: Direction,
    hops: u8,
    value: bool,
) {
    let mut at = from;
    for _ in 0..hops {
        held[link_index(at, dir)] = value;
        at = straight_from(cfg, at, dir, 1);
    }
}

/// The SMART network.
///
/// # Examples
///
/// ```
/// use noc::config::NocConfig;
/// use noc::flit::Packet;
/// use noc::network::Network;
/// use noc::smart::SmartNetwork;
/// use noc::types::{MessageClass, NodeId, PacketId};
///
/// let mut net = SmartNetwork::new(NocConfig::paper());
/// net.inject(Packet::new(
///     PacketId(1),
///     NodeId::new(0),
///     NodeId::new(7),
///     MessageClass::Request,
///     1,
/// ));
/// let d = net.run_to_drain(100);
/// assert_eq!(d.len(), 1);
/// ```
#[derive(Debug)]
pub struct SmartNetwork {
    cfg: NocConfig,
    now: Cycle,
    /// The input buffers, one lane per `(node, port, class)` (see
    /// [`vc_lane`]; port = input side, `Port::Local` holds freshly
    /// injected flits).
    fifos: FlitStore,
    /// Each lane's reservations, owner and busy flag.
    bufs: Vec<BufState>,
    sources: Vec<SourceQueues>,
    reasm: Vec<Reassembly>,
    ledger: DeliveryLedger,
    ssr_stage: Vec<SsrRequest>,
    transfers: Vec<Transfer>,
    arrivals: Vec<(usize, usize, usize, Flit, bool)>,
    sa_rr: Vec<RoundRobin>,
    /// Exact activity counters: flits held in each node's input buffers
    /// and in its NI source queues. A node whose count is zero has no
    /// fronts to bid with and nothing to inject, so the phases skip it
    /// without changing any grant.
    buffered: Vec<usize>,
    src_pending: Vec<usize>,
    /// `held[link_index(node, dir)]`: the link is part of an established
    /// transfer's path. Set when the path is set up, cleared when the
    /// transfer completes; paths never share a link.
    held: Vec<bool>,
    /// Switch-allocation request mask of one node, `Port::COUNT` rows of
    /// `Port::COUNT * vcs_per_port` slots, reused every cycle.
    want: Vec<bool>,
    /// Indices of transfers completing this cycle, reused every cycle.
    done: Vec<usize>,
    stats: NetStats,
    cancel: CancelToken,
}

impl SmartNetwork {
    /// Builds a SMART network for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`NocConfig::validate`].
    pub fn new(cfg: NocConfig) -> Self {
        cfg.validate().expect("invalid NoC configuration");
        let n = cfg.nodes();
        let slots = Port::COUNT * cfg.vcs_per_port;
        SmartNetwork {
            fifos: FlitStore::new(n * slots, cfg.vc_depth),
            bufs: vec![BufState::default(); n * slots],
            sources: (0..n).map(|_| SourceQueues::new()).collect(),
            reasm: (0..n).map(|_| Reassembly::new()).collect(),
            ledger: DeliveryLedger::new(),
            ssr_stage: Vec::new(),
            transfers: Vec::new(),
            arrivals: Vec::new(),
            sa_rr: (0..n * 5).map(|_| RoundRobin::new(slots)).collect(),
            buffered: vec![0; n],
            src_pending: vec![0; n],
            held: vec![false; n * 4],
            want: vec![false; Port::COUNT * slots],
            done: Vec::new(),
            stats: NetStats::new(),
            cancel: CancelToken::new(),
            cfg,
            now: 0,
        }
    }

    /// The lane of `(node, port, class)` in `fifos` and `bufs`.
    // hot
    #[inline(always)]
    fn lane(&self, node: usize, port: usize, class: usize) -> usize {
        vc_lane(self.cfg.vcs_per_port, node, port, class)
    }

    // hot
    fn deliver_arrivals(&mut self) {
        let mut arrivals = std::mem::take(&mut self.arrivals);
        for (node, port, class, flit, eject) in arrivals.drain(..) {
            if eject {
                if let Some(head) = self.reasm[node].accept(flit) {
                    let hops = self
                        .cfg
                        .coord(head.src)
                        .manhattan(self.cfg.coord(head.dest));
                    self.ledger.complete(head, self.now, hops, &mut self.stats);
                }
            } else {
                let lane = self.lane(node, port, class);
                let buf = &mut self.bufs[lane];
                buf.reserved = buf.reserved.saturating_sub(1);
                self.fifos
                    .push(lane, flit)
                    .unwrap_or_else(|e| panic!("SMART arrival invariant violated: {e}"));
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
                    if (self.fifos.free(lane) as u8) <= self.bufs[lane].reserved
                        || !self.fifos.follows(lane, front)
                    {
                        continue;
                    }
                    let mut flit = *front;
                    flit.injected = self.now;
                    self.sources[node].queues[class].pop_front();
                    self.fifos
                        .push(lane, flit)
                        .expect("space and contiguity checked");
                    self.src_pending[node] -= 1;
                    self.buffered[node] += 1;
                }
            }
        }
    }

    /// Moves one flit per active transfer (the single-cycle multi-tile
    /// traversal stage). Completed transfers release their links.
    // hot
    fn advance_transfers(&mut self) {
        let vcs = self.cfg.vcs_per_port;
        for (i, t) in self.transfers.iter_mut().enumerate() {
            let lane = vc_lane(vcs, t.node, t.port, t.class);
            let front_ok = matches!(
                self.fifos.front(lane),
                Some(f) if f.packet == t.packet && f.seq == t.next_seq
            );
            if !front_ok {
                continue; // upstream flits not here yet; hold the path
            }
            let flit = self.fifos.pop(lane).expect("front checked");
            let buf = &mut self.bufs[lane];
            self.buffered[t.node] -= 1;
            if flit.is_tail() && buf.owner == Some(t.packet) {
                buf.owner = None;
            }
            let hops = t.path.map_or(0, |(_, hops)| hops);
            self.stats.link_traversals += u64::from(hops);
            self.stats.local_grants += 1;
            self.arrivals
                .push((t.landing.0, t.landing.1, t.class, flit, t.path.is_none()));
            t.next_seq += 1;
            t.remaining -= 1;
            if t.remaining == 0 {
                self.done.push(i);
                buf.busy = false;
                if let Some((dir, hops)) = t.path {
                    mark_path(&mut self.held, &self.cfg, t.node, dir, hops, false);
                }
            }
        }
        while let Some(i) = self.done.pop() {
            self.transfers.swap_remove(i);
        }
    }

    /// Processes SSRs queued by the previous cycle's switch allocation:
    /// tries to establish a path of up to `max_hops_per_cycle` straight
    /// hops, falling back to a single hop, else back to SA.
    // hot
    fn process_ssrs(&mut self) {
        let mut reqs = std::mem::take(&mut self.ssr_stage);
        for r in reqs.drain(..) {
            let in_port = Port::Dir(r.dir.opposite()).index();
            // Longest straight extension within the wire budget: the route
            // must continue in `r.dir` through every bypassed router
            // (SMART-1D) and the landing must be able to hold the whole
            // packet. `free` counts the leading links not held by another
            // transfer: a stop is usable only if every link up to it is
            // free, so the farthest candidate is `free` hops away.
            let mut reach = 0u8;
            let mut free = 0u8;
            let mut at = NodeId::new(r.node as u16);
            while reach < self.cfg.max_hops_per_cycle {
                if reach > 0 && route_port(&self.cfg, at, r.dest) != Port::Dir(r.dir) {
                    break; // the route turns (or ends) at `at`
                }
                let Some(next) = neighbor(&self.cfg, at, r.dir) else {
                    break;
                };
                if free == reach && !self.held[link_index(at.index(), r.dir)] {
                    free += 1;
                }
                reach += 1;
                at = next;
                if next == r.dest {
                    break;
                }
            }
            // Try the farthest stop first.
            let landing = (1..=free).rev().find_map(|stop: u8| {
                let land = straight_from(&self.cfg, r.node, r.dir, usize::from(stop));
                self.can_land(land, in_port, r.class, r.packet, r.len)
                    .then_some((land, stop))
            });
            match landing {
                Some((land, stop)) => {
                    mark_path(&mut self.held, &self.cfg, r.node, r.dir, stop, true);
                    let lb = self.lane(land, in_port, r.class);
                    let lb = &mut self.bufs[lb];
                    lb.reserved += r.len;
                    if r.len > 1 {
                        lb.owner = Some(r.packet);
                    }
                    self.transfers.push(Transfer {
                        node: r.node,
                        port: r.port,
                        class: r.class,
                        packet: r.packet,
                        next_seq: 0,
                        remaining: r.len,
                        path: Some((r.dir, stop)),
                        landing: (land, in_port),
                    });
                }
                None => {
                    // Path setup failed: back to switch allocation.
                    let lane = self.lane(r.node, r.port, r.class);
                    self.bufs[lane].busy = false;
                }
            }
        }
        self.ssr_stage = reqs;
    }

    fn can_land(&self, node: usize, port: usize, class: usize, packet: PacketId, len: u8) -> bool {
        let lane = self.lane(node, port, class);
        let buf = &self.bufs[lane];
        let free = self.fifos.free(lane) as u8;
        if free < buf.reserved + len {
            return false;
        }
        match buf.owner {
            None => true,
            Some(p) => p == packet,
        }
    }

    /// Switch allocation: fronts bid for their output direction; one
    /// winner per (node, direction); winners enter the SSR stage. Ejection
    /// transfers are established directly (no multi-tile setup needed).
    // hot
    fn allocate(&mut self) {
        let vcs = self.cfg.vcs_per_port;
        let slots = Port::COUNT * vcs;
        // No fronts, no requests: the arbiters would not rotate.
        for w in 0..self.buffered.len().div_ceil(64) {
            for node in ones(nonzero_word(&self.buffered, w)).map(|b| w * 64 + b) {
                let here = NodeId::new(node as u16);
                // Collect per-output-direction requests over (in_port, class).
                self.want.fill(false);
                for in_port in 0..Port::COUNT {
                    for class in 0..vcs {
                        let lane = self.lane(node, in_port, class);
                        if self.bufs[lane].busy {
                            continue;
                        }
                        let Some(front) = self.fifos.front(lane) else {
                            continue;
                        };
                        if !front.is_head() {
                            // An orphaned continuation cannot happen in SMART:
                            // transfers always move whole packets.
                            continue;
                        }
                        let port = route_port(&self.cfg, here, front.dest);
                        self.want[port.index() * slots + in_port * vcs + class] = true;
                    }
                }
                for port in Port::ALL {
                    let requests = &self.want[port.index() * slots..][..slots];
                    if !requests.iter().any(|r| *r) {
                        continue;
                    }
                    let rr = &mut self.sa_rr[node * 5 + port.index()];
                    let Some(slot) = rr.grant(requests) else {
                        continue;
                    };
                    let (in_port, class) = (slot / vcs, slot % vcs);
                    let lane = self.lane(node, in_port, class);
                    let front = *self.fifos.front(lane).expect("bid had a front");
                    self.bufs[lane].busy = true;
                    match port {
                        Port::Local => {
                            // Ejection: 1 flit/cycle into the NI from next cycle.
                            self.transfers.push(Transfer {
                                node,
                                port: in_port,
                                class,
                                packet: front.packet,
                                next_seq: 0,
                                remaining: front.len_flits,
                                path: None,
                                landing: (node, in_port),
                            });
                        }
                        Port::Dir(dir) => {
                            self.ssr_stage.push(SsrRequest {
                                node,
                                port: in_port,
                                class,
                                packet: front.packet,
                                len: front.len_flits,
                                dest: front.dest,
                                dir,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Debug-build check that the activity counters are exact: each
    /// node's `buffered` count equals the flits in its input buffers and
    /// its `src_pending` count the flits in its NI source queues.
    #[cfg(debug_assertions)]
    fn assert_activity_counters(&self) {
        for n in 0..self.cfg.nodes() {
            let held = self
                .fifos
                .buffered(crate::buffer::router_lanes(self.cfg.vcs_per_port, n));
            debug_assert_eq!(self.buffered[n], held, "buffered[{n}] out of step");
            let queued: usize = self.sources[n].queues.iter().map(|q| q.len()).sum();
            debug_assert_eq!(self.src_pending[n], queued, "src_pending[{n}] out of step");
        }
    }
}

impl Network for SmartNetwork {
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
        self.advance_transfers();
        self.process_ssrs();
        self.allocate();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{MessageClass, PacketId};

    fn net() -> SmartNetwork {
        SmartNetwork::new(NocConfig::paper())
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
    fn zero_load_three_cycles_per_traversal() {
        // Straight-line distances: latency = 1 (inject) + 3 * ceil(H/2) + 2.
        let mut lat = Vec::new();
        for dest in [1u16, 2, 4, 7] {
            let mut n = net();
            n.inject(pkt(1, 0, dest, MessageClass::Request, 1));
            let d = n.run_to_drain(100);
            lat.push(d[0].delivered - d[0].packet.created);
        }
        assert_eq!(lat, vec![6, 6, 9, 15]);
    }

    #[test]
    fn smart_vs_mesh_zero_load() {
        use crate::mesh::MeshNetwork;
        // Long straight path: SMART wins (12 vs 14 router cycles);
        // one-hop path: SMART loses (extra setup cycle).
        for (dest, smart_wins) in [(7u16, true), (1u16, false)] {
            let mut s = net();
            s.inject(pkt(1, 0, dest, MessageClass::Request, 1));
            let ds = s.run_to_drain(100);
            let mut m = MeshNetwork::new(NocConfig::paper());
            m.inject(pkt(1, 0, dest, MessageClass::Request, 1));
            let dm = m.run_to_drain(100);
            let (ls, lm) = (ds[0].delivered, dm[0].delivered);
            if smart_wins {
                assert!(
                    ls < lm,
                    "SMART {ls} should beat mesh {lm} at distance {dest}"
                );
            } else {
                assert!(
                    ls > lm,
                    "SMART {ls} should trail mesh {lm} at distance {dest}"
                );
            }
        }
    }

    #[test]
    fn turns_break_the_bypass() {
        // 0 -> 9 is (1,1): one east, one south; two traversals of one hop.
        let mut n = net();
        n.inject(pkt(1, 0, 9, MessageClass::Request, 1));
        let d = n.run_to_drain(100);
        // 1 + 3 (east) + 3 (south) + 2 = 9.
        assert_eq!(d[0].delivered - d[0].packet.created, 9);
    }

    #[test]
    fn multi_flit_packets_stream() {
        let mut n = net();
        n.inject(pkt(1, 0, 4, MessageClass::Response, 5));
        let d = n.run_to_drain(200);
        assert_eq!(d.len(), 1);
        // Serialization adds len-1 cycles over the single-flit case (9).
        assert_eq!(d[0].delivered - d[0].packet.created, 9 + 4);
    }

    #[test]
    fn all_random_packets_delivered() {
        use nistats::rng::Rng;
        let mut rng = Rng::new(5);
        let mut n = net();
        let mut sent = 0u64;
        for cycle in 0..3_000u64 {
            if cycle < 1_500 && rng.gen_bool(0.3) {
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
        delivered += n.run_to_drain(20_000).len() as u64;
        assert_eq!(delivered, sent);
    }

    #[test]
    fn contention_truncates_bypass() {
        // Two streams crossing the same column: packets still arrive and
        // link traversals are conserved.
        let mut n = net();
        for i in 0..8u64 {
            n.inject(pkt(i * 2 + 1, 0, 7, MessageClass::Response, 5));
            n.inject(pkt(i * 2 + 2, 16, 23, MessageClass::Response, 5));
        }
        let d = n.run_to_drain(20_000);
        assert_eq!(d.len(), 16);
    }
    /// Busy paths the benchmark does not reach (see
    /// [`crate::traffic::assert_busy_pins`]). The pins were recorded
    /// before the step loop gained its activity counters and scratch
    /// reuse.
    #[test]
    fn busy_paths_match_pinned_fingerprints() {
        crate::traffic::assert_busy_pins(
            SmartNetwork::new,
            |_, _| {},
            [
                (2559, 2833338445734779565),
                (297, 15868701454008393786),
                (5716, 16170916981559044712),
                (378, 411894068991206282),
            ],
        );
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use crate::types::{MessageClass, PacketId};

    #[test]
    fn no_packets_stuck_under_sustained_load() {
        use nistats::rng::Rng;
        let mut rng = Rng::new(5);
        let mut n = SmartNetwork::new(NocConfig::paper());
        let mut sent = 0u64;
        for cycle in 0..3_000u64 {
            if cycle < 1_500 && rng.gen_bool(0.3) {
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
                n.inject(Packet::new(
                    PacketId(sent),
                    NodeId::new(src),
                    NodeId::new(dest),
                    class,
                    len,
                ));
            }
            n.step();
        }
        n.drain_delivered();
        n.run_to_drain(20_000);
        if n.in_flight() > 0 {
            eprintln!(
                "stuck: {} packets in flight at cycle {}",
                n.in_flight(),
                n.now()
            );
            eprintln!("active transfers: {}", n.transfers.len());
            for t in &n.transfers {
                eprintln!("  transfer pkt {:?} at node {} port {} class {} next_seq {} remaining {} landing {:?} path {:?}",
                    t.packet, t.node, t.port, t.class, t.next_seq, t.remaining, t.landing, t.path);
                let lane = n.lane(t.node, t.port, t.class);
                let buf = &n.bufs[lane];
                eprintln!(
                    "    src buf: front {:?} len {} reserved {} owner {:?} busy {}",
                    n.fifos.front(lane).map(|f| (f.packet, f.seq)),
                    n.fifos.len(lane),
                    buf.reserved,
                    buf.owner,
                    buf.busy
                );
            }
            eprintln!("ssr stage: {}", n.ssr_stage.len());
            for node in 0..64 {
                for port in 0..5 {
                    for class in 0..3 {
                        let lane = n.lane(node, port, class);
                        let b = &n.bufs[lane];
                        if !n.fifos.is_empty(lane) || b.reserved > 0 || b.owner.is_some() || b.busy
                        {
                            eprintln!("  buf[{}][{}][{}]: len {} front {:?} reserved {} owner {:?} busy {}",
                                node, port, class, n.fifos.len(lane), n.fifos.front(lane).map(|f| (f.packet, f.seq, f.dest)), b.reserved, b.owner, b.busy);
                        }
                    }
                }
            }
            for node in 0..64usize {
                for class in 0..3 {
                    let q = &n.sources[node].queues[class];
                    if !q.is_empty() {
                        eprintln!(
                            "  srcq[{}][{}]: {} flits, front {:?}",
                            node,
                            class,
                            q.len(),
                            q.front().map(|f| (f.packet, f.seq))
                        );
                    }
                }
            }
            panic!("stuck");
        }
    }
}
