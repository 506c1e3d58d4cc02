//! The tile network interface (NI) every organisation shares.
//!
//! Mesh, Mesh+PRA, FRFC, SMART and the ideal network differ in their
//! routers, not in the NI between a client and a router's local port.
//! [`Ni`] is that NI, held once by each network: per-class source
//! queues with an exact occupancy bitset, per-node reassembly, and the
//! delivery ledger with its staged [`Delivered`] records. An
//! organisation supplies only what differs between them: the acceptance
//! test of its local input lanes (see [`Ni::inject_into`]) and, for the
//! mesh, the fault, observability and reliability work around
//! [`Ni::inject`] and [`Ni::complete`].

use std::collections::{BTreeMap, VecDeque};

use crate::buffer::{vc_lane, FlitStore};
use crate::config::NocConfig;
use crate::digest::{StateDigest, StateHasher};
use crate::flit::{Flit, Packet};
use crate::mesh::{ones, NodeSet};
use crate::network::Delivered;
use crate::stats::NetStats;
use crate::types::{Coord, Cycle, MessageClass, NodeId, PacketId, Port};

/// One node's side of the NI.
#[derive(Debug, Default)]
struct NodeNi {
    /// Flits awaiting space in the local input lanes, one unbounded FIFO
    /// per message class (indexed by [`MessageClass::vc`]).
    queues: [VecDeque<Flit>; MessageClass::ALL.len()],
    /// Partially reassembled packets: flits accepted so far and the head.
    partial: BTreeMap<PacketId, (u8, Flit)>,
}

/// The network interfaces of every node of one network.
#[derive(Debug)]
pub(crate) struct Ni {
    radix: u16,
    nodes: Vec<NodeNi>,
    /// Source occupancy, kept exact: node `n` is a member iff one of its
    /// source queues holds a flit. Derived state, excluded from the
    /// digest; injection walks only its members.
    queued: NodeSet,
    /// Descriptors of the accepted, not yet delivered packets (to return
    /// their tags on delivery).
    packets: BTreeMap<PacketId, Packet>,
    /// Deliveries staged since the last drain.
    delivered: Vec<Delivered>,
}

impl Ni {
    pub(crate) fn new(cfg: &NocConfig) -> Self {
        let n = cfg.nodes();
        Ni {
            radix: cfg.radix,
            nodes: (0..n).map(|_| NodeNi::default()).collect(),
            queued: NodeSet::new(n),
            packets: BTreeMap::new(),
            delivered: Vec::new(),
        }
    }

    /// Accepts `packet` from its client: stamps `created` with `now` when
    /// the client left it 0, counts the injection and queues the packet
    /// (see [`Ni::enqueue`]). Returns the packet as queued.
    pub(crate) fn inject(
        &mut self,
        mut packet: Packet,
        now: Cycle,
        stats: &mut NetStats,
    ) -> Packet {
        if packet.created == 0 {
            packet.created = now;
        }
        stats.record_injected(packet.class);
        self.enqueue(packet);
        packet
    }

    /// Registers `packet` as in flight and queues its flits, in order, on
    /// its class queue at its source — without touching statistics, as
    /// for a retransmission copy.
    pub(crate) fn enqueue(&mut self, packet: Packet) {
        let node = packet.src.index();
        self.packets.insert(packet.id, packet);
        let q = &mut self.nodes[node].queues[packet.class.vc()];
        // One push per flit, not `extend`: reserving the exact length
        // would change how the queue grows, and with it the allocations
        // the busy-mesh budget counts.
        for flit in packet.flits() {
            q.push_back(flit);
        }
        self.queued.insert(node);
    }

    /// Offers the front flit of every source queue to the router's local
    /// input lane of its class in `flits` (lane layout [`vc_lane`] with
    /// `vcs` VCs per port), nodes ascending and classes in order within a
    /// node: one flit per class per cycle, stamped `injected = now`.
    ///
    /// `admit(node, class, free)` is the organisation's acceptance test
    /// for a lane with `free` free slots. When it returns `true` the flit
    /// is pushed, so it also does the organisation's bookkeeping of a
    /// pushed flit.
    // hot
    pub(crate) fn inject_into(
        &mut self,
        now: Cycle,
        flits: &mut FlitStore,
        vcs: usize,
        mut admit: impl FnMut(usize, usize, usize) -> bool,
    ) {
        for w in 0..self.queued.words.len() {
            for node in ones(self.queued.words[w]).map(|b| w * 64 + b) {
                let queues = &mut self.nodes[node].queues;
                for (class, q) in queues.iter_mut().enumerate() {
                    let Some(&front) = q.front() else {
                        continue;
                    };
                    let lane = vc_lane(vcs, node, Port::Local.index(), class);
                    if !admit(node, class, flits.free(lane)) {
                        continue;
                    }
                    // Only the NI writes a local lane, whole packets in
                    // class-queue order, so the lane never ends mid-way
                    // through another packet.
                    debug_assert!(flits.follows(lane, &front), "NI flit interleaved");
                    q.pop_front();
                    let flit = Flit {
                        injected: now,
                        ..front
                    };
                    flits
                        .push(lane, flit)
                        .expect("admitted flit fits its local lane");
                }
                if queues.iter().all(VecDeque::is_empty) {
                    self.queued.remove(node);
                }
            }
        }
        #[cfg(debug_assertions)]
        for (n, ni) in self.nodes.iter().enumerate() {
            debug_assert_eq!(
                self.queued.contains(n),
                ni.queues.iter().any(|q| !q.is_empty()),
                "source occupancy of n{n} is wrong"
            );
        }
    }

    /// Accepts a flit ejected at `node` into reassembly; returns the head
    /// flit when it completes its packet.
    ///
    /// # Panics
    ///
    /// Panics if flits of the same packet arrive out of order (a routing
    /// or flow-control bug).
    // hot
    pub(crate) fn accept(&mut self, node: usize, flit: Flit) -> Option<Flit> {
        let partial = &mut self.nodes[node].partial;
        let entry = partial.entry(flit.packet).or_insert((0, flit));
        assert_eq!(
            entry.0, flit.seq,
            "flit {} of packet {} arrived out of order (expected seq {})",
            flit.seq, flit.packet, entry.0
        );
        entry.0 += 1;
        if entry.0 == flit.len_flits {
            partial.remove(&flit.packet).map(|(_, head)| head)
        } else {
            None
        }
    }

    /// Delivers the packet `head` completed, records its latency and hop
    /// count (the Manhattan distance) and stages its [`Delivered`] record
    /// under id `id`: the packet's own, or for a retransmission copy the
    /// original's, exactly as if the first flight had landed.
    ///
    /// # Panics
    ///
    /// Panics if the packet is not registered (double delivery).
    // hot
    pub(crate) fn complete(&mut self, head: Flit, id: PacketId, now: Cycle, stats: &mut NetStats) {
        let mut packet = self
            .packets
            .remove(&head.packet)
            .expect("delivered packet must be registered exactly once");
        packet.id = id;
        let hops = Coord::from_node(head.src, self.radix)
            .manhattan(Coord::from_node(head.dest, self.radix));
        stats.record_delivered(
            packet.class,
            packet.len_flits,
            packet.created,
            head.injected,
            now,
            hops,
        );
        self.delivered.push(Delivered {
            packet,
            delivered: now,
            hops,
        });
    }

    /// Ejects `flit` at `node`: [`Ni::accept`], then [`Ni::complete`]
    /// the packet if that finished it.
    // hot
    pub(crate) fn eject(&mut self, node: usize, flit: Flit, now: Cycle, stats: &mut NetStats) {
        if let Some(head) = self.accept(node, flit) {
            self.complete(head, head.packet, now, stats);
        }
    }

    /// Moves every staged delivery into `out`, in order, keeping the
    /// staging buffer's capacity.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<Delivered>) {
        out.append(&mut self.delivered);
    }

    /// Packets accepted and not yet delivered.
    pub(crate) fn in_flight(&self) -> usize {
        self.packets.len()
    }

    /// Whether no packet is in flight and no source queue holds a flit.
    pub(crate) fn is_idle(&self) -> bool {
        self.packets.is_empty() && self.queued.words.iter().all(|&w| w == 0)
    }

    /// The registered (in-flight) packets, in id order.
    pub(crate) fn in_flight_packets(&self) -> impl Iterator<Item = &Packet> {
        self.packets.values()
    }

    /// Destination of a registered (still in-flight) packet.
    pub(crate) fn dest_of(&self, packet: PacketId) -> Option<NodeId> {
        self.packets.get(&packet).map(|p| p.dest)
    }

    /// Flits queued at `node` for class `class`.
    pub(crate) fn backlog(&self, node: usize, class: MessageClass) -> usize {
        self.nodes[node].queues[class.vc()].len()
    }

    /// Every queued flit with its node, nodes ascending, then by class
    /// and queue order.
    pub(crate) fn queued_flits(&self) -> impl Iterator<Item = (usize, &Flit)> {
        self.nodes
            .iter()
            .enumerate()
            .flat_map(|(n, ni)| ni.queues.iter().flatten().map(move |f| (n, f)))
    }

    /// Flits of in-flight packets that sit in the NI rather than the
    /// fabric: queued at a source, or accepted into a partial reassembly.
    pub(crate) fn held_flits(&self) -> u64 {
        let held = |ni: &NodeNi| {
            ni.queues.iter().map(VecDeque::len).sum::<usize>() as u64
                + ni.partial.values().map(|&(n, _)| u64::from(n)).sum::<u64>()
        };
        self.nodes.iter().map(held).sum()
    }

    /// Forgets `packet` without delivering it (fault purge, suppressed
    /// duplicate): its registration, its queued flits and its partial
    /// reassembly. Returns the descriptor if it was registered.
    pub(crate) fn purge(&mut self, packet: PacketId) -> Option<Packet> {
        // A packet's flits queue only while it is registered, and only
        // at its source under its class.
        let p = self.packets.remove(&packet)?;
        let src = p.src.index();
        self.nodes[src].queues[p.class.vc()].retain(|f| f.packet != packet);
        if self.nodes[src].queues.iter().all(VecDeque::is_empty) {
            self.queued.remove(src);
        }
        self.nodes[p.dest.index()].partial.remove(&packet);
        Some(p)
    }
}

impl StateDigest for Ni {
    /// Source queues, then reassembly, then the ledger and the staged
    /// deliveries: the order the pinned digests (busy pins,
    /// `driver_equivalence`, perfbench's known answers) depend on.
    fn digest_state(&self, h: &mut StateHasher) {
        for ni in &self.nodes {
            for q in &ni.queues {
                h.write_usize(q.len());
                for flit in q {
                    flit.digest_state(h);
                }
            }
        }
        for ni in &self.nodes {
            h.write_usize(ni.partial.len());
            for (&packet, &(accepted, head)) in &ni.partial {
                h.write_u64(packet.0);
                h.write_u8(accepted);
                head.digest_state(h);
            }
        }
        h.write_usize(self.packets.len());
        for packet in self.packets.values() {
            packet.digest_state(h);
        }
        h.write_usize(self.delivered.len());
        for d in &self.delivered {
            d.packet.digest_state(h);
            h.write_u64(d.delivered);
            h.write_u64(u64::from(d.hops));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NodeId as N;

    fn pkt(id: u64, len: u8) -> Packet {
        Packet::new(
            PacketId(id),
            N::new(0),
            N::new(5),
            MessageClass::Response,
            len,
        )
        .at(3)
    }

    fn ni() -> Ni {
        Ni::new(&NocConfig::paper())
    }

    #[test]
    fn source_queue_order() {
        let mut ni = ni();
        ni.enqueue(pkt(1, 3));
        ni.enqueue(pkt(2, 1).with_tag(9));
        assert_eq!(ni.held_flits(), 4);
        assert_eq!(ni.backlog(0, MessageClass::Response), 4);
        let ids: Vec<_> = ni
            .queued_flits()
            .map(|(n, f)| (n, f.packet.0, f.seq))
            .collect();
        assert_eq!(ids, vec![(0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 2, 0)]);
    }

    #[test]
    fn injection_keeps_the_occupancy_bitset_exact() {
        let cfg = NocConfig::paper();
        let vcs = cfg.vcs_per_port;
        let mut ni = ni();
        let mut flits = FlitStore::new(cfg.nodes() * Port::COUNT * vcs, cfg.vc_depth);
        ni.enqueue(pkt(1, 2));
        assert!(!ni.is_idle());
        // A lane that admits nothing leaves the node queued.
        ni.inject_into(7, &mut flits, vcs, |_, _, _| false);
        assert_eq!(ni.queued.words[0], 1);
        ni.inject_into(8, &mut flits, vcs, |_, _, free| free > 0);
        ni.inject_into(9, &mut flits, vcs, |_, _, free| free > 0);
        assert_eq!(ni.queued.words[0], 0, "last flit left the node");
        let lane = vc_lane(vcs, 0, Port::Local.index(), MessageClass::Response.vc());
        assert_eq!(flits.front(lane).map(|f| (f.seq, f.injected)), Some((0, 8)));
        assert_eq!(flits.back(lane).map(|f| (f.seq, f.injected)), Some((1, 9)));
        // Purging the last queued packet of a node clears it too.
        ni.enqueue(pkt(2, 3));
        assert_eq!(ni.purge(PacketId(2)).map(|p| p.id), Some(PacketId(2)));
        assert_eq!(ni.queued.words[0], 0);
        assert_eq!(ni.in_flight(), 1);
    }

    #[test]
    fn reassembly_completes_on_tail() {
        let mut ni = ni();
        let p = pkt(1, 3);
        assert!(ni.accept(5, p.flit(0)).is_none());
        assert!(ni.accept(5, p.flit(1)).is_none());
        assert_eq!(ni.held_flits(), 2);
        let head = ni.accept(5, p.flit(2)).unwrap();
        assert_eq!(head.packet, PacketId(1));
        assert_eq!(ni.held_flits(), 0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn reassembly_rejects_reordered_flits() {
        let mut ni = ni();
        let p = pkt(1, 3);
        ni.accept(5, p.flit(0));
        ni.accept(5, p.flit(2));
    }

    #[test]
    fn ledger_round_trip() {
        let mut ni = ni();
        let mut stats = NetStats::new();
        let p = pkt(7, 1).with_tag(123);
        ni.enqueue(p);
        assert_eq!(ni.in_flight(), 1);
        let mut head = p.flit(0);
        head.injected = 4;
        ni.complete(head, head.packet, 20, &mut stats);
        let mut d = Vec::new();
        ni.drain_into(&mut d);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].packet.tag, 123);
        assert_eq!(d[0].delivered, 20);
        // Node 0 to node 5 of the paper's 8×8 mesh: five hops east.
        assert_eq!(d[0].hops, 5);
        assert_eq!(stats.delivered(), 1);
        assert_eq!(ni.in_flight(), 0);
        ni.drain_into(&mut d);
        assert_eq!(d.len(), 1, "nothing staged twice");
    }

    #[test]
    #[should_panic(expected = "registered exactly once")]
    fn double_delivery_panics() {
        let mut ni = ni();
        let mut stats = NetStats::new();
        let p = pkt(7, 1);
        ni.enqueue(p);
        ni.complete(p.flit(0), p.id, 20, &mut stats);
        ni.complete(p.flit(0), p.id, 21, &mut stats);
    }
}
