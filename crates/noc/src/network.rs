//! The [`Network`] abstraction and the shared network-interface model.
//!
//! Every organisation (mesh, SMART, Mesh+PRA, ideal) implements
//! [`Network`], so the system model and the benchmark harness are generic
//! over the interconnect. Clients inject whole [`Packet`]s; the network
//! delivers them as [`Delivered`] records once the last flit reaches the
//! destination network interface.

use std::collections::{BTreeMap, VecDeque};

use crate::config::NocConfig;
use crate::flit::{Flit, Packet};
use crate::stats::NetStats;
use crate::types::{Cycle, NodeId, PacketId};

/// A packet that completed its journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// The original packet descriptor (including the client tag).
    pub packet: Packet,
    /// Cycle at which the tail flit reached the destination NI.
    pub delivered: Cycle,
    /// Hops the packet travelled.
    pub hops: u32,
}

/// A cycle-accurate interconnect.
///
/// The contract shared by all organisations:
///
/// * [`Network::inject`] enqueues a packet at the source NI; it is
///   non-blocking and never fails (NI queues are unbounded — the clients
///   model their own back-pressure).
/// * [`Network::step`] advances the network exactly one cycle.
/// * [`Network::drain_delivered`] returns packets whose tail flit reached
///   the destination NI since the previous call.
/// * [`Network::announce`] gives organisations that support proactive
///   resource allocation advance notice that `packet` will be injected
///   `lead` cycles in the future; other organisations ignore it.
pub trait Network {
    /// The configuration the network was built with.
    fn config(&self) -> &NocConfig;

    /// Current simulation cycle.
    fn now(&self) -> Cycle;

    /// Enqueues `packet` for injection at `packet.src`.
    fn inject(&mut self, packet: Packet);

    /// Advances the network one cycle.
    fn step(&mut self);

    /// Removes and returns all packets delivered since the last call.
    fn drain_delivered(&mut self) -> Vec<Delivered>;

    /// Appends all packets delivered since the last drain to `out`,
    /// letting hot driver loops reuse one persistent buffer instead of
    /// allocating a fresh `Vec` per cycle. Semantically identical to
    /// extending `out` with [`Network::drain_delivered`]; organisations
    /// with internal delivery staging override this to move the records
    /// without an intermediate allocation.
    fn drain_delivered_into(&mut self, out: &mut Vec<Delivered>) {
        out.extend(self.drain_delivered());
    }

    /// Enables or disables skip-ahead over quiescent cycles: when every
    /// router is provably idle (no flits, grants, arrivals, credits in
    /// flight, or reservations anywhere), a step may advance only the
    /// clock and cycle counters, because a full step over such a fabric
    /// mutates nothing else. The observable history — statistics, digest
    /// trails, delivery order — is byte-identical either way; this is
    /// purely a wall-clock optimisation for low injection rates. The
    /// default implementation ignores the flag (organisations without a
    /// fast path simply always execute full steps).
    fn set_skip_ahead(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Number of packets accepted but not yet delivered.
    fn in_flight(&self) -> usize;

    /// Accumulated statistics.
    fn stats(&self) -> &NetStats;

    /// Zeroes the accumulated statistics, opening a fresh measurement
    /// window (see [`NetStats::reset`]). Call at the warm-up/measurement
    /// boundary; simulation state (in-flight packets, reservations,
    /// queues) is untouched, so packets injected during warm-up but
    /// delivered afterwards count toward the new window. Organisations
    /// with auxiliary statistics (e.g. Mesh+PRA's control-plane counters)
    /// reset those too.
    fn reset_stats(&mut self);

    /// Advance notice that `packet` will be injected after `lead` more
    /// cycles (e.g. the LLC knows at tag-hit time that a response will be
    /// ready once the data lookup completes). The default implementation
    /// ignores the hint; `Mesh+PRA` uses it to launch proactive resource
    /// allocation.
    fn announce(&mut self, packet: &Packet, lead: u32) {
        let _ = (packet, lead);
    }

    /// Installs a cooperative cancellation token (see
    /// [`crate::cancel`]). Once the token is cancelled, subsequent
    /// [`Network::step`] calls still advance the clock — so bounded
    /// drain loops keyed on [`Network::now`] terminate — but perform no
    /// simulation work. The default implementation ignores the token;
    /// organisations that cannot be cancelled simply run to completion.
    fn install_cancel(&mut self, token: crate::cancel::CancelToken) {
        let _ = token;
    }

    /// A digest of the architectural state at the current cycle (see
    /// [`crate::digest`]), or `None` for organisations without a
    /// [`crate::digest::StateDigest`] implementation. Two runs of the
    /// same point whose digests agree at every sampled cycle executed
    /// the same history.
    fn state_digest(&self) -> Option<u64> {
        None
    }

    /// Takes a structural snapshot for the invariant watchdog (see
    /// [`crate::watchdog`]). Organisations without exhaustive internal
    /// accounting return `None`; the mesh (and Mesh+PRA, which wraps it)
    /// return a full conservation report.
    fn audit(&self) -> Option<crate::watchdog::AuditReport> {
        None
    }

    /// Whole-run delivery accounting of the end-to-end reliability
    /// layer (see [`crate::reliable`]), or `None` when the organisation
    /// runs without one. Unlike [`Network::stats`] these counters are
    /// not windowed: they are never reset at the warm-up boundary.
    fn reliable_stats(&self) -> Option<crate::reliable::ReliableStats> {
        None
    }

    /// Attaches an observability sink: subsequent simulator events are
    /// emitted into it (see the `niobs` crate). The default
    /// implementation ignores the sink — organisations without
    /// instrumentation hooks simply record nothing.
    fn install_obs(&mut self, sink: niobs::SharedSink) {
        let _ = sink;
    }

    /// Runs the network until all in-flight packets are delivered or
    /// `max_cycles` elapse. Returns all deliveries. Useful in tests.
    fn run_to_drain(&mut self, max_cycles: u64) -> Vec<Delivered>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        let deadline = self.now() + max_cycles;
        while self.in_flight() > 0 && self.now() < deadline {
            self.step();
            out.extend(self.drain_delivered());
        }
        out
    }
}

/// Source-side NI state: unbounded per-class queues of flits awaiting
/// space in the local input VCs.
#[derive(Debug, Clone, Default)]
pub(crate) struct SourceQueues {
    /// One FIFO per message class (indexed by VC).
    pub(crate) queues: [VecDeque<Flit>; 3],
}

impl SourceQueues {
    pub(crate) fn new() -> Self {
        SourceQueues::default()
    }

    /// Enqueues all flits of `packet` in order on its class queue.
    pub(crate) fn enqueue_packet(&mut self, packet: &Packet) {
        let q = &mut self.queues[packet.class.vc()];
        for mut flit in packet.flits() {
            flit.created = packet.created;
            q.push_back(flit);
        }
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn pending_flits(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

/// Destination-side NI state: reassembles flits into packets.
#[derive(Debug, Clone, Default)]
pub(crate) struct Reassembly {
    partial: BTreeMap<PacketId, (u8, Flit)>,
}

impl Reassembly {
    pub(crate) fn new() -> Self {
        Reassembly::default()
    }

    /// Accepts an ejected flit; returns the head flit and hop count when
    /// the packet completes.
    ///
    /// # Panics
    ///
    /// Panics if flits of the same packet arrive out of order (a routing
    /// or flow-control bug).
    pub(crate) fn accept(&mut self, flit: Flit) -> Option<Flit> {
        let entry = self.partial.entry(flit.packet).or_insert((0, flit));
        assert_eq!(
            entry.0, flit.seq,
            "flit {} of packet {} arrived out of order (expected seq {})",
            flit.seq, flit.packet, entry.0
        );
        entry.0 += 1;
        if entry.0 == flit.len_flits {
            let (_, head) = self.partial.remove(&flit.packet).expect("entry exists");
            Some(head)
        } else {
            None
        }
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn pending(&self) -> usize {
        self.partial.len()
    }

    /// Total flits already accepted into partial reassemblies (for the
    /// conservation audit: accepted flits left the fabric but their
    /// packets are still registered).
    pub(crate) fn accepted_flits(&self) -> u64 {
        self.partial.values().map(|(n, _)| *n as u64).sum()
    }

    /// Discards a partial reassembly (fault purge); returns how many
    /// flits it had accepted.
    pub(crate) fn forget(&mut self, packet: PacketId) -> u64 {
        self.partial.remove(&packet).map_or(0, |(n, _)| n as u64)
    }
}

/// Book-keeping shared by all network implementations: original packet
/// descriptors (to return tags on delivery) and delivery staging.
#[derive(Debug, Default)]
pub(crate) struct DeliveryLedger {
    packets: BTreeMap<PacketId, Packet>,
    delivered: Vec<Delivered>,
}

impl DeliveryLedger {
    pub(crate) fn new() -> Self {
        DeliveryLedger::default()
    }

    pub(crate) fn register(&mut self, packet: Packet) {
        self.packets.insert(packet.id, packet);
    }

    /// Destination of a registered (still in-flight) packet.
    pub(crate) fn dest_of(&self, packet: PacketId) -> Option<NodeId> {
        self.packets.get(&packet).map(|p| p.dest)
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.packets.len()
    }

    /// Completes `packet_id`, recording stats and staging the delivery.
    ///
    /// # Panics
    ///
    /// Panics if the packet was never registered (double delivery).
    pub(crate) fn complete(&mut self, head: Flit, now: Cycle, hops: u32, stats: &mut NetStats) {
        let packet = self
            .packets
            .remove(&head.packet)
            .expect("delivered packet must be registered exactly once");
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

    /// Completes a retransmission copy under the identity of its
    /// original packet: the copy's registration is consumed (it carries
    /// the original's `created` cycle, so latency accounting is
    /// end-to-end honest) and the staged [`Delivered`] record reports
    /// the **original** id, exactly as if the first flight had landed.
    ///
    /// # Panics
    ///
    /// Panics if the copy was never registered.
    pub(crate) fn complete_as(
        &mut self,
        head: Flit,
        original: PacketId,
        now: Cycle,
        hops: u32,
        stats: &mut NetStats,
    ) {
        let mut packet = self
            .packets
            .remove(&head.packet)
            .expect("delivered copy must be registered exactly once");
        packet.id = original;
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

    pub(crate) fn drain(&mut self) -> Vec<Delivered> {
        std::mem::take(&mut self.delivered)
    }

    /// Moves all staged deliveries into `out`, preserving order and
    /// leaving the internal staging buffer (and its capacity) in place.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<Delivered>) {
        out.append(&mut self.delivered);
    }

    /// Unregisters a packet without delivering it (fault purge).
    pub(crate) fn forget(&mut self, packet: PacketId) -> Option<Packet> {
        self.packets.remove(&packet)
    }

    /// Iterates over registered (in-flight) packets.
    pub(crate) fn iter_in_flight(&self) -> impl Iterator<Item = &Packet> {
        self.packets.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{MessageClass, NodeId as N};

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

    #[test]
    fn source_queue_order() {
        let mut sq = SourceQueues::new();
        sq.enqueue_packet(&pkt(1, 3));
        sq.enqueue_packet(&pkt(2, 1).with_tag(9));
        assert_eq!(sq.pending_flits(), 4);
        let q = &sq.queues[MessageClass::Response.vc()];
        let ids: Vec<_> = q.iter().map(|f| (f.packet.0, f.seq)).collect();
        assert_eq!(ids, vec![(1, 0), (1, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn reassembly_completes_on_tail() {
        let mut r = Reassembly::new();
        let p = pkt(1, 3);
        assert!(r.accept(p.flit(0)).is_none());
        assert!(r.accept(p.flit(1)).is_none());
        let head = r.accept(p.flit(2)).unwrap();
        assert_eq!(head.packet, PacketId(1));
        assert_eq!(r.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn reassembly_rejects_reordered_flits() {
        let mut r = Reassembly::new();
        let p = pkt(1, 3);
        r.accept(p.flit(0));
        r.accept(p.flit(2));
    }

    #[test]
    fn ledger_round_trip() {
        let mut ledger = DeliveryLedger::new();
        let mut stats = NetStats::new();
        let p = pkt(7, 1).with_tag(123);
        ledger.register(p);
        assert_eq!(ledger.in_flight(), 1);
        let mut head = p.flit(0);
        head.injected = 4;
        ledger.complete(head, 20, 5, &mut stats);
        let d = ledger.drain();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].packet.tag, 123);
        assert_eq!(d[0].delivered, 20);
        assert_eq!(d[0].hops, 5);
        assert_eq!(stats.delivered(), 1);
        assert_eq!(ledger.in_flight(), 0);
        assert!(ledger.drain().is_empty());
    }

    #[test]
    #[should_panic(expected = "registered exactly once")]
    fn double_delivery_panics() {
        let mut ledger = DeliveryLedger::new();
        let mut stats = NetStats::new();
        let p = pkt(7, 1);
        ledger.register(p);
        ledger.complete(p.flit(0), 20, 5, &mut stats);
        ledger.complete(p.flit(0), 21, 5, &mut stats);
    }
}

mod digest_impls {
    use super::{DeliveryLedger, Reassembly, SourceQueues};
    use crate::digest::{StateDigest, StateHasher};

    impl StateDigest for SourceQueues {
        fn digest_state(&self, h: &mut StateHasher) {
            for q in &self.queues {
                h.write_usize(q.len());
                for flit in q {
                    flit.digest_state(h);
                }
            }
        }
    }

    impl StateDigest for Reassembly {
        fn digest_state(&self, h: &mut StateHasher) {
            h.write_usize(self.partial.len());
            for (&packet, &(accepted, head)) in &self.partial {
                h.write_u64(packet.0);
                h.write_u8(accepted);
                head.digest_state(h);
            }
        }
    }

    impl StateDigest for DeliveryLedger {
        fn digest_state(&self, h: &mut StateHasher) {
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
}
