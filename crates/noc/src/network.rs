//! The [`Network`] abstraction.
//!
//! Every organisation (mesh, SMART, Mesh+PRA, FRFC, ideal) implements
//! [`Network`], so the system model and the benchmark harness are generic
//! over the interconnect. Clients inject whole [`Packet`]s; the network
//! delivers them as [`Delivered`] records once the last flit reaches the
//! destination network interface. The network interface itself — source
//! queues, reassembly and the delivery ledger — is one type all of them
//! hold, `noc::ni::Ni` (crate-private).

use crate::config::NocConfig;
use crate::flit::Packet;
use crate::stats::NetStats;
use crate::types::Cycle;

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
