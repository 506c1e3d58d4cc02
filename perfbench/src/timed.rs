//! Outside-in layer timing: a [`Network`] wrapper that times every call
//! crossing the network boundary, plus the organisation dispatch the
//! workloads share.

use std::time::Instant;

use noc::config::NocConfig;
use noc::flit::Packet;
use noc::ideal::IdealNetwork;
use noc::mesh::MeshNetwork;
use noc::network::{Delivered, Network};
use noc::smart::SmartNetwork;
use noc::stats::NetStats;
use noc::types::Cycle;
use pra::{FrfcNetwork, PraNetwork, PraStats};
use runner::Organization;

/// The five organisations in the order every workload runs them, with
/// the metric prefix each reports under.
pub const ORGS: [(Organization, &str); 5] = [
    (Organization::Mesh, "mesh"),
    (Organization::Smart, "smart"),
    (Organization::MeshPra, "pra"),
    (Organization::Ideal, "ideal"),
    (Organization::Frfc, "frfc"),
];

/// Host time spent at one call boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Clock {
    /// Calls that crossed the boundary.
    pub calls: u64,
    /// Nanoseconds spent inside those calls.
    pub ns: u64,
}

impl Clock {
    /// Adds another clock's calls and time.
    pub fn add(&mut self, other: Clock) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Times a call, or not: the untraced loops use [`NoClock`] so they
/// compile to exactly the untimed call.
pub trait Stopwatch {
    /// Runs `f`, accounting its host time when this is a real clock.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R;
}

impl Stopwatch for Clock {
    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }
}

/// The stopwatch of untraced runs: calls `f` and records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoClock;

impl Stopwatch for NoClock {
    #[inline(always)]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Host time per `Network` boundary, accumulated by [`Timed`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetClocks {
    /// `Network::inject`.
    pub inject: Clock,
    /// `Network::step`.
    pub step: Clock,
    /// `Network::drain_delivered` and `Network::drain_delivered_into`.
    pub drain: Clock,
    /// `Network::announce`.
    pub announce: Clock,
}

impl NetClocks {
    /// Adds another set of clocks, boundary by boundary.
    pub fn add(&mut self, other: &NetClocks) {
        self.inject.add(other.inject);
        self.step.add(other.step);
        self.drain.add(other.drain);
        self.announce.add(other.announce);
    }

    /// Host time of every timed call, summed.
    pub fn total_ns(&self) -> u64 {
        self.inject.ns + self.step.ns + self.drain.ns + self.announce.ns
    }
}

/// A network plus the read-outs the benchmark takes from its concrete
/// type (the PRA control-plane counters).
pub trait Sim: Network {
    /// Mesh+PRA's control-plane statistics; `None` for other networks.
    fn pra_stats(&self) -> Option<&PraStats> {
        None
    }
}

impl Sim for MeshNetwork {}
impl Sim for SmartNetwork {}
impl Sim for IdealNetwork {}
impl Sim for FrfcNetwork {}
impl Sim for PraNetwork {
    fn pra_stats(&self) -> Option<&PraStats> {
        Some(PraNetwork::pra_stats(self))
    }
}

/// A computation generic over the concrete network type, so every
/// timed loop is monomorphized exactly as the repository's drivers are.
pub trait Visit {
    /// Result of the computation.
    type Out;
    /// Runs the computation on a freshly built network.
    fn visit<N: Sim>(self, net: N) -> Self::Out;
}

/// Builds `org`'s network on `cfg` and hands it to `v`.
pub fn with_org<V: Visit>(org: Organization, cfg: NocConfig, v: V) -> V::Out {
    match org {
        Organization::Mesh => v.visit(MeshNetwork::new(cfg)),
        Organization::Smart => v.visit(SmartNetwork::new(cfg)),
        Organization::MeshPra => v.visit(PraNetwork::new(cfg)),
        Organization::Ideal => v.visit(IdealNetwork::new(cfg)),
        Organization::Frfc => v.visit(FrfcNetwork::new(cfg)),
    }
}

/// Times the hot `Network` calls of the wrapped network and forwards
/// every other method untouched.
///
/// Every trait method is forwarded, the defaulted ones included: a
/// missed default would silently change the program under measurement
/// (no skip-ahead, an allocating drain, no audit). `run_to_drain` is the
/// one exception: its default only calls `step` and `drain_delivered`,
/// which this wrapper times.
#[derive(Debug)]
pub struct Timed<N> {
    inner: N,
    /// Host time per boundary since construction.
    pub clocks: NetClocks,
}

impl<N: Network> Timed<N> {
    /// Wraps `inner` with zeroed clocks.
    pub fn new(inner: N) -> Self {
        Timed {
            inner,
            clocks: NetClocks::default(),
        }
    }
}

impl<N: Sim> Sim for Timed<N> {
    fn pra_stats(&self) -> Option<&PraStats> {
        self.inner.pra_stats()
    }
}

impl<N: Network> Network for Timed<N> {
    fn config(&self) -> &NocConfig {
        self.inner.config()
    }
    fn now(&self) -> Cycle {
        self.inner.now()
    }
    fn inject(&mut self, packet: Packet) {
        self.clocks.inject.time(|| self.inner.inject(packet));
    }
    fn step(&mut self) {
        self.clocks.step.time(|| self.inner.step());
    }
    fn drain_delivered(&mut self) -> Vec<Delivered> {
        self.clocks.drain.time(|| self.inner.drain_delivered())
    }
    fn drain_delivered_into(&mut self, out: &mut Vec<Delivered>) {
        self.clocks
            .drain
            .time(|| self.inner.drain_delivered_into(out));
    }
    fn set_skip_ahead(&mut self, enabled: bool) {
        self.inner.set_skip_ahead(enabled);
    }
    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
    fn announce(&mut self, packet: &Packet, lead: u32) {
        self.clocks
            .announce
            .time(|| self.inner.announce(packet, lead));
    }
    fn install_cancel(&mut self, token: noc::cancel::CancelToken) {
        self.inner.install_cancel(token);
    }
    fn state_digest(&self) -> Option<u64> {
        self.inner.state_digest()
    }
    fn audit(&self) -> Option<noc::watchdog::AuditReport> {
        self.inner.audit()
    }
    fn reliable_stats(&self) -> Option<noc::reliable::ReliableStats> {
        self.inner.reliable_stats()
    }
    fn install_obs(&mut self, sink: niobs::SharedSink) {
        self.inner.install_obs(sink);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use noc::types::{MessageClass, NodeId, PacketId};

    /// A network that answers every method, defaulted ones included,
    /// with a distinct value and logs each call, so a test sees exactly
    /// which methods reached it through the wrapper.
    struct Probe {
        cfg: NocConfig,
        stats: NetStats,
        log: Rc<RefCell<Vec<&'static str>>>,
    }

    impl Probe {
        fn hit(&self, name: &'static str) {
            self.log.borrow_mut().push(name);
        }
    }

    impl Network for Probe {
        fn config(&self) -> &NocConfig {
            self.hit("config");
            &self.cfg
        }
        fn now(&self) -> Cycle {
            self.hit("now");
            17
        }
        fn inject(&mut self, _packet: Packet) {
            self.hit("inject");
        }
        fn step(&mut self) {
            self.hit("step");
        }
        fn drain_delivered(&mut self) -> Vec<Delivered> {
            self.hit("drain_delivered");
            Vec::new()
        }
        fn drain_delivered_into(&mut self, _out: &mut Vec<Delivered>) {
            self.hit("drain_delivered_into");
        }
        fn set_skip_ahead(&mut self, _enabled: bool) {
            self.hit("set_skip_ahead");
        }
        fn in_flight(&self) -> usize {
            self.hit("in_flight");
            3
        }
        fn stats(&self) -> &NetStats {
            self.hit("stats");
            &self.stats
        }
        fn reset_stats(&mut self) {
            self.hit("reset_stats");
        }
        fn announce(&mut self, _packet: &Packet, _lead: u32) {
            self.hit("announce");
        }
        fn install_cancel(&mut self, _token: noc::cancel::CancelToken) {
            self.hit("install_cancel");
        }
        fn state_digest(&self) -> Option<u64> {
            self.hit("state_digest");
            Some(99)
        }
        fn audit(&self) -> Option<noc::watchdog::AuditReport> {
            self.hit("audit");
            None
        }
        fn reliable_stats(&self) -> Option<noc::reliable::ReliableStats> {
            self.hit("reliable_stats");
            None
        }
        fn install_obs(&mut self, _sink: niobs::SharedSink) {
            self.hit("install_obs");
        }
    }

    #[test]
    fn timed_forwards_every_network_method() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut net = Timed::new(Probe {
            cfg: NocConfig::paper(),
            stats: NetStats::new(),
            log: Rc::clone(&log),
        });
        let packet = Packet::new(
            PacketId(1),
            NodeId::new(0),
            NodeId::new(1),
            MessageClass::Request,
            1,
        );
        let _ = net.config();
        assert_eq!(net.now(), 17);
        net.inject(packet);
        net.step();
        let _ = net.drain_delivered();
        net.drain_delivered_into(&mut Vec::new());
        net.set_skip_ahead(true);
        assert_eq!(net.in_flight(), 3);
        let _ = net.stats();
        net.reset_stats();
        net.announce(&packet, 4);
        net.install_cancel(noc::cancel::CancelToken::new());
        assert_eq!(net.state_digest(), Some(99));
        assert!(net.audit().is_none());
        assert!(net.reliable_stats().is_none());
        net.install_obs(niobs::Recorder::default().into_shared());
        assert_eq!(
            *log.borrow(),
            [
                "config",
                "now",
                "inject",
                "step",
                "drain_delivered",
                "drain_delivered_into",
                "set_skip_ahead",
                "in_flight",
                "stats",
                "reset_stats",
                "announce",
                "install_cancel",
                "state_digest",
                "audit",
                "reliable_stats",
                "install_obs",
            ]
        );
        let c = net.clocks;
        assert_eq!(
            (
                c.inject.calls,
                c.step.calls,
                c.drain.calls,
                c.announce.calls
            ),
            (1, 1, 2, 1)
        );
    }
}
