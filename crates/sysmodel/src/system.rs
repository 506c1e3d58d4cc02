//! The full-system driver: 64 tiles over a pluggable interconnect.
//!
//! Each tile hosts a core, its L1s (folded into the workload's miss
//! stream), one LLC slice and a router; four tiles additionally host a
//! memory channel. The driver advances cores, LLC slices, memory channels
//! and the network in lock-step, one cycle at a time, and measures
//! system performance as committed application instructions per cycle —
//! the paper's metric.
//!
//! Transaction flows:
//!
//! * **L1 miss** (instruction or data): core → request (1 flit) → home
//!   slice → serial tag lookup → **hit**: announce (PRA window) + data
//!   lookup → response (5 flits) → core; **miss**: request (1 flit) →
//!   memory channel → DRAM → fill (5 flits) → home slice → announce +
//!   lookup → response → core.
//! * **Coherence**: single-flit fire-and-forget messages between tiles.

use std::collections::BTreeMap;

use noc::flit::Packet;
use noc::network::{Delivered, Network};
use noc::types::{Cycle, MessageClass, NodeId, PacketId};
use noc::watchdog::Watchdog;
use workloads::{CoreStream, WorkloadKind};

use crate::core::{CoreIssue, CoreModel};
use crate::llc::{LlcSlice, TagOutcome};
use crate::memory::MemoryChannel;
use crate::params::SystemParams;

/// Message legs, encoded in the packets' client tags.
const LEG_REQ: u64 = 0;
const LEG_MEMREQ: u64 = 1;
const LEG_FILL: u64 = 2;
const LEG_RESP: u64 = 3;
const LEG_COH: u64 = 4;

fn tag(txid: u64, leg: u64) -> u64 {
    (txid << 3) | leg
}

fn untag(t: u64) -> (u64, u64) {
    (t >> 3, t & 0x7)
}

/// An outstanding L1-miss transaction.
#[derive(Debug, Clone, Copy)]
struct Tx {
    core: u16,
    home: u16,
    is_ifetch: bool,
    llc_hit: bool,
    /// Packet id reserved for the request at announce time.
    req_packet: PacketId,
    /// Packet id reserved for the response at announce time.
    resp_packet: PacketId,
    /// Packet id reserved for the memory fill at announce time.
    fill_packet: PacketId,
}

/// Deferred injections.
#[derive(Debug, Clone, Copy)]
#[allow(clippy::enum_variant_names)]
enum Event {
    /// The L1 miss handling finishes: inject the request.
    InjectRequest(u64),
    /// The LLC data lookup finishes: inject the response.
    InjectResponse(u64),
    /// DRAM data ready: inject the fill toward the home slice.
    InjectFill(u64),
}

/// The simulated 64-core server processor.
///
/// # Examples
///
/// ```
/// use noc::mesh::MeshNetwork;
/// use sysmodel::{System, SystemParams};
/// use workloads::WorkloadKind;
///
/// let params = SystemParams::paper();
/// let net = MeshNetwork::new(params.noc.clone());
/// let mut sys = System::new(params, net, WorkloadKind::WebSearch, 1);
/// sys.run(1_000);
/// assert!(sys.committed_instructions() > 0);
/// ```
#[derive(Debug)]
pub struct System<N: Network> {
    params: SystemParams,
    network: N,
    cores: Vec<CoreModel>,
    slices: Vec<LlcSlice>,
    channels: BTreeMap<usize, MemoryChannel>,
    txs: BTreeMap<u64, Tx>,
    events: BTreeMap<Cycle, Vec<Event>>,
    next_tx: u64,
    next_packet: u64,
    issue_buf: Vec<CoreIssue>,
    /// Reused delivery buffer, empty between cycles.
    delivered: Vec<Delivered>,
    workload: WorkloadKind,
    /// Optional invariant watchdog; observes network audits at its own
    /// check interval. `None` (the default) costs nothing per cycle.
    watchdog: Option<Watchdog>,
    /// Observability handle for system-level events (LLC windows);
    /// detached by default.
    obs: niobs::ObsHandle,
}

impl<N: Network> System<N> {
    /// Builds the system: one core + slice per tile, memory channels per
    /// `params`, instruction streams seeded by `(workload, core, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `params` are invalid or the network was built with a
    /// different configuration.
    pub fn new(params: SystemParams, network: N, workload: WorkloadKind, seed: u64) -> Self {
        Self::with_profile(params, network, workload.profile(), seed)
    }

    /// Builds the system from an explicit profile (parameter studies and
    /// calibration sweeps use scaled variants of the named profiles).
    ///
    /// # Panics
    ///
    /// Same conditions as [`System::new`].
    pub fn with_profile(
        params: SystemParams,
        network: N,
        profile: workloads::WorkloadProfile,
        seed: u64,
    ) -> Self {
        params.assert_valid();
        assert_eq!(
            network.config(),
            &params.noc,
            "network must match the system's NoC configuration"
        );
        let nodes = params.noc.nodes();
        let cores = (0..nodes)
            .map(|c| CoreModel::new(CoreStream::new(profile, nodes as u16, c as u16, seed)))
            .collect();
        let slices = (0..nodes)
            .map(|_| LlcSlice::new(params.llc_tag_cycles, params.llc_data_cycles))
            .collect();
        let channels = params
            .memory_controllers
            .iter()
            .map(|mc| {
                (
                    mc.index(),
                    MemoryChannel::new(params.dram_latency, params.dram_line_cycles),
                )
            })
            .collect();
        System {
            params,
            network,
            cores,
            slices,
            channels,
            txs: BTreeMap::new(),
            events: BTreeMap::new(),
            next_tx: 0,
            next_packet: 0,
            issue_buf: Vec::new(),
            delivered: Vec::new(),
            workload: profile.kind,
            watchdog: None,
            obs: niobs::ObsHandle::disabled(),
        }
    }

    /// Attaches an observability sink to the whole stack: the network's
    /// instrumentation hooks (router pipeline, control plane) and the
    /// system model's own LLC-window events all feed `sink`.
    pub fn attach_obs(&mut self, sink: niobs::SharedSink) {
        self.network.install_obs(sink.clone());
        self.obs.attach(sink);
    }

    /// Attaches an invariant watchdog: from now on, every time a check is
    /// due the system takes a network audit snapshot and feeds it to the
    /// watchdog. Networks without audit support are silently skipped.
    pub fn attach_watchdog(&mut self, watchdog: Watchdog) {
        self.watchdog = Some(watchdog);
    }

    /// The attached watchdog, if any.
    pub fn watchdog(&self) -> Option<&Watchdog> {
        self.watchdog.as_ref()
    }

    /// The workload being executed.
    pub fn workload(&self) -> WorkloadKind {
        self.workload
    }

    /// The interconnect (for statistics inspection).
    pub fn network(&self) -> &N {
        &self.network
    }

    /// Consumes the system and returns the interconnect.
    pub fn into_network(self) -> N {
        self.network
    }

    /// Total committed instructions across all cores.
    pub fn committed_instructions(&self) -> u64 {
        self.cores.iter().map(CoreModel::committed).sum()
    }

    /// Cycles simulated so far.
    pub fn cycles(&self) -> Cycle {
        self.network.now()
    }

    /// Outstanding transactions (useful for leak checks in tests).
    pub fn outstanding_transactions(&self) -> usize {
        self.txs.len()
    }

    fn fresh_packet(&mut self) -> PacketId {
        self.next_packet += 1;
        PacketId(self.next_packet)
    }

    /// Advances the whole system by one cycle.
    pub fn step(&mut self) {
        let t = self.network.now();
        self.dispatch_deliveries(t);
        self.tag_completions(t);
        self.run_events(t);
        self.run_cores();
        self.network.step();
        if let Some(wd) = self.watchdog.as_mut() {
            if wd.due(self.network.now()) {
                if let Some(report) = self.network.audit() {
                    wd.observe(&report);
                }
            }
        }
    }

    /// Runs `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Runs a warm-up window, then a measurement window; returns the
    /// system performance (committed instructions per cycle, summed over
    /// all cores) of the measurement window.
    pub fn measure(&mut self, warmup: u64, measure: u64) -> f64 {
        self.run(warmup);
        let before = self.committed_instructions();
        self.run(measure);
        (self.committed_instructions() - before) as f64 / measure as f64
    }

    fn dispatch_deliveries(&mut self, t: Cycle) {
        let mut delivered = std::mem::take(&mut self.delivered);
        self.network.drain_delivered_into(&mut delivered);
        for d in delivered.drain(..) {
            let (txid, leg) = untag(d.packet.tag);
            match leg {
                LEG_REQ => {
                    let tx = self.txs[&txid];
                    self.slices[tx.home as usize].accept(txid, t, tx.llc_hit);
                }
                LEG_MEMREQ => {
                    let tx = self.txs[&txid];
                    let mc = self.params.mc_for(txid).index();
                    debug_assert_eq!(mc, d.packet.dest.index());
                    let ready = self.channels.get_mut(&mc).expect("MC exists").enqueue(t);
                    if self.params.announce_fills && ready > t {
                        // DRAM timing is deterministic: the controller can
                        // announce the fill as far ahead as the access
                        // latency allows.
                        let fill = self.fill_packet(txid, &tx);
                        self.announce(t, &fill, ready - t, "fill");
                    }
                    self.events
                        .entry(ready)
                        .or_default()
                        .push(Event::InjectFill(txid));
                }
                LEG_FILL => {
                    // The line is written and then read back through the
                    // data array: ready after the data-lookup latency, and
                    // announced now (the slice knows the hit outcome — it
                    // just filled the line).
                    let tx = self.txs[&txid];
                    let lead = self.params.llc_data_cycles;
                    let resp = self.response_packet(txid, &tx);
                    self.announce(t, &resp, Cycle::from(lead), "fill_response");
                    self.events
                        .entry(t + lead as Cycle)
                        .or_default()
                        .push(Event::InjectResponse(txid));
                }
                LEG_RESP => {
                    let tx = self.txs.remove(&txid).expect("response for a live tx");
                    let core = &mut self.cores[tx.core as usize];
                    if tx.is_ifetch {
                        core.complete_ifetch();
                    } else {
                        core.complete_data();
                    }
                }
                LEG_COH => {} // fire-and-forget
                _ => unreachable!("unknown message leg"),
            }
        }
        self.delivered = delivered;
    }

    fn tag_completions(&mut self, t: Cycle) {
        for home in 0..self.slices.len() {
            for (txid, outcome) in self.slices[home].tag_completions(t) {
                match outcome {
                    TagOutcome::Hit { data_ready } => {
                        let tx = self.txs[&txid];
                        let resp = self.response_packet(txid, &tx);
                        self.announce(t, &resp, data_ready - t, "tag_hit");
                        self.events
                            .entry(data_ready)
                            .or_default()
                            .push(Event::InjectResponse(txid));
                    }
                    TagOutcome::Miss => {
                        let tx = self.txs[&txid];
                        let mc = self.params.mc_for(txid);
                        let id = self.fresh_packet();
                        self.network.inject(
                            Packet::new(id, NodeId::new(tx.home), mc, MessageClass::Request, 1)
                                .with_tag(tag(txid, LEG_MEMREQ)),
                        );
                    }
                }
            }
        }
    }

    fn run_events(&mut self, t: Cycle) {
        let Some(events) = self.events.remove(&t) else {
            return;
        };
        for ev in events {
            match ev {
                Event::InjectRequest(txid) => {
                    let tx = self.txs[&txid];
                    let req = self.request_packet(txid, &tx);
                    self.network.inject(req);
                }
                Event::InjectResponse(txid) => {
                    let tx = self.txs[&txid];
                    let resp = self.response_packet(txid, &tx);
                    self.network.inject(resp);
                }
                Event::InjectFill(txid) => {
                    let tx = self.txs[&txid];
                    let fill = self.fill_packet(txid, &tx);
                    self.network.inject(fill);
                }
            }
        }
    }

    /// The response packet of `tx` (same id at announce and inject time).
    fn response_packet(&self, txid: u64, tx: &Tx) -> Packet {
        Packet::new(
            tx.resp_packet,
            NodeId::new(tx.home),
            NodeId::new(tx.core),
            MessageClass::Response,
            self.params.noc.max_packet_len,
        )
        .with_tag(tag(txid, LEG_RESP))
    }

    fn run_cores(&mut self) {
        for c in 0..self.cores.len() {
            self.issue_buf.clear();
            let mut issues = std::mem::take(&mut self.issue_buf);
            self.cores[c].step(&mut issues);
            for issue in issues.drain(..) {
                match issue {
                    CoreIssue::IFetch { home, llc_hit } => {
                        self.start_miss(c as u16, home, llc_hit, true);
                    }
                    CoreIssue::Data { home, llc_hit } => {
                        self.start_miss(c as u16, home, llc_hit, false);
                    }
                    CoreIssue::Coherence { peer } => {
                        let id = self.fresh_packet();
                        self.network.inject(
                            Packet::new(
                                id,
                                NodeId::new(c as u16),
                                NodeId::new(peer),
                                MessageClass::Coherence,
                                1,
                            )
                            .with_tag(tag(0, LEG_COH)),
                        );
                    }
                }
            }
            self.issue_buf = issues;
        }
    }

    fn start_miss(&mut self, core: u16, home: u16, llc_hit: bool, is_ifetch: bool) {
        self.next_tx += 1;
        let txid = self.next_tx;
        let req_packet = self.fresh_packet();
        let resp_packet = self.fresh_packet();
        let fill_packet = self.fresh_packet();
        let tx = Tx {
            core,
            home,
            is_ifetch,
            llc_hit,
            req_packet,
            resp_packet,
            fill_packet,
        };
        self.txs.insert(txid, tx);
        let lead = self.params.request_lead_cycles;
        let req = self.request_packet(txid, &tx);
        if lead == 0 {
            self.network.inject(req);
        } else {
            // The L1-miss window: the request's destination is known while
            // the miss is being assembled, so PRA-capable networks get the
            // same advance notice the LLC window gives responses.
            let t = self.network.now();
            if self.params.announce_requests {
                self.announce(t, &req, Cycle::from(lead), "request");
            }
            self.events
                .entry(t + lead as Cycle)
                .or_default()
                .push(Event::InjectRequest(txid));
        }
    }

    /// The fill packet of `tx` (same id at announce and inject time).
    fn fill_packet(&self, txid: u64, tx: &Tx) -> Packet {
        Packet::new(
            tx.fill_packet,
            self.params.mc_for(txid),
            NodeId::new(tx.home),
            MessageClass::Response,
            self.params.noc.max_packet_len,
        )
        .with_tag(tag(txid, LEG_FILL))
    }

    /// The request packet of `tx` (same id at announce and inject time).
    fn request_packet(&self, txid: u64, tx: &Tx) -> Packet {
        Packet::new(
            tx.req_packet,
            NodeId::new(tx.core),
            NodeId::new(tx.home),
            MessageClass::Request,
            1,
        )
        .with_tag(tag(txid, LEG_REQ))
    }

    /// Announces `packet` to the network `lead` cycles before it is
    /// injected, and records that window as an `LlcWindow` event of
    /// `kind` at cycle `t`.
    fn announce(&mut self, t: Cycle, packet: &Packet, lead: Cycle, kind: &'static str) {
        self.network.announce(packet, lead as u32);
        self.obs.emit(t, || niobs::Event::LlcWindow {
            packet: packet.id.0,
            src: packet.src.index() as u64,
            dest: packet.dest.index() as u64,
            lead,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc::ideal::IdealNetwork;
    use noc::mesh::MeshNetwork;

    fn params() -> SystemParams {
        SystemParams::paper()
    }

    #[test]
    fn mesh_system_makes_progress_and_leaks_nothing() {
        let p = params();
        let net = MeshNetwork::new(p.noc.clone());
        let mut sys = System::new(p, net, WorkloadKind::WebSearch, 1);
        sys.run(5_000);
        assert!(sys.committed_instructions() > 10_000);
        // Outstanding transactions stay bounded by cores × (1 + MLP).
        assert!(sys.outstanding_transactions() <= 64 * 7);
    }

    #[test]
    fn determinism_same_seed_same_instructions() {
        let p = params();
        let mut a = System::new(
            p.clone(),
            MeshNetwork::new(p.noc.clone()),
            WorkloadKind::DataServing,
            5,
        );
        let mut b = System::new(
            p.clone(),
            MeshNetwork::new(p.noc.clone()),
            WorkloadKind::DataServing,
            5,
        );
        a.run(3_000);
        b.run(3_000);
        assert_eq!(a.committed_instructions(), b.committed_instructions());
    }

    #[test]
    fn watchdog_stays_quiet_on_healthy_mesh() {
        fn check<N: Network>(name: &str, net: N) {
            let mut sys = System::new(params(), net, WorkloadKind::WebSearch, 2);
            sys.attach_watchdog(Watchdog::default());
            sys.run(5_000);
            let wd = sys.watchdog().expect("attached");
            assert!(wd.checks_run() > 0, "{name}: audits must actually run");
            assert!(
                wd.is_quiet(),
                "{name}: healthy network must raise no violations: {:?}",
                wd.violations()
            );
        }
        let cfg = params().noc;
        check("mesh", MeshNetwork::new(cfg.clone()));
        check("pra", pra::PraNetwork::new(cfg.clone()));
        check("frfc", pra::FrfcNetwork::new(cfg));
    }

    #[test]
    fn ideal_network_outperforms_mesh() {
        let p = params();
        let mut mesh = System::new(
            p.clone(),
            MeshNetwork::new(p.noc.clone()),
            WorkloadKind::MediaStreaming,
            3,
        );
        let mut ideal = System::new(
            p.clone(),
            IdealNetwork::new(p.noc.clone()),
            WorkloadKind::MediaStreaming,
            3,
        );
        let perf_mesh = mesh.measure(3_000, 10_000);
        let perf_ideal = ideal.measure(3_000, 10_000);
        assert!(
            perf_ideal > perf_mesh * 1.1,
            "ideal {perf_ideal} must clearly beat mesh {perf_mesh} on media streaming"
        );
    }
}
