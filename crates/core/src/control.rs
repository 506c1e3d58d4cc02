//! The PRA control network.
//!
//! A narrow, bufferless mesh of single-cycle 2-hop multi-drop segments
//! (Figure 5 of the paper) that runs ahead of data packets and reserves
//! resources in the data network:
//!
//! * A control packet carries `{destination, lag, size, message class,
//!   lookahead route}` and is processed at one multi-drop segment (up to
//!   two routers) every **two** cycles — one cycle of processing, one of
//!   transmission.
//! * Each processed router reserves its output-port timeslots for every
//!   flit of the data packet, plus a conservative full-packet buffer at
//!   the next router. When the *next* segment also allocates, an ACK
//!   converts that buffer landing into a latch (one-cycle parking) or a
//!   same-cycle bypass, releasing the buffer — so a fully pre-allocated
//!   path moves data two hops per cycle with buffers only at the end.
//! * The **lag** — the number of cycles the data packet trails the control
//!   packet — shrinks by one per segment (control covers 2 hops in 2
//!   cycles; pre-allocated data covers them in 1). At lag 0 the data has
//!   caught up and the control packet is dropped **before** it can
//!   process another segment — only survivors with lag ≥ 1 allocate
//!   (the boundary the analyzer's `Guarded` lag model verifies). The
//!   paper's Figure 7 is the histogram of lag values at drop time.
//! * Control packets are also dropped on any allocation failure and on
//!   static-priority conflicts (at most one control packet per router
//!   input latch per cycle; LSD injections have the lowest priority).
//!
//! Dropping is always safe: reservations already installed simply let the
//! data packet ride a shorter pre-allocated prefix and continue reactively.

use std::ops::Range;

use noc::config::NocConfig;
use noc::digest::StateDigest;
use noc::network::Network as _;
use noc::reserve::{FlitSource, HopPlan, InstallError, Landing, ReservingCore, StalledHead};
use noc::routing::Route;
use noc::types::{Cycle, MessageClass, NodeId, PacketId, Port};

use crate::lsd;
use crate::network::{ejection_after, Announce, ControlPlane};
use crate::schedule::{
    chunk_positions_into, claim_keys, priority_rank, route_nodes_into, segment_positions, ClaimKey,
};
use crate::stats::{ControlOrigin, DropReason, PraStats};

/// Tunables of the control plane (ablation switches live here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlConfig {
    /// Maximum lag a control packet may carry (the paper's setup uses 4,
    /// matching the LLC's 4-cycle data lookup).
    pub max_lag: u8,
    /// Launch control packets from the LLC window (tag-hit → data-ready).
    pub llc_window: bool,
    /// Launch control packets from Long Stall Detection units.
    pub lsd: bool,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            max_lag: 4,
            llc_window: true,
            lsd: true,
        }
    }
}

/// The hop after which a provisional full-buffer landing was installed;
/// converted by the next segment's ACK.
#[derive(Debug, Clone)]
struct PrevHop {
    node: NodeId,
    out_port: Port,
    window: Range<Cycle>,
}

/// An in-flight control packet.
#[derive(Debug, Clone)]
struct ControlPacket {
    id: u64,
    origin: ControlOrigin,
    packet: PacketId,
    class: MessageClass,
    len: u8,
    route: Route,
    /// Router at each route position ([`crate::schedule::route_nodes`]) —
    /// derived from `route`, excluded from the digest.
    nodes: Vec<NodeId>,
    /// Chunk index (single-cycle data traversal number) per position.
    chunk_of: Vec<usize>,
    /// Next route position (out-port index along the route) to allocate.
    pos: usize,
    /// Cycle at which the data packet's head uses position 0's out port.
    due0: Cycle,
    /// Remaining lag. Survivors of a segment are decremented once; a due
    /// packet at lag 0 is dropped before processing another segment.
    lag: u8,
    /// Cycle this packet is processed next.
    process_at: Cycle,
    prev_hop: Option<PrevHop>,
    /// Flit source for position 0 (local VC for LLC launches, the stalled
    /// packet's input VC for LSD launches).
    first_source: FlitSource,
}

/// Buckets of the control network's due wheel (see
/// [`ControlNetwork::due`]); packets come due at most two cycles ahead.
const DUE_WHEEL: usize = 8;

/// Reusable buffers of [`ControlNetwork::process`], the LSD scan and
/// launches. Every buffer is emptied before it is put back, so the
/// scratch never carries state between cycles and is excluded from the
/// digest.
#[derive(Debug, Default)]
struct ControlScratch {
    /// Packets due this cycle: `(priority rank, id, index in packets)`.
    due: Vec<(u8, u64, usize)>,
    /// Control latches claimed so far this cycle.
    claims: Vec<ClaimKey>,
    /// Ids of the packets dropped this cycle.
    dropped: Vec<u64>,
    /// Stalled heads reported to the LSD scan.
    stalled: Vec<StalledHead>,
    /// Position tables (`chunk_of`, `nodes`) of retired packets, kept for
    /// their capacity so a launch does not allocate them afresh.
    spare: Vec<(Vec<usize>, Vec<NodeId>)>,
}

/// The control network: in-flight control packets plus statistics.
#[derive(Debug)]
pub struct ControlNetwork {
    cfg: NocConfig,
    ctrl: ControlConfig,
    /// In-flight packets in launch order, which is ascending `id` order
    /// (the digest writes them in this order).
    packets: Vec<ControlPacket>,
    /// `(process_at, id)` of every in-flight packet, in bucket
    /// `process_at % DUE_WHEEL` — derived state, excluded from the
    /// digest. `process` reads one bucket instead of every packet.
    due: Vec<Vec<(Cycle, u64)>>,
    next_id: u64,
    stats: PraStats,
    /// Boxed, so the buffers add one pointer to `PraNetwork`, which the
    /// runner moves around as a variant of its organisation enum.
    scratch: Box<ControlScratch>,
    /// Observability handle; detached by default.
    obs: niobs::ObsHandle,
}

impl ControlNetwork {
    /// Creates an empty control network.
    pub fn new(cfg: NocConfig, ctrl: ControlConfig) -> Self {
        ControlNetwork {
            cfg,
            ctrl,
            packets: Vec::new(),
            due: vec![Vec::new(); DUE_WHEEL],
            next_id: 0,
            stats: PraStats::new(),
            scratch: Box::default(),
            obs: niobs::ObsHandle::disabled(),
        }
    }

    /// The control network's observability handle (for co-located
    /// producers such as the LSD scan).
    pub fn obs(&self) -> &niobs::ObsHandle {
        &self.obs
    }

    /// The control-plane configuration.
    pub fn control_config(&self) -> &ControlConfig {
        &self.ctrl
    }

    /// Control packets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.packets.len()
    }

    /// Whether a control packet for `packet` is in flight.
    pub fn has_packet_for(&self, packet: PacketId) -> bool {
        self.packets.iter().any(|c| c.packet == packet)
    }

    /// Lends the LSD scan its stalled-head buffer (empty); hand it back
    /// with [`ControlNetwork::return_stalled`].
    pub(crate) fn take_stalled(&mut self) -> Vec<StalledHead> {
        std::mem::take(&mut self.scratch.stalled)
    }

    /// Takes back the buffer lent by [`ControlNetwork::take_stalled`].
    pub(crate) fn return_stalled(&mut self, mut stalled: Vec<StalledHead>) {
        stalled.clear();
        self.scratch.stalled = stalled;
    }

    /// Files packet `id` to come due at `process_at`.
    fn file_due(&mut self, process_at: Cycle, id: u64) {
        self.due[(process_at % DUE_WHEEL as Cycle) as usize].push((process_at, id));
    }

    /// Launches a control packet for a future LLC response: the data
    /// packet will be injected such that its head flit can first traverse
    /// the source router's output port at cycle `a.due0`; `a.launch_at` is
    /// the cycle the source router processes the control packet (must
    /// satisfy `due0 - launch_at <= max_lag`).
    ///
    /// Returns `false` (recording the refusal) when the source NI has
    /// backlog that would make the injection time unpredictable.
    pub(crate) fn launch_llc(&mut self, mesh: &ReservingCore, a: &Announce) -> bool {
        debug_assert!(a.due0 >= a.launch_at && a.due0 - a.launch_at <= self.ctrl.max_lag as Cycle);
        if !self.ctrl.llc_window {
            return false;
        }
        if mesh.source_backlog(a.src, a.class) != 0 {
            self.stats.refused_at_ni += 1;
            return false;
        }
        // Fault-aware: under degraded routing this follows the BFS detour
        // tables; `None` means the destination is unreachable (or dead).
        let Some(route) = mesh.compute_route(a.src, a.dest) else {
            return false;
        };
        if route.hops() == 0 {
            return false;
        }
        self.push_packet(
            ControlOrigin::Llc,
            a.packet,
            a.class,
            a.len,
            route,
            a.due0,
            a.launch_at,
            FlitSource::Vc {
                port: Port::Local,
                vc: a.class.vc(),
            },
        );
        true
    }

    /// Launches a control packet for the head `s` stalled behind a
    /// deterministically draining multi-flit transmission, processed at
    /// its router at `process_at`; the blocked output port frees at
    /// `s.release`. Only the LSD scan calls this, and only with the LSD
    /// window enabled.
    pub(crate) fn launch_lsd(&mut self, mesh: &ReservingCore, s: &StalledHead, process_at: Cycle) {
        let due0 = s.release;
        debug_assert!(due0 >= process_at && due0 - process_at <= self.ctrl.max_lag as Cycle);
        let Some(route) = mesh.compute_route(s.node, s.flit.dest) else {
            return;
        };
        if route.hops() == 0 {
            return;
        }
        self.push_packet(
            ControlOrigin::Lsd,
            s.flit.packet,
            s.flit.class,
            s.flit.len_flits,
            route,
            due0,
            process_at,
            FlitSource::Vc {
                port: s.in_port,
                vc: s.vc,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn push_packet(
        &mut self,
        origin: ControlOrigin,
        packet: PacketId,
        class: MessageClass,
        len: u8,
        route: Route,
        due0: Cycle,
        process_at: Cycle,
        first_source: FlitSource,
    ) {
        let (mut chunk_of, mut nodes) = self.scratch.spare.pop().unwrap_or_default();
        chunk_positions_into(&route, self.cfg.max_hops_per_cycle, &mut chunk_of);
        route_nodes_into(&self.cfg, &route, &mut nodes);
        self.next_id += 1;
        self.stats.record_injected(origin);
        self.obs.emit(process_at, || niobs::Event::ControlInjected {
            packet: packet.0,
            src: route.src().index() as u64,
            origin: match origin {
                ControlOrigin::Llc => "llc",
                ControlOrigin::Lsd => "lsd",
            },
            lag: u8::try_from(due0 - process_at).unwrap_or(u8::MAX),
        });
        self.packets.push(ControlPacket {
            id: self.next_id,
            origin,
            packet,
            class,
            len,
            route,
            nodes,
            chunk_of,
            pos: 0,
            due0,
            // Launch contract: `due0 - process_at <= max_lag <= u8::MAX`,
            // verified statically by the analyzer's lag interval analysis.
            lag: u8::try_from(due0 - process_at).expect("launch lag exceeds u8 (max_lag contract)"),
            process_at,
            prev_hop: None,
            first_source,
        });
        self.file_due(process_at, self.next_id);
    }

    /// Processes every control packet due this cycle (`mesh.now() + 1`,
    /// the cycle the subsequent `mesh.step()` will execute). Call exactly
    /// once per cycle, before stepping the mesh.
    // hot
    pub fn process(&mut self, mesh: &mut ReservingCore) {
        let t = mesh.now() + 1;
        let mut due = std::mem::take(&mut self.scratch.due);
        let mut claims = std::mem::take(&mut self.scratch.claims);
        let mut dropped = std::mem::take(&mut self.scratch.dropped);
        let packets = &self.packets;
        self.due[(t % DUE_WHEEL as Cycle) as usize].retain(|&(at, id)| {
            if at != t {
                return true;
            }
            // `packets` is in ascending id order.
            let i = packets
                .binary_search_by_key(&id, |c| c.id)
                .expect("a filed packet is in flight");
            due.push((priority_rank(packets[i].pos > 0, packets[i].origin), id, i));
            false
        });
        // Static priority: continuing segments first (they sit in the
        // closest multi-drop latches), then fresh LLC injections (NI
        // latch), then LSD injections (lowest priority). The rank
        // function is shared with the static analyzer, which proves it a
        // strict total order (unique ids break ties).
        due.sort_unstable();

        for &(_, id, i) in &due {
            let outcome = {
                let cp = &mut self.packets[i];
                if cp.lag == 0 {
                    // The data packet has caught up: drop before claiming
                    // any latch or processing another segment. Survivors
                    // carry lag ≥ 1 — the boundary the analyzer's
                    // `Guarded` lag model verifies.
                    Some(DropReason::LagExhausted)
                } else if segment_faulted(mesh, cp) {
                    mesh.note_control_drop();
                    Some(DropReason::Fault)
                } else {
                    match claim_keys(&cp.route, &cp.nodes, cp.origin, cp.pos) {
                        Some(keys) if keys.iter().all(|k| !claims.contains(k)) => {
                            claims.extend_from_slice(&keys);
                            step_segment(mesh, cp, t, &mut self.stats, &self.obs)
                        }
                        Some(_) => Some(DropReason::Conflict),
                        None => Some(DropReason::AllocationFailed),
                    }
                }
            };
            match outcome {
                Some(reason) => {
                    let cp = &self.packets[i];
                    self.stats.record_drop(reason, cp.lag);
                    self.obs.emit(t, || niobs::Event::ControlDropped {
                        packet: cp.packet.0,
                        reason: drop_reason_label(reason),
                        lag: cp.lag,
                    });
                    dropped.push(id);
                }
                None => self.file_due(self.packets[i].process_at, id),
            }
        }
        // Remove every drop in one order-preserving pass (ids are unique,
        // so membership is exact even with several drops per cycle).
        if !dropped.is_empty() {
            let retired = self.packets.extract_if(.., |c| dropped.contains(&c.id));
            self.scratch
                .spare
                .extend(retired.map(|c| (c.chunk_of, c.nodes)));
        }
        due.clear();
        claims.clear();
        dropped.clear();
        self.scratch.due = due;
        self.scratch.claims = claims;
        self.scratch.dropped = dropped;
    }
}

/// The PRA plane of [`crate::network::PraNetwork`]: an announce launches
/// an LLC control packet, and each cycle runs the LSD scan and then
/// processes the due control packets.
impl ControlPlane for ControlNetwork {
    fn max_lag(&self) -> Cycle {
        self.ctrl.max_lag as Cycle
    }

    fn launch(&mut self, mesh: &ReservingCore, a: &Announce) {
        self.launch_llc(mesh, a);
    }

    // hot
    fn step(&mut self, mesh: &mut ReservingCore) {
        lsd::scan_and_launch(mesh, self);
        self.process(mesh);
    }

    fn stats(&self) -> &PraStats {
        &self.stats
    }

    /// In-flight control packets are untouched.
    fn reset_stats(&mut self) {
        self.stats = PraStats::new();
    }

    fn set_obs(&mut self, sink: niobs::SharedSink) {
        self.obs.attach(sink);
    }

    fn digested(&self) -> Option<&dyn StateDigest> {
        Some(self)
    }
}

/// Whether a fault makes `cp`'s current segment unusable: a dead or
/// control-corrupted router on the segment, a dead link into it, or a dead
/// data link the segment would reserve. Dropping is the safe response —
/// the data packet keeps whatever prefix was already reserved and
/// continues reactively on the (rerouted) mesh. Always `false` when fault
/// injection is off.
fn segment_faulted(mesh: &ReservingCore, cp: &ControlPacket) -> bool {
    if !mesh.faults_enabled() {
        return false;
    }
    let (a, b) = segment_positions(&cp.route, cp.pos);
    let check = |k: usize| -> bool {
        let node = cp.nodes[k];
        if !mesh.node_alive(node) || mesh.control_fault_at(node) {
            return true;
        }
        if k > 0 {
            let prev = cp.nodes[k - 1];
            let dir_in = cp.route.dir_at(k - 1).expect("position on route");
            if !mesh.link_alive(prev, dir_in) {
                return true;
            }
        }
        match cp.route.dir_at(k) {
            Some(dir_out) => !mesh.link_alive(node, dir_out),
            None => false,
        }
    };
    check(a) || b.is_some_and(check)
}

/// Stable snake_case label for a [`DropReason`] (event payloads).
fn drop_reason_label(reason: DropReason) -> &'static str {
    match reason {
        DropReason::Completed => "completed",
        DropReason::LagExhausted => "lag_exhausted",
        DropReason::AllocationFailed => "allocation_failed",
        DropReason::Conflict => "conflict",
        DropReason::NiBusy => "ni_busy",
        DropReason::Fault => "fault",
    }
}

/// Dense index of an [`InstallError`] in `PraStats::alloc_fail_kinds`.
fn install_error_index(e: InstallError) -> usize {
    match e {
        InstallError::SlotTaken => 0,
        InstallError::PortCommitted => 1,
        InstallError::NoDownstreamBuffer => 2,
        InstallError::LatchBusy => 3,
        InstallError::NoSuchNeighbor => 4,
    }
}

/// Builds the hop plan for route position `k` with the given landing.
fn plan_for(cp: &ControlPacket, k: usize, landing: Landing) -> HopPlan {
    let node = cp.nodes[k];
    let dir = cp.route.dir_at(k).expect("position on route");
    let source = if k == 0 {
        cp.first_source
    } else {
        let from = cp
            .route
            .dir_at(k - 1)
            .expect("position on route")
            .opposite();
        if cp.chunk_of[k] != cp.chunk_of[k - 1] {
            FlitSource::Latch { from }
        } else {
            FlitSource::Bypass { from }
        }
    };
    HopPlan {
        node,
        out_port: Port::Dir(dir),
        start: cp.due0 + cp.chunk_of[k] as Cycle,
        packet: cp.packet,
        len: cp.len,
        class: cp.class,
        source,
        landing,
        // "The control network always allocates buffers for a full
        // packet" (Section III-C).
        reserve: cp.len,
    }
}

/// Processes one multi-drop segment for `cp` at cycle `t`. Returns
/// `Some(reason)` when the control packet must be dropped.
// hot
fn step_segment(
    mesh: &mut ReservingCore,
    cp: &mut ControlPacket,
    t: Cycle,
    stats: &mut PraStats,
    obs: &niobs::ObsHandle,
) -> Option<DropReason> {
    stats.segments_processed += 1;
    let h = cp.route.hops();
    let (a, b) = segment_positions(&cp.route, cp.pos);
    obs.emit(t, || niobs::Event::ControlSegment {
        packet: cp.packet.0,
        node: cp.nodes[a].index() as u64,
        pos: u8::try_from(a).unwrap_or(u8::MAX),
        lag: cp.lag,
    });
    let due_a = cp.due0 + cp.chunk_of[a] as Cycle;
    // The data packet has caught up: nothing left to pre-allocate. A latch
    // conversion additionally needs the previous hop's first slot (one
    // cycle before `due_a`) to still be in the future.
    let needs_latch = a > 0 && cp.chunk_of[a] != cp.chunk_of[a - 1];
    let min_due = if needs_latch { t + 1 } else { t };
    if due_a < min_due {
        stats.alloc_fail_kinds[5] += 1;
        return Some(DropReason::LagExhausted);
    }

    // Conversion feasibility on the source side of `a` (the ACK to the
    // previous segment turns its conservative buffer landing into a latch
    // or bypass pass-through). The whole previous window must still be
    // pending — if any slot already executed or was cancelled, converting
    // mid-stream would split the packet across latch and buffer.
    let prev_conversion: Option<Landing> = if a == 0 {
        None
    } else {
        let prev = cp
            .prev_hop
            .as_ref()
            .expect("non-source position has a previous hop");
        let intact =
            mesh.reserved_slots_of(prev.node, prev.out_port, cp.packet, prev.window.clone())
                == cp.len as usize;
        if !intact {
            stats.alloc_fail_kinds[4] += 1;
            return Some(DropReason::AllocationFailed);
        }
        if needs_latch {
            // `a` reads from its latch: the latch must be claimable for
            // the arrival window of the previous chunk.
            let from = cp.route.dir_at(a - 1).expect("on route").opposite();
            if !mesh.latch_available(
                cp.nodes[a],
                Port::Dir(from),
                prev.window.start..prev.window.end + 1,
                cp.packet,
            ) {
                stats.alloc_fail_kinds[3] += 1;
                return Some(DropReason::AllocationFailed);
            }
            Some(Landing::Latch)
        } else {
            Some(Landing::Bypass)
        }
    };

    // Try to allocate `b` first (its success decides `a`'s landing).
    let provisional = Landing::Vc(cp.class.vc());
    let b_plan = b.map(|b| plan_for(cp, b, provisional));
    let b_ok = b_plan
        .as_ref()
        .map(|p| mesh.check_hop(p).is_ok())
        .unwrap_or(false);

    // `a`'s landing: bypass/latch into `b` when `b` allocates, else a
    // conservative full buffer at the next router (which may be the
    // destination — then it is final, not conservative).
    let a_landing_with_b = b.map(|b| {
        if cp.chunk_of[b] == cp.chunk_of[a] {
            Landing::Bypass
        } else {
            Landing::Latch
        }
    });
    let with_b = b_ok.then(|| plan_for(cp, a, a_landing_with_b.expect("b exists")));
    let installed_b = with_b.is_some_and(|plan| mesh.check_hop(&plan).is_ok());
    let a_plan = match with_b {
        // Just checked: nothing changed since.
        Some(plan) if installed_b => plan,
        _ => {
            let plan = plan_for(cp, a, provisional);
            if let Err(e) = mesh.check_hop(&plan) {
                stats.alloc_fail_kinds[install_error_index(e)] += 1;
                return Some(DropReason::AllocationFailed);
            }
            plan
        }
    };

    // Commit: convert the previous landing (ACK), install `a` (+ `b`).
    if let Some(conv) = prev_conversion {
        let prev = cp.prev_hop.as_ref().expect("non-source position");
        obs.emit(t, || niobs::Event::Ack {
            packet: cp.packet.0,
            node: prev.node.index() as u64,
            to_bypass: conv == Landing::Bypass,
        });
        mesh.convert_landing(
            prev.node,
            prev.out_port,
            cp.packet,
            prev.window.clone(),
            conv,
            cp.len,
            cp.class,
        );
    }
    mesh.commit_hop(&a_plan);
    stats.hops_preallocated += 1;
    let mut last_plan = a_plan;
    let mut last_pos = a;
    if installed_b {
        let plan = b_plan.expect("b was checked");
        mesh.commit_hop(&plan);
        stats.hops_preallocated += 1;
        last_plan = plan;
        last_pos = b.expect("b exists");
    }

    cp.prev_hop = Some(PrevHop {
        node: last_plan.node,
        out_port: last_plan.out_port,
        window: last_plan.start..last_plan.start + cp.len as Cycle,
    });
    cp.pos = last_pos + 1;
    if cp.pos >= h {
        // The destination router is allocated too: reserve its ejection
        // port so the packet flows straight into the NI without a final
        // reactive switch allocation (best effort — on failure the packet
        // simply ejects reactively from the destination's buffer).
        let eject = ejection_after(&last_plan, cp.route.dest(), cp.len);
        if mesh.install_hop(&eject).is_ok() {
            stats.hops_preallocated += 1;
        }
        return Some(DropReason::Completed);
    }
    if !installed_b && b.is_some() {
        // The second router of the multi-drop could not allocate; the
        // paper forwards only when both nodes succeed.
        return Some(DropReason::AllocationFailed);
    }
    // Only survivors reach a segment (`process` drops lag-0 packets
    // before processing), so the decrement cannot underflow; a productive
    // segment is never itself branded the `LagExhausted` drop site — the
    // drop is recorded when the packet next comes due at lag 0.
    debug_assert!(cp.lag >= 1, "segments only process survivors (lag >= 1)");
    cp.lag -= 1;
    cp.process_at = t + 2;
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::chunk_positions;
    use noc::types::Direction;

    /// The announce of an LLC response launching at `launch_at`.
    fn llc(
        src: u16,
        dest: u16,
        packet: u64,
        class: MessageClass,
        len: u8,
        launch_at: Cycle,
        due0: Cycle,
    ) -> Announce {
        Announce {
            src: NodeId::new(src),
            dest: NodeId::new(dest),
            packet: PacketId(packet),
            class,
            len,
            launch_at,
            due0,
        }
    }

    fn route(src: u16, dest: u16) -> Route {
        Route::compute(&NocConfig::paper(), NodeId::new(src), NodeId::new(dest))
    }

    #[test]
    fn chunking_straight_route() {
        let r = route(0, 6); // six east hops
        assert_eq!(chunk_positions(&r, 2), vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn chunking_breaks_at_turns() {
        let r = route(0, 17); // (0,0) -> (1,2): one east, two south
        assert_eq!(
            r.dirs(),
            &[Direction::East, Direction::South, Direction::South]
        );
        assert_eq!(chunk_positions(&r, 2), vec![0, 1, 1]);
    }

    #[test]
    fn chunking_odd_tail() {
        let r = route(0, 5); // five east hops
        assert_eq!(chunk_positions(&r, 2), vec![0, 0, 1, 1, 2]);
    }

    #[test]
    fn chunking_respects_hpc_limit() {
        let r = route(0, 6);
        assert_eq!(chunk_positions(&r, 3), vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(chunk_positions(&r, 1), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = ControlConfig::default();
        assert_eq!(c.max_lag, 4);
        assert!(c.llc_window && c.lsd);
    }

    #[test]
    fn llc_launch_requires_clear_backlog() {
        let cfg = NocConfig::paper();
        let mesh = ReservingCore::new(cfg.clone());
        let mut ctrl = ControlNetwork::new(cfg, ControlConfig::default());
        let ok = ctrl.launch_llc(&mesh, &llc(0, 5, 1, MessageClass::Response, 5, 1, 5));
        assert!(ok);
        assert_eq!(ctrl.in_flight(), 1);
        assert!(ctrl.has_packet_for(PacketId(1)));
        assert_eq!(ctrl.stats().injected_llc, 1);
    }

    #[test]
    fn full_path_preallocation_completes_with_lag_zero() {
        // Straight 4-hop route, lag 4: the control packet should allocate
        // the whole path and record a completed (lag-0) drop.
        let cfg = NocConfig::paper();
        let mut mesh = ReservingCore::new(cfg.clone());
        let mut ctrl = ControlNetwork::new(cfg.clone(), ControlConfig::default());
        assert!(ctrl.launch_llc(&mesh, &llc(0, 4, 1, MessageClass::Response, 5, 1, 5)));
        // The corresponding data packet arrives per the announce protocol.
        mesh.inject(noc::flit::Packet::new(
            PacketId(1),
            NodeId::new(0),
            NodeId::new(4),
            MessageClass::Response,
            5,
        ));
        for _ in 0..30 {
            ctrl.process(&mut mesh);
            mesh.step();
        }
        assert_eq!(ctrl.in_flight(), 0);
        assert_eq!(ctrl.stats().lag_at_drop[0], 1, "completed drop at lag 0");
        // Positions 0..3 plus the destination's ejection port.
        assert_eq!(ctrl.stats().hops_preallocated, 5);
        assert_eq!(mesh.stats().wasted_reservations, 0);
        assert_eq!(mesh.drain_delivered().len(), 1);
    }

    #[test]
    fn lag_exhausts_on_long_routes() {
        let cfg = NocConfig::paper();
        let mut mesh = ReservingCore::new(cfg.clone());
        let mut ctrl = ControlNetwork::new(cfg.clone(), ControlConfig::default());
        // 14-hop route with lag 4: allocation must stop early.
        assert!(ctrl.launch_llc(&mesh, &llc(0, 63, 1, MessageClass::Response, 5, 1, 5)));
        mesh.inject(noc::flit::Packet::new(
            PacketId(1),
            NodeId::new(0),
            NodeId::new(63),
            MessageClass::Response,
            5,
        ));
        for _ in 0..20 {
            ctrl.process(&mut mesh);
            mesh.step();
        }
        assert_eq!(ctrl.in_flight(), 0);
        assert_eq!(
            ctrl.stats().drops_by_reason[DropReason::LagExhausted as usize],
            1
        );
        assert!(ctrl.stats().hops_preallocated >= 4);
        assert!(ctrl.stats().hops_preallocated < 14);
    }

    #[test]
    fn lag_boundary_drops_before_processing() {
        // Regression for the lag off-by-one: the old code processed a
        // segment first and dropped after a saturating decrement, so a
        // lag-0 launch allocated a segment out of contract and a lag-1
        // packet's productive final segment was branded the drop site.
        // Boundary under test (matches the analyzer's `Guarded` model):
        // a due packet at lag 0 drops before processing, so a lag budget
        // L pre-allocates 1 + 2(L - 1) hops of a straight route for
        // L >= 1 and nothing at all for L == 0, with the exhaustion drop
        // always recorded at lag 0.
        for (lag, want_hops, want_segments) in [(0u64, 0u64, 0u64), (1, 1, 1), (2, 3, 2)] {
            let cfg = NocConfig::paper();
            let mut mesh = ReservingCore::new(cfg.clone());
            let mut ctrl = ControlNetwork::new(cfg, ControlConfig::default());
            // Straight 7-hop route so no lag in {0,1,2} can complete it.
            assert!(ctrl.launch_llc(&mesh, &llc(0, 7, 1, MessageClass::Response, 5, 1, 1 + lag)));
            for _ in 0..12 {
                ctrl.process(&mut mesh);
                mesh.step();
            }
            assert_eq!(ctrl.in_flight(), 0, "lag {lag}: packet must drop");
            assert_eq!(
                ctrl.stats().drops_by_reason[DropReason::LagExhausted as usize],
                1,
                "lag {lag}"
            );
            assert_eq!(ctrl.stats().lag_at_drop[0], 1, "lag {lag}: drop at 0");
            assert_eq!(
                ctrl.stats().segments_processed,
                want_segments,
                "lag {lag}: segments"
            );
            assert_eq!(ctrl.stats().hops_preallocated, want_hops, "lag {lag}: hops");
        }
    }

    #[test]
    fn conflicting_launches_drop_lower_priority() {
        let cfg = NocConfig::paper();
        let mut mesh = ReservingCore::new(cfg.clone());
        let mut ctrl = ControlNetwork::new(cfg.clone(), ControlConfig::default());
        // Two LLC launches from the same node in the same cycle: the NI
        // latch fits one; the second is dropped on conflict.
        assert!(ctrl.launch_llc(&mesh, &llc(0, 5, 1, MessageClass::Response, 5, 1, 5)));
        assert!(ctrl.launch_llc(&mesh, &llc(0, 9, 2, MessageClass::Request, 1, 1, 5)));
        ctrl.process(&mut mesh);
        assert_eq!(
            ctrl.stats().drops_by_reason[DropReason::Conflict as usize],
            1
        );
        assert_eq!(ctrl.in_flight(), 1);
    }

    #[test]
    fn interleaved_drops_in_one_cycle_keep_the_right_packets() {
        // Regression test for the drop-removal pass in `process`: four
        // launches due the same cycle, where drops (NI-latch conflicts)
        // interleave with survivors in the in-flight list — packets 2 and
        // 4 conflict with 1 and 3 respectively. The removal must keep
        // exactly the survivors, whatever their positions.
        let cfg = NocConfig::paper();
        let mut mesh = ReservingCore::new(cfg.clone());
        let mut ctrl = ControlNetwork::new(cfg.clone(), ControlConfig::default());
        for (src, id) in [(0u16, 1u64), (0, 2), (1, 3), (1, 4)] {
            assert!(ctrl.launch_llc(
                &mesh,
                &llc(src, src + 40, id, MessageClass::Response, 5, 1, 5)
            ));
        }
        ctrl.process(&mut mesh);
        assert_eq!(
            ctrl.stats().drops_by_reason[DropReason::Conflict as usize],
            2
        );
        assert_eq!(ctrl.in_flight(), 2);
        assert!(ctrl.has_packet_for(PacketId(1)));
        assert!(ctrl.has_packet_for(PacketId(3)));
        assert!(!ctrl.has_packet_for(PacketId(2)));
        assert!(!ctrl.has_packet_for(PacketId(4)));
    }

    #[test]
    fn disabled_llc_window_refuses_launches() {
        let cfg = NocConfig::paper();
        let mesh = ReservingCore::new(cfg.clone());
        let mut ctrl = ControlNetwork::new(
            cfg,
            ControlConfig {
                llc_window: false,
                ..ControlConfig::default()
            },
        );
        assert!(!ctrl.launch_llc(&mesh, &llc(0, 5, 1, MessageClass::Response, 5, 1, 5)));
        assert_eq!(ctrl.in_flight(), 0);
    }
}

mod digest_impls {
    use super::{ControlNetwork, ControlPacket};
    use crate::stats::ControlOrigin;
    use noc::digest::{StateDigest, StateHasher};

    impl StateDigest for ControlPacket {
        fn digest_state(&self, h: &mut StateHasher) {
            h.write_u64(self.id);
            h.write_u8(match self.origin {
                ControlOrigin::Llc => 0,
                ControlOrigin::Lsd => 1,
            });
            h.write_u64(self.packet.0);
            h.write_usize(self.class.vc());
            h.write_u8(self.len);
            h.write_usize(self.route.src().index());
            h.write_usize(self.route.dest().index());
            for &dir in self.route.dirs() {
                h.write_usize(dir as usize);
            }
            h.write_usize(self.chunk_of.len());
            for &chunk in &self.chunk_of {
                h.write_usize(chunk);
            }
            h.write_usize(self.pos);
            h.write_u64(self.due0);
            h.write_u8(self.lag);
            h.write_u64(self.process_at);
            match &self.prev_hop {
                None => h.write_u8(0),
                Some(prev) => {
                    h.write_u8(1);
                    h.write_usize(prev.node.index());
                    h.write_usize(prev.out_port.index());
                    h.write_u64(prev.window.start);
                    h.write_u64(prev.window.end);
                }
            }
            self.first_source.digest_state(h);
        }
    }

    impl StateDigest for ControlNetwork {
        fn digest_state(&self, h: &mut StateHasher) {
            h.write_usize(self.packets.len());
            for p in &self.packets {
                p.digest_state(h);
            }
            h.write_u64(self.next_id);
        }
    }
}
