//! The mesh data network with a 1-stage speculative router pipeline.
//!
//! [`MeshCore`] is the router core of both mesh organisations — buffers,
//! credits, VC and switch allocation, XY routing and fault detours —
//! generic over a [`Datapath`] policy: the paper's **Mesh** baseline is
//! [`MeshNetwork`], the [`Plain`] instance, and **Mesh+PRA** (Figure 4)
//! the [`Reserving`] one of [`crate::reserve`].
//!
//! # Pipeline timing
//!
//! A flit latched at a router at the end of cycle *t* performs route
//! computation, VC allocation and speculative switch allocation during
//! cycle *t+1* and traverses the crossbar and link during *t+2*, arriving
//! at the next router at the end of *t+2*: two cycles per hop at zero
//! load, exactly Table I's mesh. With reservations installed, a flit
//! instead moves up to [`NocConfig::max_hops_per_cycle`] hops in a single
//! cycle through preset crossbars, with no allocation cycles at all.
//!
//! [`Reserving`]: crate::reserve::Reserving

use crate::arbiter::RoundRobin;
use crate::buffer::{router_lanes, vc_lane, BufferError, FlitStore, InputUnit};
use crate::cancel::CancelToken;
use crate::config::NocConfig;
use crate::credit::OutVc;
use crate::digest::{StateDigest, StateHasher};
use crate::faults::{FaultEvent, FaultState, FaultStats};
use crate::flit::{Flit, Packet};
use crate::network::{Delivered, Network};
use crate::ni::Ni;
use crate::reliable::{
    escalation_action, EjectNote, EscalationAction, RelOrder, ReliableLayer, ReliableStats,
};
use crate::routing::{neighbor, route_port, Route};
use crate::stats::NetStats;
use crate::types::{Cycle, Direction, NodeId, PacketId, Port};
use crate::watchdog::AuditReport;

use niobs::Event;

use std::collections::BTreeMap;

/// West-first turn-model state of a flit sitting at input port `in_port`:
/// `true` iff every hop it has taken so far went west, so a further west
/// hop is still legal. A flit at the local port has taken no hops; a flit
/// that arrived through the east-facing port was travelling west, and by
/// induction (west hops are only ever taken from all-west states) all its
/// earlier hops were west too. Any other input port means a non-west hop
/// happened and west is forbidden from here on.
pub(crate) fn west_ok_from(in_port: Port) -> bool {
    in_port == Port::Local || in_port == Port::Dir(Direction::East)
}

/// One mesh router's per-port state, held inline: building a mesh takes
/// one heap block for all of its routers. Per-(port, VC) state lives in
/// the core-wide [`VcLanes`].
#[derive(Debug)]
pub(crate) struct Router {
    /// PRA latches, indexed by [`Port::index`].
    pub(crate) inputs: [InputUnit; Port::COUNT],
    /// Output ports locked to a multi-flit packet until its tail passes
    /// (no flit-level interleaving on a link mid-packet — the blocking
    /// behaviour the paper's LSD unit exploits).
    port_lock: [Option<PacketId>; Port::COUNT],
    /// Per-input-port VC selection arbiters.
    sa_in: [RoundRobin; Port::COUNT],
    /// Per-output-port input selection arbiters.
    sa_out: [RoundRobin; Port::COUNT],
    /// Input-VC occupancy mask: bit `port * vcs + vc` is set iff that
    /// VC buffers a flit — derived state, kept exact by
    /// [`MeshCore::push_flit`], the NI injection hook of
    /// `MeshCore::inject_from_sources`, [`MeshCore::pop_flit`] and
    /// [`MeshCore::remove_buffered`] (the only ways a flit enters or
    /// leaves an input VC) and excluded from the digest. Switch
    /// allocation and the LSD stall scan visit only its set bits, the
    /// request vector a hardware arbiter reads.
    pub(crate) occ: u32,
    /// Active-stream mask: bit `in_port * vcs + vc` is set iff the
    /// router's `active_out` lane holds a stream for that VC — derived
    /// state, kept in sync by [`MeshCore::set_active`] and excluded from
    /// the digest. Zero proves no stream holds an output port, which
    /// lets the LSD stall scan skip the router without reading any
    /// buffer fronts.
    pub(crate) streams: u32,
}

impl Router {
    fn new(vcs: usize) -> Self {
        Router {
            inputs: Default::default(),
            port_lock: [None; Port::COUNT],
            sa_in: std::array::from_fn(|_| RoundRobin::new(vcs)),
            sa_out: std::array::from_fn(|_| RoundRobin::new(Port::COUNT)),
            occ: 0,
            streams: 0,
        }
    }
}

/// Per-(router, port, VC) state of a whole mesh, one flat slab per kind,
/// all indexed by the lane `(node * Port::COUNT + port) * vcs + vc` (see
/// [`VcLanes::lane`]). Router `n`'s lanes are one contiguous run, port
/// major, so walking a slab visits routers, ports and VCs in the nested
/// order the digest has always used.
#[derive(Debug)]
pub(crate) struct VcLanes {
    /// VCs per port, the stride of a port's lanes.
    pub(crate) vcs: usize,
    /// The input VC buffers.
    pub(crate) flits: FlitStore,
    /// Downstream credit/ownership state of the output VCs.
    out_vcs: Vec<OutVc>,
    /// Which packet each input VC is currently streaming to which output
    /// port.
    active_out: Vec<Option<ActiveStream>>,
    /// The input port of each bit of a router's per-(port, VC) masks.
    port_of: [u8; u32::BITS as usize],
}

impl VcLanes {
    fn new(cfg: &NocConfig) -> Self {
        let lanes = cfg.nodes() * Port::COUNT * cfg.vcs_per_port;
        VcLanes {
            vcs: cfg.vcs_per_port,
            flits: FlitStore::new(lanes, cfg.vc_depth),
            out_vcs: vec![OutVc::new(cfg.vc_depth); lanes],
            active_out: vec![None; lanes],
            port_of: std::array::from_fn(|bit| (bit / cfg.vcs_per_port) as u8),
        }
    }

    /// The lane of VC `vc` of port `port` of router `node`.
    // hot
    #[inline(always)]
    pub(crate) fn lane(&self, node: usize, port: usize, vc: usize) -> usize {
        vc_lane(self.vcs, node, port, vc)
    }

    /// The lanes of router `node`.
    fn router(&self, node: usize) -> std::ops::Range<usize> {
        router_lanes(self.vcs, node)
    }

    /// The front flit of input VC `(port, vc)` of router `node`.
    // hot
    #[inline(always)]
    pub(crate) fn front(&self, node: usize, port: usize, vc: usize) -> Option<&Flit> {
        self.flits.front(self.lane(node, port, vc))
    }

    #[inline(always)]
    pub(crate) fn out_vc(&self, node: usize, port: usize, vc: usize) -> &OutVc {
        &self.out_vcs[self.lane(node, port, vc)]
    }

    #[inline(always)]
    pub(crate) fn out_vc_mut(&mut self, node: usize, port: usize, vc: usize) -> &mut OutVc {
        let i = self.lane(node, port, vc);
        &mut self.out_vcs[i]
    }

    #[inline(always)]
    pub(crate) fn active(&self, node: usize, in_port: usize, vc: usize) -> Option<ActiveStream> {
        self.active_out[self.lane(node, in_port, vc)]
    }

    /// The bit of `(port, vc)` in a router's per-(port, VC) masks.
    // hot
    #[inline(always)]
    pub(crate) fn bit(&self, port: usize, vc: usize) -> u32 {
        1 << (port * self.vcs + vc)
    }

    /// The `(port, vc)` of bit `bit` of a router's per-(port, VC)
    /// masks, without dividing.
    // hot
    #[inline(always)]
    pub(crate) fn port_vc(&self, bit: usize) -> (usize, usize) {
        let port = usize::from(self.port_of[bit]);
        (port, bit - port * self.vcs)
    }

    /// The bits of a router's per-(port, VC) `mask` that belong to
    /// `port`, shifted down so bit `vc` is that port's VC `vc`.
    // hot
    #[inline(always)]
    pub(crate) fn port_bits(&self, mask: u32, port: usize) -> u32 {
        (mask >> (port * self.vcs)) & ((1 << self.vcs) - 1)
    }
}

/// Indices of the set bits of `mask`, in ascending order.
// hot
#[inline]
pub(crate) fn ones(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Word `w` of the set of nodes whose exact `buffered` flit counter in
/// `counts` is non-zero: bit `b` is set iff `counts[w * 64 + b] != 0`.
/// SMART and the ideal network walk it with [`ones`] so a node with empty
/// input buffers costs one bit test, not one loop iteration.
// hot
#[inline]
pub(crate) fn nonzero_word(counts: &[usize], w: usize) -> u64 {
    counts[w * 64..]
        .iter()
        .take(64)
        .enumerate()
        .fold(0, |word, (b, &c)| word | u64::from(c != 0) << b)
}

/// A set of routers as a bitset, one bit per node, walked word by word
/// with [`ones`].
#[derive(Debug)]
pub(crate) struct NodeSet {
    pub(crate) words: Vec<u64>,
}

impl NodeSet {
    pub(crate) fn new(nodes: usize) -> Self {
        NodeSet {
            words: vec![0; nodes.div_ceil(64)],
        }
    }

    #[inline(always)]
    pub(crate) fn insert(&mut self, node: usize) {
        self.words[node / 64] |= 1 << (node % 64);
    }

    #[inline(always)]
    pub(crate) fn remove(&mut self, node: usize) {
        self.words[node / 64] &= !(1 << (node % 64));
    }

    #[cfg(debug_assertions)]
    pub(crate) fn contains(&self, node: usize) -> bool {
        self.words[node / 64] >> (node % 64) & 1 == 1
    }
}

/// The members of request `mask` whose class ranks highest under
/// `prio` — the class-priority filter of both allocation stages. Member
/// `i` carries class (VC) `class_of(i)`; a class `prio` does not list
/// ranks 0. An empty mask stays empty.
// hot
#[inline]
fn top_priority(mask: u32, prio: &[u8; 3], class_of: impl Fn(usize) -> usize) -> u32 {
    let rank = |i: usize| *prio.get(class_of(i)).unwrap_or(&0);
    let Some(best) = ones(u64::from(mask)).map(rank).max() else {
        return 0;
    };
    ones(u64::from(mask))
        .filter(|&i| rank(i) == best)
        .fold(0, |top, i| top | 1 << i)
}

/// A packet currently streaming from an input VC to an output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ActiveStream {
    pub(crate) out_port: Port,
    pub(crate) packet: PacketId,
    pub(crate) len: u8,
    /// Flits granted (reactively) or force-moved through the port so far.
    pub(crate) sent: u8,
}

/// A switch-allocation grant awaiting its switch/link traversal cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Grant {
    pub(crate) node: usize,
    in_port: Port,
    vc: usize,
    pub(crate) out_port: Port,
    pub(crate) packet: PacketId,
    seq: u8,
}

/// A flit on a link, to be delivered at the start of the next cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    pub(crate) node: usize,
    pub(crate) in_port: Port,
    pub(crate) vc: usize,
    pub(crate) flit: Flit,
}

/// A credit travelling back upstream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CreditReturn {
    pub(crate) node: usize,
    pub(crate) out_port: Port,
    pub(crate) vc: usize,
}

/// Reusable per-cycle working buffers. Every buffer is drained or
/// cleared before it is returned here, so the scratch never carries
/// architectural state between cycles and is deliberately excluded from
/// the digest; keeping the (empty) vectors alive recycles their
/// capacity and removes all steady-state heap traffic from the hot loop.
#[derive(Debug, Default)]
struct StepScratch {
    /// Empty buffer ping-ponged with [`MeshCore::credit_returns`].
    credits_free: Vec<CreditReturn>,
    /// Empty buffer ping-ponged with [`MeshCore::arrivals`].
    arrivals_free: Vec<Arrival>,
    /// Empty buffer ping-ponged with [`MeshCore::grants`].
    grants_free: Vec<Grant>,
}

/// What a router datapath adds to the shared [`MeshCore`]: per-router
/// structure the core consults at a few hooks of its step, the way a
/// hardware router's parameters add or omit structure at elaboration.
///
/// Every hook defaults to a router without such structure, so [`Plain`]
/// overrides nothing and its hooks compile to constants and empty
/// bodies. The default digest hooks write the bytes of empty reservation
/// state, so a plain mesh digests as a reserving one with nothing booked.
pub trait Datapath: Sized + std::fmt::Debug {
    /// Builds the datapath state for a mesh of `cfg`.
    fn new(cfg: &NocConfig) -> Self;

    /// Whether output port `p` of router `node` refuses a reactive bid
    /// of `packet` for a traversal at `cycle`.
    fn refuses(
        &self,
        _node: usize,
        _p: usize,
        _packet: PacketId,
        _cycle: Cycle,
        _stats: &mut NetStats,
    ) -> bool {
        false
    }

    /// Whether multi-flit `packet` may claim VC `vc` of output port `p`
    /// of router `node`.
    fn admits(&self, _node: usize, _p: usize, _vc: usize, _packet: PacketId) -> bool {
        true
    }

    /// A reactive grant read `flit` from input VC `(in_port, vc)` of
    /// router `node` at cycle `now`, for output port `out_port`.
    fn granted(
        &mut self,
        _node: usize,
        _in_port: usize,
        _vc: usize,
        _out_port: usize,
        _flit: &Flit,
        _now: Cycle,
    ) {
    }

    /// The step's datapath phase, between reactive traversal and
    /// allocation.
    fn execute(_net: &mut MeshCore<Self>) {}

    /// The step's closing phase, after allocation.
    fn expire(_net: &mut MeshCore<Self>) {}

    /// Removes every trace of `packet` (a fault purge).
    fn purge(_net: &mut MeshCore<Self>, _packet: PacketId) {}

    /// The packets in `delivered` have just left the network.
    fn delivered(_net: &mut MeshCore<Self>, _delivered: &[Delivered]) {}

    /// Whether the datapath holds nothing a step could change.
    fn quiescent(_net: &MeshCore<Self>) -> bool {
        true
    }

    /// Folds router `node`'s state (`vcs` VCs per port) into `h`,
    /// between its output VCs and its streams: by default one clear
    /// multi-flit guard per output VC and one empty timeslot table per
    /// output port.
    fn digest_router(&self, _node: usize, vcs: usize, h: &mut StateHasher) {
        for _ in 0..Port::COUNT * vcs {
            h.write_opt_u64(None);
        }
        for _ in 0..Port::COUNT {
            h.write_usize(0);
        }
    }

    /// Folds network-wide state into `h`, between the credits in flight
    /// and the fault state: by default an empty reservation index.
    fn digest(&self, h: &mut StateHasher) {
        h.write_usize(0);
    }
}

/// The baseline router datapath: no structure beyond the core.
#[derive(Debug)]
pub struct Plain;

impl Datapath for Plain {
    fn new(_cfg: &NocConfig) -> Self {
        Plain
    }
}

/// The paper's baseline mesh.
///
/// # Examples
///
/// ```
/// use noc::config::NocConfig;
/// use noc::flit::Packet;
/// use noc::mesh::MeshNetwork;
/// use noc::network::Network;
/// use noc::types::{MessageClass, NodeId, PacketId};
///
/// let mut net = MeshNetwork::new(NocConfig::paper());
/// net.inject(Packet::new(
///     PacketId(1),
///     NodeId::new(0),
///     NodeId::new(63),
///     MessageClass::Request,
///     1,
/// ));
/// let delivered = net.run_to_drain(1_000);
/// assert_eq!(delivered.len(), 1);
/// ```
pub type MeshNetwork = MeshCore<Plain>;

/// The mesh router core over the datapath `D` (see the module docs).
#[derive(Debug)]
pub struct MeshCore<D> {
    pub(crate) cfg: NocConfig,
    pub(crate) now: Cycle,
    pub(crate) routers: Vec<Router>,
    pub(crate) lanes: VcLanes,
    /// The tiles' network interfaces.
    pub(crate) ni: Ni,
    pub(crate) grants: Vec<Grant>,
    pub(crate) arrivals: Vec<Arrival>,
    pub(crate) credit_returns: Vec<CreditReturn>,
    /// Flit traversals per directed link, indexed `node * 4 + direction`.
    pub(crate) link_use: Vec<u64>,
    pub(crate) stats: NetStats,
    /// Fault-injection state; `None` (no plan configured) makes every
    /// fault hook a no-op and the datapath bit-identical to a build
    /// without the subsystem.
    pub(crate) faults: Option<FaultState>,
    /// End-to-end reliable-delivery overlay; `None` (the default) keeps
    /// every hook a no-op and the digest byte-identical to a build
    /// without the subsystem (see [`crate::reliable`]).
    reliable: Option<ReliableLayer>,
    /// Reusable scratch for due retransmit/escalate orders; never holds
    /// state between cycles.
    rel_orders: Vec<RelOrder>,
    /// Reusable scratch for copy ids purged by an escalation; never
    /// holds state between cycles.
    rel_purges: Vec<PacketId>,
    /// Cooperative cancellation flag; a cancelled step only advances the
    /// clock (see [`crate::cancel`]).
    cancel: CancelToken,
    /// Reusable per-cycle buffers; never holds state between cycles.
    scratch: StepScratch,
    /// Whether the quiescent fast path may be taken (see
    /// [`Network::set_skip_ahead`]).
    skip_ahead: bool,
    /// Cached quiescence verdict: `true` only while the fabric is
    /// provably idle (see [`MeshCore::is_quiescent`]); cleared by
    /// every operation that introduces new work.
    pub(crate) idle: bool,
    /// Conservative per-node activity set — derived state, excluded
    /// from the digest. Node `n` is inserted whenever a flit enters one
    /// of its input VCs and removed lazily when a scan finds the router
    /// drained, so absence *proves* the router holds no buffered flits
    /// (while presence may be stale). Skipping an absent node is
    /// therefore bit-exact, never a behaviour change.
    pub(crate) buffered_nodes: NodeSet,
    /// Observability handle; detached by default (every hook is then a
    /// single branch).
    obs: niobs::ObsHandle,
    /// The datapath policy's state.
    pub(crate) dp: D,
}

impl<D: Datapath> MeshCore<D> {
    /// Builds a mesh for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`NocConfig::validate`].
    pub fn new(cfg: NocConfig) -> Self {
        cfg.validate().expect("invalid NoC configuration");
        let n = cfg.nodes();
        let faults = cfg.faults.clone().map(|plan| FaultState::new(plan, &cfg));
        let reliable = cfg.reliability.map(|rc| ReliableLayer::new(rc, n));
        MeshCore {
            faults,
            reliable,
            rel_orders: Vec::new(),
            rel_purges: Vec::new(),
            routers: (0..n).map(|_| Router::new(cfg.vcs_per_port)).collect(),
            lanes: VcLanes::new(&cfg),
            ni: Ni::new(&cfg),
            grants: Vec::new(),
            arrivals: Vec::new(),
            credit_returns: Vec::new(),
            link_use: vec![0; n * 4],
            stats: NetStats::new(),
            cancel: CancelToken::new(),
            scratch: StepScratch::default(),
            skip_ahead: true,
            idle: false,
            buffered_nodes: NodeSet::new(n),
            dp: D::new(&cfg),
            cfg,
            now: 0,
            obs: niobs::ObsHandle::disabled(),
        }
    }

    /// Records an observability event at the current cycle. The closure
    /// runs only when a sink is attached, so hooks cost one branch on
    /// the unobserved path.
    #[inline]
    pub(crate) fn emit(&self, make: impl FnOnce() -> niobs::Event) {
        self.obs.emit(self.now, make);
    }

    /// Flit traversals of the directed link leaving `node` toward `dir`
    /// since construction.
    pub fn link_use(&self, node: NodeId, dir: crate::types::Direction) -> u64 {
        self.link_use[node.index() * 4 + dir as usize]
    }

    /// The cycle currently being (or about to be) executed: reservations
    /// may only target cycles `>= upcoming_cycle()`.
    pub fn upcoming_cycle(&self) -> Cycle {
        self.now + 1
    }

    /// Read access to downstream-VC credit state.
    pub fn out_vc(&self, node: NodeId, out_port: Port, vc: usize) -> &OutVc {
        self.lanes.out_vc(node.index(), out_port.index(), vc)
    }

    /// Sets or clears the occupancy bit of input VC `(port, vc)` of
    /// router `node` from its buffer.
    // hot
    #[inline(always)]
    fn sync_occ(&mut self, node: usize, port: usize, vc: usize) {
        let bit = self.lanes.bit(port, vc);
        let router = &mut self.routers[node];
        if self.lanes.flits.is_empty(self.lanes.lane(node, port, vc)) {
            router.occ &= !bit;
        } else {
            router.occ |= bit;
        }
    }

    /// Enqueues `flit` on input VC `(port, vc)` of router `node` (see
    /// [`FlitStore::push`]).
    // hot
    #[inline]
    fn push_flit(
        &mut self,
        node: usize,
        port: usize,
        vc: usize,
        flit: Flit,
    ) -> Result<(), BufferError> {
        self.lanes
            .flits
            .push(self.lanes.lane(node, port, vc), flit)?;
        self.routers[node].occ |= self.lanes.bit(port, vc);
        Ok(())
    }

    /// Dequeues the front flit of input VC `(port, vc)` of router `node`.
    // hot
    #[inline]
    pub(crate) fn pop_flit(&mut self, node: usize, port: usize, vc: usize) -> Option<Flit> {
        let flit = self.lanes.flits.pop(self.lanes.lane(node, port, vc));
        self.sync_occ(node, port, vc);
        flit
    }

    /// Removes every flit of `packet` from input VC `(port, vc)` of
    /// router `node`; returns how many were removed.
    fn remove_buffered(&mut self, node: usize, port: usize, vc: usize, packet: PacketId) -> usize {
        let removed = self
            .lanes
            .flits
            .remove_packet(self.lanes.lane(node, port, vc), packet);
        self.sync_occ(node, port, vc);
        removed
    }

    /// Records which packet input VC `(in_port, vc)` of router `node`
    /// streams where, keeping the router's stream mask in step.
    // hot
    #[inline(always)]
    fn set_active(&mut self, node: usize, in_port: usize, vc: usize, stream: Option<ActiveStream>) {
        let bit = self.lanes.bit(in_port, vc);
        let router = &mut self.routers[node];
        if stream.is_some() {
            router.streams |= bit;
        } else {
            router.streams &= !bit;
        }
        let lane = self.lanes.lane(node, in_port, vc);
        self.lanes.active_out[lane] = stream;
    }

    // ------------------------------------------------------------------
    // Cycle execution
    // ------------------------------------------------------------------

    // hot
    fn apply_credit_returns(&mut self) {
        // Swap the pending returns out against an empty recycled buffer:
        // both vectors keep their capacity forever, so the steady state
        // never allocates.
        let mut returns = std::mem::replace(
            &mut self.credit_returns,
            std::mem::take(&mut self.scratch.credits_free),
        );
        // Armed credit-loss faults each destroy one matching in-flight
        // credit (and fizzle silently when none is travelling that lane
        // this cycle).
        if let Some(f) = self.faults.as_mut() {
            for (node, dir, vc) in std::mem::take(&mut f.credit_losses_now) {
                let victim = returns
                    .iter()
                    .position(|cr| cr.node == node && cr.out_port == Port::Dir(dir) && cr.vc == vc);
                if let Some(i) = victim {
                    returns.swap_remove(i);
                    f.note_lost_credit(node, dir, vc);
                    // Field-level borrow: `self.emit` would borrow all of
                    // `self` while `f` holds `self.faults`.
                    self.obs.emit(self.now, || Event::FaultApplied {
                        node: node as u64,
                        kind: "credit_loss",
                    });
                }
            }
        }
        for &cr in &returns {
            self.lanes
                .out_vc_mut(cr.node, cr.out_port.index(), cr.vc)
                .return_credit();
            self.emit(|| Event::CreditReturn {
                node: cr.node as u64,
                port: cr.out_port.index() as u8,
                vc: cr.vc as u8,
            });
        }
        returns.clear();
        self.scratch.credits_free = returns;
    }

    /// Completes delivery of a fully reassembled packet at `node`.
    ///
    /// With the reliability overlay on, the layer decides the packet's
    /// disposition first: a committed retransmission copy is re-badged
    /// to the original id before entering the delivered ring (so
    /// consumers and stats see exactly one delivery under the original
    /// identity), and a duplicate is suppressed — dropped from the
    /// ledger without touching delivery stats.
    // hot
    pub(crate) fn eject_complete(&mut self, head: Flit, node: usize) {
        if self.reliable.is_some() {
            let note = self
                .reliable
                .as_mut()
                .and_then(|rel| rel.note_ejected(head.packet));
            match note {
                Some(EjectNote::Commit { original }) => {
                    self.ni.complete(head, original, self.now, &mut self.stats);
                    self.emit(|| Event::PacketEjected {
                        packet: original.0,
                        node: node as u64,
                    });
                    return;
                }
                Some(EjectNote::Suppress) => {
                    // The reassembler already consumed the flits; drop
                    // the copy's ledger entry without a delivery record.
                    let _ = self.ni.purge(head.packet);
                    self.emit(|| Event::DuplicateSuppressed {
                        packet: head.packet.0,
                        node: node as u64,
                    });
                    return;
                }
                // Untracked packet (injected before the overlay existed
                // is impossible, but stay permissive): normal path.
                None => {}
            }
        }
        self.ni
            .complete(head, head.packet, self.now, &mut self.stats);
        self.emit(|| Event::PacketEjected {
            packet: head.packet.0,
            node: node as u64,
        });
    }

    // hot
    fn deliver_arrivals(&mut self) {
        let mut arrivals = std::mem::replace(
            &mut self.arrivals,
            std::mem::take(&mut self.scratch.arrivals_free),
        );
        for a in arrivals.drain(..) {
            if a.in_port == Port::Local && a.flit.dest.index() == a.node {
                // Ejected flit: reassemble at the NI.
                if let Some(head) = self.ni.accept(a.node, a.flit) {
                    self.eject_complete(head, a.node);
                }
            } else {
                self.push_flit(a.node, a.in_port.index(), a.vc, a.flit)
                    .unwrap_or_else(|e| {
                        panic!(
                            "arrival at n{} port {} vc {} violated buffer invariants: {e}",
                            a.node, a.in_port, a.vc
                        )
                    });
                self.buffered_nodes.insert(a.node);
            }
        }
        self.scratch.arrivals_free = arrivals;
    }

    /// Moves flits from NI source queues into the local input VCs
    /// (1 flit per class per cycle — the NI's three class FIFOs each have
    /// their own port into the router's local input unit).
    // hot
    fn inject_from_sources(&mut self) {
        let local = self.lanes.bit(Port::Local.index(), 0);
        let (routers, buffered_nodes) = (&mut self.routers, &mut self.buffered_nodes);
        self.ni.inject_into(
            self.now,
            &mut self.lanes.flits,
            self.lanes.vcs,
            |node, class, free| {
                if free == 0 {
                    return false;
                }
                routers[node].occ |= local << class;
                buffered_nodes.insert(node);
                true
            },
        );
    }

    /// Executes reactive grants decided in the previous cycle.
    // hot
    fn execute_grants(&mut self) {
        let mut grants = std::mem::replace(
            &mut self.grants,
            std::mem::take(&mut self.scratch.grants_free),
        );
        for g in grants.drain(..) {
            let ip = g.in_port.index();
            let flit = match self.pop_flit(g.node, ip, g.vc) {
                Some(f) if f.packet == g.packet && f.seq == g.seq => f,
                _ => panic!(
                    "granted flit {}#{} vanished from n{} {}:{}",
                    g.packet, g.seq, g.node, g.in_port, g.vc
                ),
            };
            self.dp
                .granted(g.node, ip, g.vc, g.out_port.index(), &flit, self.now);
            self.finish_traversal(g.node, g.in_port, g.vc, g.out_port, flit);
        }
        self.scratch.grants_free = grants;
    }

    /// Tail of a reactive single-hop traversal: stages the arrival,
    /// returns the upstream credit, and releases ownership on tails. The credit on the downstream VC was already consumed at
    /// grant time.
    // hot
    fn finish_traversal(
        &mut self,
        node: usize,
        in_port: Port,
        vc: usize,
        out_port: Port,
        flit: Flit,
    ) {
        self.stats.local_grants += 1;
        self.return_upstream_credit(node, in_port, vc);
        match out_port {
            Port::Local => {
                self.stage_arrival_local(node, flit);
            }
            Port::Dir(d) => {
                self.stats.link_traversals += 1;
                self.link_use[node * 4 + d as usize] += 1;
                self.emit(|| Event::LinkTraverse {
                    packet: flit.packet.0,
                    seq: flit.seq,
                    node: node as u64,
                    out_port: out_port.index() as u8,
                    reserved: false,
                });
                let here = NodeId::new(node as u16);
                let next = neighbor(&self.cfg, here, d).expect("route stays on the mesh");
                self.arrivals.push(Arrival {
                    node: next.index(),
                    in_port: Port::Dir(d.opposite()),
                    vc,
                    flit,
                });
            }
        }
        if flit.is_tail() {
            self.lanes
                .out_vc_mut(node, out_port.index(), vc)
                .release_owner(flit.packet);
        }
    }

    /// Sends the credit of the input-VC slot `(in_port, vc)` of `node`
    /// just freed back to the upstream router (the local port has none).
    pub(crate) fn return_upstream_credit(&mut self, node: usize, in_port: Port, vc: usize) {
        if let Port::Dir(d) = in_port {
            let here = NodeId::new(node as u16);
            let upstream = neighbor(&self.cfg, here, d).expect("flit arrived from a real neighbor");
            self.credit_returns.push(CreditReturn {
                node: upstream.index(),
                out_port: Port::Dir(d.opposite()),
                vc,
            });
        }
    }

    fn stage_arrival_local(&mut self, node: usize, flit: Flit) {
        self.arrivals.push(Arrival {
            node,
            in_port: Port::Local,
            vc: flit.class.vc(),
            flit,
        });
    }

    /// Route computation, VC allocation and (speculative) switch allocation
    /// for traversals in the next cycle.
    ///
    /// Both stages are round-robin arbiters reading request bit vectors,
    /// as in hardware: stage 1 builds, per input port, the mask of VCs
    /// whose front may bid, walking only the router's occupancy bits;
    /// stage 2 builds, per output port, the mask of input ports bidding
    /// for it.
    // hot
    fn allocate(&mut self) {
        let next_cycle = self.now + 1;
        let vcs = self.lanes.vcs;
        // Stage-1 targets by mask bit and stage-2 bids by input port. An
        // entry is read only under a mask bit set after writing it for
        // the current router, so entries left over from earlier routers
        // are never read.
        let mut targets = [Port::Local; u32::BITS as usize];
        let mut bids = [0usize; Port::COUNT];
        for w in 0..self.buffered_nodes.words.len() {
            for node in ones(self.buffered_nodes.words[w]).map(|b| w * 64 + b) {
                // A router with no buffered flit requests nothing, and an
                // all-zero request mask rotates no arbiter (see
                // [`RoundRobin::grant_mask`]): dropping it from the set
                // is bit-exact.
                let occ = self.routers[node].occ;
                if occ == 0 {
                    self.buffered_nodes.remove(node);
                    continue;
                }
                let here = NodeId::new(node as u16);
                // Stage 1: every occupied input VC, in port-then-VC order,
                // checks whether its front may bid and toward which
                // output port.
                let mut eligible = 0u32;
                let mut bidders = 0u32;
                for bit in ones(u64::from(occ)) {
                    let (ip, vc) = self.lanes.port_vc(bit);
                    if let Some(target) = Self::eligible_front_at(
                        &self.cfg,
                        &mut self.faults,
                        &mut self.stats,
                        &self.dp,
                        &self.routers[node],
                        &self.lanes,
                        here,
                        Port::from_index(ip),
                        vc,
                        next_cycle,
                    ) {
                        eligible |= 1 << bit;
                        bidders |= 1 << ip;
                        targets[bit] = target;
                    }
                }
                // Each input port with an eligible VC nominates one and
                // joins the request mask of that bid's output port. Class
                // priority (when configured) narrows the bids to the
                // highest-priority class with an eligible flit;
                // round-robin breaks ties inside the class. The default
                // `None` keeps the class-oblivious arbiter.
                let mut requests = [0u32; Port::COUNT];
                let mut requested = 0u32;
                for ip in ones(u64::from(bidders)) {
                    let mut mask = self.lanes.port_bits(eligible, ip);
                    if let Some(prio) = &self.cfg.class_priority {
                        mask = top_priority(mask, prio, |vc| vc);
                    }
                    let Some(vc) = self.routers[node].sa_in[ip].grant_mask(mask) else {
                        continue;
                    };
                    bids[ip] = vc;
                    let op = targets[ip * vcs + vc].index();
                    requests[op] |= 1 << ip;
                    requested |= 1 << op;
                }
                // Stage 2: each requested output port grants one input,
                // with the same class-priority narrowing.
                for op in ones(u64::from(requested)) {
                    let mut req = requests[op];
                    if let Some(prio) = &self.cfg.class_priority {
                        req = top_priority(req, prio, |ip| {
                            let bid = self.lanes.front(node, ip, bids[ip]);
                            bid.expect("requester bid").class.vc()
                        });
                    }
                    let Some(win) = self.routers[node].sa_out[op].grant_mask(req) else {
                        continue;
                    };
                    // Nothing pops an input VC during allocation, so the
                    // winner's bid is still its VC's front.
                    let vc = bids[win];
                    let flit = *self.lanes.front(node, win, vc).expect("winner bid");
                    let (in_port, out_port) = (Port::from_index(win), Port::from_index(op));
                    self.commit_grant(node, in_port, vc, out_port, flit);
                }
            }
        }
    }

    /// Whether the front flit of `(here, in_port, vc)` may bid for a
    /// traversal at `next_cycle`, and toward which output port.
    ///
    /// Takes its borrows field-by-field (instead of `&mut self`) so the
    /// switch-allocation loop indexes `routers[node]` once per call
    /// rather than once per field access — this runs tens of times per
    /// cycle and the repeated bounds-checked indexing was measurable.
    // hot
    #[allow(clippy::too_many_arguments)]
    fn eligible_front_at(
        cfg: &NocConfig,
        faults: &mut Option<FaultState>,
        stats: &mut NetStats,
        dp: &D,
        router: &Router,
        lanes: &VcLanes,
        here: NodeId,
        in_port: Port,
        vc: usize,
        next_cycle: Cycle,
    ) -> Option<Port> {
        let node = here.index();
        let flit = *lanes.front(node, in_port.index(), vc)?;
        let active = lanes.active(node, in_port.index(), vc);

        let (out_port, needs_alloc) = match active {
            Some(st) if st.packet == flit.packet && !flit.is_head() => (st.out_port, false),
            _ => {
                let routed = match faults {
                    Some(f) if f.degraded() => f.next_hop(here, flit.dest, west_ok_from(in_port)),
                    _ => Some(route_port(cfg, here, flit.dest)),
                };
                match routed {
                    Some(port) => (port, true),
                    None => return None,
                }
            }
        };
        // The link must be usable at the traversal cycle (`next_cycle` is
        // exactly the prepared fault horizon); transiently faulted links
        // refuse new traffic rather than eat flits mid-wire.
        if let Port::Dir(d) = out_port {
            if let Some(f) = faults.as_mut() {
                if !f.link_usable_next(cfg, node, d) {
                    f.note_blocked_by_fault();
                    return None;
                }
            }
        }
        let p = out_port.index();

        // The port is locked to another multi-flit packet until its tail
        // passes: no flit-level interleaving on the link.
        if let Some(holder) = router.port_lock[p] {
            if holder != flit.packet {
                return None;
            }
        }
        if dp.refuses(node, p, flit.packet, next_cycle, stats) {
            return None;
        }

        if out_port == Port::Local {
            // Ejection: the NI always sinks flits.
            return Some(out_port);
        }

        let out_vc = lanes.out_vc(node, p, vc);
        let ok = if needs_alloc {
            if flit.len_flits > 1 {
                // Multi-flit head (or an orphaned continuation whose head
                // went ahead on a pre-allocated path): needs ownership and
                // the datapath's blessing.
                let admitted = dp.admits(node, p, vc, flit.packet);
                if !admitted && out_vc.can_allocate(flit.packet) {
                    stats.blocked_by_reservation_cycles += 1;
                }
                admitted && out_vc.can_allocate(flit.packet)
            } else {
                // Single-flit packet: atomic, no ownership, guard-exempt.
                let free = out_vc.owner().is_none() && out_vc.can_send(flit.packet);
                if !free
                    && out_vc.owner().is_none()
                    && out_vc.credits() > 0
                    && !out_vc.can_send(flit.packet)
                {
                    stats.blocked_by_reservation_cycles += 1;
                }
                free
            }
        } else {
            out_vc.can_send(flit.packet)
        };
        ok.then_some(out_port)
    }

    // hot
    fn commit_grant(&mut self, node: usize, in_port: Port, vc: usize, out_port: Port, flit: Flit) {
        let p = out_port.index();
        if out_port != Port::Local {
            let out_vc = self.lanes.out_vc_mut(node, p, vc);
            let allocates =
                flit.len_flits > 1 && (flit.is_head() || out_vc.owner() != Some(flit.packet));
            if allocates {
                out_vc.allocate(flit.packet);
            }
            out_vc.consume_credit(flit.packet);
            if allocates {
                self.emit(|| Event::VcAllocated {
                    packet: flit.packet.0,
                    node: node as u64,
                    out_port: p as u8,
                    vc: vc as u8,
                });
            }
        }
        if flit.len_flits > 1 {
            self.routers[node].port_lock[p] = if flit.is_tail() {
                None
            } else {
                Some(flit.packet)
            };
        }
        let next_active = if flit.is_tail() {
            None
        } else {
            let sent = match self.lanes.active(node, in_port.index(), vc) {
                Some(st) if st.packet == flit.packet => st.sent + 1,
                _ => 1,
            };
            Some(ActiveStream {
                out_port,
                packet: flit.packet,
                len: flit.len_flits,
                sent,
            })
        };
        self.set_active(node, in_port.index(), vc, next_active);
        self.grants.push(Grant {
            node,
            in_port,
            vc,
            out_port,
            packet: flit.packet,
            seq: flit.seq,
        });
        self.emit(|| Event::SwitchGrant {
            packet: flit.packet.0,
            seq: flit.seq,
            node: node as u64,
            out_port: p as u8,
        });
    }

    // ------------------------------------------------------------------
    // Fault injection & graceful degradation
    // ------------------------------------------------------------------

    /// The output port toward `dest` at `here`: XY while the topology is
    /// intact, west-first detour tables once permanently degraded, `None`
    /// when `dest` became unreachable. `west_ok` is the turn-model state:
    /// whether the flit has travelled exclusively west so far (so a west
    /// hop is still legal), derivable locally from the input port via
    /// [`west_ok_from`].
    pub(crate) fn route_out(&self, here: NodeId, dest: NodeId, west_ok: bool) -> Option<Port> {
        match &self.faults {
            Some(f) if f.degraded() => f.next_hop(here, dest, west_ok),
            _ => Some(route_port(&self.cfg, here, dest)),
        }
    }

    /// Advances the fault clock one cycle and applies any permanent
    /// topology fault that becomes effective now.
    fn apply_faults(&mut self) {
        let due = self
            .faults
            .as_mut()
            .expect("caller checked faults.is_some()")
            .begin_cycle(self.now, &self.cfg);
        for ev in due {
            match ev {
                FaultEvent::PermanentLink { node, dir, .. } => {
                    self.emit(|| Event::FaultApplied {
                        node: node.index() as u64,
                        kind: "permanent_link",
                    });
                    if let Some(nb) = neighbor(&self.cfg, node, dir) {
                        let dying = [(node.index(), dir), (nb.index(), dir.opposite())];
                        self.apply_topology_fault(&dying, None);
                    }
                }
                FaultEvent::RouterDown { node, .. } => {
                    self.emit(|| Event::FaultApplied {
                        node: node.index() as u64,
                        kind: "router_down",
                    });
                    if node.index() < self.cfg.nodes() {
                        self.apply_topology_fault(&[], Some(node.index()));
                    }
                }
                _ => unreachable!("begin_cycle returns only topology events"),
            }
        }
    }

    /// Drives the reliability overlay one cycle: scans for entries whose
    /// retransmission deadline has passed and either mints a fresh copy
    /// into the fabric or escalates the packet to a permanent-fault
    /// reclassification (see [`crate::reliable`]). Orders come out in
    /// packet-id order (the layer's map order), so the cycle is
    /// deterministic regardless of how losses interleaved.
    fn process_reliability(&mut self) {
        let mut orders = std::mem::take(&mut self.rel_orders);
        self.reliable
            .as_ref()
            .expect("caller checked reliable.is_some()")
            .collect_due(self.now, &mut orders);
        for order in orders.drain(..) {
            match order {
                RelOrder::Retransmit { original } => {
                    let (copy, attempt) = self
                        .reliable
                        .as_mut()
                        .expect("reliable is on")
                        .mint_copy(original, self.now);
                    self.emit(|| Event::PacketRetransmitted {
                        packet: original.0,
                        copy: copy.id.0,
                        node: copy.src.index() as u64,
                        attempt,
                    });
                    if !self.inject_copy(copy) {
                        // The fabric refused the copy (endpoint dead or
                        // unreachable). The attempt stays charged and the
                        // backoff deadline stays armed, so the budget
                        // still bounds the storm and escalation follows.
                        self.reliable
                            .as_mut()
                            .expect("reliable is on")
                            .note_copy_refused(copy.id, self.now);
                    }
                }
                RelOrder::Escalate { original } => {
                    let mut purges = std::mem::take(&mut self.rel_purges);
                    let (src, dest) = self
                        .reliable
                        .as_mut()
                        .expect("reliable is on")
                        .begin_escalation(original, &mut purges);
                    self.emit(|| Event::FaultEscalated {
                        packet: original.0,
                        node: src.index() as u64,
                    });
                    for id in purges.drain(..) {
                        self.purge_packet(id);
                    }
                    self.rel_purges = purges;
                    if escalation_action(self.faults.is_some())
                        == EscalationAction::ReclassifyFirstHop
                    {
                        self.reclassify_first_hop(src, dest);
                    }
                }
            }
        }
        self.rel_orders = orders;
    }

    /// Re-injects a retransmission copy into the fabric. Mirrors the
    /// refusal check of [`Network::inject`] but records neither an
    /// injection, a refusal, nor an injection event: the copy is a
    /// transport-layer artifact, invisible to offered-load and NI
    /// statistics (a refused copy surfaces through the retry budget,
    /// which stays charged and eventually escalates). Returns `false`
    /// when the fabric refuses the copy.
    fn inject_copy(&mut self, copy: Packet) -> bool {
        if let Some(f) = self.faults.as_ref() {
            if f.router_dead(copy.src.index())
                || f.router_dead(copy.dest.index())
                || (f.degraded() && f.next_hop(copy.src, copy.dest, true).is_none())
            {
                return false;
            }
        }
        self.idle = false;
        self.ni.enqueue(copy);
        true
    }

    /// Escalation's topology action: a packet that exhausted its retry
    /// budget is evidence the loss is not transient, so reclassify the
    /// first hop of its route as permanently dead and rebuild the detour
    /// tables — the same machinery a scheduled permanent fault uses.
    fn reclassify_first_hop(&mut self, src: NodeId, dest: NodeId) {
        // A dead endpoint already explains the loss — the evidence
        // points at the endpoint, not the path, so there is no healthy
        // link to reclassify (and cutting the source's first hop would
        // punish unrelated traffic).
        if !self.node_alive(src) || !self.node_alive(dest) {
            return;
        }
        let Some(Port::Dir(dir)) = self.route_out(src, dest, true) else {
            return; // ejects locally or already unroutable: nothing to cut
        };
        if !self.link_alive(src, dir) {
            return; // already dead — nothing left to reclassify
        }
        let Some(nb) = neighbor(&self.cfg, src, dir) else {
            return;
        };
        self.emit(|| Event::FaultApplied {
            node: src.index() as u64,
            kind: "escalated_link",
        });
        let dying = [(src.index(), dir), (nb.index(), dir.opposite())];
        self.apply_topology_fault(&dying, None);
    }

    /// Applies one permanent cut: dooms every packet the damage strands,
    /// marks the damage, purges the doomed packets (with full credit
    /// restitution), rebuilds the route tables, then sweeps for anything
    /// left unroutable.
    ///
    /// Packets kept alive provably keep their old routes: removing an
    /// edge only changes the next hop at nodes whose shortest path
    /// crossed the cut, and every such packet is in the doomed set. So
    /// surviving wormholes never diverge mid-flight and in-order
    /// reassembly is preserved.
    fn apply_topology_fault(
        &mut self,
        dying_links: &[(usize, Direction)],
        dying_node: Option<usize>,
    ) {
        // 1. Doomed set, computed with the pre-fault routes.
        let doomed = self.doomed_packets(dying_links, dying_node);
        // 2. Mark the damage.
        {
            let f = self.faults.as_mut().expect("faults active");
            if let Some(node) = dying_node {
                f.mark_router_dead(NodeId::new(node as u16));
            } else if let Some(&(node, dir)) = dying_links.first() {
                f.mark_link_dead(&self.cfg, NodeId::new(node as u16), dir);
            }
        }
        // 3. Purge the doomed packets.
        for id in doomed {
            self.purge_packet(id);
        }
        // 4. Reroute the survivors.
        self.faults
            .as_mut()
            .expect("faults active")
            .rebuild_routes(&self.cfg);
        // 5. Safety net.
        self.purge_unroutable();
    }

    /// Packets the damage strands: any flit at a dying node, a dying
    /// destination, or — once the packet has committed flits into the
    /// fabric — any flit whose remaining route crosses the cut (flits
    /// behind it must follow the committed wormhole path). Packets still
    /// entirely in their source queue reroute freely and are kept.
    fn doomed_packets(
        &self,
        dying_links: &[(usize, Direction)],
        dying_node: Option<usize>,
    ) -> Vec<PacketId> {
        let locs = self.flit_locations();
        let mut doomed = Vec::new();
        for p in self.ni.in_flight_packets() {
            if dying_node == Some(p.dest.index()) {
                doomed.push(p.id);
                continue;
            }
            let Some(entries) = locs.get(&p.id) else {
                continue;
            };
            let at_dying = dying_node.is_some_and(|dn| entries.iter().any(|&(n, _, _)| n == dn));
            let committed = entries.iter().any(|&(_, beyond, _)| beyond);
            let crosses = committed
                && entries
                    .iter()
                    .any(|&(n, _, cw)| self.route_crosses(n, cw, p.dest, dying_links, dying_node));
            if at_dying || crosses {
                doomed.push(p.id);
            }
        }
        doomed
    }

    /// Whether the current route from `from` toward `dest` traverses a
    /// dying link or router. Walks the pre-fault tables from turn-model
    /// state `west_ok`, so it must run before the damage is marked.
    fn route_crosses(
        &self,
        from: usize,
        west_ok: bool,
        dest: NodeId,
        dying_links: &[(usize, Direction)],
        dying_node: Option<usize>,
    ) -> bool {
        let mut here = from;
        let mut cw = west_ok;
        for _ in 0..=self.cfg.nodes() {
            if dying_node == Some(here) {
                return true;
            }
            let Some(port) = self.route_out(NodeId::new(here as u16), dest, cw) else {
                return true;
            };
            let Port::Dir(d) = port else {
                return false; // arrived
            };
            if dying_links.contains(&(here, d)) {
                return true;
            }
            cw = cw && d == Direction::West;
            here = neighbor(&self.cfg, NodeId::new(here as u16), d)
                .expect("route stays on the mesh")
                .index();
        }
        true // defensive: a non-terminating route counts as doomed
    }

    /// Where every in-flight packet's flits currently sit, as
    /// `(node, beyond_source, west_ok)` per flit. Source-queue flits are
    /// not yet committed to a path (and have taken no hops, so west is
    /// still open); everything else (local and directional VC buffers,
    /// latches, staged arrivals) follows the route that was current when
    /// the wormhole formed, with the turn-model state read off the input
    /// port it sits at.
    fn flit_locations(&self) -> BTreeMap<PacketId, Vec<(usize, bool, bool)>> {
        let mut map: BTreeMap<PacketId, Vec<(usize, bool, bool)>> = BTreeMap::new();
        for (n, f) in self.ni.queued_flits() {
            map.entry(f.packet).or_default().push((n, false, true));
        }
        for (n, router) in self.routers.iter().enumerate() {
            for in_port in Port::ALL {
                let iu = &router.inputs[in_port.index()];
                for vc in 0..self.cfg.vcs_per_port {
                    let lane = self.lanes.lane(n, in_port.index(), vc);
                    for f in self.lanes.flits.iter(lane) {
                        map.entry(f.packet)
                            .or_default()
                            .push((n, true, west_ok_from(in_port)));
                    }
                }
                if let Some(f) = iu.latch() {
                    map.entry(f.packet)
                        .or_default()
                        .push((n, true, west_ok_from(in_port)));
                }
            }
        }
        for a in &self.arrivals {
            map.entry(a.flit.packet)
                .or_default()
                .push((a.node, true, west_ok_from(a.in_port)));
        }
        map
    }

    /// Removes every trace of `packet` from the fabric, restoring the
    /// credits its flits and pending grants hold so the surviving
    /// topology keeps a closed credit ledger, and counts the loss in
    /// [`FaultStats`].
    fn purge_packet(&mut self, id: PacketId) {
        D::purge(self, id);
        // Pending grants: each consumed a downstream credit at commit
        // time while its flit still sits in the input buffer. Filtered
        // in place (order-preserving) so no replacement list is built.
        let mut i = 0;
        while i < self.grants.len() {
            let g = self.grants[i];
            if g.packet != id {
                i += 1;
                continue;
            }
            self.grants.remove(i);
            if g.out_port != Port::Local {
                self.lanes
                    .out_vc_mut(g.node, g.out_port.index(), g.vc)
                    .return_credit();
            }
        }
        // Buffered flits. A flit buffered at a directional input occupies
        // a slot the upstream router paid a credit for.
        for n in 0..self.cfg.nodes() {
            for in_port in Port::ALL {
                for vc in 0..self.cfg.vcs_per_port {
                    for _ in 0..self.remove_buffered(n, in_port.index(), vc, id) {
                        self.restore_upstream_credit(n, in_port, vc);
                    }
                }
            }
            // Streams, port locks and ownership.
            for p in 0..Port::COUNT {
                if self.routers[n].port_lock[p] == Some(id) {
                    self.routers[n].port_lock[p] = None;
                }
                for vc in 0..self.cfg.vcs_per_port {
                    if self
                        .lanes
                        .active(n, p, vc)
                        .is_some_and(|st| st.packet == id)
                    {
                        self.set_active(n, p, vc, None);
                    }
                    self.lanes.out_vc_mut(n, p, vc).release_owner(id);
                }
            }
        }
        // Staged arrivals: the credit was consumed upstream at grant
        // time. Same in-place, order-preserving filter as the grants.
        let mut i = 0;
        while i < self.arrivals.len() {
            let a = self.arrivals[i];
            if a.flit.packet != id {
                i += 1;
                continue;
            }
            self.arrivals.remove(i);
            self.restore_upstream_credit(a.node, a.in_port, a.vc);
        }
        // The NI's ledger, source queues (flits not yet in the fabric
        // hold no credits) and partial reassembly, then loss accounting.
        // With the reliability overlay on, a purge is absorbed: the
        // layer arms a fast retransmit (NACK-on-purge) instead of the
        // fault counters recording a permanent loss.
        if let Some(p) = self.ni.purge(id) {
            let absorbed = self
                .reliable
                .as_mut()
                .is_some_and(|rel| rel.note_purged(id, self.now));
            if !absorbed {
                let f = self
                    .faults
                    .as_mut()
                    .expect("purges only run under fault injection");
                f.note_purged_packet(u64::from(p.len_flits));
            }
            self.emit(|| Event::PacketDropped {
                packet: id.0,
                flits: p.len_flits,
            });
        }
    }

    /// Hands the credit of one purged flit at input `(in_port, vc)` of
    /// `node` straight back to the upstream router (the local port has
    /// none).
    fn restore_upstream_credit(&mut self, node: usize, in_port: Port, vc: usize) {
        if let Port::Dir(e) = in_port {
            let up = neighbor(&self.cfg, NodeId::new(node as u16), e)
                .expect("flit arrived from a real neighbor");
            self.lanes
                .out_vc_mut(up.index(), Port::Dir(e.opposite()).index(), vc)
                .return_credit();
        }
    }

    /// Purges any packet that can no longer reach its destination on the
    /// rebuilt topology. Redundant with the targeted doomed-set purge —
    /// kept as a safety net so a missed corner case degrades to counted
    /// loss, never to a stuck wormhole.
    fn purge_unroutable(&mut self) {
        let locs = self.flit_locations();
        let mut doomed = Vec::new();
        {
            let f = self.faults.as_ref().expect("faults active");
            for p in self.ni.in_flight_packets() {
                let dest_dead = f.router_dead(p.dest.index());
                let unroutable = locs.get(&p.id).is_some_and(|entries| {
                    entries.iter().any(|&(n, _, cw)| {
                        self.route_out(NodeId::new(n as u16), p.dest, cw).is_none()
                    })
                });
                if dest_dead || unroutable {
                    doomed.push(p.id);
                }
            }
        }
        for id in doomed {
            self.purge_packet(id);
        }
    }

    // ------------------------------------------------------------------
    // Fault status & audit surface
    // ------------------------------------------------------------------

    /// Whether a fault plan is active on this network.
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// Whether `node`'s router is alive (always true without faults).
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.faults
            .as_ref()
            .is_none_or(|f| !f.router_dead(node.index()))
    }

    /// Whether the directed link leaving `node` toward `dir` exists and
    /// is not permanently dead. Transient faults are invisible here: the
    /// control plane routes on topology, not on single-cycle glitches.
    pub fn link_alive(&self, node: NodeId, dir: Direction) -> bool {
        match &self.faults {
            Some(f) => f.link_usable_permanent(&self.cfg, node.index(), dir),
            None => neighbor(&self.cfg, node, dir).is_some(),
        }
    }

    /// Whether the control network at `node` is corrupting packets around
    /// the current cycle (PRA treats corruption as a drop).
    pub fn control_fault_at(&self, node: NodeId) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.control_fault_at(node.index()))
    }

    /// Records a control packet dropped because of a fault (called by the
    /// PRA control plane, which performs the drop itself).
    pub fn note_control_drop(&mut self) {
        if let Some(f) = self.faults.as_mut() {
            f.note_control_drop();
        }
    }

    /// Fault counters, when fault injection is active.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|f| &f.stats)
    }

    /// The route a packet would take from `src` to `dest` on the current
    /// topology: XY while intact, the west-first detour once degraded,
    /// `None` when `dest` is unreachable.
    pub fn compute_route(&self, src: NodeId, dest: NodeId) -> Option<Route> {
        match &self.faults {
            Some(f) if f.degraded() => {
                let mut dirs = Vec::new();
                let mut here = src;
                let mut cw = true;
                for _ in 0..=self.cfg.nodes() {
                    match f.next_hop(here, dest, cw)? {
                        Port::Local => return Some(Route::from_dirs(&self.cfg, src, dest, dirs)),
                        Port::Dir(d) => {
                            dirs.push(d);
                            cw = cw && d == Direction::West;
                            here = neighbor(&self.cfg, here, d).expect("route stays on mesh");
                        }
                    }
                }
                None // defensive: next-hop tables never cycle
            }
            _ => Some(Route::compute(&self.cfg, src, dest)),
        }
    }

    /// Takes a full structural snapshot for the invariant watchdog:
    /// counts every flit the fabric should hold against the flits it
    /// actually holds, and closes the credit-conservation sum on every
    /// live link VC.
    fn audit_now(&self) -> AuditReport {
        let mut expected_flits = 0u64;
        let mut oldest_packet_age = 0u64;
        for p in self.ni.in_flight_packets() {
            expected_flits += p.len_flits as u64;
            oldest_packet_age = oldest_packet_age.max(self.now.saturating_sub(p.created));
        }
        let mut present_flits = 0u64;
        for (n, router) in self.routers.iter().enumerate() {
            present_flits += self.lanes.flits.buffered(self.lanes.router(n)) as u64;
            present_flits += router
                .inputs
                .iter()
                .filter(|iu| iu.latch().is_some())
                .count() as u64;
        }
        present_flits += self.ni.held_flits();
        present_flits += self.arrivals.len() as u64;

        // The reliability overlay tracks packets the ledger no longer
        // sees: a purged copy awaiting retransmission is a "gap" —
        // still in flight end to end, with zero flits in the fabric.
        let mut packets_in_flight = self.ni.in_flight();
        let rel_stats = self.reliable.as_ref().map(|r| r.stats());
        if let Some(rel) = &self.reliable {
            packets_in_flight += rel.extra_in_flight();
            if let Some(created) = rel.oldest_unresolved_created() {
                oldest_packet_age = oldest_packet_age.max(self.now.saturating_sub(created));
            }
        }

        AuditReport {
            cycle: self.now,
            packets_in_flight,
            expected_flits,
            present_flits,
            delivered_packets: self.stats.delivered(),
            lost_packets: self.faults.as_ref().map_or(0, |f| f.stats.lost_packets),
            credit_violations: self.count_credit_violations(),
            oldest_packet_age,
            escalated_packets: rel_stats.map_or(0, |s| s.escalations),
            retransmits: rel_stats.map_or(0, |s| s.retransmits),
            reliability_horizon: self
                .reliable
                .as_ref()
                .map(|r| r.config().delivery_horizon()),
        }
    }

    /// Number of `(node, direction, vc)` lanes between live routers whose
    /// credit-conservation sum does not close: upstream credits +
    /// downstream occupancy + staged arrivals + credits in flight back +
    /// credits held by pending grants + credits destroyed by faults must
    /// equal the configured VC depth.
    fn count_credit_violations(&self) -> u64 {
        let mut violations = 0u64;
        for n in 0..self.cfg.nodes() {
            let here = NodeId::new(n as u16);
            if !self.node_alive(here) {
                continue;
            }
            for dir in Direction::ALL {
                let Some(nb) = neighbor(&self.cfg, here, dir).filter(|&nb| self.node_alive(nb))
                else {
                    continue;
                };
                let back = Port::Dir(dir.opposite());
                for vc in 0..self.cfg.vcs_per_port {
                    let credits = self.lanes.out_vc(n, Port::Dir(dir).index(), vc).credits() as u64;
                    let occupancy =
                        self.lanes
                            .flits
                            .len(self.lanes.lane(nb.index(), back.index(), vc))
                            as u64;
                    let staged = self
                        .arrivals
                        .iter()
                        .filter(|a| a.node == nb.index() && a.in_port == back && a.vc == vc)
                        .count() as u64;
                    let in_flight_back = self
                        .credit_returns
                        .iter()
                        .filter(|cr| cr.node == n && cr.out_port == Port::Dir(dir) && cr.vc == vc)
                        .count() as u64;
                    let granted = self
                        .grants
                        .iter()
                        .filter(|g| g.node == n && g.out_port == Port::Dir(dir) && g.vc == vc)
                        .count() as u64;
                    let lost = self
                        .faults
                        .as_ref()
                        .map_or(0, |f| f.lost_credits(n, dir, vc));
                    let sum = credits + occupancy + staged + in_flight_back + granted + lost;
                    if sum != self.cfg.vc_depth as u64 {
                        violations += 1;
                    }
                }
            }
        }
        violations
    }

    /// Debug-build check of the activity-flag contract: a node missing
    /// from `buffered_nodes` must *prove* the absence of the state it
    /// gates (a stale member is allowed, a wrong absence would silently
    /// skip work). The node order of `grants`, which the
    /// reservation install check searches, must hold too. The per-router
    /// `occ` and `streams` masks allow no slack at all: every bit must
    /// equal the state it mirrors. The reserving datapath checks its own
    /// derived state at the end of its expiry phase.
    #[cfg(debug_assertions)]
    fn assert_activity_flags(&self) {
        debug_assert!(
            self.grants.windows(2).all(|w| w[0].node <= w[1].node),
            "grants out of node order"
        );
        let vcs = self.lanes.vcs;
        for (n, r) in self.routers.iter().enumerate() {
            for port in 0..Port::COUNT {
                for vc in 0..vcs {
                    let bit = self.lanes.bit(port, vc);
                    debug_assert_eq!(
                        r.occ & bit != 0,
                        self.lanes.front(n, port, vc).is_some(),
                        "occupancy bit of n{n} port {port} vc {vc} is wrong"
                    );
                    debug_assert_eq!(
                        r.streams & bit != 0,
                        self.lanes.active(n, port, vc).is_some(),
                        "stream bit of n{n} port {port} vc {vc} is wrong"
                    );
                }
            }
            debug_assert!(
                r.occ >> (Port::COUNT * vcs) == 0 && r.streams >> (Port::COUNT * vcs) == 0,
                "n{n} masks hold bits past the last VC"
            );
            debug_assert!(
                self.buffered_nodes.contains(n) || r.occ == 0,
                "n{n} missing from buffered_nodes while input VCs hold flits"
            );
        }
    }

    /// Whether the fabric is provably quiescent: with nothing in flight,
    /// staged, reserved, or claimed anywhere, a full [`Network::step`]
    /// mutates only the clock and cycle counter — every phase walks
    /// empty collections and the arbiters see no requests (and so never
    /// rotate). Fault plans disqualify outright (the fault clock itself
    /// advances every cycle). The cheap global checks run first; the
    /// per-router scan only runs when they all pass, which at any
    /// non-trivial load is rejected on the first test.
    fn is_quiescent(&self) -> bool {
        if self.faults.is_some()
            || self.reliable.is_some()
            || !self.ni.is_idle()
            || !self.grants.is_empty()
            || !self.arrivals.is_empty()
            || !self.credit_returns.is_empty()
            || !D::quiescent(self)
        {
            return false;
        }
        // Buffered flits are guaranteed absent by flit conservation once
        // nothing is in flight, but they are cheap to confirm and this
        // predicate must never be wrong.
        self.lanes.flits.buffered(0..self.lanes.flits.lanes()) == 0
    }
}

impl<D: Datapath> Network for MeshCore<D> {
    fn config(&self) -> &NocConfig {
        &self.cfg
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn inject(&mut self, packet: Packet) {
        // A dead or unreachable endpoint refuses the injection outright
        // (the NI knows its router died); refusals are counted, never
        // registered, so they do not distort delivery statistics.
        if let Some(f) = self.faults.as_mut() {
            if f.router_dead(packet.src.index())
                || f.router_dead(packet.dest.index())
                || (f.degraded() && f.next_hop(packet.src, packet.dest, true).is_none())
            {
                f.note_injection_refused();
                self.emit(|| Event::InjectionRefused {
                    node: packet.src.index() as u64,
                });
                return;
            }
        }
        let packet = self.ni.inject(packet, self.now, &mut self.stats);
        self.emit(|| Event::PacketInjected {
            packet: packet.id.0,
            src: packet.src.index() as u64,
            dest: packet.dest.index() as u64,
            class: packet.class.vc() as u8,
            len: packet.len_flits,
        });
        self.idle = false;
        if let Some(rel) = self.reliable.as_mut() {
            rel.track(&packet, self.now);
        }
    }

    // hot
    fn step(&mut self) {
        self.now += 1;
        self.stats.cycles += 1;
        if self.cancel.is_cancelled() {
            return; // the clock advanced; bounded loops still terminate
        }
        if self.skip_ahead && self.idle {
            // Quiescent fast path: a full step over an idle fabric would
            // mutate nothing beyond the clock (see `is_quiescent`), so
            // skip it. `idle` was proven at the end of the last full
            // step and is invalidated by every work-introducing call.
            return;
        }
        if self.faults.is_some() {
            self.apply_faults();
        }
        if self.reliable.is_some() {
            self.process_reliability();
        }
        self.apply_credit_returns();
        self.deliver_arrivals();
        self.inject_from_sources();
        self.execute_grants();
        D::execute(self);
        self.allocate();
        D::expire(self);
        #[cfg(debug_assertions)]
        self.assert_activity_flags();
        if self.skip_ahead && !self.idle {
            self.idle = self.is_quiescent();
        }
    }

    fn drain_delivered(&mut self) -> Vec<Delivered> {
        let mut out = Vec::new();
        self.drain_delivered_into(&mut out);
        out
    }

    // hot
    fn drain_delivered_into(&mut self, out: &mut Vec<Delivered>) {
        let start = out.len();
        self.ni.drain_into(out);
        D::delivered(self, &out[start..]);
    }

    fn set_skip_ahead(&mut self, enabled: bool) {
        self.skip_ahead = enabled;
        if !enabled {
            self.idle = false;
        }
    }

    fn in_flight(&self) -> usize {
        // Gaps — tracked packets whose every copy was purged — are
        // still in flight end to end: a retransmission is pending.
        self.ni.in_flight()
            + self
                .reliable
                .as_ref()
                .map_or(0, ReliableLayer::extra_in_flight)
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn audit(&self) -> Option<AuditReport> {
        Some(self.audit_now())
    }

    fn reliable_stats(&self) -> Option<ReliableStats> {
        self.reliable.as_ref().map(ReliableLayer::stats)
    }

    fn install_cancel(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    fn state_digest(&self) -> Option<u64> {
        let mut h = StateHasher::new();
        self.digest_state(&mut h);
        Some(h.finish())
    }

    fn install_obs(&mut self, sink: niobs::SharedSink) {
        self.obs.attach(sink);
    }
}

impl<D: Datapath> StateDigest for MeshCore<D> {
    fn digest_state(&self, h: &mut StateHasher) {
        h.write_u64(self.now);
        let vcs = self.lanes.vcs;
        for (n, r) in self.routers.iter().enumerate() {
            // Each input port as one unit: its VC count, its VCs, then
            // its latch and claims.
            for (port, input) in r.inputs.iter().enumerate() {
                h.write_usize(vcs);
                for vc in 0..vcs {
                    self.lanes
                        .flits
                        .digest_lane(self.lanes.lane(n, port, vc), h);
                }
                input.digest_state(h);
            }
            // A router's lanes run port-major, which is exactly the
            // nested order the digest has always used.
            let lanes = self.lanes.router(n);
            for vc in &self.lanes.out_vcs[lanes.clone()] {
                vc.digest_state(h);
            }
            self.dp.digest_router(n, vcs, h);
            for slot in &self.lanes.active_out[lanes] {
                match slot {
                    None => h.write_u8(0),
                    Some(s) => {
                        h.write_u8(1);
                        h.write_usize(s.out_port.index());
                        h.write_u64(s.packet.0);
                        h.write_u8(s.len);
                        h.write_u8(s.sent);
                    }
                }
            }
            for lock in &r.port_lock {
                h.write_opt_u64(lock.map(|p| p.0));
            }
            for rr in r.sa_in.iter().chain(r.sa_out.iter()) {
                rr.digest_state(h);
            }
        }
        self.ni.digest_state(h);
        h.write_usize(self.grants.len());
        for g in &self.grants {
            h.write_usize(g.node);
            h.write_usize(g.in_port.index());
            h.write_usize(g.vc);
            h.write_usize(g.out_port.index());
            h.write_u64(g.packet.0);
            h.write_u8(g.seq);
        }
        h.write_usize(self.arrivals.len());
        for a in &self.arrivals {
            h.write_usize(a.node);
            h.write_usize(a.in_port.index());
            h.write_usize(a.vc);
            a.flit.digest_state(h);
        }
        h.write_usize(self.credit_returns.len());
        for c in &self.credit_returns {
            h.write_usize(c.node);
            h.write_usize(c.out_port.index());
            h.write_usize(c.vc);
        }
        self.dp.digest(h);
        match &self.faults {
            None => h.write_u8(0),
            Some(f) => {
                h.write_u8(1);
                f.digest_state(h);
            }
        }
        // The reliability overlay writes NOTHING when absent — not even
        // a tag byte — so every digest trail recorded before the
        // subsystem existed stays byte-identical.
        if let Some(rel) = &self.reliable {
            rel.digest_state(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::reserve::ReservingCore;
    use crate::traffic::{busy_cases, TrafficGen};
    use crate::types::MessageClass;

    fn net() -> MeshNetwork {
        MeshNetwork::new(NocConfig::paper())
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
    fn class_priority_prefers_the_prioritised_class_at_a_contended_port() {
        // Two single-flit packets from different input ports race for
        // the same output link on the same cycle; with response
        // priority configured the response must win the first grant.
        let run = |priority: Option<[u8; 3]>| {
            let mut cfg = NocConfig::paper();
            cfg.class_priority = priority;
            let mut n = MeshNetwork::new(cfg);
            // Both route east through node 1 toward node 3.
            n.inject(pkt(1, 0, 3, MessageClass::Request, 1));
            n.inject(pkt(2, 1, 3, MessageClass::Response, 1));
            let d = n.run_to_drain(200);
            assert_eq!(d.len(), 2);
            let lat = |id: u64| {
                d.iter()
                    .find(|x| x.packet.id.0 == id)
                    .map(|x| x.delivered - x.packet.created)
                    .expect("delivered")
            };
            (lat(1), lat(2))
        };
        // Response class on VC2 must not be slower than the request
        // when it outranks it.
        let (req, rsp) = run(Some([0, 0, 9]));
        assert!(
            rsp <= req,
            "prioritised response ({rsp}) must not trail the request ({req})"
        );
        // And the default keeps working (both still arrive).
        let (req0, rsp0) = run(None);
        assert!(req0 > 0 && rsp0 > 0);
    }

    #[test]
    fn class_priority_reduces_prioritised_latency_under_load() {
        use crate::traffic::{Pattern, TrafficGen};
        // Under contended hotspot traffic, granting requests strict
        // priority must not make them slower than the class-oblivious
        // arbiter does (deterministic: same seed both runs).
        let run = |priority: Option<[u8; 3]>| {
            let mut cfg = NocConfig::paper();
            cfg.class_priority = priority;
            let mut n = MeshNetwork::new(cfg.clone());
            let mut gen = TrafficGen::new(cfg, Pattern::Hotspot(NodeId::new(27)), 0.02, 17)
                .response_fraction(0.5);
            for _ in 0..2_000 {
                gen.tick(&mut n);
                n.step();
                n.drain_delivered();
            }
            gen.stop();
            let deadline = n.now() + 50_000;
            while n.in_flight() > 0 && n.now() < deadline {
                n.step();
                n.drain_delivered();
            }
            n.stats().avg_latency_of(MessageClass::Request)
        };
        let plain = run(None);
        let prioritised = run(Some([9, 0, 0]));
        assert!(
            prioritised <= plain * 1.05,
            "request priority must not hurt requests: {prioritised} vs {plain}"
        );
    }

    #[test]
    fn zero_load_latency_single_flit() {
        let mut n = net();
        // (0,0) -> (3,0): 3 hops.
        n.inject(pkt(1, 0, 3, MessageClass::Request, 1));
        let d = n.run_to_drain(100);
        assert_eq!(d.len(), 1);
        // Injection into the VC during cycle 1, SA at 1, ST at 2, and so on:
        // two cycles per hop plus injection (1), ejection SA/ST (2) = +3.
        let lat = d[0].delivered - d[0].packet.created;
        assert_eq!(d[0].hops, 3);
        assert_eq!(lat, 2 * 3 + 3, "zero-load mesh latency");
    }

    #[test]
    fn zero_load_latency_scales_with_hops() {
        let mut lat = Vec::new();
        for dest in [1u16, 2, 4, 7] {
            let mut n = net();
            n.inject(pkt(1, 0, dest, MessageClass::Request, 1));
            let d = n.run_to_drain(200);
            lat.push(d[0].delivered - d[0].packet.created);
        }
        assert_eq!(lat, vec![5, 7, 11, 17]);
    }

    #[test]
    fn multi_flit_serialization_latency() {
        let mut n = net();
        n.inject(pkt(1, 0, 1, MessageClass::Response, 5));
        let d = n.run_to_drain(100);
        // Tail follows head by 4 cycles.
        assert_eq!(d[0].delivered - d[0].packet.created, 5 + 4);
    }

    #[test]
    fn xy_turn_packets_arrive() {
        let mut n = net();
        n.inject(pkt(1, 0, 63, MessageClass::Response, 5));
        let d = n.run_to_drain(200);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].hops, 14);
        assert_eq!(d[0].delivered - d[0].packet.created, 2 * 14 + 3 + 4);
    }

    #[test]
    fn many_random_packets_all_delivered() {
        use nistats::rng::Rng;
        let mut rng = Rng::new(7);
        let mut n = net();
        let mut sent = 0u64;
        for cycle in 0..2_000u64 {
            if cycle < 1_000 && rng.gen_bool(0.3) {
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
        assert_eq!(delivered, sent, "every injected packet must arrive");
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn heavy_same_destination_contention_resolves() {
        let mut n = net();
        let mut id = 0;
        for src in 0..8u16 {
            for _ in 0..3 {
                id += 1;
                n.inject(pkt(id, src * 8, 63, MessageClass::Response, 5));
            }
        }
        let d = n.run_to_drain(20_000);
        assert_eq!(d.len() as u64, id);
    }

    #[test]
    fn per_class_isolation_no_cross_blocking_deadlock() {
        let mut n = net();
        // Saturate responses and check requests still flow.
        for i in 0..20u64 {
            n.inject(pkt(100 + i, 0, 63, MessageClass::Response, 5));
        }
        n.inject(pkt(1, 0, 63, MessageClass::Request, 1));
        let d = n.run_to_drain(20_000);
        assert_eq!(d.len(), 21);
    }

    #[test]
    fn stats_track_injections_and_deliveries() {
        let mut n = net();
        n.inject(pkt(1, 0, 5, MessageClass::Request, 1));
        n.inject(pkt(2, 3, 9, MessageClass::Response, 5));
        n.run_to_drain(200);
        let s = n.stats();
        assert_eq!(s.injected(), 2);
        assert_eq!(s.delivered(), 2);
        assert_eq!(s.flits_delivered[MessageClass::Response.vc()], 5);
        assert!(s.avg_latency() > 0.0);
        assert!(s.local_grants > 0);
        assert_eq!(s.reserved_moves, 0, "no PRA activity on the baseline");
    }

    /// Folds the end state the stats and delivery records miss into a
    /// busy-path pin: the full state digest (every arbiter's rotation
    /// included) and, under a fault plan, the fault counters.
    fn mesh_extra(net: &MeshNetwork, h: &mut StateHasher) {
        h.write_u64(net.state_digest().expect("the mesh digests its state"));
        if let Some(f) = net.fault_stats() {
            h.write_bytes(format!("{f:?}").as_bytes());
        }
    }

    /// Busy paths of the plain mesh (see
    /// [`crate::traffic::assert_busy_pins`]). This and the two pins
    /// below were recorded before switch allocation moved to occupancy
    /// masks and mask arbiters.
    #[test]
    fn busy_paths_match_pinned_fingerprints() {
        crate::traffic::assert_busy_pins(MeshNetwork::new, mesh_extra, PLAIN_PINS);
    }

    /// Class priority under contention: requests outrank the multi-flit
    /// responses, so both allocation stages filter their request masks.
    #[test]
    fn busy_paths_with_class_priority_match_pinned_fingerprints() {
        crate::traffic::assert_busy_pins(
            |cfg| {
                MeshNetwork::new(NocConfig {
                    class_priority: Some([2, 1, 0]),
                    ..cfg
                })
            },
            mesh_extra,
            PRIORITY_PINS,
        );
    }

    /// `cfg` under a permanent link fault plus background transients.
    fn with_link_faults(cfg: NocConfig) -> NocConfig {
        let plan = FaultPlan::new(11).transient_rate_ppb(2_000_000).with_event(
            FaultEvent::PermanentLink {
                at: 300,
                node: NodeId::new(5),
                dir: Direction::West,
            },
        );
        NocConfig {
            faults: Some(plan),
            ..cfg
        }
    }

    /// A permanent link fault plus background transients: routing
    /// detours through the fault tables and transiently dead links
    /// refuse bids (`note_blocked_by_fault`).
    #[test]
    fn busy_paths_under_link_faults_match_pinned_fingerprints() {
        crate::traffic::assert_busy_pins(
            |cfg| MeshNetwork::new(with_link_faults(cfg)),
            |net, h| {
                let f = net.fault_stats().expect("fault plan installed");
                assert!(f.blocked_by_fault_cycles > 0, "transients must refuse bids");
                mesh_extra(net, h);
            },
            FAULT_PINS,
        );
    }

    const PLAIN_PINS: [(usize, u64); 4] = [
        (2559, 18276081516595770879),
        (297, 14265907887167176119),
        (5716, 8108190813454915246),
        (378, 15278827083741911937),
    ];
    const PRIORITY_PINS: [(usize, u64); 4] = [
        (2559, 14104705882949697648),
        (297, 1477205336352991189),
        (5716, 1072783811859058789),
        (378, 6471689217937632131),
    ];
    const FAULT_PINS: [(usize, u64); 4] = [
        (2459, 13992717410304218158),
        (297, 1560309950318003056),
        (5604, 15106254427201822874),
        (371, 14680951035633648172),
    ];

    /// With nothing booked, the reserving core is the plain mesh: on
    /// every busy-pin traffic mix — plain, under class priority and under
    /// link faults — both deliver the same packets at the same cycles and
    /// hold the same statistics and state digest every 50 cycles.
    #[test]
    fn reserving_core_with_nothing_booked_matches_the_plain_mesh() {
        let variants: [fn(NocConfig) -> NocConfig; 3] = [
            |cfg| cfg,
            |cfg| NocConfig {
                class_priority: Some([2, 1, 0]),
                ..cfg
            },
            with_link_faults,
        ];
        for variant in variants {
            for (seed, cfg, pattern, rate) in busy_cases() {
                let cfg = variant(cfg);
                let mut plain = MeshNetwork::new(cfg.clone());
                let mut reserving = ReservingCore::new(cfg.clone());
                let mut gen_plain = TrafficGen::new(cfg.clone(), pattern, rate, seed);
                let mut gen_reserving = TrafficGen::new(cfg, pattern, rate, seed);
                let (mut got_plain, mut got_reserving) = (Vec::new(), Vec::new());
                while plain.now() < 2_000 || plain.in_flight() > 0 {
                    assert!(plain.now() < 50_000, "case {seed} must drain");
                    if plain.now() < 2_000 {
                        gen_plain.tick(&mut plain);
                        gen_reserving.tick(&mut reserving);
                    }
                    plain.step();
                    reserving.step();
                    plain.drain_delivered_into(&mut got_plain);
                    reserving.drain_delivered_into(&mut got_reserving);
                    if plain.now().is_multiple_of(50) || plain.in_flight() == 0 {
                        let at = (seed, plain.now());
                        assert_eq!(got_plain, got_reserving, "deliveries at {at:?}");
                        assert_eq!(
                            format!("{:?}", plain.stats()),
                            format!("{:?}", reserving.stats()),
                            "stats at {at:?}"
                        );
                        assert_eq!(
                            plain.state_digest(),
                            reserving.state_digest(),
                            "digest at {at:?}"
                        );
                    }
                }
                assert!(!got_plain.is_empty(), "case {seed} delivers traffic");
            }
        }
    }
}
