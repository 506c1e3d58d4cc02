//! The Mesh+PRA router datapath (Figure 4): [`Reserving`], the
//! [`Datapath`] policy of the shared mesh core, and its timeslot tables.
//!
//! The tables are the software analogue of the paper's per-output-port
//! bit vectors (*Valid*, *Input Select*, *Local VC Select*, *Downstream VC
//! Select*). Hardware shifts the vectors left each cycle, so a router
//! only ever reads the slot at the head of each vector. The simulator
//! keeps each port's outstanding slots in a short vector sorted by
//! absolute cycle: passed slots form a prefix that expiry drains in one
//! move, and the slot of the current cycle sits at (or right behind) the
//! front. A due index — a timing wheel keyed by cycle — records which
//! `(router, port)` pairs hold a slot or a latch claim at which cycle, so
//! the datapath visits only the ports with work due instead of scanning
//! every router. Both are behaviourally identical to shifting bit vectors
//! and much cheaper to model.
//!
//! The control planes of the `pra` crate decide *what* to reserve and
//! book it through the install API of [`ReservingCore`]; this module
//! executes reservations, latches and bypasses, and refuses reactive
//! traffic on reserved timeslots.

use std::collections::{BTreeMap, VecDeque};

use niobs::Event;

use crate::buffer::vc_lane;
use crate::config::NocConfig;
use crate::credit::OutVc;
use crate::digest::{StateDigest, StateHasher};
use crate::flit::Flit;
use crate::mesh::{ones, west_ok_from, ActiveStream, Arrival, Datapath, MeshCore};
use crate::network::Delivered;
use crate::routing::neighbor;
use crate::stats::NetStats;
use crate::types::{Cycle, Direction, MessageClass, NodeId, PacketId, Port};

/// Where a reserved traversal reads its flit from at this router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitSource {
    /// The front of the local input VC `(port, vc)` (the *Local VC Select*
    /// field of the paper's bit vectors).
    Vc {
        /// Input port holding the flit.
        port: Port,
        /// Virtual channel within that port.
        vc: usize,
    },
    /// The single-flit latch of input direction `from` (a flit parked here
    /// during the previous cycle of a multi-hop path).
    Latch {
        /// Direction the flit originally arrived from.
        from: Direction,
    },
    /// The flit arrives over the incoming link *this same cycle* and passes
    /// straight through the crossbar (single-cycle multi-hop bypass).
    Bypass {
        /// Direction the flit arrives from.
        from: Direction,
    },
}

/// What happens at the downstream end of a reserved traversal
/// (the *Downstream VC Select* field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Landing {
    /// Enter the downstream VC buffer (end of the pre-allocated path, or
    /// arrival at the destination router).
    Vc(usize),
    /// Park in the downstream input latch for one cycle and continue the
    /// pre-allocated path next cycle.
    Latch,
    /// Continue through the downstream crossbar in the same cycle
    /// (the downstream router also holds a [`FlitSource::Bypass`]
    /// reservation for this flit at this cycle).
    Bypass,
}

/// One reserved timeslot on an output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Reservation {
    /// Packet the slot belongs to.
    pub packet: PacketId,
    /// Flit sequence number expected to use the slot.
    pub seq: u8,
    /// Where the flit is read from at this router.
    pub source: FlitSource,
    /// What happens at the downstream router.
    pub landing: Landing,
}

/// Timeslot reservation table for a single output port.
#[derive(Debug, Clone, Default)]
pub(crate) struct OutputSchedule {
    /// Outstanding slots, strictly ascending by cycle. The vector keeps
    /// its capacity as slots come and go, so a busy port stops touching
    /// the allocator once it has seen its deepest booking.
    slots: Vec<(Cycle, Reservation)>,
}

impl OutputSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        OutputSchedule::default()
    }

    /// Index of the first slot at or after `cycle`. Schedules are short
    /// and lookups cluster at the front (the current and the next cycle),
    /// so a forward scan beats a binary search.
    fn lower_bound(&self, cycle: Cycle) -> usize {
        self.slots
            .iter()
            .position(|&(c, _)| c >= cycle)
            .unwrap_or(self.slots.len())
    }

    /// Position of `cycle`'s slot, or where it would be inserted.
    fn find(&self, cycle: Cycle) -> Result<usize, usize> {
        let i = self.lower_bound(cycle);
        match self.slots.get(i) {
            Some(&(c, _)) if c == cycle => Ok(i),
            _ => Err(i),
        }
    }

    /// The slots at cycles in `cycles`, in cycle order.
    fn range(&self, cycles: std::ops::Range<Cycle>) -> &[(Cycle, Reservation)] {
        let lo = self.lower_bound(cycles.start);
        let len = self.slots[lo..]
            .iter()
            .take_while(|&&(c, _)| c < cycles.end)
            .count();
        &self.slots[lo..lo + len]
    }

    /// Whether any packet holds `cycle`.
    pub fn is_reserved(&self, cycle: Cycle) -> bool {
        self.find(cycle).is_ok()
    }

    /// The reservation at `cycle`, if any.
    pub fn get(&self, cycle: Cycle) -> Option<&Reservation> {
        self.find(cycle).ok().map(|i| &self.slots[i].1)
    }

    /// How many slots in `cycles` `packet` holds.
    pub fn count_of(&self, packet: PacketId, cycles: std::ops::Range<Cycle>) -> usize {
        self.range(cycles)
            .iter()
            .filter(|(_, r)| r.packet == packet)
            .count()
    }

    /// Whether every cycle in `cycles` is free (or already held by
    /// `packet`, which never conflicts with itself).
    pub fn range_free(&self, cycles: std::ops::Range<Cycle>, packet: PacketId) -> bool {
        self.range(cycles).iter().all(|(_, r)| r.packet == packet)
    }

    /// Inserts a reservation; fails (returning `false`) if the slot is held
    /// by a different packet.
    pub fn try_insert(&mut self, cycle: Cycle, r: Reservation) -> bool {
        match self.find(cycle) {
            Ok(i) if self.slots[i].1.packet != r.packet => false,
            Ok(i) => {
                self.slots[i].1 = r;
                true
            }
            Err(i) => {
                self.slots.insert(i, (cycle, r));
                true
            }
        }
    }

    /// Removes and returns the reservation at `cycle`.
    pub fn take(&mut self, cycle: Cycle) -> Option<Reservation> {
        self.find(cycle).ok().map(|i| self.slots.remove(i).1)
    }

    /// Updates the landing of `packet`'s reservations at every cycle in
    /// `cycles` (the ACK signal converting a conservative full-buffer
    /// landing into a latch/bypass pass-through). Returns the number of
    /// slots updated.
    pub fn update_landing(
        &mut self,
        cycles: std::ops::Range<Cycle>,
        packet: PacketId,
        landing: Landing,
    ) -> usize {
        let lo = self.lower_bound(cycles.start);
        let mut n = 0;
        for (_, r) in self.slots[lo..]
            .iter_mut()
            .take_while(|(c, _)| *c < cycles.end)
        {
            if r.packet == packet {
                r.landing = landing;
                n += 1;
            }
        }
        n
    }

    /// Removes all reservations of `packet` for flits with sequence number
    /// `>= from_seq` at cycles `>= from_cycle`, appending the removed
    /// entries to `removed` in cycle order; returns how many it removed.
    /// Used when a forced move finds its flit missing: earlier flits
    /// already in the pre-allocated path keep their slots so they can
    /// drain, later flits fall back to reactive routing.
    pub fn cancel_packet(
        &mut self,
        packet: PacketId,
        from_seq: u8,
        from_cycle: Cycle,
        removed: &mut Vec<(Cycle, Reservation)>,
    ) -> usize {
        let doomed = |&(c, r): &(Cycle, Reservation)| {
            c >= from_cycle && r.packet == packet && r.seq >= from_seq
        };
        // Most calls (the purge after delivery) find nothing to remove.
        if !self.slots.iter().any(doomed) {
            return 0;
        }
        let before = removed.len();
        self.slots.retain(|slot| {
            let gone = doomed(slot);
            if gone {
                removed.push(*slot);
            }
            !gone
        });
        removed.len() - before
    }

    /// Drops reservations strictly before `now` (already in the past),
    /// appending them to `expired` in cycle order. Executed slots are
    /// removed by [`OutputSchedule::take`], so anything left to expire was
    /// wasted.
    pub fn expire(&mut self, now: Cycle, expired: &mut Vec<(Cycle, Reservation)>) {
        let passed = self.lower_bound(now);
        expired.extend(self.slots.drain(..passed));
    }

    /// Whether a slot at a cycle before `cycle` is outstanding.
    pub fn holds_before(&self, cycle: Cycle) -> bool {
        self.slots.first().is_some_and(|&(c, _)| c < cycle)
    }

    /// Whether `packet` holds any outstanding slot in this schedule.
    pub fn has_packet(&self, packet: PacketId) -> bool {
        self.slots.iter().any(|(_, r)| r.packet == packet)
    }

    /// Number of outstanding reserved slots.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the schedule holds no reservations.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates over `(cycle, reservation)` pairs in cycle order.
    #[cfg(test)]
    pub fn iter(&self) -> impl Iterator<Item = (Cycle, &Reservation)> {
        self.slots.iter().map(|(c, r)| (*c, r))
    }
}

/// One [`DueIndex`] entry: router `node` holds work due at `cycle` in
/// one of its lanes — an output port's schedule or an input port's latch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DueEntry {
    /// Cycle the work is due.
    pub cycle: Cycle,
    /// Router holding it.
    pub node: u16,
    /// `0..Port::COUNT`: the schedule of output port `lane`;
    /// `Port::COUNT..2 * Port::COUNT`: the latch of input port
    /// `lane - Port::COUNT`.
    lane: u8,
}

impl DueEntry {
    /// A slot on output `port` of router `node` at `cycle`.
    pub(crate) fn slot_at(cycle: Cycle, node: usize, port: Port) -> Self {
        Self::new(cycle, node, port.index())
    }

    /// A claim on the latch of input `port` of router `node` at `cycle`.
    pub(crate) fn latch_at(cycle: Cycle, node: usize, port: Port) -> Self {
        Self::new(cycle, node, Port::COUNT + port.index())
    }

    fn new(cycle: Cycle, node: usize, lane: usize) -> Self {
        DueEntry {
            cycle,
            node: u16::try_from(node).expect("node index fits the NodeId range"),
            lane: lane as u8,
        }
    }

    /// The output port whose schedule holds a slot.
    pub(crate) fn slot(self) -> Option<Port> {
        let lane = usize::from(self.lane);
        (lane < Port::COUNT).then(|| Port::from_index(lane))
    }

    /// The input port whose latch is claimed.
    pub(crate) fn latch(self) -> Option<Port> {
        let lane = usize::from(self.lane);
        (lane >= Port::COUNT).then(|| Port::from_index(lane - Port::COUNT))
    }

    /// Sort key grouping entries by router, then lane.
    pub(crate) fn key(self) -> (u16, u8) {
        (self.node, self.lane)
    }
}

/// Which `(router, lane)` pairs hold reserved slots or latch claims at
/// which cycle: a timing wheel whose bucket `c % WHEEL` lists the entries
/// of every cycle congruent to `c`, so a lookup for one cycle reads one
/// short bucket whatever the booking horizon.
///
/// Entries are hints, never promises: the datapath always re-reads the
/// schedule or latch an entry points to, so an entry left behind by a
/// slot that was taken or cancelled early costs one lookup and changes
/// nothing, and a lane filed twice is visited once after deduplication.
/// The index is derived state and is excluded from the digest.
#[derive(Debug)]
pub(crate) struct DueIndex {
    buckets: Vec<Vec<DueEntry>>,
}

impl DueIndex {
    /// Buckets in the wheel: a power of two above every booking lead the
    /// control planes use, so a bucket rarely holds a later cycle.
    const WHEEL: usize = 64;

    /// Creates an empty index.
    pub(crate) fn new() -> Self {
        DueIndex {
            buckets: vec![Vec::new(); Self::WHEEL],
        }
    }

    fn bucket(cycle: Cycle) -> usize {
        (cycle % Self::WHEEL as Cycle) as usize
    }

    /// Files `e` in the bucket of its cycle.
    pub(crate) fn file(&mut self, e: DueEntry) {
        self.buckets[Self::bucket(e.cycle)].push(e);
    }

    /// The entries filed for exactly `cycle`, in filing order.
    pub(crate) fn at(&self, cycle: Cycle) -> impl Iterator<Item = DueEntry> + '_ {
        self.buckets[Self::bucket(cycle)]
            .iter()
            .copied()
            .filter(move |e| e.cycle == cycle)
    }

    /// Removes the entries of `cycle`'s bucket filed for `cycle` or
    /// earlier, appending them to `out` in filing order.
    pub(crate) fn take(&mut self, cycle: Cycle, out: &mut Vec<DueEntry>) {
        self.buckets[Self::bucket(cycle)].retain(|&e| {
            let done = e.cycle <= cycle;
            if done {
                out.push(e);
            }
            !done
        });
    }
}

/// A head flit stalled behind another packet's multi-flit stream, as
/// reported to the Long Stall Detection unit by
/// [`MeshCore::stalled_heads_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalledHead {
    /// Router holding the stalled flit.
    pub node: NodeId,
    /// Input port of the stalled flit.
    pub in_port: Port,
    /// Virtual channel of the stalled flit.
    pub vc: usize,
    /// The stalled head flit.
    pub flit: Flit,
    /// Output port it waits for.
    pub out_port: Port,
    /// Packet currently streaming through that port.
    pub blocker: PacketId,
    /// First cycle the port is free for traversals: the blocking stream
    /// drains deterministically until then.
    pub release: Cycle,
}

/// Description of one hop of a proactively allocated path, installed by
/// the PRA control plane. `start` is the cycle the packet's *head* flit
/// traverses this router's `out_port`; flit `s` traverses at `start + s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopPlan {
    /// Router performing the traversal.
    pub node: NodeId,
    /// Output port being reserved.
    pub out_port: Port,
    /// Cycle of the head flit's traversal.
    pub start: Cycle,
    /// Packet being pre-allocated.
    pub packet: PacketId,
    /// Packet length in flits (every flit gets a slot).
    pub len: u8,
    /// Message class (selects VC and guard).
    pub class: MessageClass,
    /// Where each flit is read from at this router.
    pub source: FlitSource,
    /// What happens at the downstream router.
    pub landing: Landing,
    /// Downstream credits to reserve for a [`Landing::Vc`] landing. The
    /// paper's PRA always books the full packet (`len`); flit-granular
    /// schemes (FRFC) book only their peak occupancy.
    pub reserve: u8,
}

/// Why a [`HopPlan`] could not be installed.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallError {
    /// A timeslot on the output port is already reserved by another packet.
    SlotTaken,
    /// A reactive grant already committed the port for one of the cycles.
    PortCommitted,
    /// The downstream VC cannot cover the whole packet (credits, a foreign
    /// reservation, or an owner with unknown drain time).
    NoDownstreamBuffer,
    /// The downstream latch is claimed by another packet in the window.
    LatchBusy,
    /// The output port leads off the mesh edge (control-plane routing bug).
    NoSuchNeighbor,
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            InstallError::SlotTaken => "timeslot already reserved",
            InstallError::PortCommitted => "port committed to a reactive grant",
            InstallError::NoDownstreamBuffer => "downstream buffer unavailable for the full packet",
            InstallError::LatchBusy => "downstream latch claimed by another packet",
            InstallError::NoSuchNeighbor => "output port leaves the mesh",
        };
        f.write_str(s)
    }
}

impl std::error::Error for InstallError {}

/// Result of validating a pre-allocated chain before execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainCheck {
    /// The whole remaining path can execute.
    Ok,
    /// A structural problem (missing continuation, foreign owner): waste
    /// the reservation and fall back to reactive routing.
    Unsound,
    /// A link on the path is faulted at its traversal cycle: waste the
    /// reservation so the data survives on the baseline mesh — the PRA
    /// graceful-degradation path.
    Faulted,
}

/// Sort key of a reservation chain head at `(node, out_port)`: the
/// tuple `(seq, packet, node, port)` packed into one integer with the
/// same order.
fn head_key(r: &Reservation, node: usize, out_port: Port) -> u128 {
    (u128::from(r.seq) << 120)
        | (u128::from(r.packet.0) << 56)
        | ((node as u128) << 8)
        | out_port.index() as u128
}

/// The `(node, out_port)` packed into a [`head_key`].
fn head_location(key: u128) -> (usize, Port) {
    let node = ((key >> 8) & ((1 << 48) - 1)) as usize;
    (node, Port::from_index((key & 0xff) as usize))
}

/// Location of an installed reservation, kept for cancellation.
#[derive(Debug, Clone, Copy)]
struct ResvLoc {
    node: usize,
    out_port: Port,
    cycle: Cycle,
}

/// The latch of one router input port (the paper's Figure 4 "Latch"
/// pseudo-VC) and the cycles it is claimed for. The bypass pseudo-VC is
/// combinational and has no storage.
#[derive(Debug, Clone, Default)]
struct Latch {
    /// A flit written here during cycle `c` is read during cycle `c + 1`.
    flit: Option<Flit>,
    /// Cycles the latch is promised to a pre-allocated packet:
    /// `(cycle, packet)` pairs kept sorted by cycle.
    claims: VecDeque<(Cycle, PacketId)>,
}

impl Latch {
    /// Stores `flit`, or hands it back if the latch is occupied (a
    /// claim bookkeeping bug; callers treat this as fatal).
    fn store(&mut self, flit: Flit) -> Result<(), Flit> {
        if self.flit.is_some() {
            return Err(flit);
        }
        self.flit = Some(flit);
        Ok(())
    }

    /// Whether the latch is free over `cycles` for `packet`. Claims of
    /// the same packet do not conflict.
    fn available(&self, cycles: std::ops::Range<Cycle>, packet: PacketId) -> bool {
        self.claims
            .iter()
            .all(|&(c, p)| p == packet || !cycles.contains(&c))
    }

    /// Claims the latch for `packet` over `cycles`.
    fn claim(&mut self, cycles: std::ops::Range<Cycle>, packet: PacketId) {
        for c in cycles {
            self.claims.push_back((c, packet));
        }
        self.claims
            .make_contiguous()
            .sort_unstable_by_key(|&(c, _)| c);
    }

    /// Releases `packet`'s claims at cycles at or after `from`.
    fn release(&mut self, packet: PacketId, from: Cycle) {
        self.claims.retain(|&(c, p)| !(p == packet && c >= from));
    }

    /// Drops claims before `now`.
    fn expire(&mut self, now: Cycle) {
        while matches!(self.claims.front(), Some(&(c, _)) if c < now) {
            self.claims.pop_front();
        }
    }
}

/// The reservation side of one output VC: downstream credits promised
/// to a pre-allocated packet, and the drain horizon of the VC's current
/// owner.
#[derive(Debug, Clone, Copy, Default)]
struct ReservedCredits {
    /// Credits promised to `reserved_for`, unusable by anyone else.
    reserved: u8,
    /// Packet the reservation belongs to.
    reserved_for: Option<PacketId>,
    /// When the owner drains deterministically (all remaining flits
    /// buffered locally with sufficient credits), the first cycle the VC
    /// is free, so a reservation may start past the current stream.
    /// Cleared whenever the owner changes.
    free_after: Option<Cycle>,
}

impl ReservedCredits {
    /// Credits of the VC kept from `packet`.
    // hot
    #[inline(always)]
    fn withheld_from(&self, packet: PacketId) -> u8 {
        if self.reserved_for == Some(packet) {
            0
        } else {
            self.reserved
        }
    }

    /// The admission rule of a downstream reservation: `packet` may book
    /// `count` credits of `out_vc` for a stream whose head departs at
    /// `start` when no other packet holds a reservation, the unreserved
    /// credits cover `count`, and the VC is unowned, owned by `packet`,
    /// or owned by a stream known to drain by `start`. Ownership itself
    /// is not taken: the port's [`MultiFlitGuard`] keeps competing
    /// multi-flit heads away while still admitting single-flit packets,
    /// as the paper's per-message-class flag does.
    fn admits(&self, out_vc: &OutVc, packet: PacketId, count: u8, start: Cycle) -> bool {
        self.reserved_for.is_none_or(|h| h == packet)
            && out_vc.usable(self.reserved) >= count
            && (out_vc.claimable_by(packet) || self.free_after.is_some_and(|c| c <= start))
    }

    /// Books `count` more credits for `packet`, which must have passed
    /// [`ReservedCredits::admits`].
    fn reserve(&mut self, packet: PacketId, count: u8) {
        self.reserved += count;
        self.reserved_for = Some(packet);
    }

    /// Releases `count` of `packet`'s credits (its landing moved further
    /// downstream, its flits used them, or it was cancelled).
    fn release(&mut self, packet: PacketId, count: u8) {
        if self.reserved_for == Some(packet) {
            self.reserved = self.reserved.saturating_sub(count);
            if self.reserved == 0 {
                self.reserved_for = None;
            }
        }
    }
}

/// Per-output-VC guard keeping other multi-flit packets from
/// interleaving with one that holds a proactive reservation (the paper's
/// "special flag corresponding to the message class"). Single-flit
/// packets bypass it.
#[derive(Debug, Clone, Copy, Default)]
struct MultiFlitGuard {
    holder: Option<PacketId>,
}

impl MultiFlitGuard {
    /// Whether multi-flit `packet` may use the VC.
    fn admits(self, packet: PacketId) -> bool {
        self.holder.is_none_or(|h| h == packet)
    }

    /// Clears the guard if `packet` holds it.
    fn clear(&mut self, packet: PacketId) {
        if self.holder == Some(packet) {
            self.holder = None;
        }
    }
}

/// Index of output port `p` of router `node` in the per-port slabs.
#[inline(always)]
fn lane(node: usize, p: usize) -> usize {
    node * Port::COUNT + p
}

/// The Mesh+PRA router datapath: the [`Datapath`] that reserves
/// timeslots, latches, bypass paths and downstream credits for
/// pre-allocated packets and moves their flits through preset crossbars.
///
/// Only the reserving core has the install API, latches and reserved
/// credits:
///
/// ```
/// # use noc::{config::NocConfig, mesh::MeshCore, reserve::{HopPlan, Reserving}};
/// # use noc::types::{NodeId, PacketId, Port};
/// # fn book(plan: &HopPlan) {
/// let mut net = MeshCore::<Reserving>::new(NocConfig::paper());
/// let _ = net.install_hop(plan);
/// let _ = net.latch_available(NodeId::new(0), Port::Local, 0..1, PacketId(1));
/// let _ = net.reserved_credits(NodeId::new(0), Port::Local, 0);
/// # }
/// ```
///
/// The plain mesh has no reservation state to book,
///
/// ```compile_fail
/// # use noc::{config::NocConfig, mesh::MeshNetwork, reserve::HopPlan};
/// # fn book(plan: &HopPlan) {
/// let _ = MeshNetwork::new(NocConfig::paper()).install_hop(plan);
/// # }
/// ```
///
/// nor latches to probe:
///
/// ```compile_fail
/// # use noc::{config::NocConfig, mesh::MeshNetwork, types::{NodeId, PacketId, Port}};
/// let net = MeshNetwork::new(NocConfig::paper());
/// let _ = net.latch_available(NodeId::new(0), Port::Local, 0..1, PacketId(1));
/// ```
///
/// nor reserved credits to read:
///
/// ```compile_fail
/// # use noc::{config::NocConfig, mesh::MeshNetwork, types::{NodeId, Port}};
/// let net = MeshNetwork::new(NocConfig::paper());
/// let _ = net.reserved_credits(NodeId::new(0), Port::Local, 0);
/// ```
#[derive(Debug)]
pub struct Reserving {
    /// VCs per port, the stride of the per-(port, VC) slabs.
    vcs: usize,
    /// PRA timeslot tables, one per output port, flattened
    /// `node * Port::COUNT + port`.
    schedules: Vec<OutputSchedule>,
    /// The input latches, flattened `node * Port::COUNT + port`.
    latches: Vec<Latch>,
    /// Reserved credits and drain horizons of the output VCs, flattened
    /// `(node * Port::COUNT + port) * vcs + vc`.
    credits: Vec<ReservedCredits>,
    /// Multi-flit interleaving guards, flattened like `credits`.
    guards: Vec<MultiFlitGuard>,
    /// Cycle each input VC's front was last read by a reactive grant,
    /// flattened like `guards` by input port — derived state, excluded
    /// from the digest. A forced move may not read a buffer a grant
    /// already read in the same cycle.
    grant_read_at: Vec<Cycle>,
    resv_index: BTreeMap<PacketId, Vec<ResvLoc>>,
    /// Emptied `resv_index` location lists, kept for their capacity so a
    /// pre-allocated packet reuses a retired packet's list.
    loc_pool: Vec<Vec<ResvLoc>>,
    /// Which `(router, lane)` pairs hold reserved slots or latch claims
    /// at which cycle — derived state, excluded from the digest. Every
    /// slot and latch claim is filed here when it is installed, so the
    /// reservation phases visit only the lanes with work due.
    due: DueIndex,
    /// Lanes holding work at or before the current cycle — slots no
    /// chain consumed, latch claims, anything booked behind the clock —
    /// for the next step's expiry pass. Derived state, excluded from the
    /// digest.
    expiring: Vec<DueEntry>,
    /// Reservation chain heads pending execution this cycle, packed by
    /// [`head_key`] so they sort as plain integers. Scratch: empty
    /// between cycles and kept for its capacity, like the lists below.
    heads: Vec<u128>,
    /// Slots removed by one expiry or cancellation, before release.
    removed: Vec<(Cycle, Reservation)>,
    /// Lanes of the current cycle still holding work after its chains
    /// ran, handed from the reservation phase to the expiry phase (which
    /// leaves it empty).
    leftover: Vec<DueEntry>,
}

/// The Mesh+PRA router: the mesh core over the [`Reserving`] datapath.
pub type ReservingCore = MeshCore<Reserving>;

impl Reserving {
    /// Index of `(node, port p, vc)` in the per-(port, VC) slabs.
    #[inline(always)]
    fn pv(&self, node: usize, p: usize, vc: usize) -> usize {
        vc_lane(self.vcs, node, p, vc)
    }

    /// Clears `packet`'s guards on every VC of output port `p` of `node`.
    fn clear_guards(&mut self, node: usize, p: usize, packet: PacketId) {
        let first = self.pv(node, p, 0);
        for g in &mut self.guards[first..first + self.vcs] {
            g.clear(packet);
        }
    }
}

impl Datapath for Reserving {
    fn new(cfg: &NocConfig) -> Self {
        let ports = cfg.nodes() * Port::COUNT;
        Reserving {
            vcs: cfg.vcs_per_port,
            schedules: (0..ports).map(|_| OutputSchedule::new()).collect(),
            latches: vec![Latch::default(); ports],
            credits: vec![ReservedCredits::default(); ports * cfg.vcs_per_port],
            guards: vec![MultiFlitGuard::default(); ports * cfg.vcs_per_port],
            grant_read_at: vec![0; ports * cfg.vcs_per_port],
            resv_index: BTreeMap::new(),
            loc_pool: Vec::new(),
            due: DueIndex::new(),
            expiring: Vec::new(),
            heads: Vec::new(),
            removed: Vec::new(),
            leftover: Vec::new(),
        }
    }

    // hot
    fn refuses(
        &self,
        node: usize,
        p: usize,
        packet: PacketId,
        cycle: Cycle,
        stats: &mut NetStats,
    ) -> bool {
        let sched = &self.schedules[lane(node, p)];
        // Never race a pending forced move for the same packet on this
        // port; a reserved timeslot is unusable for reactive traffic.
        if sched.has_packet(packet) {
            return true;
        }
        if sched.is_reserved(cycle) {
            stats.blocked_by_reservation_cycles += 1;
            return true;
        }
        false
    }

    // hot
    fn admits(&self, node: usize, p: usize, vc: usize, packet: PacketId) -> bool {
        self.guards[self.pv(node, p, vc)].admits(packet)
    }

    // hot
    fn withheld(&self, node: usize, p: usize, vc: usize, packet: PacketId) -> u8 {
        self.credits[self.pv(node, p, vc)].withheld_from(packet)
    }

    /// Reserved credits drain first when their holder sends.
    // hot
    fn credit_consumed(&mut self, node: usize, p: usize, vc: usize, packet: PacketId) {
        let i = self.pv(node, p, vc);
        if self.credits[i].reserved > 0 {
            self.credits[i].release(packet, 1);
        }
    }

    /// A drain horizon recorded for an owner must not outlive it.
    // hot
    fn owner_changed(&mut self, node: usize, p: usize, vc: usize) {
        let i = self.pv(node, p, vc);
        self.credits[i].free_after = None;
    }

    fn latched_flits(&self, mut visit: impl FnMut(usize, Port, &Flit)) {
        for (i, latch) in self.latches.iter().enumerate() {
            if let Some(f) = &latch.flit {
                visit(i / Port::COUNT, Port::from_index(i % Port::COUNT), f);
            }
        }
    }

    // hot
    fn granted(
        &mut self,
        node: usize,
        in_port: usize,
        vc: usize,
        out_port: usize,
        flit: &Flit,
        now: Cycle,
    ) {
        let i = self.pv(node, in_port, vc);
        self.grant_read_at[i] = now;
        if flit.is_tail() {
            let g = self.pv(node, out_port, vc);
            self.guards[g].clear(flit.packet);
        }
    }

    /// Executes reservations scheduled for the current cycle (the PRA
    /// arbiter's cycle: preset crossbars, up to `max_hops_per_cycle` hops).
    // hot
    fn execute(net: &mut MeshCore<Self>) {
        // Collect chain heads: reservations at `now` whose source is not a
        // bypass (bypass slots are consumed as chain continuations).
        // Executed in ascending flit-sequence order: within a packet the
        // chain that READS a latch moves flit `s` while the upstream chain
        // WRITES flit `s + 1` into the same latch this cycle, so the read
        // must come first.
        // Only ports filed in the due index for `now` can hold a slot
        // now; a port filed twice yields the same head twice, and the
        // sort brings the copies together for `dedup`.
        let mut heads = std::mem::take(&mut net.dp.heads);
        for e in net.dp.due.at(net.now) {
            let Some(out_port) = e.slot() else {
                continue;
            };
            let node = usize::from(e.node);
            if let Some(r) = net.dp.schedules[lane(node, out_port.index())].get(net.now) {
                if !matches!(r.source, FlitSource::Bypass { .. }) {
                    heads.push(head_key(r, node, out_port));
                }
            }
        }
        heads.sort_unstable();
        heads.dedup();
        for &key in &heads {
            let (node, out_port) = head_location(key);
            let Some(resv) = net.dp.schedules[lane(node, out_port.index())].take(net.now) else {
                continue; // consumed by an earlier chain this cycle
            };
            net.execute_chain(node, out_port, resv);
        }
        heads.clear();
        net.dp.heads = heads;
        // Lanes of this cycle that still hold work (a slot no chain
        // consumed, a latch claim) expire next step; the rest are done.
        // Checked now, while the lanes are still in cache: nothing until
        // the expiry pass adds work at or before this cycle.
        let mut leftover = std::mem::take(&mut net.dp.leftover);
        net.dp.due.take(net.now, &mut leftover);
        leftover.retain(|e| {
            let node = usize::from(e.node);
            match e.slot() {
                Some(p) => net.dp.schedules[lane(node, p.index())].holds_before(net.now + 1),
                None => !net.dp.latches[lane(node, e.latch().expect("latch lane").index())]
                    .claims
                    .is_empty(),
            }
        });
        net.dp.leftover = leftover;
    }

    /// Expires past reservations (waste) and stale latch claims, then
    /// hands the lanes the reservation phase found still holding work to
    /// the next step's pass.
    ///
    /// Every step expires everything before its own cycle, so only the
    /// lanes gathered by the previous step can hold expired work. Each is
    /// visited in ascending router, then lane, order — the order of a
    /// scan over every router — and a lane the current cycle's chains
    /// left empty is never visited again.
    // hot
    fn expire(net: &mut MeshCore<Self>) {
        let mut lanes = std::mem::take(&mut net.dp.expiring);
        let mut expired = std::mem::take(&mut net.dp.removed);
        lanes.sort_unstable_by_key(|e| e.key());
        lanes.dedup_by_key(|e| e.key());
        for e in &lanes {
            let node = usize::from(e.node);
            let Some(out_port) = e.slot() else {
                let in_port = e.latch().expect("a lane is a slot or a latch");
                net.dp.latches[lane(node, in_port.index())].expire(net.now);
                continue;
            };
            let p = out_port.index();
            net.dp.schedules[lane(node, p)].expire(net.now, &mut expired);
            if expired.is_empty() {
                continue;
            }
            net.stats.wasted_reservations += expired.len() as u64;
            for (_, r) in &expired {
                net.emit(|| Event::ReservationWasted {
                    packet: r.packet.0,
                    node: node as u64,
                });
            }
            net.release_cancelled(node, out_port, &expired);
            expired.clear();
        }
        lanes.clear();
        net.dp.expiring = std::mem::replace(&mut net.dp.leftover, lanes);
        net.dp.removed = expired;
        #[cfg(debug_assertions)]
        assert_due_filed(net);
    }

    fn purge(net: &mut MeshCore<Self>, packet: PacketId) {
        // Timeslots and reserved credits; the latches hold no credits
        // (a chain returned the buffer credit when it read them out).
        net.cancel_packet_from(packet, 0, 0);
        for latch in &mut net.dp.latches {
            if latch.flit.is_some_and(|f| f.packet == packet) {
                latch.flit = None;
            }
            latch.release(packet, 0);
        }
        for g in &mut net.dp.guards {
            g.clear(packet);
        }
    }

    // hot
    fn delivered(net: &mut MeshCore<Self>, delivered: &[Delivered]) {
        // Purge any leftover PRA state for completed packets.
        for d in delivered {
            net.cancel_packet_from(d.packet.id, 0, 0);
        }
    }

    fn quiescent(net: &MeshCore<Self>) -> bool {
        // `resv_index` empty does NOT imply the schedules are: a slot can
        // survive `cancel_packet_from` (seq/cycle asymmetry) after its
        // index entry is dropped, and it still expires — with stats
        // side effects — on a later step. Scan the schedules directly.
        net.dp.resv_index.is_empty()
            && net.dp.schedules.iter().all(OutputSchedule::is_empty)
            && net
                .dp
                .latches
                .iter()
                .all(|l| l.claims.is_empty() && l.flit.is_none())
    }

    fn digest_input(&self, node: usize, port: usize, h: &mut StateHasher) {
        self.latches[lane(node, port)].digest_state(h);
    }

    fn digest_out_vc(&self, node: usize, p: usize, vc: usize, h: &mut StateHasher) {
        self.credits[self.pv(node, p, vc)].digest_state(h);
    }

    fn digest_router(&self, node: usize, _vcs: usize, h: &mut StateHasher) {
        let first = self.pv(node, 0, 0);
        for guard in &self.guards[first..first + Port::COUNT * self.vcs] {
            guard.digest_state(h);
        }
        for sched in &self.schedules[lane(node, 0)..lane(node + 1, 0)] {
            sched.digest_state(h);
        }
    }

    fn digest(&self, h: &mut StateHasher) {
        h.write_usize(self.resv_index.len());
        for (packet, locs) in &self.resv_index {
            h.write_u64(packet.0);
            h.write_usize(locs.len());
            for loc in locs {
                h.write_usize(loc.node);
                h.write_usize(loc.out_port.index());
                h.write_u64(loc.cycle);
            }
        }
    }
}

/// Debug-build check that closes every step: each slot the next step
/// executes or expires is filed for that pass.
#[cfg(debug_assertions)]
fn assert_due_filed(net: &MeshCore<Reserving>) {
    // The next step executes the slots at `now + 1` and expires
    // those at or before `now`: each must be filed for its pass or
    // it would silently never run (or never expire).
    let (now, dp) = (net.now, &net.dp);
    for (i, sched) in dp.schedules.iter().enumerate() {
        let (n, port) = (i / Port::COUNT, Port::from_index(i % Port::COUNT));
        let next = DueEntry::slot_at(now + 1, n, port);
        debug_assert!(
            !sched.is_reserved(now + 1) || dp.due.at(now + 1).any(|e| e == next),
            "slot at n{n} {port} cycle {} missing from the due index",
            now + 1
        );
        debug_assert!(
            !sched.holds_before(now + 1) || dp.expiring.iter().any(|e| e.key() == next.key()),
            "passed slot at n{n} {port} missing from the expiry list"
        );
    }
}

/// The install API the PRA and FRFC control planes book paths through,
/// and the reservation phases of the step.
impl MeshCore<Reserving> {
    /// Checks whether `plan` can be installed without touching any state.
    ///
    /// # Errors
    ///
    /// Returns the first [`InstallError`] encountered.
    pub fn check_hop(&self, plan: &HopPlan) -> Result<(), InstallError> {
        let node = plan.node.index();
        let p = plan.out_port.index();
        let window = plan.start..plan.start + plan.len as Cycle;

        if !self.dp.schedules[lane(node, p)].range_free(window.clone(), plan.packet) {
            return Err(InstallError::SlotTaken);
        }
        // A reactive grant may already hold the port for the very next
        // cycle (grants are only ever pending for one cycle ahead).
        if window.contains(&self.upcoming_cycle())
            && self.port_granted_to_other(node, plan.out_port, plan.packet)
        {
            return Err(InstallError::PortCommitted);
        }
        match plan.landing {
            Landing::Vc(vc) => {
                if plan.out_port == Port::Local {
                    // Ejection into the NI: always sinkable.
                    return Ok(());
                }
                let admitted = self.dp.credits[self.dp.pv(node, p, vc)].admits(
                    self.lanes.out_vc(node, p, vc),
                    plan.packet,
                    plan.reserve,
                    plan.start,
                );
                if admitted {
                    Ok(())
                } else {
                    Err(InstallError::NoDownstreamBuffer)
                }
            }
            Landing::Latch | Landing::Bypass => {
                let dir = plan
                    .out_port
                    .direction()
                    .expect("a pass-through landing requires a directional port");
                let next =
                    neighbor(&self.cfg, plan.node, dir).ok_or(InstallError::NoSuchNeighbor)?;
                // A bypass continues through the downstream router's own
                // reservation (installed as part of the same segment),
                // which carries the resource checks.
                let latch = &self.dp.latches[lane(next.index(), Port::Dir(dir.opposite()).index())];
                if plan.landing == Landing::Bypass
                    || latch.available(window.start..window.end + 1, plan.packet)
                {
                    Ok(())
                } else {
                    Err(InstallError::LatchBusy)
                }
            }
        }
    }

    /// Whether a pending reactive grant holds `(node, out_port)` for a
    /// packet other than `packet`. The allocator commits grants in
    /// ascending node order and purges remove them in place, so `grants`
    /// stays sorted by node and the node's grants are found by binary
    /// search.
    fn port_granted_to_other(&self, node: usize, out_port: Port, packet: PacketId) -> bool {
        let first = self.grants.partition_point(|g| g.node < node);
        self.grants[first..]
            .iter()
            .take_while(|g| g.node == node)
            .any(|g| g.out_port == out_port && g.packet != packet)
    }

    /// Files a slot or latch claim in the due index. Work booked at or
    /// behind the clock can never execute; it goes straight to the next
    /// expiry pass.
    fn note_due(&mut self, e: DueEntry) {
        if e.cycle <= self.now {
            self.dp.expiring.push(e);
        } else {
            self.dp.due.file(e);
        }
    }

    /// Claims the latch behind output `out_port` of `node` — the input
    /// latch of the downstream router — for `packet` from the first store
    /// in `window` through the read of the last, one cycle beyond it,
    /// filing one due-index entry per claimed cycle for expiry.
    fn claim_latch(
        &mut self,
        node: NodeId,
        out_port: Port,
        window: std::ops::Range<Cycle>,
        packet: PacketId,
    ) {
        let dir = out_port.direction().expect("latch landing is directional");
        let next = neighbor(&self.cfg, node, dir).expect("landing stays on mesh");
        let in_port = Port::Dir(dir.opposite());
        let claim = window.start..window.end + 1;
        self.dp.latches[lane(next.index(), in_port.index())].claim(claim.clone(), packet);
        for cycle in claim {
            self.note_due(DueEntry::latch_at(cycle, next.index(), in_port));
        }
    }

    /// Installs `plan`, reserving timeslots, downstream buffer credits,
    /// latch claims and the multi-flit guard.
    ///
    /// # Errors
    ///
    /// Fails with the same conditions as [`MeshCore::check_hop`];
    /// nothing is modified on failure.
    pub fn install_hop(&mut self, plan: &HopPlan) -> Result<(), InstallError> {
        self.check_hop(plan)?;
        self.commit_hop(plan);
        Ok(())
    }

    /// Installs `plan` without checking it again: the caller has just
    /// passed it through [`MeshCore::check_hop`] and changed nothing
    /// the check reads since (the control plane's segment step checks
    /// both routers of a segment before committing either).
    pub fn commit_hop(&mut self, plan: &HopPlan) {
        debug_assert_eq!(
            self.check_hop(plan),
            Ok(()),
            "committed hop must pass its check"
        );
        let node = plan.node.index();
        let p = plan.out_port.index();
        let vc = plan.class.vc();
        let window = plan.start..plan.start + plan.len as Cycle;

        let dp = &mut self.dp;
        let locs = dp
            .resv_index
            .entry(plan.packet)
            .or_insert_with(|| dp.loc_pool.pop().unwrap_or_default());
        for s in 0..plan.len {
            let cycle = plan.start + s as Cycle;
            let ok = dp.schedules[lane(node, p)].try_insert(
                cycle,
                Reservation {
                    packet: plan.packet,
                    seq: s,
                    source: plan.source,
                    landing: plan.landing,
                },
            );
            debug_assert!(ok, "checked slot must insert");
            locs.push(ResvLoc {
                node,
                out_port: plan.out_port,
                cycle,
            });
        }
        for cycle in window.clone() {
            self.note_due(DueEntry::slot_at(cycle, node, plan.out_port));
        }
        match plan.landing {
            Landing::Vc(lvc) if plan.out_port != Port::Local => {
                let i = self.dp.pv(node, p, lvc);
                self.dp.credits[i].reserve(plan.packet, plan.reserve);
            }
            Landing::Latch => self.claim_latch(plan.node, plan.out_port, window, plan.packet),
            _ => {}
        }
        let g = self.dp.pv(node, p, vc);
        self.dp.guards[g].holder = Some(plan.packet);
        self.idle = false;
        self.emit(|| Event::ReservationInstalled {
            packet: plan.packet.0,
            node: node as u64,
            out_port: p as u8,
            start: plan.start,
            len: plan.len,
        });
    }

    /// Converts a previously installed full-buffer landing into `landing`
    /// (the ACK signal: the next segment allocated successfully, so the
    /// packet passes through instead of stopping). Releases the reserved
    /// downstream credits; a conversion to [`Landing::Latch`] also claims
    /// the downstream latch over `window` (callers must have verified
    /// availability via [`MeshCore::latch_available`]).
    #[allow(clippy::too_many_arguments)]
    pub fn convert_landing(
        &mut self,
        node: NodeId,
        out_port: Port,
        packet: PacketId,
        window: std::ops::Range<Cycle>,
        landing: Landing,
        len: u8,
        class: MessageClass,
    ) {
        let p = out_port.index();
        let updated = self.dp.schedules[lane(node.index(), p)].update_landing(
            window.clone(),
            packet,
            landing,
        );
        debug_assert!(
            updated == len as usize,
            "ACK found {updated} of {len} slots to convert (callers must check \
             reserved_slots_of first)"
        );
        let i = self.dp.pv(node.index(), p, class.vc());
        self.dp.credits[i].release(packet, len);
        self.idle = false;
        if landing == Landing::Latch {
            self.claim_latch(node, out_port, window, packet);
        }
    }

    /// Whether the latch of `(node, in_port)` is free for `packet` over
    /// `window` (same-packet claims never conflict).
    pub fn latch_available(
        &self,
        node: NodeId,
        in_port: Port,
        window: std::ops::Range<Cycle>,
        packet: PacketId,
    ) -> bool {
        self.dp.latches[lane(node.index(), in_port.index())].available(window, packet)
    }

    /// Credits of output VC `vc` of `(node, out_port)` reserved for a
    /// pre-allocated packet.
    pub fn reserved_credits(&self, node: NodeId, out_port: Port, vc: usize) -> u8 {
        self.dp.credits[self.dp.pv(node.index(), out_port.index(), vc)].reserved
    }

    /// Whether `packet` holds any outstanding reservation anywhere in the
    /// network (used to avoid launching redundant control packets).
    pub fn has_reservations(&self, packet: PacketId) -> bool {
        self.dp.resv_index.contains_key(&packet)
    }

    /// How many of `packet`'s slots remain on `(node, out_port)` within
    /// `window` (used by the control plane to verify a landing is still
    /// convertible before sending an ACK).
    pub fn reserved_slots_of(
        &self,
        node: NodeId,
        out_port: Port,
        packet: PacketId,
        window: std::ops::Range<Cycle>,
    ) -> usize {
        self.dp.schedules[lane(node.index(), out_port.index())].count_of(packet, window)
    }

    /// Appends the packets stalled for the Long Stall Detection unit to
    /// `out`, in ascending node order: one [`StalledHead`] for each input
    /// VC whose front is a head flit that wants an output port currently
    /// streaming another packet, when that stream drains deterministically
    /// (all its remaining flits buffered here with enough downstream
    /// credits) and frees the port by cycle `horizon`.
    // hot
    pub fn stalled_heads_into(&self, horizon: Cycle, out: &mut Vec<StalledHead>) {
        for (w, &word) in self.buffered_nodes.words.iter().enumerate() {
            // A node outside `buffered_nodes` holds no flits, hence no
            // fronts and no stalls.
            for n in ones(word).map(|b| w * 64 + b) {
                self.stalled_heads_at(n, horizon, out);
            }
        }
    }

    /// [`MeshCore::stalled_heads_into`] for router `n`, walking only
    /// its active streams and occupied input VCs.
    // hot
    fn stalled_heads_at(&self, n: usize, horizon: Cycle, out: &mut Vec<StalledHead>) {
        let router = &self.routers[n];
        // An empty `occ` leaves no front to stall; an empty `streams`
        // leaves no stream holding an output port, so nothing can
        // block a front. Skipping either case is exact.
        if router.occ == 0 || router.streams == 0 {
            return;
        }
        let here = NodeId::new(n as u16);
        // The first stream (in input-port, VC order) holding each output
        // port, and the first one after it of a different packet: a
        // front never waits behind its own packet, so one of the two is
        // its blocker. Each comes with its release cycle when that is
        // due by `horizon`.
        type Blocker = Option<(ActiveStream, Option<Cycle>)>;
        let mut first: [Blocker; Port::COUNT] = [None; Port::COUNT];
        let mut other: [Blocker; Port::COUNT] = [None; Port::COUNT];
        let mut any_due = false;
        for ip in 0..Port::COUNT {
            for v in ones(u64::from(self.lanes.port_bits(router.streams, ip))) {
                let st = self.lanes.active(n, ip, v).expect("stream mask is exact");
                let p = st.out_port.index();
                let slot = match first[p] {
                    None => &mut first[p],
                    Some((f, _)) if other[p].is_none() && f.packet != st.packet => &mut other[p],
                    Some(_) => continue,
                };
                let release = self
                    .deterministic_finish(here, v, st, st.out_port)
                    .filter(|&c| c <= horizon);
                any_due |= release.is_some();
                *slot = Some((st, release));
            }
        }
        if !any_due {
            return;
        }
        for in_port in Port::ALL {
            let ip = in_port.index();
            for vc in ones(u64::from(self.lanes.port_bits(router.occ, ip))) {
                let front = self.lanes.front(n, ip, vc).expect("occupancy is exact");
                if !front.is_head() {
                    continue;
                }
                let Some(out_port) = self.route_out(here, front.dest, west_ok_from(in_port)) else {
                    continue;
                };
                if out_port == Port::Local {
                    continue;
                }
                let p = out_port.index();
                let blocking = match first[p] {
                    Some((st, _)) if st.packet == front.packet => other[p],
                    found => found,
                };
                let Some((stream, Some(release))) = blocking else {
                    continue;
                };
                out.push(StalledHead {
                    node: here,
                    in_port,
                    vc,
                    flit: *front,
                    out_port,
                    blocker: stream.packet,
                    release,
                });
            }
        }
    }

    /// Predicts when the blocking `stream` frees `out_port`. The paper's
    /// condition: with enough downstream buffers for the whole in-transfer
    /// packet, the stream drains one flit per cycle and the end of the
    /// transmission is exactly determined. If the prediction is ever wrong
    /// (the stream starves upstream), the resulting reservation simply
    /// wastes and is counted — it can never corrupt the stream, because
    /// forced moves re-validate ownership at execution time.
    fn deterministic_finish(
        &self,
        node: NodeId,
        blk_vc: usize,
        stream: ActiveStream,
        out_port: Port,
    ) -> Option<Cycle> {
        let remaining = stream.len.saturating_sub(stream.sent);
        if remaining == 0 {
            // Tail already granted: the port frees after the pending
            // traversal.
            return Some(self.upcoming_cycle() + 1);
        }
        if out_port != Port::Local {
            let (n, p) = (node.index(), out_port.index());
            let withheld = self.dp.withheld(n, p, blk_vc, stream.packet);
            if self.lanes.out_vc(n, p, blk_vc).usable(withheld) < remaining {
                return None;
            }
        }
        // Remaining flits are granted at cycles upcoming..upcoming+remaining-1
        // and traverse one cycle later each; the port's last busy cycle is
        // upcoming + remaining, so it is free from upcoming + remaining + 1.
        Some(self.upcoming_cycle() + remaining as Cycle + 1)
    }

    /// Marks the blocking stream on `(node, out_port, vc)` as draining
    /// deterministically until `cycle` so PRA allocation can reserve slots
    /// past it.
    pub fn mark_free_after(&mut self, node: NodeId, out_port: Port, vc: usize, cycle: Cycle) {
        let i = self.dp.pv(node.index(), out_port.index(), vc);
        self.dp.credits[i].free_after = Some(cycle);
    }

    /// Injection backlog of `(node, class)`: flits still queued in the NI
    /// plus flits of other packets occupying the local input VC. The
    /// control plane only launches source pre-allocation when the path to
    /// the first link is predictable (backlog 0).
    pub fn source_backlog(&self, node: NodeId, class: MessageClass) -> usize {
        let q = self.ni.backlog(node.index(), class);
        let lane = self
            .lanes
            .lane(node.index(), Port::Local.index(), class.vc());
        q + self.lanes.flits.len(lane)
    }

    /// Read-only validation that the **entire remaining pre-allocated
    /// path** of the flit behind `resv` can execute, walking bypass
    /// continuations (same cycle) and latch parkings (subsequent cycles)
    /// up to the final buffer landing, whose VC must not be owned by a
    /// foreign packet mid-stream (which would interleave flits).
    ///
    /// Only chains that read from a *buffer* are validated: once a flit
    /// leaves its buffer onto a pre-allocated path, the path is immutable
    /// (guards block foreign multi-flit heads, reserved credits block
    /// foreign reservations), so latch-source chains always proceed —
    /// a flit in a latch has nowhere else to go. (This also means a
    /// latch-parked flit rides out a transient fault on its next link:
    /// pre-transmission faults only gate entry into the fabric's moving
    /// parts, never flits already committed to a preset path.)
    ///
    /// Under fault injection, every link on the path is additionally
    /// checked against the fault horizon of its traversal cycle; a
    /// faulted link cancels the chain ([`ChainCheck::Faulted`]) so the
    /// flit falls back to reactive routing.
    // hot
    fn chain_check(&self, node: usize, out_port: Port, resv: &Reservation) -> ChainCheck {
        if matches!(resv.source, FlitSource::Latch { .. }) {
            return ChainCheck::Ok;
        }
        let mut cur_node = node;
        let mut cur_out = out_port;
        let mut landing = resv.landing;
        let mut cycle = self.now;
        let (packet, seq) = (resv.packet, resv.seq);
        let Some(dest) = self.find_resv_dest(node, resv) else {
            return ChainCheck::Unsound;
        };
        loop {
            if let Port::Dir(d) = cur_out {
                if !self.chain_link_usable(cur_node, d, cycle) {
                    return ChainCheck::Faulted;
                }
            }
            // A latch landing parks the flit one cycle and continues from
            // the next router's reservation at `cycle + 1`; a bypass
            // landing continues through it in the same cycle.
            let (cont_cycle, latched) = match landing {
                Landing::Vc(lvc) => {
                    if cur_out == Port::Local {
                        return ChainCheck::Ok;
                    }
                    let out_vc = self.lanes.out_vc(cur_node, cur_out.index(), lvc);
                    return match out_vc.owner() {
                        None => ChainCheck::Ok,
                        Some(p) if p == packet => ChainCheck::Ok,
                        Some(_) => ChainCheck::Unsound,
                    };
                }
                Landing::Latch => (cycle + 1, true),
                Landing::Bypass => (cycle, false),
            };
            let here = NodeId::new(cur_node as u16);
            let Some(dir) = cur_out.direction() else {
                return ChainCheck::Unsound;
            };
            let Some(next) = neighbor(&self.cfg, here, dir) else {
                return ChainCheck::Unsound;
            };
            let Some(cont_port) = self.route_out(next, dest, dir == Direction::West) else {
                return ChainCheck::Unsound;
            };
            match self.dp.schedules[lane(next.index(), cont_port.index())].get(cont_cycle) {
                Some(r2)
                    if r2.packet == packet
                        && r2.seq == seq
                        && match r2.source {
                            FlitSource::Latch { .. } => latched,
                            FlitSource::Bypass { .. } => !latched,
                            FlitSource::Vc { .. } => false,
                        } =>
                {
                    cycle = cont_cycle;
                    cur_node = next.index();
                    cur_out = cont_port;
                    landing = r2.landing;
                }
                _ => return ChainCheck::Unsound,
            }
        }
    }

    /// Whether the directed link `(node, dir)` may carry a flit at
    /// `cycle`, consulting the right transient horizon: the executing
    /// cycle, the prepared next cycle, or permanent-only damage beyond
    /// the prepared window.
    fn chain_link_usable(&self, node: usize, dir: Direction, cycle: Cycle) -> bool {
        let Some(f) = &self.faults else { return true };
        if cycle <= self.now {
            f.link_usable_now(&self.cfg, node, dir)
        } else if cycle == self.now + 1 {
            f.link_usable_next(&self.cfg, node, dir)
        } else {
            f.link_usable_permanent(&self.cfg, node, dir)
        }
    }

    /// Destination of the packet behind `resv` at `node`, or `None` when
    /// the packet is no longer in flight. The expected flit usually waits
    /// at the front of its buffer and carries the destination; only
    /// otherwise is the delivery ledger searched.
    fn find_resv_dest(&self, node: usize, resv: &Reservation) -> Option<NodeId> {
        if let FlitSource::Vc { port, vc } = resv.source {
            if let Some(f) = self.lanes.front(node, port.index(), vc) {
                if f.packet == resv.packet {
                    debug_assert_eq!(self.ni.dest_of(f.packet), Some(f.dest));
                    return Some(f.dest);
                }
            }
        }
        self.ni.dest_of(resv.packet)
    }

    // hot
    fn execute_chain(&mut self, node: usize, out_port: Port, resv: Reservation) {
        match self.chain_check(node, out_port, &resv) {
            ChainCheck::Ok => {}
            verdict => {
                if verdict == ChainCheck::Faulted {
                    if let Some(f) = self.faults.as_mut() {
                        f.note_faulted_chain_cancel();
                    }
                }
                self.waste_and_cancel(node, out_port, self.now, resv);
                return;
            }
        }
        // 1. Fetch the expected flit.
        let fetched: Option<(Flit, Port, usize)> = match resv.source {
            FlitSource::Vc { port, vc } => {
                let read_at = self.dp.grant_read_at[self.dp.pv(node, port.index(), vc)];
                match self.lanes.front(node, port.index(), vc) {
                    Some(f)
                        if f.packet == resv.packet && f.seq == resv.seq && read_at != self.now =>
                    {
                        let f = self.pop_flit(node, port.index(), vc).expect("front exists");
                        Some((f, port, vc))
                    }
                    _ => None,
                }
            }
            FlitSource::Latch { from } => {
                let latch = &mut self.dp.latches[lane(node, Port::Dir(from).index())];
                match latch.flit {
                    Some(f) if f.packet == resv.packet && f.seq == resv.seq => {
                        latch.flit = None;
                        Some((f, Port::Dir(from), usize::MAX))
                    }
                    _ => None,
                }
            }
            FlitSource::Bypass { .. } => {
                unreachable!("bypass reservations are consumed by their upstream chain")
            }
        };
        let Some((flit, in_port, in_vc)) = fetched else {
            self.waste_and_cancel(node, out_port, self.now, resv);
            return;
        };

        // 2. Walk the chain through preset crossbars.
        let mut cur_node = node;
        let mut cur_out = out_port;
        let mut cur_resv = resv;
        let mut first = true;
        let mut hops_this_cycle = 0u8;
        loop {
            hops_this_cycle += 1;
            debug_assert!(
                hops_this_cycle <= self.cfg.max_hops_per_cycle,
                "pre-allocated chain exceeds the wire budget"
            );
            let vc = flit.class.vc();
            self.stats.reserved_moves += 1;

            if first {
                // Upstream credit for the slot freed at the chain's origin
                // (latch sources hold no credit).
                if in_vc != usize::MAX {
                    self.return_upstream_credit(cur_node, in_port, vc);
                }
                first = false;
            }

            if cur_out == Port::Local {
                debug_assert!(matches!(cur_resv.landing, Landing::Vc(_)));
                // Pre-allocated ejection: the crossbar is preset, so the
                // flit reaches the NI within this cycle (no staging).
                if let Some(head) = self.ni.accept(cur_node, flit) {
                    self.eject_complete(head, cur_node);
                }
                self.after_reserved_slot(cur_node, cur_out, &flit);
                return;
            }

            self.stats.link_traversals += 1;
            let here = NodeId::new(cur_node as u16);
            let dir = cur_out.direction().expect("non-local checked");
            self.link_use[cur_node * 4 + dir as usize] += 1;
            self.emit(|| Event::LinkTraverse {
                packet: flit.packet.0,
                seq: flit.seq,
                node: cur_node as u64,
                out_port: cur_out.index() as u8,
                reserved: true,
            });
            let next = neighbor(&self.cfg, here, dir).expect("reserved route stays on mesh");
            let next_in = Port::Dir(dir.opposite());

            match cur_resv.landing {
                Landing::Vc(lvc) => {
                    // Consume the (reserved) credit and enter the buffer.
                    let p = cur_out.index();
                    let out_vc = self.lanes.out_vc_mut(cur_node, p, lvc);
                    out_vc.consume_credit();
                    // A head of several flits is never a tail.
                    let owner_changed = (flit.is_tail() && out_vc.release_owner(flit.packet))
                        || (flit.is_head() && flit.len_flits > 1 && out_vc.allocate(flit.packet));
                    self.dp.credit_consumed(cur_node, p, lvc, flit.packet);
                    if owner_changed {
                        self.dp.owner_changed(cur_node, p, lvc);
                    }
                    if flit.is_head() && flit.len_flits > 1 {
                        self.emit(|| Event::VcAllocated {
                            packet: flit.packet.0,
                            node: cur_node as u64,
                            out_port: cur_out.index() as u8,
                            vc: lvc as u8,
                        });
                    }
                    self.arrivals.push(Arrival {
                        node: next.index(),
                        in_port: next_in,
                        vc: lvc,
                        flit,
                    });
                    self.after_reserved_slot(cur_node, cur_out, &flit);
                    return;
                }
                Landing::Latch => {
                    self.dp.latches[lane(next.index(), next_in.index())]
                        .store(flit)
                        .unwrap_or_else(|_| {
                            panic!("latch at {next} occupied despite claim bookkeeping")
                        });
                    self.after_reserved_slot(cur_node, cur_out, &flit);
                    return;
                }
                Landing::Bypass => {
                    self.after_reserved_slot(cur_node, cur_out, &flit);
                    // Continue through the next router's preset crossbar.
                    let cont_port = self
                        .route_out(next, flit.dest, west_ok_from(next_in))
                        .expect("validated chain stays routable");
                    let next_sched = &mut self.dp.schedules[lane(next.index(), cont_port.index())];
                    match next_sched.get(self.now).copied() {
                        Some(r2)
                            if r2.packet == flit.packet
                                && r2.seq == flit.seq
                                && matches!(r2.source, FlitSource::Bypass { .. }) =>
                        {
                            next_sched.take(self.now);
                            cur_node = next.index();
                            cur_out = cont_port;
                            cur_resv = r2;
                        }
                        _ => {
                            // The continuation slot is missing — a control
                            // plane invariant violation.
                            panic!(
                                "bypass landing at {next} without a continuation reservation \
                                 for {} seq {}",
                                flit.packet, flit.seq
                            );
                        }
                    }
                }
            }
        }
    }

    /// Post-processing after a reserved slot was used by `flit`: on tails,
    /// clear the guard; when the packet holds no further slots on the
    /// port, also clear any leftover guard (cancel path).
    fn after_reserved_slot(&mut self, node: usize, out_port: Port, flit: &Flit) {
        let p = out_port.index();
        if flit.is_tail() || !self.dp.schedules[lane(node, p)].has_packet(flit.packet) {
            let g = self.dp.pv(node, p, flit.class.vc());
            self.dp.guards[g].clear(flit.packet);
        }
    }

    /// A forced move found its flit missing: count the waste and cancel the
    /// packet's remaining slots for this and later flits so they fall back
    /// to reactive routing. Earlier flits keep their slots and drain.
    fn waste_and_cancel(&mut self, node: usize, out_port: Port, cycle: Cycle, resv: Reservation) {
        let (packet, from_seq) = (resv.packet, resv.seq);
        self.stats.wasted_reservations += 1;
        self.emit(|| Event::ReservationWasted {
            packet: packet.0,
            node: node as u64,
        });
        // The reservation was already taken from the schedule; release the
        // resources it held.
        self.release_cancelled(node, out_port, &[(cycle, resv)]);
        // Cancel across every router the packet has slots on, from the next
        // cycle onward (slots for the current cycle at other routers are
        // earlier flits mid-chain). Cancelled slots were allocated and will
        // never be used, so they count as waste too.
        let cancelled = self.cancel_packet_from(packet, from_seq, self.now + 1);
        self.stats.wasted_reservations += cancelled as u64;
        // Also drop this router's remaining same-cycle slots for >= seq.
        let n = self.cancel_on(node, out_port, packet, from_seq, self.now);
        self.stats.wasted_reservations += n as u64;
    }

    /// Cancels `packet`'s slots for flits `>= from_seq` at cycles
    /// `>= from_cycle` on `(node, out_port)` and releases what they held;
    /// returns how many it removed.
    fn cancel_on(
        &mut self,
        node: usize,
        out_port: Port,
        packet: PacketId,
        from_seq: u8,
        from_cycle: Cycle,
    ) -> usize {
        let mut removed = std::mem::take(&mut self.dp.removed);
        let n = self.dp.schedules[lane(node, out_port.index())].cancel_packet(
            packet,
            from_seq,
            from_cycle,
            &mut removed,
        );
        self.release_cancelled(node, out_port, &removed);
        removed.clear();
        self.dp.removed = removed;
        n
    }

    /// Cancels `packet`'s reservations for flits `>= from_seq` at cycles
    /// `>= from_cycle` everywhere, releasing reserved credits, latch claims
    /// and guards. Used on waste and on packet completion (as a safety
    /// net — normally all slots are consumed).
    ///
    /// Every schedule named by a location at or after `from_cycle` is
    /// purged whole from `from_cycle` on. A schedule named again later in
    /// the list has nothing left to remove, so only consecutive repeats
    /// (one hop's flits) are skipped and the walk needs no side table.
    pub fn cancel_packet_from(
        &mut self,
        packet: PacketId,
        from_seq: u8,
        from_cycle: Cycle,
    ) -> usize {
        let Some(locs) = self.dp.resv_index.get_mut(&packet) else {
            return 0;
        };
        let mut locs = std::mem::take(locs);
        let mut total = 0;
        let mut last = None;
        for loc in &locs {
            if loc.cycle < from_cycle || last == Some((loc.node, loc.out_port)) {
                continue;
            }
            last = Some((loc.node, loc.out_port));
            total += self.cancel_on(loc.node, loc.out_port, packet, from_seq, from_cycle);
        }
        locs.retain(|l| l.cycle < from_cycle);
        if locs.is_empty() {
            self.dp.resv_index.remove(&packet);
            self.dp.loc_pool.push(locs);
        } else {
            self.dp.resv_index.insert(packet, locs);
        }
        total
    }

    /// Releases what the `removed` slots of `(node, out_port)` held, each
    /// under its own packet, and clears the guards of every packet left
    /// with no slot on the port.
    fn release_cancelled(&mut self, node: usize, out_port: Port, removed: &[(Cycle, Reservation)]) {
        let p = out_port.index();
        for (_cycle, r) in removed {
            match r.landing {
                Landing::Vc(lvc) if out_port != Port::Local => {
                    let i = self.dp.pv(node, p, lvc);
                    self.dp.credits[i].release(r.packet, 1);
                }
                Landing::Latch => {
                    // Latch claims are deliberately NOT released here:
                    // consecutive flits of a packet share claim cycles, so
                    // releasing a cancelled flit's claims could expose a
                    // cycle where an earlier, still-valid flit occupies the
                    // latch. Claims lapse via `latch_expire`.
                }
                _ => {}
            }
            if !self.dp.schedules[lane(node, p)].has_packet(r.packet) {
                self.dp.clear_guards(node, p, r.packet);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Packet;
    use crate::network::Network;

    const P: PacketId = PacketId(1);
    const Q: PacketId = PacketId(2);

    impl MeshCore<Reserving> {
        /// Read access to an output schedule.
        fn schedule(&self, node: NodeId, out_port: Port) -> &OutputSchedule {
            &self.dp.schedules[lane(node.index(), out_port.index())]
        }

        /// The holder of the multi-flit guard of `(node, out_port, class)`.
        fn guard(&self, node: NodeId, out_port: Port, class: MessageClass) -> Option<PacketId> {
            self.dp.guards[self.dp.pv(node.index(), out_port.index(), class.vc())].holder
        }
    }

    fn net() -> MeshCore<Reserving> {
        MeshCore::new(NocConfig::paper())
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

    fn resv(packet: PacketId, seq: u8) -> Reservation {
        Reservation {
            packet,
            seq,
            source: FlitSource::Vc {
                port: Port::Local,
                vc: 2,
            },
            landing: Landing::Vc(2),
        }
    }

    #[test]
    fn insert_and_conflict() {
        let mut s = OutputSchedule::new();
        assert!(s.try_insert(5, resv(P, 0)));
        assert!(!s.try_insert(5, resv(Q, 0)), "other packet conflicts");
        assert!(s.try_insert(5, resv(P, 1)), "same packet may overwrite");
        assert_eq!(s.get(5).unwrap().seq, 1);
    }

    #[test]
    fn range_free_semantics() {
        let mut s = OutputSchedule::new();
        s.try_insert(5, resv(P, 0));
        assert!(s.range_free(0..5, Q));
        assert!(!s.range_free(3..6, Q));
        assert!(s.range_free(3..6, P), "own slots do not conflict");
        assert!(s.range_free(6..10, Q));
    }

    #[test]
    fn cancel_respects_seq_and_cycle_floor() {
        let mut s = OutputSchedule::new();
        for (c, seq) in [(10, 0u8), (11, 1), (12, 2), (13, 3)] {
            s.try_insert(c, resv(P, seq));
        }
        // Cancel flits >= seq 2 from cycle 11 on: removes (12,2), (13,3).
        let mut removed = Vec::new();
        assert_eq!(s.cancel_packet(P, 2, 11, &mut removed), 2);
        assert_eq!(
            removed.iter().map(|&(c, _)| c).collect::<Vec<_>>(),
            [12, 13]
        );
        assert!(s.is_reserved(10));
        assert!(s.is_reserved(11));
        assert!(!s.is_reserved(12));
    }

    #[test]
    fn expire_counts_wasted_slots() {
        let mut s = OutputSchedule::new();
        s.try_insert(3, resv(P, 0));
        s.try_insert(7, resv(P, 1));
        let mut expired = Vec::new();
        s.expire(5, &mut expired);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].0, 3);
        assert_eq!(s.len(), 1);
        assert!(s.is_reserved(7));
    }

    #[test]
    fn expire_releases_every_packets_credits() {
        let mut n = net();
        for _ in 0..3 {
            n.step();
        }
        // Two packets' slots on one port, both booked behind the clock,
        // so one expiry pass removes them together.
        let east = Port::Dir(Direction::East);
        for (packet, class, start) in [
            (PacketId(1), MessageClass::Request, 1),
            (PacketId(2), MessageClass::Response, 2),
        ] {
            n.install_hop(&HopPlan {
                node: NodeId::new(1),
                out_port: east,
                start,
                packet,
                len: 1,
                class,
                source: FlitSource::Vc {
                    port: Port::Dir(Direction::West),
                    vc: class.vc(),
                },
                landing: Landing::Vc(class.vc()),
                reserve: 1,
            })
            .unwrap();
        }
        for _ in 0..5 {
            n.step();
        }
        assert_eq!(n.stats().wasted_reservations, 2);
        for vc in [0, 2] {
            assert_eq!(
                n.reserved_credits(NodeId::new(1), east, vc),
                0,
                "VC {vc} credit released"
            );
        }
        for class in [MessageClass::Request, MessageClass::Response] {
            assert_eq!(n.guard(NodeId::new(1), east, class), None);
        }
    }

    #[test]
    fn update_landing_only_touches_own_slots() {
        let mut s = OutputSchedule::new();
        s.try_insert(5, resv(P, 0));
        s.try_insert(6, resv(Q, 0));
        let n = s.update_landing(0..10, P, Landing::Latch);
        assert_eq!(n, 1);
        assert_eq!(s.get(5).unwrap().landing, Landing::Latch);
        assert_eq!(s.get(6).unwrap().landing, Landing::Vc(2));
    }

    #[test]
    fn due_index_files_by_cycle_and_keeps_later_cycles() {
        let mut due = DueIndex::new();
        due.file(DueEntry::slot_at(70, 3, Port::Local));
        due.file(DueEntry::latch_at(6, 3, Port::Local)); // same bucket as 70
        assert_eq!(due.at(70).count(), 1);
        assert_eq!(due.at(6).count(), 1);
        let mut passed = Vec::new();
        due.take(6, &mut passed);
        assert_eq!(passed.len(), 1);
        assert_eq!(passed[0].latch(), Some(Port::Local));
        assert_eq!(passed[0].slot(), None);
        assert_eq!(due.at(70).count(), 1, "later cycles stay filed");
        assert_eq!(
            due.at(70).next().and_then(DueEntry::slot),
            Some(Port::Local)
        );
    }

    #[test]
    fn schedule_stays_sorted_and_expires_a_prefix() {
        let mut s = OutputSchedule::new();
        for c in [9, 4, 7, 5] {
            assert!(s.try_insert(c, resv(P, 0)));
        }
        let cycles: Vec<Cycle> = s.iter().map(|(c, _)| c).collect();
        assert_eq!(cycles, [4, 5, 7, 9]);
        assert!(s.holds_before(5));
        assert!(!s.holds_before(4));
        assert_eq!(s.count_of(P, 5..9), 2);
        let mut expired = Vec::new();
        s.expire(7, &mut expired);
        assert_eq!(expired.iter().map(|&(c, _)| c).collect::<Vec<_>>(), [4, 5]);
        assert_eq!(s.get(7).map(|r| r.packet), Some(P));
    }

    #[test]
    fn take_removes_slot() {
        let mut s = OutputSchedule::new();
        s.try_insert(5, resv(P, 0));
        assert_eq!(s.take(5).unwrap().packet, P);
        assert!(s.is_empty());
        assert!(s.take(5).is_none());
    }

    #[test]
    fn install_hop_reserves_and_blocks_local_traffic() {
        let mut n = net();
        // Reserve node 1's east port at a future window for packet 99.
        let plan = HopPlan {
            node: NodeId::new(1),
            out_port: Port::Dir(Direction::East),
            start: 10,
            packet: PacketId(99),
            len: 5,
            class: MessageClass::Response,
            source: FlitSource::Vc {
                port: Port::Dir(Direction::West),
                vc: 2,
            },
            landing: Landing::Vc(2),
            reserve: 5,
        };
        n.install_hop(&plan).unwrap();
        assert!(n
            .schedule(NodeId::new(1), Port::Dir(Direction::East))
            .is_reserved(10));
        assert_eq!(
            n.reserved_credits(NodeId::new(1), Port::Dir(Direction::East), 2),
            5
        );
        assert_eq!(
            n.guard(
                NodeId::new(1),
                Port::Dir(Direction::East),
                MessageClass::Response
            ),
            Some(PacketId(99))
        );
        // Conflicting plan by another packet fails.
        let mut plan2 = plan;
        plan2.packet = PacketId(100);
        assert_eq!(n.check_hop(&plan2), Err(InstallError::SlotTaken));
        // Same port, disjoint window, but the downstream VC is exhausted.
        plan2.start = 20;
        assert_eq!(n.check_hop(&plan2), Err(InstallError::NoDownstreamBuffer));
    }

    #[test]
    fn wasted_reservation_expires_and_releases() {
        let mut n = net();
        let plan = HopPlan {
            node: NodeId::new(1),
            out_port: Port::Dir(Direction::East),
            start: 5,
            packet: PacketId(99),
            len: 2,
            class: MessageClass::Response,
            source: FlitSource::Vc {
                port: Port::Dir(Direction::West),
                vc: 2,
            },
            landing: Landing::Vc(2),
            reserve: 2,
        };
        n.install_hop(&plan).unwrap();
        for _ in 0..10 {
            n.step();
        }
        let s = n.stats();
        assert_eq!(s.wasted_reservations, 2, "both slots expired unused");
        assert_eq!(
            n.reserved_credits(NodeId::new(1), Port::Dir(Direction::East), 2),
            0,
            "reserved credits released"
        );
        assert_eq!(
            n.guard(
                NodeId::new(1),
                Port::Dir(Direction::East),
                MessageClass::Response
            ),
            None,
            "guard released"
        );
    }

    #[test]
    fn forced_single_hop_move_executes() {
        let mut n = net();
        // Packet from node 0 to node 2. Pre-allocate the first hop
        // (node 0 east at the cycle its head would otherwise wait for SA).
        let p = pkt(1, 0, 2, MessageClass::Request, 1);
        n.inject(p);
        // Injection lands the flit in node 0's local VC during cycle 1; a
        // forced move can use it at cycle 2 at the earliest... reserve
        // cycle 2 on node 0's east port.
        let plan = HopPlan {
            node: NodeId::new(0),
            out_port: Port::Dir(Direction::East),
            start: 2,
            packet: PacketId(1),
            len: 1,
            class: MessageClass::Request,
            source: FlitSource::Vc {
                port: Port::Local,
                vc: 0,
            },
            landing: Landing::Vc(0),
            reserve: 1,
        };
        n.install_hop(&plan).unwrap();
        let d = n.run_to_drain(100);
        assert_eq!(d.len(), 1);
        assert!(n.stats().reserved_moves >= 1);
        assert_eq!(n.stats().wasted_reservations, 0);
        // A single pre-allocated hop saves nothing at zero load (the
        // speculative pipeline is just as fast); the win comes from
        // multi-hop chains and loaded ports. Latency matches the baseline.
        assert_eq!(d[0].delivered - d[0].packet.created, 7);
    }

    #[test]
    fn forced_two_hop_chain_executes() {
        let mut n = net();
        let p = pkt(1, 0, 2, MessageClass::Request, 1);
        n.inject(p);
        // Chain: node0 east (source VC, landing bypass) + node1 east
        // (source bypass, landing VC at node 2) both at cycle 2.
        n.install_hop(&HopPlan {
            node: NodeId::new(0),
            out_port: Port::Dir(Direction::East),
            start: 2,
            packet: PacketId(1),
            len: 1,
            class: MessageClass::Request,
            source: FlitSource::Vc {
                port: Port::Local,
                vc: 0,
            },
            landing: Landing::Bypass,
            reserve: 1,
        })
        .unwrap();
        n.install_hop(&HopPlan {
            node: NodeId::new(1),
            out_port: Port::Dir(Direction::East),
            start: 2,
            packet: PacketId(1),
            len: 1,
            class: MessageClass::Request,
            source: FlitSource::Bypass {
                from: Direction::West,
            },
            landing: Landing::Vc(0),
            reserve: 1,
        })
        .unwrap();
        let d = n.run_to_drain(100);
        assert_eq!(d.len(), 1);
        assert_eq!(n.stats().wasted_reservations, 0);
        // Two hops in one cycle: arrival at node 2's VC at cycle 3,
        // ejection SA at 4, delivery at 5 — vs 12 for the plain mesh.
        assert_eq!(d[0].delivered - d[0].packet.created, 5);
    }

    #[test]
    fn stalled_heads_reports_deterministic_drain() {
        let mut n = net();
        // A long response streams 0 -> 7 along row 0; a request injected at
        // node 1 a little later wants the same east port while the
        // response's port lock holds it.
        n.inject(pkt(1, 0, 7, MessageClass::Response, 5));
        for _ in 0..3 {
            n.step();
        }
        n.inject(pkt(2, 1, 5, MessageClass::Request, 1));
        let mut seen = false;
        let mut predicted: Option<(Cycle, Cycle)> = None; // (observed_at, finish)
        let mut stalled = Vec::new();
        for _ in 0..60 {
            n.step();
            stalled.clear();
            n.stalled_heads_into(Cycle::MAX, &mut stalled);
            for s in &stalled {
                if s.flit.packet == PacketId(2) && s.blocker == PacketId(1) {
                    assert_eq!(s.out_port, Port::Dir(Direction::East));
                    assert_eq!(s.node, NodeId::new(1));
                    assert_eq!(s.in_port, Port::Local);
                    seen = true;
                    predicted.get_or_insert((n.now(), s.release));
                }
            }
        }
        assert!(
            seen,
            "the blocked request must be reported with a drain time"
        );
        let (at, finish) = predicted.unwrap();
        assert!(finish > at, "drain prediction lies in the future");
        let mut d = n.drain_delivered();
        d.extend(n.run_to_drain(1_000));
        assert_eq!(d.len(), 2);
    }

    /// Output VC 0 of port 0 of router 0 as the reserving core sees it:
    /// the core's credits and owner, and the datapath's reservation side.
    struct OneVc {
        out: OutVc,
        dp: Reserving,
    }

    impl OneVc {
        fn new(depth: u8) -> Self {
            OneVc {
                out: OutVc::new(depth),
                dp: Reserving::new(&NocConfig::paper()),
            }
        }

        fn usable(&self, packet: PacketId) -> u8 {
            self.out.usable(self.dp.withheld(0, 0, 0, packet))
        }

        fn try_reserve(&mut self, packet: PacketId, count: u8, start: Cycle) -> bool {
            let ok = self.dp.credits[0].admits(&self.out, packet, count, start);
            if ok {
                self.dp.credits[0].reserve(packet, count);
            }
            ok
        }

        fn consume(&mut self, packet: PacketId) {
            self.out.consume_credit();
            self.dp.credit_consumed(0, 0, 0, packet);
        }

        fn allocate(&mut self, packet: PacketId) {
            if self.out.allocate(packet) {
                self.dp.owner_changed(0, 0, 0);
            }
        }

        fn set_free_after(&mut self, cycle: Cycle) {
            self.dp.credits[0].free_after = Some(cycle);
        }
    }

    #[test]
    fn reservation_hides_credits_from_others() {
        let mut v = OneVc::new(5);
        assert!(v.try_reserve(P, 5, 10));
        assert_eq!(v.usable(Q), 0);
        assert_eq!(v.usable(P), 5);
    }

    #[test]
    fn partial_reservation_leaves_credits_for_singles() {
        let mut v = OneVc::new(5);
        assert!(v.try_reserve(P, 3, 10));
        assert_eq!(v.usable(Q), 2);
    }

    #[test]
    fn reservation_fails_when_credits_short() {
        let mut v = OneVc::new(5);
        v.consume(Q);
        assert!(!v.try_reserve(P, 5, 10));
        assert!(v.try_reserve(P, 4, 10));
    }

    #[test]
    fn reservation_fails_against_unknown_owner_drain() {
        let mut v = OneVc::new(5);
        v.allocate(Q);
        assert!(!v.try_reserve(P, 2, 10));
        v.set_free_after(8);
        assert!(v.try_reserve(P, 2, 10));
    }

    #[test]
    fn reservation_respects_owner_drain_deadline() {
        let mut v = OneVc::new(5);
        v.allocate(Q);
        v.set_free_after(12);
        assert!(!v.try_reserve(P, 2, 10), "drain finishes after start");
    }

    #[test]
    fn drain_horizon_dies_with_its_owner() {
        let mut v = OneVc::new(5);
        v.allocate(Q);
        v.set_free_after(8);
        v.allocate(Q);
        assert_eq!(v.dp.credits[0].free_after, Some(8), "same owner keeps it");
        assert!(v.out.release_owner(Q));
        v.dp.owner_changed(0, 0, 0);
        assert_eq!(v.dp.credits[0].free_after, None);
    }

    #[test]
    fn consume_drains_own_reservation_first() {
        let mut v = OneVc::new(5);
        assert!(v.try_reserve(P, 2, 10));
        v.consume(P);
        v.consume(P);
        assert_eq!(v.dp.credits[0].reserved, 0);
        assert_eq!(v.dp.credits[0].reserved_for, None);
        assert_eq!(v.out.credits(), 3);
    }

    #[test]
    fn release_reservation_restores_availability() {
        let mut v = OneVc::new(5);
        assert!(v.try_reserve(P, 5, 10));
        v.dp.credits[0].release(P, 5);
        assert_eq!(v.usable(Q), 5);
        assert!(v.out.claimable_by(Q));
    }

    #[test]
    fn second_reservation_by_other_packet_fails() {
        let mut v = OneVc::new(5);
        assert!(v.try_reserve(P, 2, 10));
        assert!(!v.try_reserve(Q, 1, 20));
    }

    #[test]
    fn guard_admits_singles_holder_and_blocks_others() {
        let mut g = MultiFlitGuard::default();
        assert!(g.admits(P));
        g.holder = Some(P);
        assert!(g.admits(P));
        assert!(!g.admits(Q));
        g.clear(Q);
        assert!(!g.admits(Q), "clear by non-holder is a no-op");
        g.clear(P);
        assert!(g.admits(Q));
    }

    #[test]
    fn latch_single_occupancy() {
        let mut latch = Latch::default();
        let p = pkt(1, 0, 1, MessageClass::Response, 1);
        latch.store(p.flit(0)).unwrap();
        assert!(latch.store(p.flit(0)).is_err());
        assert_eq!(latch.flit.take().unwrap().packet, P);
        assert!(latch.flit.is_none());
    }

    #[test]
    fn latch_claims_conflict_detection() {
        let mut latch = Latch::default();
        latch.claim(10..13, P);
        assert!(!latch.available(12..14, Q));
        assert!(latch.available(13..15, Q));
        assert!(latch.available(10..13, P), "same packet never conflicts");
        latch.release(P, 11);
        assert!(latch.available(11..14, Q));
        assert!(!latch.available(10..11, Q));
        latch.expire(11);
        assert!(latch.available(0..100, Q));
    }

    /// A flit parked in a latch between two single-hop cycles is still in
    /// flight: the audit must find it there.
    #[test]
    fn latched_flits_are_accounted_for() {
        let mut n = MeshCore::<Reserving>::new(NocConfig {
            max_hops_per_cycle: 1,
            ..NocConfig::paper()
        });
        n.inject(pkt(1, 0, 2, MessageClass::Request, 1));
        let east = Port::Dir(Direction::East);
        let hop = |node, start, source, landing| HopPlan {
            node: NodeId::new(node),
            out_port: east,
            start,
            packet: P,
            len: 1,
            class: MessageClass::Request,
            source,
            landing,
            reserve: 1,
        };
        let local = FlitSource::Vc {
            port: Port::Local,
            vc: 0,
        };
        let from_west = FlitSource::Latch {
            from: Direction::West,
        };
        n.install_hop(&hop(0, 2, local, Landing::Latch)).unwrap();
        n.install_hop(&hop(1, 3, from_west, Landing::Vc(0)))
            .unwrap();
        n.step();
        n.step();
        let west = lane(1, Port::Dir(Direction::West).index());
        assert_eq!(n.dp.latches[west].flit.map(|f| f.packet), Some(P));
        let report = n.audit().expect("the mesh audits");
        assert_eq!((report.expected_flits, report.present_flits), (1, 1));
        let mut dog = crate::watchdog::Watchdog::new(Default::default());
        dog.observe(&report);
        assert!(dog.is_quiet(), "{:?}", dog.violations());
        let d = n.run_to_drain(100);
        assert_eq!(d.len(), 1);
        assert_eq!(n.stats().wasted_reservations, 0);
    }

    #[test]
    fn source_backlog_visibility() {
        let mut n = net();
        assert_eq!(n.source_backlog(NodeId::new(0), MessageClass::Response), 0);
        n.inject(pkt(1, 0, 5, MessageClass::Response, 5));
        assert_eq!(n.source_backlog(NodeId::new(0), MessageClass::Response), 5);
        n.step();
        // One flit moved into the VC; backlog counts both queue and VC.
        assert_eq!(n.source_backlog(NodeId::new(0), MessageClass::Response), 5);
    }
}

mod digest_impls {
    use super::{Latch, MultiFlitGuard, OutputSchedule, ReservedCredits};
    use crate::digest::{StateDigest, StateHasher};

    impl StateDigest for Latch {
        fn digest_state(&self, h: &mut StateHasher) {
            match self.flit {
                None => h.write_u8(0),
                Some(flit) => {
                    h.write_u8(1);
                    flit.digest_state(h);
                }
            }
            h.write_usize(self.claims.len());
            for &(cycle, packet) in &self.claims {
                h.write_u64(cycle);
                h.write_u64(packet.0);
            }
        }
    }

    impl StateDigest for ReservedCredits {
        fn digest_state(&self, h: &mut StateHasher) {
            h.write_u8(self.reserved);
            h.write_opt_u64(self.reserved_for.map(|p| p.0));
            h.write_opt_u64(self.free_after);
        }
    }

    impl StateDigest for MultiFlitGuard {
        fn digest_state(&self, h: &mut StateHasher) {
            h.write_opt_u64(self.holder.map(|p| p.0));
        }
    }

    impl StateDigest for OutputSchedule {
        fn digest_state(&self, h: &mut StateHasher) {
            h.write_usize(self.slots.len());
            for (cycle, r) in &self.slots {
                h.write_u64(*cycle);
                r.digest_state(h);
            }
        }
    }
}
