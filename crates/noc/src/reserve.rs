//! Per-output-port timeslot reservation tables and their due index.
//!
//! These tables are the software analogue of the paper's per-output-port
//! bit vectors (*Valid*, *Input Select*, *Local VC Select*, *Downstream VC
//! Select*, Figure 4). Hardware shifts the vectors left each cycle, so a
//! router only ever reads the slot at the head of each vector. The
//! simulator keeps each port's outstanding slots in a short vector sorted
//! by absolute cycle: passed slots form a prefix that expiry drains in
//! one move, and the slot of the current cycle sits at (or right behind)
//! the front. A due index — a timing wheel keyed by cycle — records
//! which `(router, port)` pairs hold a slot or a latch claim at which
//! cycle, so the datapath visits only the ports with work due instead of
//! scanning every router. Both are behaviourally identical to shifting
//! bit vectors and much cheaper to model.
//!
//! The tables are pure mechanism: the PRA control network (in the `pra`
//! crate) decides *what* to reserve; the mesh datapath in this crate only
//! executes reservations and refuses to grant reactive traffic on reserved
//! timeslots.

use crate::types::{Cycle, Direction, PacketId, Port};

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
pub struct Reservation {
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
///
/// # Examples
///
/// ```
/// use noc::reserve::{FlitSource, Landing, OutputSchedule, Reservation};
/// use noc::types::{PacketId, Port};
///
/// let mut sched = OutputSchedule::new();
/// let r = Reservation {
///     packet: PacketId(9),
///     seq: 0,
///     source: FlitSource::Vc { port: Port::Local, vc: 2 },
///     landing: Landing::Vc(2),
/// };
/// assert!(sched.try_insert(100, r));
/// assert!(sched.is_reserved(100));
/// assert!(!sched.is_reserved(101));
/// ```
#[derive(Debug, Clone, Default)]
pub struct OutputSchedule {
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
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the schedule holds no reservations.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates over `(cycle, reservation)` pairs in cycle order.
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

#[cfg(test)]
mod tests {
    use super::*;

    const P: PacketId = PacketId(1);
    const Q: PacketId = PacketId(2);

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
}

mod digest_impls {
    use super::OutputSchedule;
    use crate::digest::{StateDigest, StateHasher};

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
