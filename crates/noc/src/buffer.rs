//! Input-side buffering: the virtual-channel FIFOs.
//!
//! Every network keeps all of its virtual-channel FIFOs in one
//! [`FlitStore`], one lane per (router, input port, VC), laid out by
//! [`vc_lane`].

use crate::digest::{StateDigest, StateHasher};
use crate::flit::{Flit, Packet};
use crate::types::{MessageClass, NodeId, PacketId, Port};

/// Error returned when an enqueue would corrupt buffer invariants.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufferError {
    /// The buffer is at capacity; the upstream credit logic is broken.
    Overflow,
    /// The arriving flit would interleave two packets mid-stream.
    Interleaved {
        /// Packet currently mid-stream at the queue tail.
        streaming: PacketId,
        /// Packet of the offending flit.
        arriving: PacketId,
    },
}

impl std::fmt::Display for BufferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BufferError::Overflow => f.write_str("virtual channel buffer overflow"),
            BufferError::Interleaved {
                streaming,
                arriving,
            } => write!(
                f,
                "flit of packet {arriving} would interleave into the stream of packet {streaming}"
            ),
        }
    }
}

impl std::error::Error for BufferError {}

/// The lane of VC `vc` of input port `port` of router `node` in a
/// network with `vcs` VCs per port: every network lays its per-(router,
/// port, VC) state out this way, router major, then port, then VC.
// hot
#[inline(always)]
pub(crate) fn vc_lane(vcs: usize, node: usize, port: usize, vc: usize) -> usize {
    (node * Port::COUNT + port) * vcs + vc
}

/// The lanes of router `node` under [`vc_lane`]'s layout: one contiguous
/// run, port major.
pub(crate) fn router_lanes(vcs: usize, node: usize) -> std::ops::Range<usize> {
    let first = vc_lane(vcs, node, 0, 0);
    first..first + Port::COUNT * vcs
}

/// Every virtual-channel FIFO of one network in one flat ring store.
///
/// Lane `l` owns slots `l * depth .. (l + 1) * depth` of a single
/// `Vec<Flit>` and one `(head, len)` ring header in a dense side array,
/// so a network of any size holds its buffered flits in two heap blocks
/// and reading a lane's front flit is one multiply and two loads. Ring
/// indices advance by compare-and-subtract, never by division. The store
/// is allocated whole at construction and recycled in place forever
/// after, so steady-state pushes and pops never touch the allocator.
///
/// Each lane keeps the FIFO contract of one virtual channel: a fixed
/// capacity of `depth` flits and contiguous packets (see
/// [`FlitStore::push`]).
///
/// # Examples
///
/// ```
/// use noc::buffer::FlitStore;
/// use noc::flit::Packet;
/// use noc::types::{MessageClass, NodeId, PacketId};
///
/// let mut store = FlitStore::new(2, 5);
/// let p = Packet::new(PacketId(1), NodeId::new(0), NodeId::new(1), MessageClass::Request, 1);
/// store.push(1, p.flit(0))?;
/// assert_eq!((store.len(0), store.len(1)), (0, 1));
/// assert_eq!(store.pop(1).unwrap().packet, PacketId(1));
/// # Ok::<(), noc::buffer::BufferError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlitStore {
    depth: usize,
    /// `lanes * depth` slots; a slot outside its lane's live window holds
    /// a stale flit that is never read.
    slots: Vec<Flit>,
    rings: Vec<Ring>,
}

/// One lane's ring header: the slot of its front flit, below the
/// store's depth, and its length, at most the depth. A depth is at most
/// 255, so both fit a byte.
#[derive(Debug, Clone, Copy, Default)]
struct Ring {
    head: u8,
    len: u8,
}

impl FlitStore {
    /// Creates `lanes` empty lanes of `depth` flits each.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(lanes: usize, depth: u8) -> Self {
        assert!(depth > 0, "VC depth must be at least one flit");
        let depth = usize::from(depth);
        let blank = Packet::new(
            PacketId(0),
            NodeId::new(0),
            NodeId::new(0),
            MessageClass::Request,
            1,
        )
        .flit(0);
        FlitStore {
            depth,
            slots: vec![blank; lanes * depth],
            rings: vec![Ring::default(); lanes],
        }
    }

    /// Slot index of logical position `i < depth` (0 = front) of `lane`.
    // hot
    #[inline(always)]
    fn slot(&self, lane: usize, i: usize) -> usize {
        let mut pos = usize::from(self.rings[lane].head) + i;
        if pos >= self.depth {
            pos -= self.depth;
        }
        lane * self.depth + pos
    }

    /// Capacity of every lane in flits.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.rings.len()
    }

    /// Number of flits buffered in `lane`.
    #[inline]
    pub fn len(&self, lane: usize) -> usize {
        usize::from(self.rings[lane].len)
    }

    /// Whether `lane` holds no flits.
    #[inline]
    pub fn is_empty(&self, lane: usize) -> bool {
        self.rings[lane].len == 0
    }

    /// Free slots remaining in `lane`.
    #[inline]
    pub fn free(&self, lane: usize) -> usize {
        self.depth - self.len(lane)
    }

    /// Flits buffered across `lanes`.
    pub fn buffered(&self, lanes: std::ops::Range<usize>) -> usize {
        self.rings[lanes].iter().map(|r| usize::from(r.len)).sum()
    }

    /// The flit at the front of `lane`, if any.
    // hot
    #[inline]
    pub fn front(&self, lane: usize) -> Option<&Flit> {
        let ring = self.rings[lane];
        (ring.len > 0).then(|| &self.slots[lane * self.depth + usize::from(ring.head)])
    }

    /// The most recently enqueued flit of `lane`, if any.
    pub fn back(&self, lane: usize) -> Option<&Flit> {
        let len = self.len(lane);
        (len > 0).then(|| &self.slots[self.slot(lane, len - 1)])
    }

    /// Whether `flit` may be enqueued behind the back of `lane` without
    /// interleaving packets: the lane is empty or ends in a tail, or
    /// `flit` is the next flit of the packet streaming in.
    #[inline]
    pub fn follows(&self, lane: usize, flit: &Flit) -> bool {
        match self.back(lane) {
            Some(last) => {
                last.is_tail() || (last.packet == flit.packet && flit.seq == last.seq + 1)
            }
            None => true,
        }
    }

    /// Enqueues a flit on `lane`, enforcing capacity and packet
    /// contiguity.
    ///
    /// Packets must arrive contiguously: once a head flit of a multi-flit
    /// packet is enqueued, only flits of that packet may follow until its
    /// tail arrives. This mirrors the hardware guarantee provided by
    /// per-packet virtual-channel ownership.
    ///
    /// # Errors
    ///
    /// [`BufferError::Overflow`] if the lane is full;
    /// [`BufferError::Interleaved`] if contiguity would be violated.
    /// Nothing is enqueued on error.
    // hot
    #[inline]
    pub fn push(&mut self, lane: usize, flit: Flit) -> Result<(), BufferError> {
        let len = self.len(lane);
        if len >= self.depth {
            return Err(BufferError::Overflow);
        }
        if !self.follows(lane, &flit) {
            let last = self.back(lane).expect("a lane that refuses is not empty");
            return Err(BufferError::Interleaved {
                streaming: last.packet,
                arriving: flit.packet,
            });
        }
        let idx = self.slot(lane, len);
        self.slots[idx] = flit;
        self.rings[lane].len += 1;
        Ok(())
    }

    /// Dequeues the front flit of `lane`.
    // hot
    #[inline]
    pub fn pop(&mut self, lane: usize) -> Option<Flit> {
        let flit = *self.front(lane)?;
        let ring = &mut self.rings[lane];
        ring.head += 1;
        if usize::from(ring.head) == self.depth {
            ring.head = 0;
        }
        ring.len -= 1;
        Some(flit)
    }

    /// Iterates over the flits of `lane` front to back.
    pub fn iter(&self, lane: usize) -> impl Iterator<Item = &Flit> {
        (0..self.len(lane)).map(move |i| &self.slots[self.slot(lane, i)])
    }

    /// Removes every flit of `packet` from `lane` (used by fault purges)
    /// and returns how many were removed. Removing a whole packet keeps
    /// the remaining runs contiguous, so lane invariants survive.
    /// Survivors are compacted toward the front of the ring in place.
    pub fn remove_packet(&mut self, lane: usize, packet: PacketId) -> usize {
        let before = self.len(lane);
        let mut kept = 0;
        for i in 0..before {
            let flit = self.slots[self.slot(lane, i)];
            if flit.packet != packet {
                let dst = self.slot(lane, kept);
                self.slots[dst] = flit;
                kept += 1;
            }
        }
        self.rings[lane].len = kept as u8;
        before - kept
    }

    /// Folds `lane` into `h` as one virtual channel: its depth, its
    /// length, then its flits front to back.
    pub fn digest_lane(&self, lane: usize, h: &mut StateHasher) {
        h.write_usize(self.depth);
        h.write_usize(self.len(lane));
        for flit in self.iter(lane) {
            flit.digest_state(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nistats::rng::Rng;
    use std::collections::VecDeque;

    fn pkt(id: u64, len: u8) -> Packet {
        Packet::new(
            PacketId(id),
            NodeId::new(0),
            NodeId::new(1),
            MessageClass::Response,
            len,
        )
    }

    #[test]
    fn fifo_order_preserved() {
        let mut store = FlitStore::new(1, 5);
        let p = pkt(1, 3);
        for f in p.flits() {
            store.push(0, f).unwrap();
        }
        let seqs: Vec<_> = std::iter::from_fn(|| store.pop(0)).map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn overflow_detected() {
        let mut store = FlitStore::new(1, 2);
        let p = pkt(1, 3);
        store.push(0, p.flit(0)).unwrap();
        store.push(0, p.flit(1)).unwrap();
        assert_eq!(store.push(0, p.flit(2)), Err(BufferError::Overflow));
    }

    #[test]
    fn interleaving_detected() {
        let mut store = FlitStore::new(1, 5);
        let p = pkt(1, 3);
        let q = pkt(2, 1);
        store.push(0, p.flit(0)).unwrap();
        assert_eq!(
            store.push(0, q.flit(0)),
            Err(BufferError::Interleaved {
                streaming: PacketId(1),
                arriving: PacketId(2),
            })
        );
    }

    #[test]
    fn single_flit_may_precede_a_stream() {
        let mut store = FlitStore::new(1, 5);
        let q = pkt(2, 1);
        let p = pkt(1, 2);
        store.push(0, q.flit(0)).unwrap();
        store.push(0, p.flit(0)).unwrap();
        store.push(0, p.flit(1)).unwrap();
        assert_eq!(store.len(0), 3);
    }

    #[test]
    fn out_of_order_same_packet_detected() {
        let mut store = FlitStore::new(1, 5);
        let p = pkt(1, 3);
        store.push(0, p.flit(0)).unwrap();
        assert!(matches!(
            store.push(0, p.flit(2)),
            Err(BufferError::Interleaved { .. })
        ));
    }

    #[test]
    fn lanes_are_independent() {
        let mut store = FlitStore::new(3, 2);
        let (p, q) = (pkt(1, 2), pkt(2, 1));
        store.push(0, p.flit(0)).unwrap();
        store.push(2, q.flit(0)).unwrap();
        store.push(2, p.flit(0)).unwrap();
        assert_eq!(store.push(2, q.flit(0)), Err(BufferError::Overflow));
        assert_eq!(store.push(0, p.flit(1)), Ok(()));
        assert!(store.is_empty(1));
        assert_eq!(store.buffered(0..3), 4);
        assert_eq!(store.remove_packet(2, PacketId(2)), 1);
        assert_eq!(store.front(2).map(|f| f.packet), Some(PacketId(1)));
        assert_eq!(store.buffered(0..3), 3);
    }

    /// A lane's contract, modelled by a `VecDeque`: the error (if any)
    /// a push of `flit` onto `model` must return with `depth` slots.
    fn expected_push(model: &VecDeque<Flit>, depth: usize, flit: &Flit) -> Option<BufferError> {
        if model.len() >= depth {
            return Some(BufferError::Overflow);
        }
        match model.back() {
            Some(last)
                if !last.is_tail() && (last.packet != flit.packet || flit.seq != last.seq + 1) =>
            {
                Some(BufferError::Interleaved {
                    streaming: last.packet,
                    arriving: flit.packet,
                })
            }
            _ => None,
        }
    }

    /// Asserts every observable of `lane` against `model`.
    fn assert_lane(store: &FlitStore, lane: usize, model: &VecDeque<Flit>, at: &str) {
        assert_eq!(store.len(lane), model.len(), "len of lane {lane} {at}");
        assert_eq!(store.is_empty(lane), model.is_empty(), "empty {at}");
        assert_eq!(store.free(lane), store.depth() - model.len(), "free {at}");
        assert_eq!(
            store.front(lane),
            model.front(),
            "front of lane {lane} {at}"
        );
        assert_eq!(store.back(lane), model.back(), "back of lane {lane} {at}");
    }

    /// Random push, pop and `remove_packet` sequences on three lanes
    /// against a `VecDeque` model per lane, at every depth from 1 to 8
    /// and at the largest, 255. Each depth first walks the ring head
    /// through every slot and fills the lane to overflow from there, so
    /// every wrap-around point is exercised; the random phase then mixes
    /// valid flits, interleaving flits and purges.
    #[test]
    fn lanes_match_a_vecdeque_model() {
        for depth in (1..=8u8).chain([255]) {
            let d = usize::from(depth);
            let lanes = 3;
            let mut store = FlitStore::new(lanes, depth);
            let mut model: Vec<VecDeque<Flit>> = vec![VecDeque::new(); lanes];
            let mut rng = Rng::new(u64::from(depth));
            let mut next_id = 1u64;
            let check_all = |store: &FlitStore, model: &[VecDeque<Flit>], at: &str| {
                for (lane, m) in model.iter().enumerate() {
                    assert_lane(store, lane, m, at);
                }
            };
            // Deterministic walk: from every head position, fill lane 1
            // with single-flit packets until it overflows, then drain it.
            for start in 0..d {
                for _ in 0..=d {
                    let f = pkt(next_id, 1).flit(0);
                    next_id += 1;
                    let want = expected_push(&model[1], d, &f);
                    assert_eq!(store.push(1, f).err(), want, "depth {depth} head {start}");
                    if want.is_none() {
                        model[1].push_back(f);
                    }
                    assert!(
                        store.iter(1).eq(model[1].iter()),
                        "depth {depth} head {start}"
                    );
                    check_all(&store, &model, "while filling");
                }
                while let Some(f) = model[1].pop_front() {
                    assert_eq!(store.pop(1), Some(f), "depth {depth} head {start}");
                }
                assert_eq!(store.pop(1), None);
                // Advance the head one slot for the next start.
                let f = pkt(next_id, 1).flit(0);
                next_id += 1;
                store.push(1, f).unwrap();
                assert_eq!(store.pop(1), Some(f));
                check_all(&store, &model, "after the walk step");
            }
            // Random phase.
            for step in 0..40 * d.max(8) {
                let lane = rng.gen_range_usize(0, lanes);
                let m = &mut model[lane];
                let at = format!("depth {depth} step {step} lane {lane}");
                match rng.gen_range_u8(0, 20) {
                    0..=10 => {
                        // Mostly the flit that validly continues the lane;
                        // sometimes a fresh packet's flit, which interleaves
                        // behind an unfinished stream.
                        let flit = match m.back() {
                            Some(last) if !last.is_tail() && rng.gen_bool(0.8) => {
                                let mut p = pkt(last.packet.0, last.len_flits);
                                p.src = last.src;
                                p.flit(last.seq + 1)
                            }
                            _ => {
                                let len = rng.gen_range_u8(1, 6);
                                next_id += 1;
                                pkt(next_id, len).flit(rng.gen_range_u8(0, 2).min(len - 1))
                            }
                        };
                        let want = expected_push(m, d, &flit);
                        assert_eq!(store.push(lane, flit).err(), want, "{at}");
                        if want.is_none() {
                            m.push_back(flit);
                        }
                    }
                    11..=17 => assert_eq!(store.pop(lane), m.pop_front(), "{at}"),
                    _ => {
                        let victim = if m.is_empty() || rng.gen_bool(0.2) {
                            PacketId(next_id + 1)
                        } else {
                            m[rng.gen_range_usize(0, m.len())].packet
                        };
                        let before = m.len();
                        m.retain(|f| f.packet != victim);
                        assert_eq!(store.remove_packet(lane, victim), before - m.len(), "{at}");
                    }
                }
                assert!(store.iter(lane).eq(model[lane].iter()), "{at}");
                check_all(&store, &model, &at);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_depth_rejected() {
        let _ = FlitStore::new(1, 0);
    }
}
