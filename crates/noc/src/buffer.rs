//! Input-side buffering: virtual-channel FIFOs and the PRA latch.
//!
//! Each router input port owns one [`VcBuffer`] per message class plus a
//! single-flit [`InputUnit::latch`] used only by proactively allocated
//! multi-hop paths (the paper's Figure 4 "Latch" pseudo-VC). The bypass
//! pseudo-VC has no storage — it is purely combinational and therefore has
//! no representation here.

use std::collections::VecDeque;

use crate::flit::Flit;
use crate::types::{Cycle, PacketId};

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

/// A fixed-depth flit FIFO implementing one virtual channel.
///
/// Flits live in a flat ring (`slots`/`head`/`len`): the backing store
/// grows once up to `depth` and is recycled in place forever after, so
/// steady-state pushes and pops never touch the allocator and indexing
/// is plain modular arithmetic.
///
/// # Examples
///
/// ```
/// use noc::buffer::VcBuffer;
/// use noc::flit::Packet;
/// use noc::types::{MessageClass, NodeId, PacketId};
///
/// let mut vc = VcBuffer::new(5);
/// let p = Packet::new(PacketId(1), NodeId::new(0), NodeId::new(1), MessageClass::Request, 1);
/// vc.push(p.flit(0))?;
/// assert_eq!(vc.len(), 1);
/// assert_eq!(vc.pop().unwrap().packet, PacketId(1));
/// # Ok::<(), noc::buffer::BufferError>(())
/// ```
#[derive(Debug, Clone)]
pub struct VcBuffer {
    depth: usize,
    slots: Vec<Flit>,
    head: usize,
    len: usize,
}

impl VcBuffer {
    /// Creates an empty buffer holding up to `depth` flits.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "VC depth must be at least one flit");
        VcBuffer {
            depth,
            slots: Vec::with_capacity(depth),
            head: 0,
            len: 0,
        }
    }

    /// Physical slot index of logical position `i` (0 = front).
    #[inline(always)]
    fn slot(&self, i: usize) -> usize {
        (self.head + i) % self.depth
    }

    /// Configured capacity in flits.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of buffered flits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no flits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        self.depth - self.len
    }

    /// The flit at the head of the FIFO, if any.
    pub fn front(&self) -> Option<&Flit> {
        (self.len > 0).then(|| &self.slots[self.head])
    }

    /// The most recently enqueued flit, if any.
    pub fn back(&self) -> Option<&Flit> {
        (self.len > 0).then(|| &self.slots[self.slot(self.len - 1)])
    }

    /// Enqueues a flit, enforcing capacity and packet-contiguity invariants.
    ///
    /// Packets must arrive contiguously: once a head flit of a multi-flit
    /// packet is enqueued, only flits of that packet may follow until its
    /// tail arrives. This mirrors the hardware guarantee provided by
    /// per-packet virtual-channel ownership.
    ///
    /// # Errors
    ///
    /// [`BufferError::Overflow`] if full; [`BufferError::Interleaved`] if
    /// contiguity would be violated.
    pub fn push(&mut self, flit: Flit) -> Result<(), BufferError> {
        if self.len >= self.depth {
            return Err(BufferError::Overflow);
        }
        if let Some(last) = self.back() {
            if !last.is_tail() && (last.packet != flit.packet || flit.seq != last.seq + 1) {
                return Err(BufferError::Interleaved {
                    streaming: last.packet,
                    arriving: flit.packet,
                });
            }
        }
        let idx = self.slot(self.len);
        // The ring grows lazily: physical slots are written strictly in
        // sequence until all `depth` exist, so the write position is at
        // most one past the initialized prefix.
        if idx == self.slots.len() {
            self.slots.push(flit);
        } else {
            self.slots[idx] = flit;
        }
        self.len += 1;
        Ok(())
    }

    /// Dequeues the front flit.
    pub fn pop(&mut self) -> Option<Flit> {
        if self.len == 0 {
            return None;
        }
        let flit = self.slots[self.head];
        self.head = (self.head + 1) % self.depth;
        self.len -= 1;
        Some(flit)
    }

    /// Iterates over buffered flits front to back.
    pub fn iter(&self) -> impl Iterator<Item = &Flit> {
        (0..self.len).map(|i| &self.slots[self.slot(i)])
    }

    /// Removes every flit of `packet` (used by fault purges) and returns
    /// how many were removed. Removing a whole packet keeps the remaining
    /// runs contiguous, so buffer invariants survive. Survivors are
    /// compacted toward the front of the ring in place.
    pub fn remove_packet(&mut self, packet: PacketId) -> usize {
        let before = self.len;
        let mut kept = 0;
        for i in 0..self.len {
            let flit = self.slots[self.slot(i)];
            if flit.packet != packet {
                let dst = self.slot(kept);
                self.slots[dst] = flit;
                kept += 1;
            }
        }
        self.len = kept;
        before - kept
    }
}

/// One router input port: per-class VCs plus the PRA latch.
#[derive(Debug, Clone)]
pub struct InputUnit {
    vcs: Vec<VcBuffer>,
    /// Single-flit temporary storage used by pre-allocated multi-hop paths.
    /// A flit written here during cycle `c` is read during cycle `c + 1`.
    latch: Option<Flit>,
    /// Cycles for which the latch has been promised to a pre-allocated
    /// packet: `(cycle, packet)` pairs kept sorted by cycle.
    latch_claims: VecDeque<(Cycle, PacketId)>,
}

impl InputUnit {
    /// Creates an input unit with `vcs` virtual channels of `depth` flits.
    pub fn new(vcs: usize, depth: usize) -> Self {
        InputUnit {
            vcs: (0..vcs).map(|_| VcBuffer::new(depth)).collect(),
            latch: None,
            latch_claims: VecDeque::new(),
        }
    }

    /// Shared access to virtual channel `vc`.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    pub fn vc(&self, vc: usize) -> &VcBuffer {
        &self.vcs[vc]
    }

    /// Enqueues `flit` on virtual channel `vc` (see [`VcBuffer::push`]).
    ///
    /// # Errors
    ///
    /// The [`BufferError`] of [`VcBuffer::push`]; nothing is enqueued.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    pub fn push(&mut self, vc: usize, flit: Flit) -> Result<(), BufferError> {
        self.vcs[vc].push(flit)
    }

    /// Dequeues the front flit of virtual channel `vc`.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    pub fn pop(&mut self, vc: usize) -> Option<Flit> {
        self.vcs[vc].pop()
    }

    /// Removes every flit of `packet` from virtual channel `vc` (see
    /// [`VcBuffer::remove_packet`]); returns how many were removed.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    pub fn remove_packet(&mut self, vc: usize, packet: PacketId) -> usize {
        self.vcs[vc].remove_packet(packet)
    }

    /// The flit currently held in the latch, if any.
    pub fn latch(&self) -> Option<&Flit> {
        self.latch.as_ref()
    }

    /// Stores `flit` in the latch.
    ///
    /// # Errors
    ///
    /// Returns the flit back if the latch is already occupied (a
    /// pre-allocation bookkeeping bug; callers treat this as fatal).
    pub fn latch_store(&mut self, flit: Flit) -> Result<(), Flit> {
        if self.latch.is_some() {
            return Err(flit);
        }
        self.latch = Some(flit);
        Ok(())
    }

    /// Removes and returns the latched flit.
    pub fn latch_take(&mut self) -> Option<Flit> {
        self.latch.take()
    }

    /// Whether the latch is free over `cycles` and can be claimed for
    /// `packet`. Existing claims by the same packet do not conflict.
    pub fn latch_available(&self, cycles: std::ops::Range<Cycle>, packet: PacketId) -> bool {
        self.latch_claims
            .iter()
            .all(|&(c, p)| p == packet || !cycles.contains(&c))
    }

    /// Claims the latch for `packet` over `cycles`.
    pub fn latch_claim(&mut self, cycles: std::ops::Range<Cycle>, packet: PacketId) {
        for c in cycles {
            self.latch_claims.push_back((c, packet));
        }
        self.latch_claims
            .make_contiguous()
            .sort_unstable_by_key(|&(c, _)| c);
    }

    /// Releases claims for `packet` at cycles at or after `from`.
    pub fn latch_release(&mut self, packet: PacketId, from: Cycle) {
        self.latch_claims
            .retain(|&(c, p)| !(p == packet && c >= from));
    }

    /// Drops claims older than `now` (already in the past).
    pub fn latch_expire(&mut self, now: Cycle) {
        while matches!(self.latch_claims.front(), Some(&(c, _)) if c < now) {
            self.latch_claims.pop_front();
        }
    }

    /// Whether any latch claims are outstanding (past or future).
    pub fn has_latch_claims(&self) -> bool {
        !self.latch_claims.is_empty()
    }

    /// Total flits buffered across all VCs (latch excluded).
    pub fn buffered_flits(&self) -> usize {
        self.vcs.iter().map(VcBuffer::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Packet;
    use crate::types::{MessageClass, NodeId, PacketId};

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
        let mut vc = VcBuffer::new(5);
        let p = pkt(1, 3);
        for f in p.flits() {
            vc.push(f).unwrap();
        }
        let seqs: Vec<_> = std::iter::from_fn(|| vc.pop()).map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn overflow_detected() {
        let mut vc = VcBuffer::new(2);
        let p = pkt(1, 3);
        vc.push(p.flit(0)).unwrap();
        vc.push(p.flit(1)).unwrap();
        assert_eq!(vc.push(p.flit(2)), Err(BufferError::Overflow));
    }

    #[test]
    fn interleaving_detected() {
        let mut vc = VcBuffer::new(5);
        let p = pkt(1, 3);
        let q = pkt(2, 1);
        vc.push(p.flit(0)).unwrap();
        assert!(matches!(
            vc.push(q.flit(0)),
            Err(BufferError::Interleaved { .. })
        ));
    }

    #[test]
    fn single_flit_may_precede_a_stream() {
        let mut vc = VcBuffer::new(5);
        let q = pkt(2, 1);
        let p = pkt(1, 2);
        vc.push(q.flit(0)).unwrap();
        vc.push(p.flit(0)).unwrap();
        vc.push(p.flit(1)).unwrap();
        assert_eq!(vc.len(), 3);
    }

    #[test]
    fn out_of_order_same_packet_detected() {
        let mut vc = VcBuffer::new(5);
        let p = pkt(1, 3);
        vc.push(p.flit(0)).unwrap();
        assert!(matches!(
            vc.push(p.flit(2)),
            Err(BufferError::Interleaved { .. })
        ));
    }

    #[test]
    fn latch_single_occupancy() {
        let mut iu = InputUnit::new(3, 5);
        let p = pkt(1, 1);
        iu.latch_store(p.flit(0)).unwrap();
        assert!(iu.latch_store(p.flit(0)).is_err());
        assert_eq!(iu.latch_take().unwrap().packet, PacketId(1));
        assert!(iu.latch().is_none());
    }

    #[test]
    fn latch_claims_conflict_detection() {
        let mut iu = InputUnit::new(3, 5);
        iu.latch_claim(10..13, PacketId(1));
        assert!(!iu.latch_available(12..14, PacketId(2)));
        assert!(iu.latch_available(13..15, PacketId(2)));
        assert!(
            iu.latch_available(10..13, PacketId(1)),
            "same packet never conflicts"
        );
        iu.latch_release(PacketId(1), 11);
        assert!(iu.latch_available(11..14, PacketId(2)));
        assert!(!iu.latch_available(10..11, PacketId(2)));
        iu.latch_expire(11);
        assert!(iu.latch_available(0..100, PacketId(2)));
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_depth_rejected() {
        let _ = VcBuffer::new(0);
    }
}

mod digest_impls {
    use super::{InputUnit, VcBuffer};
    use crate::digest::{StateDigest, StateHasher};

    impl StateDigest for VcBuffer {
        fn digest_state(&self, h: &mut StateHasher) {
            h.write_usize(self.depth);
            h.write_usize(self.len());
            for flit in self.iter() {
                flit.digest_state(h);
            }
        }
    }

    impl StateDigest for InputUnit {
        fn digest_state(&self, h: &mut StateHasher) {
            h.write_usize(self.vcs.len());
            for vc in &self.vcs {
                vc.digest_state(h);
            }
            match self.latch {
                None => h.write_u8(0),
                Some(flit) => {
                    h.write_u8(1);
                    flit.digest_state(h);
                }
            }
            h.write_usize(self.latch_claims.len());
            for &(cycle, packet) in &self.latch_claims {
                h.write_u64(cycle);
                h.write_u64(packet.0);
            }
        }
    }
}
