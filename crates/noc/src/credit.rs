//! Output-side credit and virtual-channel ownership tracking.
//!
//! Every router output port tracks, per downstream virtual channel:
//!
//! * **credits** — free flit slots in the downstream buffer, and
//! * **ownership** — which multi-flit packet is currently streaming into
//!   the downstream VC (wormhole contiguity).
//!
//! Single-flit packets never take ownership: they are atomic and cannot
//! interleave. A router datapath that keeps some credits from some
//! packets holds that state itself and asks [`OutVc::usable`] what is
//! left.

use crate::types::PacketId;

/// Credit/ownership state for one downstream virtual channel, viewed from
/// the upstream router's output port.
#[derive(Debug, Clone)]
pub struct OutVc {
    depth: u8,
    credits: u8,
    /// Multi-flit packet currently streaming into the downstream VC.
    owner: Option<PacketId>,
}

impl OutVc {
    /// Creates the state for a downstream VC of `depth` flits, fully
    /// credited.
    pub fn new(depth: u8) -> Self {
        OutVc {
            depth,
            credits: depth,
            owner: None,
        }
    }

    /// Buffer depth of the downstream VC.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Free downstream slots.
    pub fn credits(&self) -> u8 {
        self.credits
    }

    /// The multi-flit packet currently streaming into the downstream VC.
    pub fn owner(&self) -> Option<PacketId> {
        self.owner
    }

    /// Credits a sender may use when `withheld` of them are kept from it.
    // hot
    #[inline(always)]
    pub fn usable(&self, withheld: u8) -> u8 {
        self.credits.saturating_sub(withheld)
    }

    /// Whether multi-flit `packet` may claim the VC: it is unowned or
    /// already streams `packet`.
    // hot
    #[inline(always)]
    pub fn claimable_by(&self, packet: PacketId) -> bool {
        self.owner.is_none() || self.owner == Some(packet)
    }

    /// Claims VC ownership for a multi-flit packet; returns whether the
    /// owner changed.
    ///
    /// # Panics
    ///
    /// Panics if the VC is owned by a different packet (allocator bug).
    pub fn allocate(&mut self, packet: PacketId) -> bool {
        assert!(
            self.claimable_by(packet),
            "VC already owned by {:?} while allocating {packet}",
            self.owner
        );
        let changed = self.owner != Some(packet);
        self.owner = Some(packet);
        changed
    }

    /// Consumes one credit as a flit departs.
    ///
    /// # Panics
    ///
    /// Panics on credit underflow (flow-control bug).
    pub fn consume_credit(&mut self) {
        assert!(self.credits > 0, "credit underflow");
        self.credits -= 1;
    }

    /// Returns one credit (the downstream buffer freed a slot).
    ///
    /// # Panics
    ///
    /// Panics if credits would exceed the buffer depth.
    pub fn return_credit(&mut self) {
        assert!(
            self.credits < self.depth,
            "credit overflow: more credits than buffer slots"
        );
        self.credits += 1;
    }

    /// Releases ownership if `packet` holds it (its tail has been sent);
    /// returns whether it did.
    pub fn release_owner(&mut self, packet: PacketId) -> bool {
        let held = self.owner == Some(packet);
        if held {
            self.owner = None;
        }
        held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: PacketId = PacketId(1);
    const Q: PacketId = PacketId(2);

    #[test]
    fn fresh_vc_is_fully_credited() {
        let vc = OutVc::new(5);
        assert_eq!(vc.credits(), 5);
        assert!(vc.claimable_by(P));
        assert_eq!(vc.usable(0), 5);
        assert_eq!(vc.usable(7), 0, "withholding saturates");
    }

    #[test]
    fn credit_consume_return_round_trip() {
        let mut vc = OutVc::new(2);
        vc.consume_credit();
        vc.consume_credit();
        assert_eq!(vc.usable(0), 0);
        vc.return_credit();
        assert_eq!(vc.usable(0), 1);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn credit_underflow_panics() {
        let mut vc = OutVc::new(1);
        vc.consume_credit();
        vc.consume_credit();
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn credit_overflow_panics() {
        let mut vc = OutVc::new(1);
        vc.return_credit();
    }

    #[test]
    fn ownership_blocks_other_multiflit_heads() {
        let mut vc = OutVc::new(5);
        assert!(vc.allocate(P), "a new owner");
        assert!(!vc.allocate(P), "the same owner again");
        assert!(!vc.claimable_by(Q));
        assert!(vc.claimable_by(P));
        assert!(!vc.release_owner(Q), "only the owner releases");
        assert!(vc.release_owner(P));
        assert!(vc.claimable_by(Q));
    }
}

mod digest_impls {
    use super::OutVc;
    use crate::digest::{StateDigest, StateHasher};

    impl StateDigest for OutVc {
        fn digest_state(&self, h: &mut StateHasher) {
            h.write_u8(self.depth);
            h.write_u8(self.credits);
            h.write_opt_u64(self.owner.map(|p| p.0));
        }
    }
}
