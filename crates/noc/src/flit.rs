//! Packets and flits.
//!
//! A [`Packet`] is the unit of transfer requested by a client (a network
//! interface); a [`Flit`] is the unit of flow control inside the network.
//! Flits carry a copy of the routing-relevant packet fields so that the
//! simulator never chases pointers on the critical path.

use crate::types::{Cycle, MessageClass, NodeId, PacketId};

/// Position of a flit inside its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit of a multi-flit packet: carries routing information.
    Head,
    /// Intermediate flit of a multi-flit packet.
    Body,
    /// Last flit of a multi-flit packet: releases allocated resources.
    Tail,
    /// The only flit of a single-flit packet (head and tail at once).
    Single,
}

impl FlitKind {
    /// Whether this flit performs head duties (routing, VC allocation).
    pub const fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::Single)
    }

    /// Whether this flit performs tail duties (resource release).
    pub const fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
    }
}

/// A packet descriptor as seen by network clients.
///
/// # Examples
///
/// ```
/// use noc::flit::Packet;
/// use noc::types::{MessageClass, NodeId, PacketId};
///
/// let p = Packet::new(
///     PacketId(1),
///     NodeId::new(0),
///     NodeId::new(63),
///     MessageClass::Response,
///     5,
/// );
/// assert_eq!(p.len_flits, 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Unique packet identifier.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Protocol message class (selects the virtual channel).
    pub class: MessageClass,
    /// Packet length in flits (≥ 1).
    pub len_flits: u8,
    /// Cycle at which the client handed the packet to the network interface.
    pub created: Cycle,
    /// Opaque client tag (e.g. an outstanding-miss identifier in the system
    /// model). The network carries it untouched.
    pub tag: u64,
}

impl Packet {
    /// Creates a packet descriptor with `created` and `tag` zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `len_flits` is zero.
    pub fn new(
        id: PacketId,
        src: NodeId,
        dest: NodeId,
        class: MessageClass,
        len_flits: u8,
    ) -> Self {
        assert!(len_flits >= 1, "a packet must contain at least one flit");
        Packet {
            id,
            src,
            dest,
            class,
            len_flits,
            created: 0,
            tag: 0,
        }
    }

    /// Sets the creation cycle (builder style).
    pub fn at(mut self, created: Cycle) -> Self {
        self.created = created;
        self
    }

    /// Sets the opaque client tag (builder style).
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// The kind of the flit at position `seq` within this packet.
    ///
    /// # Panics
    ///
    /// Panics if `seq >= len_flits`.
    pub fn flit_kind(&self, seq: u8) -> FlitKind {
        assert!(seq < self.len_flits, "flit seq out of range");
        if self.len_flits == 1 {
            FlitKind::Single
        } else if seq == 0 {
            FlitKind::Head
        } else if seq == self.len_flits - 1 {
            FlitKind::Tail
        } else {
            FlitKind::Body
        }
    }

    /// Materialises flit `seq` of this packet.
    ///
    /// # Panics
    ///
    /// Panics if `seq >= len_flits`.
    pub fn flit(&self, seq: u8) -> Flit {
        Flit {
            packet: self.id,
            kind: self.flit_kind(seq),
            seq,
            src: self.src,
            dest: self.dest,
            class: self.class,
            len_flits: self.len_flits,
            created: self.created,
            injected: 0,
        }
    }

    /// Iterator over all flits of the packet in order.
    pub fn flits(&self) -> impl Iterator<Item = Flit> + '_ {
        (0..self.len_flits).map(move |s| self.flit(s))
    }
}

/// A single flit in flight or in a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Packet this flit belongs to.
    pub packet: PacketId,
    /// Head/body/tail/single marker.
    pub kind: FlitKind,
    /// Position of this flit within the packet (0-based).
    pub seq: u8,
    /// Source node of the packet.
    pub src: NodeId,
    /// Destination node of the packet.
    pub dest: NodeId,
    /// Message class of the packet.
    pub class: MessageClass,
    /// Total packet length in flits.
    pub len_flits: u8,
    /// Cycle the packet was handed to the source network interface.
    pub created: Cycle,
    /// Cycle the head flit entered the source router (set by the NI).
    pub injected: Cycle,
}

impl Flit {
    /// Whether this flit performs head duties.
    pub const fn is_head(&self) -> bool {
        self.kind.is_head()
    }

    /// Whether this flit performs tail duties.
    pub const fn is_tail(&self) -> bool {
        self.kind.is_tail()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(len: u8) -> Packet {
        Packet::new(
            PacketId(42),
            NodeId::new(1),
            NodeId::new(2),
            MessageClass::Response,
            len,
        )
    }

    #[test]
    fn single_flit_packet_is_head_and_tail() {
        let p = packet(1);
        let f = p.flit(0);
        assert_eq!(f.kind, FlitKind::Single);
        assert!(f.is_head() && f.is_tail());
    }

    #[test]
    fn multi_flit_kinds() {
        let p = packet(5);
        let kinds: Vec<_> = p.flits().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FlitKind::Head,
                FlitKind::Body,
                FlitKind::Body,
                FlitKind::Body,
                FlitKind::Tail
            ]
        );
    }

    #[test]
    fn flit_sequence_numbers_are_contiguous() {
        let p = packet(4);
        let seqs: Vec<_> = p.flits().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_packet_rejected() {
        let _ = packet(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_flit_rejected() {
        let p = packet(2);
        let _ = p.flit(2);
    }

    #[test]
    fn builder_setters() {
        let p = packet(1).at(99).with_tag(7);
        assert_eq!(p.created, 99);
        assert_eq!(p.tag, 7);
        assert_eq!(p.flit(0).created, 99);
    }
}
