//! The observability event taxonomy.
//!
//! Events use plain integers (`u64` node/packet ids, `u8` small fields)
//! rather than the simulator's own newtypes so that `niobs` sits *below*
//! `noc`/`pra` in the dependency graph and the instrumented crates can
//! depend on it optionally. Producers widen their indices at the hook
//! site; nothing here ever narrows.

/// Simulation time, in cycles (mirrors `noc::Cycle` without the dep).
pub type Cycle = u64;

/// One simulator event, stamped with a cycle by the recording sink.
///
/// The taxonomy covers the three instrumented layers:
///
/// * **data network** (`noc::MeshNetwork`): packet lifecycle, router
///   pipeline stages (switch grant, link/switch traversal), VC
///   allocation, credit return, PRA reservation usage, and faults;
/// * **control network** (`pra::ControlNetwork`): control-packet
///   inject/segment/drop, LSD firing, and ACKs (including the 2-hop
///   bypass conversion);
/// * **system model** (`sysmodel::System`): LLC-window announcements
///   that seed the control network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A packet's head flit entered the network at `src`.
    PacketInjected {
        /// Packet id (the data network's `PacketId`).
        packet: u64,
        /// Source node index.
        src: u64,
        /// Destination node index.
        dest: u64,
        /// Message class index (0 = request, 1 = coherence, 2 = response).
        class: u8,
        /// Packet length in flits.
        len: u8,
    },
    /// A packet's tail flit left the network at its destination NI.
    PacketEjected {
        /// Packet id.
        packet: u64,
        /// Ejecting node index.
        node: u64,
    },
    /// A packet was purged in flight (fault drop); never delivered.
    PacketDropped {
        /// Packet id.
        packet: u64,
        /// Flits the packet occupied when purged.
        flits: u8,
    },
    /// Source-side injection was refused (faulted or unroutable source).
    InjectionRefused {
        /// Node index whose injection was refused.
        node: u64,
    },
    /// The reliability layer launched a retransmission copy of a
    /// packet whose previous flight was lost or timed out.
    PacketRetransmitted {
        /// Original packet id.
        packet: u64,
        /// Packet id minted for the retransmission copy.
        copy: u64,
        /// Source node relaunching the packet.
        node: u64,
        /// Retransmission attempt number (1 = first retry).
        attempt: u8,
    },
    /// A duplicate arrival was suppressed at the destination NI (the
    /// packet had already been committed by an earlier copy).
    DuplicateSuppressed {
        /// Original packet id the duplicate resolved to.
        packet: u64,
        /// Suppressing node index.
        node: u64,
    },
    /// The reliability layer exhausted a packet's retry budget and
    /// escalated the loss to a permanent-fault reclassification.
    FaultEscalated {
        /// Original packet id given up on.
        packet: u64,
        /// Source node of the escalated packet.
        node: u64,
    },
    /// Switch allocation granted a flit passage through a router.
    SwitchGrant {
        /// Packet id.
        packet: u64,
        /// Flit sequence number within the packet (0 = head).
        seq: u8,
        /// Router node index.
        node: u64,
        /// Output port index (port-index order 0-3 = N/S/E/W, 4 = local).
        out_port: u8,
    },
    /// A flit traversed an inter-router link.
    LinkTraverse {
        /// Packet id.
        packet: u64,
        /// Flit sequence number within the packet (0 = head).
        seq: u8,
        /// Node the flit departed from.
        node: u64,
        /// Output port index it left through.
        out_port: u8,
        /// True when the hop used a pre-installed PRA reservation
        /// (no per-hop allocation was performed).
        reserved: bool,
    },
    /// A downstream virtual channel was allocated to a packet.
    VcAllocated {
        /// Packet id.
        packet: u64,
        /// Node performing the allocation.
        node: u64,
        /// Output port index.
        out_port: u8,
        /// Virtual-channel index within the port.
        vc: u8,
    },
    /// A credit returned upstream, freeing one buffer slot.
    CreditReturn {
        /// Node receiving the credit.
        node: u64,
        /// Port the credit arrived on.
        port: u8,
        /// Virtual-channel index the credit replenishes.
        vc: u8,
    },
    /// A PRA hop reservation was installed in a router's table.
    ReservationInstalled {
        /// Packet id the reservation is for.
        packet: u64,
        /// Router node index.
        node: u64,
        /// Reserved output port index.
        out_port: u8,
        /// First cycle of the reserved window.
        start: Cycle,
        /// Window length in cycles.
        len: u8,
    },
    /// An installed reservation was cancelled or expired unused.
    ReservationWasted {
        /// Packet id the reservation was for.
        packet: u64,
        /// Router node index.
        node: u64,
    },
    /// A fault-plan event was applied to the fabric.
    FaultApplied {
        /// Node index nearest the fault (router, or link endpoint).
        node: u64,
        /// Static fault-kind label (e.g. `"transient_link"`).
        kind: &'static str,
    },
    /// A control packet entered the PRA control network.
    ControlInjected {
        /// Data-packet id the control packet pre-allocates for (control
        /// events carry the data id so a packet's control and data
        /// timelines correlate directly).
        packet: u64,
        /// First node of the control route.
        src: u64,
        /// Origin label: `"llc"` or `"lsd"`.
        origin: &'static str,
        /// Remaining lag budget at injection.
        lag: u8,
    },
    /// A control packet advanced one multi-drop segment.
    ControlSegment {
        /// Data-packet id the control packet pre-allocates for.
        packet: u64,
        /// Node at the segment head.
        node: u64,
        /// Hop position along the route before the segment.
        pos: u8,
        /// Remaining lag budget.
        lag: u8,
    },
    /// A control packet left the control network.
    ControlDropped {
        /// Data-packet id the control packet pre-allocated for.
        packet: u64,
        /// Static reason label (mirrors `pra::DropReason`).
        reason: &'static str,
        /// Remaining lag budget at the drop.
        lag: u8,
    },
    /// A router ACKed a control packet, upgrading the previous hop's
    /// conservative buffer landing.
    Ack {
        /// Data-packet id the control packet pre-allocates for.
        packet: u64,
        /// Node whose landing was upgraded.
        node: u64,
        /// True when the upgrade was to the 2-hop bypass path
        /// (false = latch parking).
        to_bypass: bool,
    },
    /// A Long-Stall-Detection unit fired a late announcement.
    LsdFire {
        /// Stalled packet id (data-network namespace).
        packet: u64,
        /// Node where the stall was detected.
        node: u64,
        /// Predicted release cycle the announcement targets.
        release: Cycle,
    },
    /// The LLC opened an announce window for an upcoming packet.
    LlcWindow {
        /// Data packet id the window anticipates.
        packet: u64,
        /// Source node index.
        src: u64,
        /// Destination node index.
        dest: u64,
        /// Lead time (cycles of advance notice).
        lead: u64,
        /// Window kind label: `"tag_hit"` (serial tag lookup resolved a
        /// hit), `"fill"` (DRAM access latency known), `"fill_response"`
        /// (line just filled, response follows the data lookup), or
        /// `"request"` (L1-miss assembly window).
        kind: &'static str,
    },
}

impl Event {
    /// Stable snake_case name of the event kind (metrics keys, trace
    /// categories).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Event::PacketInjected { .. } => "packet_injected",
            Event::PacketEjected { .. } => "packet_ejected",
            Event::PacketDropped { .. } => "packet_dropped",
            Event::InjectionRefused { .. } => "injection_refused",
            Event::PacketRetransmitted { .. } => "packet_retransmitted",
            Event::DuplicateSuppressed { .. } => "duplicate_suppressed",
            Event::FaultEscalated { .. } => "fault_escalated",
            Event::SwitchGrant { .. } => "switch_grant",
            Event::LinkTraverse { .. } => "link_traverse",
            Event::VcAllocated { .. } => "vc_allocated",
            Event::CreditReturn { .. } => "credit_return",
            Event::ReservationInstalled { .. } => "reservation_installed",
            Event::ReservationWasted { .. } => "reservation_wasted",
            Event::FaultApplied { .. } => "fault_applied",
            Event::ControlInjected { .. } => "control_injected",
            Event::ControlSegment { .. } => "control_segment",
            Event::ControlDropped { .. } => "control_dropped",
            Event::Ack { .. } => "ack",
            Event::LsdFire { .. } => "lsd_fire",
            Event::LlcWindow { .. } => "llc_window",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let a = Event::PacketInjected {
            packet: 1,
            src: 0,
            dest: 5,
            class: 2,
            len: 5,
        };
        let b = Event::CreditReturn {
            node: 3,
            port: 1,
            vc: 2,
        };
        assert_eq!(a.name(), "packet_injected");
        assert_eq!(b.name(), "credit_return");
    }

    #[test]
    fn reliability_events_have_names() {
        let r = Event::PacketRetransmitted {
            packet: 4,
            copy: 1 << 63,
            node: 0,
            attempt: 1,
        };
        let s = Event::DuplicateSuppressed { packet: 4, node: 9 };
        let e = Event::FaultEscalated { packet: 4, node: 0 };
        assert_eq!(r.name(), "packet_retransmitted");
        assert_eq!(s.name(), "duplicate_suppressed");
        assert_eq!(e.name(), "fault_escalated");
    }
}
