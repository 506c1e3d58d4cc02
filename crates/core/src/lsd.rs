//! Long Stall Detection (LSD).
//!
//! The second PRA opportunity window: when a packet is stalled in a router
//! because its output port is busy forwarding a multi-flit packet, and the
//! downstream router has enough buffers for that whole in-transfer packet,
//! the end of the blocking transmission is exactly determined — so the LSD
//! unit injects a control packet that pre-allocates resources for the
//! stalled packet starting at the port-release cycle.

use noc::network::Network as _;
use noc::reserve::ReservingCore;
use noc::types::Cycle;

use crate::control::ControlNetwork;

/// Scans every router for deterministically resolvable stalls and injects
/// control packets for them (at most one per router per cycle — each
/// router has a single LSD unit). Call once per cycle before
/// [`ControlNetwork::process`].
// hot
pub fn scan_and_launch(mesh: &mut ReservingCore, ctrl: &mut ControlNetwork) {
    if !ctrl.control_config().lsd {
        return;
    }
    let max_lag = ctrl.control_config().max_lag as Cycle;
    let t = mesh.now() + 1;
    // Only stalls whose port frees within the lag budget can be
    // pre-allocated in time.
    let mut stalled = ctrl.take_stalled();
    mesh.stalled_heads_into(t + max_lag, &mut stalled);
    // Stalls arrive grouped by router, so the router of the last launch
    // is the only one that can already have fired this cycle.
    let mut launched_at = None;
    for s in &stalled {
        let release = s.release;
        debug_assert!(release > t, "a blocked port frees after the coming cycle");
        if launched_at == Some(s.node) {
            continue; // one LSD injection per router per cycle
        }
        if mesh.has_reservations(s.flit.packet) || ctrl.has_packet_for(s.flit.packet) {
            continue; // pre-allocation already under way
        }
        // Let the allocator reserve slots past the draining stream.
        for v in 0..mesh.config().vcs_per_port {
            mesh.mark_free_after(s.node, s.out_port, v, release);
        }
        ctrl.obs().emit(t, || niobs::Event::LsdFire {
            packet: s.flit.packet.0,
            node: s.node.index() as u64,
            release,
        });
        ctrl.launch_lsd(mesh, s, t);
        launched_at = Some(s.node);
    }
    ctrl.return_stalled(stalled);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ControlConfig;
    use crate::network::ControlPlane as _;
    use noc::config::NocConfig;
    use noc::flit::Packet;
    use noc::network::Network;
    use noc::types::{MessageClass, NodeId, PacketId};

    #[test]
    fn lsd_launches_for_a_deterministic_stall() {
        let cfg = NocConfig::paper();
        let mut mesh = ReservingCore::new(cfg.clone());
        let mut ctrl = ControlNetwork::new(cfg, ControlConfig::default());
        // Long response 0 -> 7; later a request at node 1 wants the same
        // east port and stalls behind the response's port lock.
        mesh.inject(Packet::new(
            PacketId(1),
            NodeId::new(0),
            NodeId::new(7),
            MessageClass::Response,
            5,
        ));
        for _ in 0..3 {
            mesh.step();
        }
        mesh.inject(Packet::new(
            PacketId(2),
            NodeId::new(1),
            NodeId::new(5),
            MessageClass::Request,
            1,
        ));
        let mut launched = false;
        for _ in 0..30 {
            scan_and_launch(&mut mesh, &mut ctrl);
            if ctrl.stats().injected_lsd > 0 {
                launched = true;
            }
            ctrl.process(&mut mesh);
            mesh.step();
        }
        assert!(launched, "LSD must fire for the blocked request");
        // Both packets are eventually delivered.
        let mut d = mesh.drain_delivered();
        d.extend(mesh.run_to_drain(1_000));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn lsd_respects_disable_switch() {
        let cfg = NocConfig::paper();
        let mut mesh = ReservingCore::new(cfg.clone());
        let mut ctrl = ControlNetwork::new(
            cfg,
            ControlConfig {
                lsd: false,
                ..ControlConfig::default()
            },
        );
        mesh.inject(Packet::new(
            PacketId(1),
            NodeId::new(0),
            NodeId::new(7),
            MessageClass::Response,
            5,
        ));
        for _ in 0..3 {
            mesh.step();
        }
        mesh.inject(Packet::new(
            PacketId(2),
            NodeId::new(1),
            NodeId::new(5),
            MessageClass::Request,
            1,
        ));
        for _ in 0..30 {
            scan_and_launch(&mut mesh, &mut ctrl);
            ctrl.process(&mut mesh);
            mesh.step();
        }
        assert_eq!(ctrl.stats().injected_lsd, 0);
    }
}
