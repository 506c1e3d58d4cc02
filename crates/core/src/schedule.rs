//! Pure model of the control network's multi-drop segment schedule.
//!
//! Everything here is a side-effect-free function of a route and the
//! network configuration. The runtime control plane ([`crate::control`])
//! executes exactly this schedule (it calls these functions), and the
//! static analyzer (`crates/analyzer`) verifies it — same artifact, two
//! consumers, so the verified model cannot drift from the implementation.
//!
//! A control packet is processed at one **multi-drop segment** (up to two
//! routers reachable straight from the previous transmitter) every two
//! cycles: one cycle of processing, one of transmission. Each processed
//! router needs a control-network input latch for that cycle — the
//! [`ClaimKey`]s — and at most one control packet may hold a given latch
//! per cycle, resolved by static priority ([`priority_rank`]).

use noc::config::NocConfig;
use noc::routing::{neighbor, Route};
use noc::types::{Cycle, NodeId};

use crate::stats::ControlOrigin;

/// Claim key for the control network's per-cycle latch conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ClaimKey {
    /// A multi-drop latch: `(router, inbound travel direction index)`.
    MultiDrop(u16, usize),
    /// The NI injection latch of a router.
    Ni(u16),
    /// The LSD latch of a router.
    Lsd(u16),
}

/// Splits route positions into single-cycle data chunks: up to
/// `hpc` consecutive same-direction hops per chunk.
///
/// # Examples
///
/// ```
/// use noc::config::NocConfig;
/// use noc::routing::Route;
/// use noc::types::NodeId;
/// use pra::schedule::chunk_positions;
///
/// let cfg = NocConfig::paper();
/// let r = Route::compute(&cfg, NodeId::new(0), NodeId::new(6)); // six east hops
/// assert_eq!(chunk_positions(&r, 2), vec![0, 0, 1, 1, 2, 2]);
/// ```
pub fn chunk_positions(route: &Route, hpc: u8) -> Vec<usize> {
    let mut chunk_of = Vec::with_capacity(route.hops());
    chunk_positions_into(route, hpc, &mut chunk_of);
    chunk_of
}

/// [`chunk_positions`] written into `chunk_of` (cleared first), reusing
/// its capacity.
pub fn chunk_positions_into(route: &Route, hpc: u8, chunk_of: &mut Vec<usize>) {
    let dirs = route.dirs();
    chunk_of.clear();
    let mut chunk = 0usize;
    let mut in_chunk = 0u8;
    for (i, d) in dirs.iter().enumerate() {
        if i > 0 && (in_chunk >= hpc || *d != dirs[i - 1]) {
            chunk += 1;
            in_chunk = 0;
        }
        chunk_of.push(chunk);
        in_chunk += 1;
    }
}

/// The route positions a segment processes when the packet's next
/// unallocated position is `pos`: the source router alone on the first
/// step; afterwards up to two routers reachable straight from the
/// previous segment's transmitter.
pub fn segment_positions(route: &Route, pos: usize) -> (usize, Option<usize>) {
    if pos == 0 {
        return (0, None);
    }
    let h = route.hops();
    let b = pos + 1;
    if b < h && route.dir_at(pos) == route.dir_at(pos - 1) {
        (pos, Some(b))
    } else {
        (pos, None)
    }
}

/// The router at every route position, source first: `nodes[k]` is
/// `route.node_at(cfg, k)`, computed in one walk instead of one per
/// position.
pub fn route_nodes(cfg: &NocConfig, route: &Route) -> Vec<NodeId> {
    let mut nodes = Vec::with_capacity(route.hops() + 1);
    route_nodes_into(cfg, route, &mut nodes);
    nodes
}

/// [`route_nodes`] written into `nodes` (cleared first), reusing its
/// capacity.
pub fn route_nodes_into(cfg: &NocConfig, route: &Route, nodes: &mut Vec<NodeId>) {
    nodes.clear();
    let mut here = route.src();
    nodes.push(here);
    for &dir in route.dirs() {
        here = neighbor(cfg, here, dir).expect("route stays on the mesh");
        nodes.push(here);
    }
}

/// The control-latch claims of one segment: one per processed router,
/// so at most two, held inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentClaims {
    keys: [ClaimKey; 2],
    len: usize,
}

impl std::ops::Deref for SegmentClaims {
    type Target = [ClaimKey];

    fn deref(&self) -> &[ClaimKey] {
        &self.keys[..self.len]
    }
}

/// The control-latch claims the segment at `pos` needs, or `None` when
/// the route is malformed (a non-source position with no inbound
/// direction). `nodes` is the route's [`route_nodes`].
pub fn claim_keys(
    route: &Route,
    nodes: &[NodeId],
    origin: ControlOrigin,
    pos: usize,
) -> Option<SegmentClaims> {
    let (a, b) = segment_positions(route, pos);
    let node_a = nodes[a].index() as u16;
    let first = if a == 0 {
        match origin {
            ControlOrigin::Llc => ClaimKey::Ni(node_a),
            ControlOrigin::Lsd => ClaimKey::Lsd(node_a),
        }
    } else {
        ClaimKey::MultiDrop(node_a, route.dir_at(a - 1)? as usize)
    };
    let mut claims = SegmentClaims {
        keys: [first; 2],
        len: 1,
    };
    if let Some(b) = b {
        let dir_in = route.dir_at(b - 1)?;
        claims.keys[1] = ClaimKey::MultiDrop(nodes[b].index() as u16, dir_in as usize);
        claims.len = 2;
    }
    Some(claims)
}

/// The static priority rank of a control packet contending for a latch:
/// continuing segments first (they sit in the closest multi-drop
/// latches), then fresh LLC injections (NI latch), then LSD injections
/// (lowest priority). Lower rank wins; ties break on the unique packet
/// id, so arbitration is a strict total order and every conflict has
/// exactly one deterministic winner.
pub const fn priority_rank(continuing: bool, origin: ControlOrigin) -> u8 {
    match (continuing, origin) {
        (true, _) => 0,
        (false, ControlOrigin::Llc) => 1,
        (false, ControlOrigin::Lsd) => 2,
    }
}

/// One processing step of a control packet's walk along its route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentStep {
    /// Step index (0 = the source-router step).
    pub step: usize,
    /// Cycles after the first processing cycle this step runs
    /// (steps are two cycles apart).
    pub process_offset: Cycle,
    /// Route positions allocated by this step.
    pub positions: (usize, Option<usize>),
    /// Control-network latches this step must claim.
    pub claims: Vec<ClaimKey>,
}

/// The maximal segment walk of a control packet over `route`: the
/// schedule it follows if no drop (allocation failure, conflict, lag
/// exhaustion) ends it early. Runtime drops only ever truncate this
/// walk, so any conflict-freedom property proved over the full walk
/// holds for every prefix the runtime can execute.
pub fn segment_schedule(cfg: &NocConfig, route: &Route, origin: ControlOrigin) -> Vec<SegmentStep> {
    let h = route.hops();
    let nodes = route_nodes(cfg, route);
    let mut steps = Vec::new();
    let mut pos = 0usize;
    let mut step = 0usize;
    while pos < h {
        let positions = segment_positions(route, pos);
        let claims = claim_keys(route, &nodes, origin, pos).map_or_else(Vec::new, |c| c.to_vec());
        steps.push(SegmentStep {
            step,
            process_offset: 2 * step as Cycle,
            positions,
            claims,
        });
        pos = positions.1.unwrap_or(positions.0) + 1;
        step += 1;
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc::types::NodeId;

    fn route(src: u16, dest: u16) -> Route {
        Route::compute(&NocConfig::paper(), NodeId::new(src), NodeId::new(dest))
    }

    #[test]
    fn route_nodes_walk_matches_node_at() {
        let cfg = NocConfig::paper();
        for (src, dest) in [(0u16, 63u16), (27, 0), (9, 9), (40, 17)] {
            let r = route(src, dest);
            let nodes = route_nodes(&cfg, &r);
            assert_eq!(nodes.len(), r.hops() + 1);
            for (k, node) in nodes.iter().enumerate() {
                assert_eq!(*node, r.node_at(&cfg, k), "{src}->{dest} position {k}");
            }
        }
    }

    #[test]
    fn source_step_claims_injection_latch() {
        let cfg = NocConfig::paper();
        let r = route(0, 5);
        let nodes = route_nodes(&cfg, &r);
        let llc = claim_keys(&r, &nodes, ControlOrigin::Llc, 0).expect("valid source claims");
        assert_eq!(*llc, [ClaimKey::Ni(0)]);
        let lsd = claim_keys(&r, &nodes, ControlOrigin::Lsd, 0).expect("valid source claims");
        assert_eq!(*lsd, [ClaimKey::Lsd(0)]);
    }

    #[test]
    fn straight_route_forms_two_router_segments() {
        let cfg = NocConfig::paper();
        let r = route(0, 6); // six east hops
        let steps = segment_schedule(&cfg, &r, ControlOrigin::Llc);
        // Step 0: source alone; steps 1..: two routers each while straight.
        assert_eq!(steps[0].positions, (0, None));
        assert_eq!(steps[1].positions, (1, Some(2)));
        assert_eq!(steps[2].positions, (3, Some(4)));
        assert_eq!(steps[3].positions, (5, None));
        assert_eq!(steps.len(), 4);
        for (i, s) in steps.iter().enumerate() {
            assert_eq!(s.process_offset, 2 * i as u64);
        }
    }

    #[test]
    fn turns_break_multi_drop_pairs() {
        let cfg = NocConfig::paper();
        let r = route(0, 17); // E, S, S
        let steps = segment_schedule(&cfg, &r, ControlOrigin::Llc);
        assert_eq!(steps[0].positions, (0, None));
        // Position 1 turns relative to position 0, so it is processed
        // alone; position 2 continues straight and could pair, but only
        // from position 2's own step.
        assert_eq!(steps[1].positions, (1, None));
        assert_eq!(steps[2].positions, (2, None));
    }

    #[test]
    fn priority_is_a_strict_total_order_per_packet_class() {
        let ranks = [
            priority_rank(true, ControlOrigin::Llc),
            priority_rank(true, ControlOrigin::Lsd),
            priority_rank(false, ControlOrigin::Llc),
            priority_rank(false, ControlOrigin::Lsd),
        ];
        assert_eq!(ranks[0], ranks[1], "all continuing packets rank equal");
        assert!(ranks[0] < ranks[2], "continuing beats fresh LLC");
        assert!(ranks[2] < ranks[3], "fresh LLC beats fresh LSD");
    }
}
