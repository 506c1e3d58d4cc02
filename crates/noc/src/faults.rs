//! Deterministic, seed-driven fault injection for the mesh datapath.
//!
//! A [`FaultPlan`] describes everything that will go wrong during a run:
//! a background rate of *transient* link faults (each corrupts one link
//! for exactly one cycle) plus a schedule of discrete [`FaultEvent`]s —
//! permanent link failures, router hard-faults, credit losses on the
//! reverse channel, and forced control-network drops. The plan is part of
//! [`NocConfig`](crate::config::NocConfig), so two networks built from
//! equal configurations observe byte-identical fault sequences.
//!
//! The runtime state lives in [`FaultState`], owned by the mesh. Faults
//! are prepared **one cycle ahead**: at the start of the step executing
//! cycle *c* the mesh learns the transient faults of cycle *c + 1*, so
//! switch allocation (which targets *c + 1*) never grants a traversal
//! onto a link that will be faulted when the flit would cross it. All
//! fault semantics are therefore *pre-transmission*: a faulted link
//! refuses new traffic for the cycle rather than eating a flit mid-wire,
//! and data is only ever lost when a router dies or a permanent cut
//! strands a wormhole — in which case the mesh purges the affected
//! packets and accounts for every flit in [`FaultStats`].
//!
//! When permanent faults degrade the topology, routing switches from XY
//! to per-destination next-hop tables computed over the surviving links
//! under the **west-first turn model** (Glass & Ni): a packet may only
//! hop west while *every* hop it has taken so far went west, which
//! forbids the N→W and S→W turns and keeps the channel-dependency graph
//! acyclic — detours stay deadlock-free, not just observed-deadlock-free.
//! XY routes are themselves west-first, so packets already in flight when
//! a fault lands remain legal, and on a fault-free mesh the tables
//! reproduce XY exactly (the tie-break prefers X-dimension moves). The
//! price is reachability: all west travel must happen inside the source
//! row, so a dead router additionally orphans the few pairs whose
//! mandatory west prefix it blocks; those are refused at injection or
//! purged as counted losses, exactly like a dead destination. The runtime
//! watchdog ([`crate::watchdog`]) independently checks the result —
//! conservation, credit balance, progress — rather than trusting the
//! proof.

use nistats::rng::Rng;

use crate::config::NocConfig;
use crate::routing::neighbor;
use crate::types::{Cycle, Direction, NodeId, Port};

/// One scheduled fault. `at` is the first cycle the fault is in effect;
/// events scheduled for a cycle that already passed are applied as soon
/// as possible (deterministically, at the next step boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The link leaving `node` toward `dir` is unusable for exactly the
    /// cycle `at` (both directions of the physical channel).
    TransientLink {
        /// First (and only) faulted cycle.
        at: Cycle,
        /// Router on one end of the link.
        node: NodeId,
        /// Direction of the link from `node`.
        dir: Direction,
    },
    /// The link leaving `node` toward `dir` fails permanently at `at`.
    PermanentLink {
        /// First faulted cycle.
        at: Cycle,
        /// Router on one end of the link.
        node: NodeId,
        /// Direction of the link from `node`.
        dir: Direction,
    },
    /// Router `node` hard-fails at `at`: its buffers, latches and local
    /// NI are gone; all four adjacent links die with it.
    RouterDown {
        /// First faulted cycle.
        at: Cycle,
        /// The dying router.
        node: NodeId,
    },
    /// One credit travelling upstream to `(node, dir, vc)` is lost at
    /// `at` (if none is in flight that cycle, the event fizzles).
    CreditLoss {
        /// Cycle of the loss.
        at: Cycle,
        /// Router whose output-port credit counter loses the credit.
        node: NodeId,
        /// Output direction of the affected port.
        dir: Direction,
        /// Affected virtual channel.
        vc: u8,
    },
    /// The control network at `node` corrupts every control packet it
    /// processes around cycle `at` (forced drop — PRA treats corruption
    /// as a drop, so data falls back to the baseline mesh).
    ControlDrop {
        /// Cycle of the corruption.
        at: Cycle,
        /// Affected control router.
        node: NodeId,
    },
}

impl FaultEvent {
    /// The cycle the event takes effect.
    pub fn at(&self) -> Cycle {
        match *self {
            FaultEvent::TransientLink { at, .. }
            | FaultEvent::PermanentLink { at, .. }
            | FaultEvent::RouterDown { at, .. }
            | FaultEvent::CreditLoss { at, .. }
            | FaultEvent::ControlDrop { at, .. } => at,
        }
    }
}

/// A complete, deterministic fault schedule for one simulation.
///
/// # Examples
///
/// ```
/// use noc::faults::{FaultEvent, FaultPlan};
/// use noc::types::{Direction, NodeId};
///
/// let plan = FaultPlan::new(42)
///     .transient_rate_ppb(100_000) // 1e-4 faults per link per cycle
///     .with_event(FaultEvent::RouterDown { at: 500, node: NodeId::new(27) });
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the PRNG drawing background transient faults.
    pub seed: u64,
    /// Per-directed-link, per-cycle probability of a transient fault, in
    /// parts per billion (`100_000` ≈ 1e-4 per cycle).
    pub transient_link_ppb: u32,
    /// Scheduled discrete faults.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_link_ppb: 0,
            events: Vec::new(),
        }
    }

    /// Sets the background transient-link fault rate (builder style).
    pub fn transient_rate_ppb(mut self, ppb: u32) -> Self {
        self.transient_link_ppb = ppb;
        self
    }

    /// Appends a scheduled event (builder style).
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }
}

/// Counters describing everything the fault subsystem did and destroyed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Directed link-cycles corrupted by transient faults (drawn or
    /// scheduled).
    pub transient_link_faults: u64,
    /// Permanent link failures applied.
    pub permanent_link_faults: u64,
    /// Router hard-faults applied.
    pub router_faults: u64,
    /// Credits destroyed on the reverse channel.
    pub credits_lost: u64,
    /// Control packets dropped because of faults (corruption, dead
    /// control routers, or unroutable segments).
    pub control_drops: u64,
    /// Packets purged because a fault made them undeliverable.
    pub lost_packets: u64,
    /// Flits belonging to purged packets.
    pub lost_flits: u64,
    /// Injections refused because an endpoint was dead or unreachable.
    pub injections_refused: u64,
    /// Allocation cycles in which a flit was ready but its link was
    /// faulted (the latency cost of graceful degradation).
    pub blocked_by_fault_cycles: u64,
    /// Pre-allocated chains cancelled because a link on the chain was
    /// faulted at execution time (the PRA degradation path).
    pub faulted_chain_cancels: u64,
}

/// Encoded next-hop entry: `0..4` = [`Direction`] port index order
/// (N, S, E, W), [`HOP_LOCAL`] = at destination, [`HOP_NONE`] =
/// unreachable.
const HOP_LOCAL: u8 = 4;
const HOP_NONE: u8 = u8::MAX;

/// Marks both directions of the physical channel `node → dir` dead in a
/// `nodes * 4` directed-link mask.
fn mark_channel_dead(dead_link: &mut [bool], cfg: &NocConfig, node: NodeId, dir: Direction) {
    dead_link[node.index() * 4 + dir as usize] = true;
    if let Some(nb) = neighbor(cfg, node, dir) {
        dead_link[nb.index() * 4 + dir.opposite() as usize] = true;
    }
}

/// The permanent topology damage a [`FaultPlan`] will eventually inflict,
/// ignoring fault times: directed-link and router death masks with every
/// [`FaultEvent::PermanentLink`] and [`FaultEvent::RouterDown`] applied.
///
/// This is the worst-case surviving topology, which is what static
/// analysis must verify routes over: the runtime applies the same events
/// incrementally, so any intermediate topology is a superset of this one
/// and its detour tables are checked by the same sweep (one plan per
/// single fault).
pub fn permanent_damage(cfg: &NocConfig, plan: &FaultPlan) -> (Vec<bool>, Vec<bool>) {
    let nodes = cfg.nodes();
    let mut dead_link = vec![false; nodes * 4];
    let mut dead_router = vec![false; nodes];
    for e in &plan.events {
        match *e {
            FaultEvent::PermanentLink { node, dir, .. } => {
                mark_channel_dead(&mut dead_link, cfg, node, dir);
            }
            FaultEvent::RouterDown { node, .. } => {
                dead_router[node.index()] = true;
            }
            FaultEvent::TransientLink { .. }
            | FaultEvent::CreditLoss { .. }
            | FaultEvent::ControlDrop { .. } => {}
        }
    }
    (dead_link, dead_router)
}

/// West-first detour routing tables over a damaged mesh topology.
///
/// This is the exact table the mesh switches to when permanent faults
/// degrade the topology, exposed as a pure value so the static analyzer
/// (`crates/analyzer`) can rebuild the tables for any fault plan and
/// prove the resulting channel-dependency graph acyclic *before* any
/// simulation runs. Routes obey the **west-first turn model** (Glass &
/// Ni): a packet may only hop west while every hop it has taken so far
/// went west, which forbids the N→W and S→W turns. Preference order
/// E, W, S, N reproduces XY routing whenever the minimal XY path
/// survives.
///
/// # Examples
///
/// ```
/// use noc::config::NocConfig;
/// use noc::faults::DetourTables;
/// use noc::types::{NodeId, Port};
///
/// let cfg = NocConfig::paper();
/// let nodes = cfg.nodes();
/// let tables = DetourTables::build(&cfg, &vec![false; nodes * 4], &vec![false; nodes]);
/// // Fault-free tables reproduce XY routing.
/// assert_eq!(
///     tables.next_hop(NodeId::new(0), NodeId::new(1), true),
///     Some(Port::Dir(noc::types::Direction::East))
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetourTables {
    nodes: usize,
    /// Per-destination next-hop over the surviving topology, indexed
    /// `(dest * nodes + here) * 2 + west_ok`.
    table: Vec<u8>,
}

impl DetourTables {
    /// Builds the tables over the surviving topology described by the
    /// `nodes * 4` directed-link death mask and the per-router death
    /// mask. Destinations with no legal west-first path from a state get
    /// "unreachable" — the turn restriction may orphan a pair even on a
    /// connected topology, which callers treat exactly like a dead
    /// destination (refuse or purge); that trades reachability for
    /// provable deadlock freedom.
    ///
    /// # Panics
    ///
    /// Panics if the masks do not match the configuration's node count.
    pub fn build(cfg: &NocConfig, dead_link: &[bool], dead_router: &[bool]) -> Self {
        const PREF: [Direction; 4] = [
            Direction::East,
            Direction::West,
            Direction::South,
            Direction::North,
        ];
        let n = cfg.nodes();
        assert_eq!(dead_link.len(), n * 4, "directed-link mask size mismatch");
        assert_eq!(dead_router.len(), n, "router mask size mismatch");
        let mut table = vec![HOP_NONE; n * n * 2];
        // dist over states: `node * 2 + west_ok`.
        let mut dist = vec![u32::MAX; n * 2];
        let mut queue = std::collections::VecDeque::new();
        for dest in 0..n {
            let base = dest * n;
            if dead_router[dest] {
                continue;
            }
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            dist[dest * 2] = 0;
            dist[dest * 2 + 1] = 0;
            queue.clear();
            queue.push_back(dest * 2);
            queue.push_back(dest * 2 + 1);
            // Backward BFS over the legal-state graph. Arriving at `here`
            // in state `west_ok = 1` is only possible over a west link
            // (from the eastern neighbour, itself `west_ok`); state 0 is
            // reached over any non-west link from either state.
            while let Some(s) = queue.pop_front() {
                let (here, west_ok) = (s / 2, s % 2 == 1);
                for dir in Direction::ALL {
                    let Some(nb) = neighbor(cfg, NodeId::new(here as u16), dir) else {
                        continue;
                    };
                    let nb = nb.index();
                    // The forward hop is `nb -> here` via `dir.opposite()`.
                    let fwd = dir.opposite();
                    if dead_router[nb] || dead_link[nb * 4 + fwd as usize] {
                        continue;
                    }
                    let preds: &[usize] = if fwd == Direction::West {
                        if !west_ok {
                            continue; // a west hop always preserves west_ok
                        }
                        &[1]
                    } else if west_ok {
                        continue; // non-west hops land in state 0 only
                    } else {
                        &[0, 1]
                    };
                    for &p in preds {
                        let ps = nb * 2 + p;
                        if dist[ps] == u32::MAX {
                            dist[ps] = dist[s] + 1;
                            queue.push_back(ps);
                        }
                    }
                }
            }
            for here in 0..n {
                for west_ok in 0..2usize {
                    let idx = (base + here) * 2 + west_ok;
                    if here == dest {
                        table[idx] = HOP_LOCAL;
                        continue;
                    }
                    let d_here = dist[here * 2 + west_ok];
                    if d_here == u32::MAX || dead_router[here] {
                        continue;
                    }
                    for dir in PREF {
                        if dir == Direction::West && west_ok == 0 {
                            continue; // illegal turn into west
                        }
                        let Some(nb) = neighbor(cfg, NodeId::new(here as u16), dir) else {
                            continue;
                        };
                        let nb = nb.index();
                        if dead_link[here * 4 + dir as usize] || dead_router[nb] {
                            continue;
                        }
                        let next_state =
                            nb * 2 + usize::from(west_ok == 1 && dir == Direction::West);
                        if dist[next_state] != u32::MAX && dist[next_state] + 1 == d_here {
                            table[idx] = dir as u8;
                            break;
                        }
                    }
                }
            }
        }
        DetourTables { nodes: n, table }
    }

    /// Builds the tables for the permanent damage of `plan` (see
    /// [`permanent_damage`]).
    pub fn for_plan(cfg: &NocConfig, plan: &FaultPlan) -> Self {
        let (dead_link, dead_router) = permanent_damage(cfg, plan);
        DetourTables::build(cfg, &dead_link, &dead_router)
    }

    /// The output port toward `dest` at `here`, or `None` when no
    /// west-first route exists from this state. `west_ok` is whether
    /// every hop the packet has taken so far was west (true at
    /// injection; downstream it is exactly "the flit entered through the
    /// east port").
    pub fn next_hop(&self, here: NodeId, dest: NodeId, west_ok: bool) -> Option<Port> {
        let idx = (dest.index() * self.nodes + here.index()) * 2 + usize::from(west_ok);
        match self.table[idx] {
            HOP_NONE => None,
            HOP_LOCAL => Some(Port::Local),
            d => Some(Port::Dir(match d {
                0 => Direction::North,
                1 => Direction::South,
                2 => Direction::East,
                _ => Direction::West,
            })),
        }
    }
}

/// Runtime fault state owned by the mesh. Everything here is driven by
/// the plan and the mesh clock; nothing is sampled from ambient state,
/// so runs reproduce exactly.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: Rng,
    nodes: usize,
    vcs: usize,
    /// Permanently dead directed links, `node * 4 + dir`; both directions
    /// of a physical channel are marked together.
    dead_link: Vec<bool>,
    /// Hard-failed routers.
    dead_router: Vec<bool>,
    /// Transient faults in effect for the cycle being executed.
    transient_cur: Vec<bool>,
    /// Transient faults prepared for the next cycle (allocation target).
    transient_next: Vec<bool>,
    /// Scheduled events not yet applied, sorted descending by `at` so
    /// due events pop off the back.
    pending_topology: Vec<FaultEvent>,
    pending_transient: Vec<FaultEvent>,
    pending_credit: Vec<FaultEvent>,
    pending_control: Vec<FaultEvent>,
    /// Credit losses armed for the cycle being executed.
    pub(crate) credit_losses_now: Vec<(usize, Direction, usize)>,
    /// Control corruptions armed around the current cycle.
    control_armed: Vec<(Cycle, usize)>,
    /// Credits destroyed so far per `(node * 4 + dir) * vcs + vc`; the
    /// audit adds these back so the credit-conservation sum still closes.
    lost_credits: Vec<u64>,
    /// West-first next-hop tables over the surviving topology, built
    /// lazily on the first permanent fault (see [`DetourTables`]). XY
    /// routes are a strict subset of west-first, so in-flight packets
    /// remain legal across the XY → degraded transition.
    detour: Option<DetourTables>,
    /// Whether any permanent fault has been applied (switches routing
    /// from XY to the tables).
    degraded: bool,
    pub(crate) stats: FaultStats,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, cfg: &NocConfig) -> Self {
        let nodes = cfg.nodes();
        let mut pending_topology = Vec::new();
        let mut pending_transient = Vec::new();
        let mut pending_credit = Vec::new();
        let mut pending_control = Vec::new();
        for e in &plan.events {
            match e {
                FaultEvent::PermanentLink { .. } | FaultEvent::RouterDown { .. } => {
                    pending_topology.push(*e)
                }
                FaultEvent::TransientLink { .. } => pending_transient.push(*e),
                FaultEvent::CreditLoss { .. } => pending_credit.push(*e),
                FaultEvent::ControlDrop { .. } => pending_control.push(*e),
            }
        }
        for q in [
            &mut pending_topology,
            &mut pending_transient,
            &mut pending_credit,
            &mut pending_control,
        ] {
            q.sort_by_key(|e| std::cmp::Reverse(e.at()));
        }
        let rng = Rng::new(plan.seed);
        let mut state = FaultState {
            rng,
            nodes,
            vcs: cfg.vcs_per_port,
            dead_link: vec![false; nodes * 4],
            dead_router: vec![false; nodes],
            transient_cur: vec![false; nodes * 4],
            transient_next: vec![false; nodes * 4],
            pending_topology,
            pending_transient,
            pending_credit,
            pending_control,
            credit_losses_now: Vec::new(),
            control_armed: Vec::new(),
            lost_credits: vec![0; nodes * 4 * cfg.vcs_per_port],
            detour: None,
            degraded: false,
            stats: FaultStats::default(),
            plan,
        };
        // The first step executes cycle 1; prepare its transients now.
        state.draw_transients(1, cfg);
        state
    }

    /// Advances the fault clock to `now` (the cycle the mesh is about to
    /// execute): rotates the prepared transients in, draws the next
    /// cycle's, arms credit/control events, and returns the topology
    /// events (permanent link / router death) due for application.
    pub(crate) fn begin_cycle(&mut self, now: Cycle, cfg: &NocConfig) -> Vec<FaultEvent> {
        std::mem::swap(&mut self.transient_cur, &mut self.transient_next);
        self.draw_transients(now + 1, cfg);

        self.credit_losses_now.clear();
        while matches!(self.pending_credit.last(), Some(e) if e.at() <= now) {
            if let Some(FaultEvent::CreditLoss { node, dir, vc, .. }) = self.pending_credit.pop() {
                self.credit_losses_now
                    .push((node.index(), dir, vc as usize));
            }
        }

        self.control_armed.retain(|&(c, _)| c + 1 >= now);
        while matches!(self.pending_control.last(), Some(e) if e.at() <= now + 1) {
            if let Some(FaultEvent::ControlDrop { at, node }) = self.pending_control.pop() {
                self.control_armed.push((at.max(now), node.index()));
            }
        }

        let mut due = Vec::new();
        while matches!(self.pending_topology.last(), Some(e) if e.at() <= now + 1) {
            due.push(self.pending_topology.pop().expect("checked non-empty"));
        }
        due
    }

    /// Draws the background transient faults for `cycle` and folds in the
    /// scheduled ones. The PRNG is consulted once per directed link in a
    /// fixed order regardless of topology state, so the stream does not
    /// depend on when permanent faults land.
    fn draw_transients(&mut self, cycle: Cycle, cfg: &NocConfig) {
        self.transient_next.iter_mut().for_each(|b| *b = false);
        if self.plan.transient_link_ppb > 0 {
            let p = self.plan.transient_link_ppb as f64 * 1e-9;
            for node in 0..self.nodes {
                for dir in Direction::ALL {
                    if neighbor(cfg, NodeId::new(node as u16), dir).is_none() {
                        continue;
                    }
                    if self.rng.gen_bool(p) {
                        self.set_transient_next(cfg, node, dir);
                    }
                }
            }
        }
        while matches!(self.pending_transient.last(), Some(e) if e.at() <= cycle) {
            if let Some(FaultEvent::TransientLink { node, dir, .. }) = self.pending_transient.pop()
            {
                if neighbor(cfg, node, dir).is_some() {
                    self.set_transient_next(cfg, node.index(), dir);
                }
            }
        }
    }

    /// Marks both directions of a physical channel transiently faulted
    /// for the prepared cycle.
    fn set_transient_next(&mut self, cfg: &NocConfig, node: usize, dir: Direction) {
        let idx = node * 4 + dir as usize;
        if self.transient_next[idx] {
            return;
        }
        self.transient_next[idx] = true;
        self.stats.transient_link_faults += 1;
        if let Some(nb) = neighbor(cfg, NodeId::new(node as u16), dir) {
            let back = nb.index() * 4 + dir.opposite() as usize;
            if !self.transient_next[back] {
                self.transient_next[back] = true;
                self.stats.transient_link_faults += 1;
            }
        }
    }

    pub(crate) fn router_dead(&self, node: usize) -> bool {
        self.dead_router[node]
    }

    /// Whether the directed link may carry a flit during the cycle being
    /// executed.
    pub(crate) fn link_usable_now(&self, cfg: &NocConfig, node: usize, dir: Direction) -> bool {
        self.link_usable(cfg, node, dir, &self.transient_cur)
    }

    /// Whether the directed link may carry a flit during the next cycle
    /// (the allocation target).
    pub(crate) fn link_usable_next(&self, cfg: &NocConfig, node: usize, dir: Direction) -> bool {
        self.link_usable(cfg, node, dir, &self.transient_next)
    }

    fn link_usable(
        &self,
        cfg: &NocConfig,
        node: usize,
        dir: Direction,
        transient: &[bool],
    ) -> bool {
        !transient[node * 4 + dir as usize] && self.link_usable_permanent(cfg, node, dir)
    }

    /// Whether the directed link exists and neither it nor its endpoint
    /// routers are permanently dead (ignores transient faults; used for
    /// chain hops beyond the prepared horizon and for control routing).
    pub(crate) fn link_usable_permanent(
        &self,
        cfg: &NocConfig,
        node: usize,
        dir: Direction,
    ) -> bool {
        let idx = node * 4 + dir as usize;
        if self.dead_link[idx] || self.dead_router[node] {
            return false;
        }
        match neighbor(cfg, NodeId::new(node as u16), dir) {
            Some(nb) => !self.dead_router[nb.index()],
            None => false,
        }
    }

    /// Marks both directions of a physical channel permanently dead.
    pub(crate) fn mark_link_dead(&mut self, cfg: &NocConfig, node: NodeId, dir: Direction) {
        mark_channel_dead(&mut self.dead_link, cfg, node, dir);
        self.stats.permanent_link_faults += 1;
        self.degraded = true;
    }

    /// Marks a router hard-failed (its links die implicitly via
    /// [`FaultState::link_usable_now`] checks and the route rebuild).
    pub(crate) fn mark_router_dead(&mut self, node: NodeId) {
        self.dead_router[node.index()] = true;
        self.stats.router_faults += 1;
        self.degraded = true;
    }

    /// Whether permanent damage has switched routing to the BFS tables.
    pub(crate) fn degraded(&self) -> bool {
        self.degraded
    }

    /// Records a destroyed credit so the audit can balance the books.
    pub(crate) fn note_lost_credit(&mut self, node: usize, dir: Direction, vc: usize) {
        self.lost_credits[(node * 4 + dir as usize) * self.vcs + vc] += 1;
        self.stats.credits_lost += 1;
    }

    pub(crate) fn lost_credits(&self, node: usize, dir: Direction, vc: usize) -> u64 {
        self.lost_credits[(node * 4 + dir as usize) * self.vcs + vc]
    }

    /// Whether the control network at `node` is corrupting packets
    /// around the current cycle (armed [`FaultEvent::ControlDrop`]).
    pub(crate) fn control_fault_at(&self, node: usize) -> bool {
        self.control_armed.iter().any(|&(_, n)| n == node)
    }

    /// Rebuilds the west-first next-hop tables over the surviving
    /// topology (see [`DetourTables::build`], which holds the algorithm
    /// and is the same code path the static analyzer verifies).
    pub(crate) fn rebuild_routes(&mut self, cfg: &NocConfig) {
        self.detour = Some(DetourTables::build(cfg, &self.dead_link, &self.dead_router));
    }

    /// The output port toward `dest` at `here` on the degraded topology,
    /// or `None` when no west-first route exists from this state.
    /// `west_ok` is whether every hop the packet has taken so far was
    /// west (true at injection; downstream it is exactly "the flit
    /// entered through the east port").
    ///
    /// # Panics
    ///
    /// Panics if called before [`FaultState::rebuild_routes`].
    pub(crate) fn next_hop(&self, here: NodeId, dest: NodeId, west_ok: bool) -> Option<Port> {
        self.detour
            .as_ref()
            .expect("detour route tables not built before first use")
            .next_hop(here, dest, west_ok)
    }

    /// Records a pre-allocated chain cancelled because a link on it was
    /// faulted at execution time (the PRA degradation path).
    pub(crate) fn note_faulted_chain_cancel(&mut self) {
        self.stats.faulted_chain_cancels += 1;
    }

    /// Records an allocation cycle in which a flit was ready but its
    /// link was faulted (the latency cost of graceful degradation).
    pub(crate) fn note_blocked_by_fault(&mut self) {
        self.stats.blocked_by_fault_cycles += 1;
    }

    /// Records a packet purged because a fault made it undeliverable,
    /// with every flit it carried.
    pub(crate) fn note_purged_packet(&mut self, flits: u64) {
        self.stats.lost_packets += 1;
        self.stats.lost_flits += flits;
    }

    /// Records a control packet dropped because of a fault.
    pub(crate) fn note_control_drop(&mut self) {
        self.stats.control_drops += 1;
    }

    /// Records an injection refused because an endpoint was dead or
    /// unreachable.
    pub(crate) fn note_injection_refused(&mut self) {
        self.stats.injections_refused += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::route_port;

    fn cfg() -> NocConfig {
        NocConfig::paper()
    }

    #[test]
    fn trivial_plan_draws_nothing() {
        let mut f = FaultState::new(FaultPlan::new(1), &cfg());
        for now in 1..100 {
            assert!(f.begin_cycle(now, &cfg()).is_empty());
        }
        assert_eq!(f.stats, FaultStats::default());
        assert!(!f.degraded());
    }

    #[test]
    fn transient_draws_are_deterministic() {
        let plan = FaultPlan::new(7).transient_rate_ppb(5_000_000);
        let run = |plan: FaultPlan| {
            let mut f = FaultState::new(plan, &cfg());
            let mut seen = Vec::new();
            for now in 1..2_000u64 {
                f.begin_cycle(now, &cfg());
                for node in 0..64 {
                    for dir in Direction::ALL {
                        if f.transient_cur[node * 4 + dir as usize] {
                            seen.push((now, node, dir as usize));
                        }
                    }
                }
            }
            seen
        };
        let a = run(plan.clone());
        let b = run(plan);
        assert_eq!(a, b);
        assert!(
            !a.is_empty(),
            "5e-3 per link per cycle must fire in 2k cycles"
        );
    }

    #[test]
    fn scheduled_transient_faults_both_directions_for_one_cycle() {
        let plan = FaultPlan::new(1).with_event(FaultEvent::TransientLink {
            at: 10,
            node: NodeId::new(0),
            dir: Direction::East,
        });
        let mut f = FaultState::new(plan, &cfg());
        let c = cfg();
        for now in 1..20 {
            f.begin_cycle(now, &c);
            let faulted = !f.link_usable_now(&c, 0, Direction::East);
            let back_faulted = !f.link_usable_now(&c, 1, Direction::West);
            assert_eq!(faulted, now == 10, "cycle {now}");
            assert_eq!(back_faulted, now == 10, "cycle {now}");
        }
        assert_eq!(f.stats.transient_link_faults, 2);
    }

    #[test]
    fn bfs_tables_reproduce_xy_when_fault_free() {
        let c = cfg();
        let mut f = FaultState::new(FaultPlan::new(1), &c);
        f.rebuild_routes(&c);
        for here in 0..64u16 {
            for dest in 0..64u16 {
                let xy = route_port(&c, NodeId::new(here), NodeId::new(dest));
                let bfs = f
                    .next_hop(NodeId::new(here), NodeId::new(dest), true)
                    .unwrap();
                assert_eq!(xy, bfs, "{here} -> {dest}");
            }
        }
    }

    #[test]
    fn bfs_detours_around_a_dead_link() {
        let c = cfg();
        let mut f = FaultState::new(FaultPlan::new(1), &c);
        // Kill the link 0 -> 1 (east on the top row).
        f.mark_link_dead(&c, NodeId::new(0), Direction::East);
        f.rebuild_routes(&c);
        assert!(!f.link_usable_now(&c, 0, Direction::East));
        assert!(!f.link_usable_now(&c, 1, Direction::West));
        // 0 -> 1 must now detour; a valid shortest detour has 3 hops.
        let mut here = NodeId::new(0);
        let mut cw = true;
        let mut hops = 0;
        loop {
            match f.next_hop(here, NodeId::new(1), cw).unwrap() {
                Port::Local => break,
                Port::Dir(d) => {
                    assert!(
                        !(here.index() == 0 && d == Direction::East),
                        "route uses the dead link"
                    );
                    cw = cw && d == Direction::West;
                    here = neighbor(&c, here, d).unwrap();
                    hops += 1;
                }
            }
            assert!(hops <= 10, "route does not terminate");
        }
        assert_eq!(hops, 3, "shortest detour around one dead link");
        // Unaffected pairs keep their XY route.
        assert_eq!(
            f.next_hop(NodeId::new(8), NodeId::new(10), true).unwrap(),
            route_port(&c, NodeId::new(8), NodeId::new(10))
        );
    }

    #[test]
    fn dead_router_is_unreachable_and_routes_avoid_it() {
        let c = cfg();
        let mut f = FaultState::new(FaultPlan::new(1), &c);
        f.mark_router_dead(NodeId::new(9)); // (1,1)
        f.rebuild_routes(&c);
        assert!(f.next_hop(NodeId::new(0), NodeId::new(9), true).is_none());
        assert!(f.next_hop(NodeId::new(9), NodeId::new(0), true).is_none());
        // Every routed pair avoids node 9 and terminates. West-first
        // confines all west travel to a prefix inside the source row, so
        // a dead router also orphans the pairs whose mandatory west
        // prefix it blocks: src in its row east of it, dest in a column
        // at or west of it. For node 9 that is 6 sources x 15
        // destinations = 90 of the 64*63 ordered pairs (~2.2%); those
        // behave exactly like a dead destination (refused at injection).
        let mut orphaned = 0u32;
        for src in 0..64u16 {
            for dest in 0..64u16 {
                if src == 9 || dest == 9 || src == dest {
                    continue;
                }
                if f.next_hop(NodeId::new(src), NodeId::new(dest), true)
                    .is_none()
                {
                    assert_eq!(src / 8, 1, "{src}->{dest}: orphan src off the dead row");
                    assert!(src % 8 >= 2, "{src}->{dest}: orphan src not east of 9");
                    assert!(dest % 8 <= 1, "{src}->{dest}: orphan dest not west of 9");
                    orphaned += 1;
                    continue;
                }
                let mut here = NodeId::new(src);
                let mut cw = true;
                let mut hops = 0;
                loop {
                    match f.next_hop(here, NodeId::new(dest), cw).expect("routed") {
                        Port::Local => break,
                        Port::Dir(d) => {
                            cw = cw && d == Direction::West;
                            here = neighbor(&c, here, d).unwrap();
                            assert_ne!(here.index(), 9, "{src}->{dest} crosses dead router");
                            hops += 1;
                        }
                    }
                    assert!(hops <= 64, "{src}->{dest} does not terminate");
                }
            }
        }
        assert_eq!(orphaned, 90, "west-first orphan set for a dead (1,1)");
    }

    #[test]
    fn credit_and_control_events_arm_on_time() {
        let plan = FaultPlan::new(1)
            .with_event(FaultEvent::CreditLoss {
                at: 5,
                node: NodeId::new(3),
                dir: Direction::East,
                vc: 2,
            })
            .with_event(FaultEvent::ControlDrop {
                at: 8,
                node: NodeId::new(4),
            });
        let c = cfg();
        let mut f = FaultState::new(plan, &c);
        for now in 1..20u64 {
            f.begin_cycle(now, &c);
            if now == 5 {
                assert_eq!(f.credit_losses_now, vec![(3, Direction::East, 2)]);
            } else {
                assert!(f.credit_losses_now.is_empty(), "cycle {now}");
            }
            let armed = f.control_fault_at(4);
            assert_eq!(armed, (7..=9).contains(&now), "cycle {now}: {armed}");
        }
    }

    #[test]
    fn topology_events_pop_one_cycle_ahead() {
        let plan = FaultPlan::new(1).with_event(FaultEvent::RouterDown {
            at: 10,
            node: NodeId::new(5),
        });
        let c = cfg();
        let mut f = FaultState::new(plan, &c);
        for now in 1..9 {
            assert!(f.begin_cycle(now, &c).is_empty(), "cycle {now}");
        }
        let due = f.begin_cycle(9, &c);
        assert_eq!(
            due,
            vec![FaultEvent::RouterDown {
                at: 10,
                node: NodeId::new(5)
            }]
        );
        assert!(f.begin_cycle(10, &c).is_empty());
    }

    #[test]
    fn lost_credit_accounting() {
        let c = cfg();
        let mut f = FaultState::new(FaultPlan::new(1), &c);
        f.note_lost_credit(3, Direction::East, 2);
        f.note_lost_credit(3, Direction::East, 2);
        assert_eq!(f.lost_credits(3, Direction::East, 2), 2);
        assert_eq!(f.lost_credits(3, Direction::West, 2), 0);
        assert_eq!(f.stats.credits_lost, 2);
    }
}

mod digest_impls {
    use super::{FaultEvent, FaultState};
    use crate::digest::{StateDigest, StateHasher};

    impl StateDigest for FaultEvent {
        fn digest_state(&self, h: &mut StateHasher) {
            match *self {
                FaultEvent::TransientLink { at, node, dir } => {
                    h.write_u8(0);
                    h.write_u64(at);
                    h.write_usize(node.index());
                    h.write_usize(dir as usize);
                }
                FaultEvent::PermanentLink { at, node, dir } => {
                    h.write_u8(1);
                    h.write_u64(at);
                    h.write_usize(node.index());
                    h.write_usize(dir as usize);
                }
                FaultEvent::RouterDown { at, node } => {
                    h.write_u8(2);
                    h.write_u64(at);
                    h.write_usize(node.index());
                }
                FaultEvent::CreditLoss { at, node, dir, vc } => {
                    h.write_u8(3);
                    h.write_u64(at);
                    h.write_usize(node.index());
                    h.write_usize(dir as usize);
                    h.write_u8(vc);
                }
                FaultEvent::ControlDrop { at, node } => {
                    h.write_u8(4);
                    h.write_u64(at);
                    h.write_usize(node.index());
                }
            }
        }
    }

    impl StateDigest for FaultState {
        fn digest_state(&self, h: &mut StateHasher) {
            let (state, inc) = self.rng.state_words();
            h.write_u64(state);
            h.write_u64(inc);
            for mask in [
                &self.dead_link,
                &self.dead_router,
                &self.transient_cur,
                &self.transient_next,
            ] {
                h.write_usize(mask.len());
                for &bit in mask.iter() {
                    h.write_bool(bit);
                }
            }
            for pending in [
                &self.pending_topology,
                &self.pending_transient,
                &self.pending_credit,
                &self.pending_control,
            ] {
                h.write_usize(pending.len());
                for ev in pending.iter() {
                    ev.digest_state(h);
                }
            }
            h.write_usize(self.credit_losses_now.len());
            for &(node, dir, vc) in &self.credit_losses_now {
                h.write_usize(node);
                h.write_usize(dir as usize);
                h.write_usize(vc);
            }
            h.write_usize(self.control_armed.len());
            for &(cycle, node) in &self.control_armed {
                h.write_u64(cycle);
                h.write_usize(node);
            }
            for &lost in &self.lost_credits {
                h.write_u64(lost);
            }
            h.write_bool(self.degraded);
        }
    }
}
