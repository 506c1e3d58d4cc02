//! Synthetic traffic generators for standalone network studies.
//!
//! The system-level evaluation drives the networks from the `sysmodel`
//! crate; the generators here serve unit/integration tests, latency-vs-load
//! curves and perfbench.
//!
//! Beyond the steady-state Bernoulli source the paper evaluates, the
//! generator supports bursty *injection processes* ([`InjectionProcess`]):
//! a deterministic on-off source and a truncated Markov-modulated
//! process, both with **bounded** bursts so the worst-case latency
//! analyzer ([`crate::wcla`]) can derive finite per-flow bounds. Injection
//! can additionally be shaped by per-class token buckets, and every
//! injection can be recorded into a replayable [`crate::trace::Trace`].

use std::collections::VecDeque;

use nistats::rng::Rng;

use crate::config::NocConfig;
use crate::digest::{StateDigest, StateHasher};
use crate::flit::Packet;
use crate::network::Network;
use crate::trace::TraceRecorder;
use crate::types::{Cycle, MessageClass, NodeId, PacketId};

/// Spatial traffic pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Destination drawn uniformly at random (excluding the source).
    UniformRandom,
    /// `(x, y) -> (y, x)`; self-pairs redirect to the next node.
    Transpose,
    /// All nodes send to a single hotspot node.
    Hotspot(NodeId),
    /// Node `i` sends to `i + nodes/2 (mod nodes)` (worst-case diameter).
    Complement,
    /// Requests target LLC-like home slices by address interleaving and
    /// responses flow back — a stand-in for server core↔LLC traffic.
    CoreToLlc,
}

/// Temporal injection process: *when* a node offers traffic (the
/// [`Pattern`] decides *where* it goes).
///
/// All processes are driven by the generator's single seeded PCG32
/// stream, so a `(process, pattern, rate, seed)` tuple reproduces the
/// same offered load bit-for-bit. The bursty processes have **bounded**
/// burst lengths by construction — the property the worst-case latency
/// analyzer ([`crate::wcla`]) relies on to emit finite bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectionProcess {
    /// Memoryless Bernoulli(rate) per node per cycle (the paper's
    /// steady-state load; the default).
    Bernoulli,
    /// Deterministic-period on-off source: each node cycles through
    /// `on_len` cycles of elevated injection followed by `off_len` idle
    /// cycles, with a random per-node phase. The on-phase rate is scaled
    /// to `rate * (on_len + off_len) / on_len` (capped at 1) so the
    /// long-run mean stays at the configured `rate`. Worst-case burst:
    /// `on_len` packets.
    OnOff {
        /// Burst (on-phase) length in cycles; must be ≥ 1.
        on_len: u32,
        /// Idle (off-phase) length in cycles.
        off_len: u32,
    },
    /// Truncated two-state Markov-modulated process: a node dwells in a
    /// *low* state injecting below the mean and a *high* state injecting
    /// at `boost ×` the mean (capped at 1). Dwell times are drawn
    /// uniformly from `[1, 2·mean_dwell − 1]` (mean `mean_dwell`), and
    /// the high-state dwell is additionally capped at `max_dwell_hi`
    /// cycles — the truncation that keeps the worst-case burst bounded
    /// at `max_dwell_hi` packets. The low-state rate is derated so the
    /// long-run mean stays at the configured `rate`.
    Mmpp {
        /// High-state rate multiplier applied to the mean rate (> 1).
        boost: f64,
        /// Mean low-state dwell time in cycles; must be ≥ 1.
        mean_dwell_lo: u32,
        /// Mean high-state dwell time in cycles; must be ≥ 1.
        mean_dwell_hi: u32,
        /// Hard cap on a single high-state dwell (the burst bound).
        max_dwell_hi: u32,
    },
}

impl InjectionProcess {
    /// Worst-case burst length in packets a single node can emit
    /// back-to-back (`None` for the memoryless process, whose bursts
    /// are probabilistically unbounded).
    pub fn burst_bound(&self) -> Option<u64> {
        match *self {
            InjectionProcess::Bernoulli => None,
            InjectionProcess::OnOff { on_len, .. } => Some(u64::from(on_len)),
            InjectionProcess::Mmpp {
                mean_dwell_hi,
                max_dwell_hi,
                ..
            } => Some(u64::from(max_dwell_hi.min(2 * mean_dwell_hi))),
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            InjectionProcess::Bernoulli => Ok(()),
            InjectionProcess::OnOff { on_len, .. } => {
                if on_len == 0 {
                    return Err("on_off: on_len must be at least 1".to_string());
                }
                Ok(())
            }
            InjectionProcess::Mmpp {
                boost,
                mean_dwell_lo,
                mean_dwell_hi,
                max_dwell_hi,
            } => {
                if !boost.is_finite() || boost <= 1.0 {
                    return Err("mmpp: boost must be a finite value above 1".to_string());
                }
                if mean_dwell_lo == 0 || mean_dwell_hi == 0 || max_dwell_hi == 0 {
                    return Err("mmpp: dwell parameters must be at least 1".to_string());
                }
                Ok(())
            }
        }
    }
}

/// A per-class token-bucket shaper configuration: a sustained `rate` in
/// flits/cycle and a `burst` allowance in flits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucketCfg {
    /// Sustained token refill rate in flits per cycle.
    pub rate: f64,
    /// Bucket capacity (burst allowance) in flits; must be at least the
    /// longest packet of the class or nothing ever passes.
    pub burst: u32,
}

/// Token arithmetic is integer micro-flits so the shaper state digests
/// exactly and never accumulates float drift.
const MICRO: u64 = 1_000_000;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Bucket {
    tokens: u64,
    refill: u64,
    cap: u64,
}

impl Bucket {
    fn new(cfg: TokenBucketCfg) -> Bucket {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let refill = (cfg.rate.max(0.0) * MICRO as f64).round() as u64;
        let cap = u64::from(cfg.burst) * MICRO;
        Bucket {
            tokens: cap,
            refill,
            cap,
        }
    }

    fn tick(&mut self) {
        self.tokens = (self.tokens + self.refill).min(self.cap);
    }

    fn try_take(&mut self, flits: u8) -> bool {
        let cost = u64::from(flits) * MICRO;
        if self.tokens >= cost {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }
}

/// Per-node temporal state of the injection process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// Bernoulli needs no state.
    Steady,
    /// Position inside the on/off period.
    OnOff { phase: u32 },
    /// Current modulation state and remaining dwell.
    Mmpp { hi: bool, dwell_left: u32 },
}

/// A deterministic, seeded synthetic traffic source.
///
/// Every cycle, each node independently injects a packet with a
/// probability set by its [`InjectionProcess`] (the default Bernoulli
/// process uses `rate` directly). Response-class packets are
/// `cfg.max_packet_len` flits; requests and coherence packets are single
/// flits, mixed per `response_fraction`.
///
/// # Examples
///
/// ```
/// use noc::config::NocConfig;
/// use noc::mesh::MeshNetwork;
/// use noc::network::Network;
/// use noc::traffic::{InjectionProcess, Pattern, TrafficGen};
///
/// let cfg = NocConfig::paper();
/// let mut net = MeshNetwork::new(cfg.clone());
/// let mut gen = TrafficGen::new(cfg, Pattern::UniformRandom, 0.05, 42)
///     .injection(InjectionProcess::OnOff { on_len: 8, off_len: 56 });
/// for _ in 0..200 {
///     gen.tick(&mut net);
///     net.step();
/// }
/// assert!(net.stats().injected() > 0);
/// ```
#[derive(Debug)]
pub struct TrafficGen {
    cfg: NocConfig,
    pattern: Pattern,
    rate: f64,
    response_fraction: f64,
    process: InjectionProcess,
    node_states: Vec<NodeState>,
    /// Per-class shaper template (`None` = class unshaped).
    shaper_cfg: [Option<TokenBucketCfg>; 3],
    /// Per-node, per-class bucket state (empty when nothing is shaped).
    buckets: Vec<[Option<Bucket>; 3]>,
    /// Per-node, per-class queues of generated-but-not-yet-admitted
    /// packets waiting for tokens.
    pending: Vec<[VecDeque<Packet>; 3]>,
    recorder: Option<TraceRecorder>,
    rng: Rng,
    next_id: u64,
    injected: u64,
    deferred: u64,
    stopped: bool,
    /// Reusable buffer for packets released by the shaper this cycle.
    /// Always empty between ticks, so it is excluded from the digest.
    released_scratch: Vec<Packet>,
}

impl TrafficGen {
    /// Creates a generator injecting at `rate` packets/node/cycle with the
    /// default 50/50 request/response mix and the Bernoulli process.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    pub fn new(cfg: NocConfig, pattern: Pattern, rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        let nodes = cfg.nodes();
        TrafficGen {
            cfg,
            pattern,
            rate,
            response_fraction: 0.5,
            process: InjectionProcess::Bernoulli,
            node_states: vec![NodeState::Steady; nodes],
            shaper_cfg: [None; 3],
            buckets: Vec::new(),
            pending: Vec::new(),
            recorder: None,
            rng: Rng::new(seed),
            next_id: 0,
            injected: 0,
            deferred: 0,
            stopped: false,
            released_scratch: Vec::new(),
        }
    }

    /// Sets the fraction of packets that are multi-flit responses
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `f` is not in `[0, 1]`.
    pub fn response_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "fraction must be a probability");
        self.response_fraction = f;
        self
    }

    /// Selects the temporal injection process (builder style). Per-node
    /// phases/dwells are initialised from the generator's RNG stream, so
    /// call this before the first [`TrafficGen::tick`] for reproducible
    /// runs.
    ///
    /// # Panics
    ///
    /// Panics if the process parameters are invalid
    /// (see [`InjectionProcess::validate`]).
    pub fn injection(mut self, process: InjectionProcess) -> Self {
        if let Err(message) = process.validate() {
            panic!("invalid injection process: {message}");
        }
        self.process = process;
        self.node_states = (0..self.cfg.nodes())
            .map(|_| match process {
                InjectionProcess::Bernoulli => NodeState::Steady,
                InjectionProcess::OnOff { on_len, off_len } => {
                    let period = u64::from(on_len) + u64::from(off_len);
                    #[allow(clippy::cast_possible_truncation)]
                    let phase = (self.rng.below(period.max(1))) as u32;
                    NodeState::OnOff { phase }
                }
                InjectionProcess::Mmpp { mean_dwell_lo, .. } => NodeState::Mmpp {
                    hi: false,
                    dwell_left: draw_dwell(&mut self.rng, mean_dwell_lo, u32::MAX),
                },
            })
            .collect();
        self
    }

    /// Installs a token-bucket shaper for `class` (builder style): at
    /// most `cfg.burst` flits at once, refilled at `cfg.rate`
    /// flits/cycle. Packets generated while the bucket is dry are
    /// *deferred* (queued at the source, injected once tokens
    /// accumulate), never dropped; their latency clock starts at the
    /// deferred injection cycle and the deferral is counted in
    /// [`TrafficGen::deferred`].
    pub fn token_bucket(mut self, class: MessageClass, cfg: TokenBucketCfg) -> Self {
        self.shaper_cfg[class.vc()] = Some(cfg);
        let nodes = self.cfg.nodes();
        self.buckets = (0..nodes)
            .map(|_| {
                let mut row: [Option<Bucket>; 3] = [None, None, None];
                for (vc, slot) in row.iter_mut().enumerate() {
                    *slot = self.shaper_cfg[vc].map(Bucket::new);
                }
                row
            })
            .collect();
        if self.pending.is_empty() {
            self.pending = (0..nodes)
                .map(|_| std::array::from_fn(|_| VecDeque::new()))
                .collect();
        }
        self
    }

    /// Starts recording every injection into a trace (builder style);
    /// retrieve it with [`TrafficGen::take_trace`].
    pub fn record_trace(mut self) -> Self {
        self.recorder = Some(TraceRecorder::new());
        self
    }

    /// Finishes trace recording and returns the trace recorded so far
    /// (empty if [`TrafficGen::record_trace`] was never called).
    pub fn take_trace(&mut self) -> crate::trace::Trace {
        self.recorder
            .take()
            .map(TraceRecorder::into_trace)
            .unwrap_or_default()
    }

    /// Stops further injection (drain phase).
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Packets injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Packets that were deferred at least one cycle by a token bucket.
    pub fn deferred(&self) -> u64 {
        self.deferred
    }

    /// Packets currently held back by dry token buckets.
    pub fn pending(&self) -> usize {
        self.pending
            .iter()
            .flat_map(|row| row.iter())
            .map(VecDeque::len)
            .sum()
    }

    /// This cycle's injection probability for `node`, advancing the
    /// node's temporal state. The Bernoulli process performs no RNG
    /// draws here, so legacy `(pattern, rate, seed)` runs keep their
    /// exact historical stream.
    fn cycle_rate(&mut self, node: usize) -> f64 {
        match self.process {
            InjectionProcess::Bernoulli => self.rate,
            InjectionProcess::OnOff { on_len, off_len } => {
                let period = on_len + off_len;
                let NodeState::OnOff { phase } = &mut self.node_states[node] else {
                    return self.rate;
                };
                let on = *phase < on_len;
                *phase = (*phase + 1) % period.max(1);
                if on {
                    let duty = f64::from(on_len) / f64::from(period.max(1));
                    (self.rate / duty).min(1.0)
                } else {
                    0.0
                }
            }
            InjectionProcess::Mmpp {
                boost,
                mean_dwell_lo,
                mean_dwell_hi,
                max_dwell_hi,
            } => {
                let NodeState::Mmpp { hi, dwell_left } = &mut self.node_states[node] else {
                    return self.rate;
                };
                if *dwell_left == 0 {
                    *hi = !*hi;
                    *dwell_left = if *hi {
                        draw_dwell(&mut self.rng, mean_dwell_hi, max_dwell_hi)
                    } else {
                        draw_dwell(&mut self.rng, mean_dwell_lo, u32::MAX)
                    };
                }
                *dwell_left = dwell_left.saturating_sub(1);
                let hi_rate = (self.rate * boost).min(1.0);
                if *hi {
                    hi_rate
                } else {
                    // Derate the low state so the long-run mean stays at
                    // `rate` (clamped at zero when boost × dwell already
                    // exceeds the budget).
                    let d_lo = f64::from(mean_dwell_lo);
                    let d_hi = f64::from(mean_dwell_hi);
                    ((self.rate * (d_lo + d_hi) - hi_rate * d_hi) / d_lo).max(0.0)
                }
            }
        }
    }

    /// Injects this cycle's packets into `net`. Call once per cycle,
    /// before [`Network::step`].
    // hot
    pub fn tick<N: Network + ?Sized>(&mut self, net: &mut N) {
        if self.stopped {
            return;
        }
        let now = net.now().max(1) as Cycle;
        // Refill shapers and release deferred packets first: a packet
        // held back by a dry bucket keeps its place ahead of this
        // cycle's fresh traffic.
        if !self.buckets.is_empty() {
            for node in 0..self.cfg.nodes() {
                for vc in 0..3 {
                    let mut released = std::mem::take(&mut self.released_scratch);
                    if let Some(bucket) = self.buckets[node][vc].as_mut() {
                        bucket.tick();
                        while let Some(front) = self.pending[node][vc].front() {
                            if !bucket.try_take(front.len_flits) {
                                break;
                            }
                            released.push(
                                self.pending[node][vc]
                                    .pop_front()
                                    .expect("front exists")
                                    .at(now),
                            );
                        }
                    }
                    for packet in released.drain(..) {
                        self.admit(net, packet, now);
                    }
                    self.released_scratch = released;
                }
            }
        }
        let nodes = self.cfg.nodes();
        for src in 0..nodes {
            let p = self.cycle_rate(src);
            if !self.rng.gen_bool(p) {
                continue;
            }
            let src_id = NodeId::new(src as u16);
            let dest = self.pick_dest(src_id);
            if dest == src_id {
                continue;
            }
            let response = self.rng.gen_bool(self.response_fraction);
            let (class, len) = if response {
                (MessageClass::Response, self.cfg.max_packet_len)
            } else {
                (MessageClass::Request, 1)
            };
            self.next_id += 1;
            let packet = Packet::new(PacketId(self.next_id), src_id, dest, class, len).at(now);
            let vc = class.vc();
            let shaped = !self.buckets.is_empty() && self.buckets[src][vc].is_some();
            if shaped {
                let queue_empty = self.pending[src][vc].is_empty();
                let bucket = self.buckets[src][vc].as_mut().expect("shaped class");
                if queue_empty && bucket.try_take(len) {
                    self.admit(net, packet, now);
                } else {
                    self.deferred += 1;
                    self.pending[src][vc].push_back(packet);
                }
            } else {
                self.admit(net, packet, now);
            }
        }
    }

    fn admit<N: Network + ?Sized>(&mut self, net: &mut N, packet: Packet, now: Cycle) {
        self.injected += 1;
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(now, &packet, 0);
        }
        net.inject(packet);
    }

    fn pick_dest(&mut self, src: NodeId) -> NodeId {
        let nodes = self.cfg.nodes() as u16;
        match self.pattern {
            Pattern::UniformRandom => {
                let off = self.rng.gen_range_u16(1, nodes);
                NodeId::new((src.index() as u16 + off) % nodes)
            }
            Pattern::Transpose => {
                let c = self.cfg.coord(src);
                let t = crate::types::Coord::new(c.y, c.x);
                let d = self.cfg.node_at(t);
                if d == src {
                    NodeId::new((src.index() as u16 + 1) % nodes)
                } else {
                    d
                }
            }
            Pattern::Hotspot(h) => h,
            Pattern::Complement => NodeId::new((src.index() as u16 + nodes / 2) % nodes),
            Pattern::CoreToLlc => {
                // Address-interleaved home slice: hash a synthetic address.
                let addr: u64 = self.rng.next_u64();
                NodeId::new((addr % nodes as u64) as u16)
            }
        }
    }
}

impl StateDigest for TrafficGen {
    fn digest_state(&self, h: &mut StateHasher) {
        let (state, inc) = self.rng.state_words();
        h.write_u64(state);
        h.write_u64(inc);
        h.write_u64(self.next_id);
        h.write_u64(self.injected);
        h.write_u64(self.deferred);
        for s in &self.node_states {
            match *s {
                NodeState::Steady => h.write_u8(0),
                NodeState::OnOff { phase } => {
                    h.write_u8(1);
                    h.write_u64(u64::from(phase));
                }
                NodeState::Mmpp { hi, dwell_left } => {
                    h.write_u8(2);
                    h.write_u8(u8::from(hi));
                    h.write_u64(u64::from(dwell_left));
                }
            }
        }
        for row in &self.buckets {
            for slot in row {
                match slot {
                    None => h.write_u8(0),
                    Some(b) => {
                        h.write_u8(1);
                        h.write_u64(b.tokens);
                    }
                }
            }
        }
        for row in &self.pending {
            for q in row {
                h.write_usize(q.len());
            }
        }
    }
}

/// A dwell time drawn uniformly from `[1, 2·mean − 1]` (mean `mean`),
/// capped at `cap`. Uniform rather than geometric keeps the draw bounded
/// with a single RNG word.
fn draw_dwell(rng: &mut Rng, mean: u32, cap: u32) -> u32 {
    let span = u64::from(mean) * 2 - 1;
    #[allow(clippy::cast_possible_truncation)]
    let d = (1 + rng.below(span.max(1))) as u32;
    d.min(cap.max(1))
}

/// Runs `net` under `gen` for `warm + measure` cycles and reports the mean
/// packet latency over the measurement phase, then drains.
///
/// A convenience harness for latency-vs-load curves.
pub fn measure_latency<N: Network + ?Sized>(
    net: &mut N,
    gen: &mut TrafficGen,
    warm: u64,
    measure: u64,
) -> f64 {
    for _ in 0..warm {
        gen.tick(net);
        net.step();
        net.drain_delivered();
    }
    let mut total = 0u64;
    let mut count = 0u64;
    for _ in 0..measure {
        gen.tick(net);
        net.step();
        for d in net.drain_delivered() {
            total += d.delivered - d.packet.created;
            count += 1;
        }
    }
    gen.stop();
    // Drain remaining traffic so callers can reuse the network.
    let deadline = net.now() + 100_000;
    while net.in_flight() > 0 && net.now() < deadline {
        net.step();
        net.drain_delivered();
    }
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// Checks an organisation against fingerprints pinned on busy paths:
/// radix 4 and 6, one- and three-hop wire budgets, uniform and hotspot
/// traffic with half multi-flit responses. Each case runs 2 000 cycles
/// of traffic, drains, and folds `format!("{:?}", stats)` and every
/// delivery record, in order, into one hash; `pins` holds the delivered
/// count and that hash per case. A refactor of a step loop that changes
/// any simulated byte changes a pin. `extra` folds organisation-specific
/// end state (a state digest, fault counters) into the same hash after
/// the drain; a no-op `extra` leaves the hash as it always was.
#[cfg(test)]
pub(crate) fn assert_busy_pins<N: Network>(
    build: impl Fn(NocConfig) -> N,
    extra: impl Fn(&N, &mut StateHasher),
    pins: [(usize, u64); 4],
) {
    for ((seed, cfg, pattern, rate), pin) in busy_cases().zip(pins) {
        let mut net = build(cfg.clone());
        let mut gen = TrafficGen::new(cfg.clone(), pattern, rate, seed);
        let mut delivered = Vec::new();
        for _ in 0..2_000 {
            gen.tick(&mut net);
            net.step();
            net.drain_delivered_into(&mut delivered);
        }
        delivered.extend(net.run_to_drain(50_000));
        let mut h = StateHasher::new();
        h.write_bytes(format!("{:?}", net.stats()).as_bytes());
        for d in &delivered {
            d.packet.digest_state(&mut h);
            h.write_u64(d.delivered);
            h.write_u32(d.hops);
        }
        extra(&net, &mut h);
        assert_eq!(
            (delivered.len(), h.finish()),
            pin,
            "case {seed}: radix {}, {} hops/cycle, {pattern:?}",
            cfg.radix,
            cfg.max_hops_per_cycle
        );
    }
}

/// The four traffic mixes of [`assert_busy_pins`], as `(seed, config,
/// pattern, rate)`: radix 4 and 6, one- and three-hop wire budgets,
/// uniform and hotspot traffic.
#[cfg(test)]
pub(crate) fn busy_cases() -> impl Iterator<Item = (u64, NocConfig, Pattern, f64)> {
    use crate::config::NocConfigBuilder;
    let cases = [
        (4, 1, Pattern::UniformRandom, 0.08),
        (4, 3, Pattern::Hotspot(NodeId::new(5)), 0.01),
        (6, 3, Pattern::UniformRandom, 0.08),
        (6, 1, Pattern::Hotspot(NodeId::new(14)), 0.005),
    ];
    (1u64..)
        .zip(cases)
        .map(|(seed, (radix, hops, pattern, rate))| {
            let cfg = NocConfigBuilder::new()
                .radix(radix)
                .max_hops_per_cycle(hops)
                .build()
                .expect("valid config");
            (seed, cfg, pattern, rate)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ideal::IdealNetwork;
    use crate::mesh::MeshNetwork;
    use crate::smart::SmartNetwork;

    #[test]
    fn generator_is_deterministic() {
        let cfg = NocConfig::paper();
        let mut a = MeshNetwork::new(cfg.clone());
        let mut b = MeshNetwork::new(cfg.clone());
        let mut ga = TrafficGen::new(cfg.clone(), Pattern::UniformRandom, 0.1, 9);
        let mut gb = TrafficGen::new(cfg, Pattern::UniformRandom, 0.1, 9);
        for _ in 0..200 {
            ga.tick(&mut a);
            gb.tick(&mut b);
            a.step();
            b.step();
        }
        assert_eq!(ga.injected(), gb.injected());
        assert_eq!(a.stats().injected(), b.stats().injected());
        assert_eq!(a.stats().delivered(), b.stats().delivered());
        assert_eq!(a.stats().total_latency, b.stats().total_latency);
    }

    #[test]
    fn patterns_produce_valid_destinations() {
        let cfg = NocConfig::paper();
        for pattern in [
            Pattern::UniformRandom,
            Pattern::Transpose,
            Pattern::Hotspot(NodeId::new(0)),
            Pattern::Complement,
            Pattern::CoreToLlc,
        ] {
            let mut gen = TrafficGen::new(cfg.clone(), pattern, 1.0, 1);
            for src in 0..64u16 {
                let d = gen.pick_dest(NodeId::new(src));
                assert!(d.index() < 64, "{pattern:?} gave invalid destination");
            }
        }
    }

    #[test]
    fn latency_rises_with_load_on_mesh() {
        let cfg = NocConfig::paper();
        let mut lats = Vec::new();
        for rate in [0.005, 0.05] {
            let mut net = MeshNetwork::new(cfg.clone());
            let mut gen = TrafficGen::new(cfg.clone(), Pattern::UniformRandom, rate, 7);
            lats.push(measure_latency(&mut net, &mut gen, 500, 1_500));
        }
        assert!(lats[1] > lats[0], "latency must rise with load: {lats:?}");
    }

    #[test]
    fn organisation_ordering_under_light_server_traffic() {
        // Ideal < mesh at a light, LLC-like load; SMART within a sane band.
        let cfg = NocConfig::paper();
        let mut results = Vec::new();
        for which in 0..3 {
            let mut net: Box<dyn Network> = match which {
                0 => Box::new(MeshNetwork::new(cfg.clone())),
                1 => Box::new(SmartNetwork::new(cfg.clone())),
                _ => Box::new(IdealNetwork::new(cfg.clone())),
            };
            let mut gen =
                TrafficGen::new(cfg.clone(), Pattern::CoreToLlc, 0.02, 13).response_fraction(0.5);
            results.push(measure_latency(net.as_mut(), &mut gen, 500, 2_000));
        }
        let (mesh, smart, ideal) = (results[0], results[1], results[2]);
        assert!(ideal < mesh, "ideal {ideal} must beat mesh {mesh}");
        assert!(ideal < smart, "ideal {ideal} must beat SMART {smart}");
        // SMART and mesh are close on server-like traffic (Figure 2).
        assert!(
            (smart - mesh).abs() / mesh < 0.25,
            "SMART {smart} should be within 25% of mesh {mesh}"
        );
    }

    #[test]
    fn bursty_processes_are_deterministic_and_preserve_mean_rate() {
        let cfg = NocConfig::paper();
        for process in [
            InjectionProcess::OnOff {
                on_len: 8,
                off_len: 56,
            },
            InjectionProcess::Mmpp {
                boost: 8.0,
                mean_dwell_lo: 80,
                mean_dwell_hi: 10,
                max_dwell_hi: 16,
            },
        ] {
            let run = |seed: u64| {
                let mut net = IdealNetwork::new(cfg.clone());
                let mut gen = TrafficGen::new(cfg.clone(), Pattern::UniformRandom, 0.02, seed)
                    .injection(process);
                for _ in 0..4_000 {
                    gen.tick(&mut net);
                    net.step();
                    net.drain_delivered();
                }
                gen.injected()
            };
            assert_eq!(run(5), run(5), "{process:?} must be deterministic");
            // Long-run mean within 40% of the configured rate (the
            // processes are calibrated to preserve it).
            let injected = run(5) as f64;
            let expected = 0.02 * 64.0 * 4_000.0;
            assert!(
                (injected - expected).abs() / expected < 0.4,
                "{process:?}: injected {injected}, expected ≈ {expected}"
            );
        }
    }

    #[test]
    fn on_off_bursts_are_bounded() {
        // At peak the on-off process can inject every on-cycle, never
        // more: with rate*period/on_len >= 1 the cap engages.
        let p = InjectionProcess::OnOff {
            on_len: 4,
            off_len: 60,
        };
        assert_eq!(p.burst_bound(), Some(4));
        let m = InjectionProcess::Mmpp {
            boost: 4.0,
            mean_dwell_lo: 50,
            mean_dwell_hi: 20,
            max_dwell_hi: 12,
        };
        assert_eq!(m.burst_bound(), Some(12));
        assert_eq!(InjectionProcess::Bernoulli.burst_bound(), None);
    }

    #[test]
    fn invalid_processes_are_rejected() {
        assert!(InjectionProcess::OnOff {
            on_len: 0,
            off_len: 5
        }
        .validate()
        .is_err());
        assert!(InjectionProcess::Mmpp {
            boost: 0.5,
            mean_dwell_lo: 10,
            mean_dwell_hi: 10,
            max_dwell_hi: 10
        }
        .validate()
        .is_err());
        assert!(InjectionProcess::Mmpp {
            boost: 4.0,
            mean_dwell_lo: 0,
            mean_dwell_hi: 10,
            max_dwell_hi: 10
        }
        .validate()
        .is_err());
        assert!(InjectionProcess::Bernoulli.validate().is_ok());
    }

    #[test]
    fn token_bucket_shapes_and_defers_without_loss() {
        let cfg = NocConfig::paper();
        let mut net = IdealNetwork::new(cfg.clone());
        // Saturating offered load, tightly shaped responses.
        let mut gen = TrafficGen::new(cfg.clone(), Pattern::UniformRandom, 0.5, 11)
            .response_fraction(1.0)
            .token_bucket(
                MessageClass::Response,
                TokenBucketCfg {
                    rate: 0.5,
                    burst: 10,
                },
            );
        for _ in 0..1_000 {
            gen.tick(&mut net);
            net.step();
            net.drain_delivered();
        }
        assert!(gen.deferred() > 0, "a dry bucket must defer packets");
        // Admitted flits must respect the sustained rate plus the burst.
        let admitted_flits = gen.injected() * u64::from(cfg.max_packet_len);
        assert!(
            admitted_flits <= (0.5 * 1_000.0) as u64 * 64 + 10 * 64 + 64,
            "shaper leaked: {admitted_flits} flits admitted"
        );
        // Deferred packets eventually flow; nothing is dropped silently.
        assert!(gen.pending() > 0 || gen.injected() > 0);
    }

    #[test]
    fn trace_recording_captures_every_injection() {
        let cfg = NocConfig::paper();
        let mut net = MeshNetwork::new(cfg.clone());
        let mut gen = TrafficGen::new(cfg.clone(), Pattern::UniformRandom, 0.05, 3)
            .injection(InjectionProcess::OnOff {
                on_len: 8,
                off_len: 24,
            })
            .record_trace();
        for _ in 0..300 {
            gen.tick(&mut net);
            net.step();
            net.drain_delivered();
        }
        let injected = gen.injected();
        let trace = gen.take_trace();
        assert_eq!(trace.len() as u64, injected);
        assert!(trace.validate(64).is_ok());
    }
}
