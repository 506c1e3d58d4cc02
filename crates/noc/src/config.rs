//! Network configuration.
//!
//! [`NocConfig`] captures the parameters of Table I of the paper and is
//! shared by all network organisations. Construct one with
//! [`NocConfig::paper`] (the 8×8, 3-VC, 5-flit-deep configuration used in
//! the evaluation) or via [`NocConfigBuilder`] for custom studies.

use crate::faults::FaultPlan;
use crate::reliable::ReliabilityConfig;
use crate::types::{Coord, MessageClass, NodeId, Port};

/// Fewest virtual channels per port a network can run: a flit travels
/// on the VC of its message class, so every class needs its own.
pub const MIN_VCS_PER_PORT: usize = MessageClass::ALL.len();

/// Most virtual channels per port a mesh router can run: its input-VC
/// occupancy mask is a `u32` with one bit per `(port, VC)`.
pub const MAX_VCS_PER_PORT: usize = u32::BITS as usize / Port::COUNT;

/// Errors produced when validating a [`NocConfig`].
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The mesh radix must be at least 2.
    RadixTooSmall(u16),
    /// The mesh radix must fit node ids in `u16`.
    RadixTooLarge(u16),
    /// Virtual channels per port must lie in
    /// [`MIN_VCS_PER_PORT`]`..=`[`MAX_VCS_PER_PORT`].
    BadVcsPerPort(usize),
    /// VC depth must cover at least one flit.
    ZeroVcDepth,
    /// Packets may pass at most this many hops per cycle; must be ≥ 1.
    ZeroHopsPerCycle,
    /// Maximum packet length must be ≥ 1 and fit in the VC depth.
    BadMaxPacketLen {
        /// Offending length.
        len: u8,
        /// Configured VC depth.
        vc_depth: u8,
    },
    /// The reliability ack timeout must be at least 1 cycle.
    ZeroAckTimeout,
    /// The reliability retry budget must stay small enough for the
    /// exponential backoff horizon to be meaningful.
    RetryBudgetTooLarge(u8),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::RadixTooSmall(r) => write!(f, "mesh radix {r} is below the minimum of 2"),
            ConfigError::RadixTooLarge(r) => {
                write!(f, "mesh radix {r} exceeds the supported maximum of 255")
            }
            ConfigError::BadVcsPerPort(v) => write!(
                f,
                "{v} virtual channels per port is outside \
                 {MIN_VCS_PER_PORT}..={MAX_VCS_PER_PORT}"
            ),
            ConfigError::ZeroVcDepth => {
                f.write_str("virtual channel depth must be at least 1 flit")
            }
            ConfigError::ZeroHopsPerCycle => f.write_str("hops per cycle must be at least 1"),
            ConfigError::BadMaxPacketLen { len, vc_depth } => write!(
                f,
                "maximum packet length {len} must be between 1 and the VC depth {vc_depth}"
            ),
            ConfigError::ZeroAckTimeout => {
                f.write_str("reliability ack timeout must be at least 1 cycle")
            }
            ConfigError::RetryBudgetTooLarge(b) => {
                write!(f, "reliability retry budget {b} exceeds the maximum of 32")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Parameters shared by every network organisation.
///
/// # Examples
///
/// ```
/// use noc::config::NocConfig;
///
/// let cfg = NocConfig::paper();
/// assert_eq!(cfg.radix, 8);
/// assert_eq!(cfg.nodes(), 64);
/// assert_eq!(cfg.vcs_per_port, 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NocConfig {
    /// Nodes per mesh row/column (the evaluation uses an 8×8 mesh).
    pub radix: u16,
    /// Virtual channels per input port (one per message class).
    pub vcs_per_port: usize,
    /// Flit capacity of each virtual channel (5 covers the round-trip
    /// credit time in the paper's configuration).
    pub vc_depth: u8,
    /// Link width in bits (used only for energy/area accounting; the
    /// simulator is flit-granular).
    pub link_width_bits: u32,
    /// Maximum number of hops a flit may cover in a single cycle on a
    /// multi-hop traversal (2 for the server-class wire budget of the
    /// paper: fat tiles, 2 GHz, 85 ps/mm wires).
    pub max_hops_per_cycle: u8,
    /// Length of the longest packet in flits (cache-line response: header +
    /// four 128-bit data flits).
    pub max_packet_len: u8,
    /// Optional deterministic fault-injection schedule (see
    /// [`crate::faults`]). `None` disables fault injection entirely; the
    /// datapath then behaves bit-for-bit as if the subsystem did not
    /// exist.
    pub faults: Option<FaultPlan>,
    /// Optional per-class arbitration priority, indexed by VC
    /// (request, coherence, response); higher wins. `None` (the
    /// default) keeps the class-oblivious round-robin arbiters and the
    /// historical cycle-for-cycle behaviour. When set, switch
    /// allocation serves the highest-priority class with an eligible
    /// flit first (non-preemptive: in-flight wormholes keep their port
    /// locks), with round-robin tie-breaking inside a class.
    pub class_priority: Option<[u8; 3]>,
    /// Optional end-to-end reliability layer (see [`crate::reliable`]):
    /// per-source retransmission windows, duplicate suppression, and
    /// bounded-retry escalation of persistent loss. `None` (the
    /// default) keeps the historical lossy semantics bit-for-bit —
    /// digests, goldens and stats are unchanged.
    pub reliability: Option<ReliabilityConfig>,
}

impl NocConfig {
    /// The configuration of Table I: 8×8 mesh, 3 VCs/port, 5 flits/VC,
    /// 128-bit links, two hops per cycle, 5-flit responses.
    pub fn paper() -> Self {
        NocConfig {
            radix: 8,
            vcs_per_port: 3,
            vc_depth: 5,
            link_width_bits: 128,
            max_hops_per_cycle: 2,
            max_packet_len: 5,
            faults: None,
            class_priority: None,
            reliability: None,
        }
    }

    /// Total node count (`radix²`).
    pub fn nodes(&self) -> usize {
        self.radix as usize * self.radix as usize
    }

    /// Coordinate of `node` in this mesh.
    pub fn coord(&self, node: NodeId) -> Coord {
        Coord::from_node(node, self.radix)
    }

    /// Node at coordinate `c` in this mesh.
    pub fn node_at(&self, c: Coord) -> NodeId {
        c.to_node(self.radix)
    }

    /// Whether coordinate `(x, y)` lies inside the mesh.
    pub fn in_bounds(&self, x: i32, y: i32) -> bool {
        x >= 0 && y >= 0 && (x as u16) < self.radix && (y as u16) < self.radix
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.radix < 2 {
            return Err(ConfigError::RadixTooSmall(self.radix));
        }
        if self.radix > 255 {
            return Err(ConfigError::RadixTooLarge(self.radix));
        }
        if !(MIN_VCS_PER_PORT..=MAX_VCS_PER_PORT).contains(&self.vcs_per_port) {
            return Err(ConfigError::BadVcsPerPort(self.vcs_per_port));
        }
        if self.vc_depth == 0 {
            return Err(ConfigError::ZeroVcDepth);
        }
        if self.max_hops_per_cycle == 0 {
            return Err(ConfigError::ZeroHopsPerCycle);
        }
        if self.max_packet_len == 0 || self.max_packet_len > self.vc_depth {
            return Err(ConfigError::BadMaxPacketLen {
                len: self.max_packet_len,
                vc_depth: self.vc_depth,
            });
        }
        if let Some(rel) = &self.reliability {
            if rel.ack_timeout == 0 {
                return Err(ConfigError::ZeroAckTimeout);
            }
            if rel.retry_budget > 32 {
                return Err(ConfigError::RetryBudgetTooLarge(rel.retry_budget));
            }
        }
        Ok(())
    }

    /// Average minimal hop count over all distinct source/destination pairs
    /// (≈ 5.33 for the 8×8 mesh).
    pub fn average_hops(&self) -> f64 {
        let k = self.radix as f64;
        // Mean Manhattan distance between two uniform random points on a
        // k×k grid, excluding src == dest pairs.
        let mean_1d = (k * k - 1.0) / (3.0 * k);
        let total_pairs = (k * k) * (k * k);
        let self_pairs = k * k;
        2.0 * mean_1d * total_pairs / (total_pairs - self_pairs)
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig::paper()
    }
}

/// Builder for [`NocConfig`].
///
/// # Examples
///
/// ```
/// use noc::config::NocConfigBuilder;
///
/// let cfg = NocConfigBuilder::new()
///     .radix(4)
///     .vc_depth(8)
///     .max_packet_len(6)
///     .build()?;
/// assert_eq!(cfg.nodes(), 16);
/// # Ok::<(), noc::config::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NocConfigBuilder {
    cfg: NocConfig,
}

impl NocConfigBuilder {
    /// Starts from the paper configuration.
    pub fn new() -> Self {
        NocConfigBuilder {
            cfg: NocConfig::paper(),
        }
    }

    /// Sets the mesh radix (nodes per row).
    pub fn radix(mut self, radix: u16) -> Self {
        self.cfg.radix = radix;
        self
    }

    /// Sets the number of virtual channels per port.
    pub fn vcs_per_port(mut self, vcs: usize) -> Self {
        self.cfg.vcs_per_port = vcs;
        self
    }

    /// Sets the per-VC buffer depth in flits.
    pub fn vc_depth(mut self, depth: u8) -> Self {
        self.cfg.vc_depth = depth;
        self
    }

    /// Sets the link width in bits.
    pub fn link_width_bits(mut self, bits: u32) -> Self {
        self.cfg.link_width_bits = bits;
        self
    }

    /// Sets the single-cycle multi-hop ceiling.
    pub fn max_hops_per_cycle(mut self, hops: u8) -> Self {
        self.cfg.max_hops_per_cycle = hops;
        self
    }

    /// Sets the maximum packet length in flits.
    pub fn max_packet_len(mut self, len: u8) -> Self {
        self.cfg.max_packet_len = len;
        self
    }

    /// Installs a fault-injection plan (see [`crate::faults`]).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = Some(plan);
        self
    }

    /// Enables per-class priority arbitration: `priority[vc]` ranks the
    /// class carried on that VC, higher values winning switch
    /// allocation first.
    pub fn class_priority(mut self, priority: [u8; 3]) -> Self {
        self.cfg.class_priority = Some(priority);
        self
    }

    /// Enables the end-to-end reliability layer (see
    /// [`crate::reliable`]).
    pub fn reliability(mut self, rel: ReliabilityConfig) -> Self {
        self.cfg.reliability = Some(rel);
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any constraint is violated.
    pub fn build(self) -> Result<NocConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl Default for NocConfigBuilder {
    fn default() -> Self {
        NocConfigBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        NocConfig::paper().validate().unwrap();
    }

    #[test]
    fn paper_average_hops_matches_known_value() {
        let cfg = NocConfig::paper();
        // 8x8 mesh: mean distance including self pairs is 2*(63/24) = 5.25;
        // excluding self pairs: 5.25 * 4096/4032 ≈ 5.333.
        let avg = cfg.average_hops();
        assert!((avg - 5.333).abs() < 0.01, "got {avg}");
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert_eq!(
            NocConfigBuilder::new().radix(1).build(),
            Err(ConfigError::RadixTooSmall(1))
        );
        assert_eq!(
            NocConfigBuilder::new().radix(300).build(),
            Err(ConfigError::RadixTooLarge(300))
        );
        assert_eq!(
            NocConfigBuilder::new().vc_depth(0).build(),
            Err(ConfigError::ZeroVcDepth)
        );
        assert_eq!(
            NocConfigBuilder::new().max_hops_per_cycle(0).build(),
            Err(ConfigError::ZeroHopsPerCycle)
        );
        assert!(matches!(
            NocConfigBuilder::new().max_packet_len(9).build(),
            Err(ConfigError::BadMaxPacketLen { len: 9, .. })
        ));
        assert_eq!(
            NocConfigBuilder::new()
                .reliability(ReliabilityConfig {
                    retry_budget: 3,
                    ack_timeout: 0,
                    backoff_base: 8,
                    seed: 1,
                })
                .build(),
            Err(ConfigError::ZeroAckTimeout)
        );
        assert_eq!(
            NocConfigBuilder::new()
                .reliability(ReliabilityConfig {
                    retry_budget: 33,
                    ack_timeout: 64,
                    backoff_base: 8,
                    seed: 1,
                })
                .build(),
            Err(ConfigError::RetryBudgetTooLarge(33))
        );
        NocConfigBuilder::new()
            .reliability(ReliabilityConfig::with_seed(7))
            .build()
            .unwrap();
    }

    /// Zero VCs would panic building the arbiters, one or two would
    /// index past the VCs once a response is injected, and more than
    /// [`MAX_VCS_PER_PORT`] would not fit the mesh occupancy mask: all
    /// are refused up front.
    #[test]
    fn vcs_per_port_outside_the_supported_range_is_rejected() {
        use crate::flit::Packet;
        use crate::mesh::MeshNetwork;
        use crate::network::Network;
        use crate::types::PacketId;

        for vcs in [0, 1, 2, MAX_VCS_PER_PORT + 1, 64] {
            assert_eq!(
                NocConfigBuilder::new().vcs_per_port(vcs).build(),
                Err(ConfigError::BadVcsPerPort(vcs)),
                "{vcs} VCs per port"
            );
        }
        assert_eq!(MIN_VCS_PER_PORT, 3);
        assert_eq!(MAX_VCS_PER_PORT, 6);
        for vcs in MIN_VCS_PER_PORT..=MAX_VCS_PER_PORT {
            let cfg = NocConfigBuilder::new()
                .vcs_per_port(vcs)
                .build()
                .expect("supported VC count");
            let mut net = MeshNetwork::new(cfg);
            for (id, class) in (1u64..).zip(MessageClass::ALL) {
                let len = if class == MessageClass::Response {
                    5
                } else {
                    1
                };
                let dest = NodeId::new(63);
                net.inject(Packet::new(PacketId(id), NodeId::new(0), dest, class, len));
            }
            let delivered = net.run_to_drain(1_000);
            assert_eq!(delivered.len(), 3, "{vcs} VCs per port");
        }
    }

    #[test]
    fn bounds_checking() {
        let cfg = NocConfig::paper();
        assert!(cfg.in_bounds(0, 0));
        assert!(cfg.in_bounds(7, 7));
        assert!(!cfg.in_bounds(-1, 0));
        assert!(!cfg.in_bounds(8, 0));
        assert!(!cfg.in_bounds(0, 8));
    }

    #[test]
    fn config_errors_display() {
        for e in [
            ConfigError::RadixTooSmall(1),
            ConfigError::RadixTooLarge(999),
            ConfigError::BadVcsPerPort(0),
            ConfigError::ZeroVcDepth,
            ConfigError::ZeroHopsPerCycle,
            ConfigError::BadMaxPacketLen {
                len: 9,
                vc_depth: 5,
            },
            ConfigError::ZeroAckTimeout,
            ConfigError::RetryBudgetTooLarge(33),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
