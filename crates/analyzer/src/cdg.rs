//! Channel-dependency-graph construction and the Dally/Seitz acyclicity
//! proof.
//!
//! A **channel** is a directed mesh link `(router, outgoing direction)`.
//! A route that traverses channel `c₁` and then channel `c₂` makes the
//! packet hold `c₁`'s downstream buffer while waiting for `c₂` — a
//! dependency edge `c₁ → c₂`. Dally & Seitz: a routing function is
//! deadlock-free on a wormhole network iff the union of these
//! dependencies over all routes is acyclic. [`Cdg::build`] enumerates
//! every (src, dst) pair under a [`RoutingSpec`] and collects the exact
//! dependency set; [`Cdg::verify_acyclic`] either proves acyclicity or
//! reports one offending cycle, channel by channel.

use noc::config::NocConfig;
use noc::routing::{neighbor, step};
use noc::types::{Direction, NodeId};

use crate::routing::{RouteError, RoutingSpec};

/// A directed mesh channel: the link leaving `node` toward `dir`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Channel {
    /// Router the channel leaves.
    pub node: NodeId,
    /// Direction of the link from `node`.
    pub dir: Direction,
}

impl std::fmt::Display for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}→{}", self.node, self.dir)
    }
}

/// A dependency cycle found in a channel-dependency graph: the channels
/// in order, with the last depending on the first. Its `Display`
/// rendering is the counterexample the verifier prints.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyCycle {
    /// The channels on the cycle (length ≥ 2, no repeats).
    pub channels: Vec<Channel>,
}

impl std::fmt::Display for DependencyCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "channel dependency cycle ({} channels): ",
            self.channels.len()
        )?;
        for c in &self.channels {
            write!(f, "{c} ⇒ ")?;
        }
        match self.channels.first() {
            Some(first) => write!(f, "{first}"),
            None => f.write_str("(empty)"),
        }
    }
}

impl std::error::Error for DependencyCycle {}

/// The channel-dependency graph of a routing function on a mesh.
#[derive(Debug, Clone)]
pub struct Cdg {
    nodes: usize,
    /// Dependency adjacency: `adj[c]` lists channel indices `c` depends
    /// on (deduplicated, sorted). Channel index = `node * 4 + dir`.
    adj: Vec<Vec<u32>>,
    /// Total dependency edges.
    edges: usize,
    /// Ordered pairs the spec declared unroutable.
    unroutable_pairs: usize,
}

impl Cdg {
    /// Builds the dependency graph of `spec` over every ordered
    /// (src, dst) pair of the mesh.
    ///
    /// # Errors
    ///
    /// Returns the first [`RouteError`] if the spec produces a
    /// non-terminating or internally inconsistent route.
    pub fn build(cfg: &NocConfig, spec: &dyn RoutingSpec) -> Result<Cdg, RouteError> {
        let n = cfg.nodes();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n * 4];
        let mut edges = 0usize;
        let mut unroutable_pairs = 0usize;
        for src in 0..n {
            for dest in 0..n {
                if src == dest {
                    continue;
                }
                let src = NodeId::new(src as u16);
                let dest = NodeId::new(dest as u16);
                let Some(dirs) = spec.path(cfg, src, dest)? else {
                    unroutable_pairs += 1;
                    continue;
                };
                let mut here = cfg.coord(src);
                let mut prev: Option<u32> = None;
                for d in dirs {
                    let ch = (cfg.node_at(here).index() * 4 + d as usize) as u32;
                    if let Some(p) = prev {
                        let deps = &mut adj[p as usize];
                        if let Err(at) = deps.binary_search(&ch) {
                            deps.insert(at, ch);
                            edges += 1;
                        }
                    }
                    prev = Some(ch);
                    here = step(here, d);
                }
            }
        }
        Ok(Cdg {
            nodes: n,
            adj,
            edges,
            unroutable_pairs,
        })
    }

    /// Number of dependency edges in the graph.
    pub fn dependencies(&self) -> usize {
        self.edges
    }

    /// Ordered pairs the routing function declared unroutable (orphaned
    /// by a turn restriction or a dead endpoint).
    pub fn unroutable_pairs(&self) -> usize {
        self.unroutable_pairs
    }

    /// Whether the graph contains the dependency `from → to`.
    pub fn has_dependency(&self, from: Channel, to: Channel) -> bool {
        let f = from.node.index() * 4 + from.dir as usize;
        let t = (to.node.index() * 4 + to.dir as usize) as u32;
        self.adj[f].binary_search(&t).is_ok()
    }

    /// Proves the dependency graph acyclic, or returns one cycle.
    ///
    /// # Errors
    ///
    /// Returns the [`DependencyCycle`] found first (iterative DFS,
    /// deterministic order), as the printable counterexample.
    pub fn verify_acyclic(&self) -> Result<(), DependencyCycle> {
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        let m = self.nodes * 4;
        let mut color = vec![WHITE; m];
        // Iterative DFS keeping the grey path on an explicit stack of
        // (channel, next-neighbour-index) frames.
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in 0..m {
            if color[root] != WHITE {
                continue;
            }
            color[root] = GREY;
            stack.push((root, 0));
            while let Some(&mut (c, ref mut next)) = stack.last_mut() {
                if *next < self.adj[c].len() {
                    let t = self.adj[c][*next] as usize;
                    *next += 1;
                    match color[t] {
                        WHITE => {
                            color[t] = GREY;
                            stack.push((t, 0));
                        }
                        GREY => {
                            // Back edge: the grey path from `t` to `c`
                            // plus the edge `c → t` closes a cycle.
                            let from = stack
                                .iter()
                                .position(|&(s, _)| s == t)
                                .expect("grey channel is on the DFS stack");
                            let channels = stack[from..]
                                .iter()
                                .map(|&(s, _)| Channel {
                                    node: NodeId::new((s / 4) as u16),
                                    dir: Direction::ALL[s % 4],
                                })
                                .collect();
                            return Err(DependencyCycle { channels });
                        }
                        _ => {}
                    }
                } else {
                    color[c] = BLACK;
                    stack.pop();
                }
            }
        }
        Ok(())
    }

    /// Validates that `cycle` really is a cycle of this graph: every
    /// consecutive dependency (and the closing edge) exists and every
    /// channel is a real mesh link. Used by the self-checking tests so a
    /// bug in cycle *reporting* cannot masquerade as a detection.
    pub fn confirms_cycle(&self, cfg: &NocConfig, cycle: &DependencyCycle) -> bool {
        let k = cycle.channels.len();
        if k < 2 {
            return false;
        }
        for (i, &c) in cycle.channels.iter().enumerate() {
            if neighbor(cfg, c.node, c.dir).is_none() {
                return false; // off-mesh channel
            }
            let nxt = cycle.channels[(i + 1) % k];
            if !self.has_dependency(c, nxt) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{CheckerboardAdaptive, XyRouting};
    use noc::config::NocConfigBuilder;

    fn mesh(radix: u16) -> NocConfig {
        NocConfigBuilder::new()
            .radix(radix)
            .build()
            .expect("valid test configuration")
    }

    #[test]
    fn xy_cdg_has_no_prohibited_turn_dependencies() {
        let cfg = mesh(4);
        let cdg = Cdg::build(&cfg, &XyRouting).expect("xy builds");
        // XY forbids every turn out of the Y dimension; spot-check one.
        let from = Channel {
            node: NodeId::new(1),
            dir: Direction::South,
        };
        let to = Channel {
            node: NodeId::new(5),
            dir: Direction::East,
        };
        assert!(!cdg.has_dependency(from, to), "Y→X turn in an XY CDG");
        assert!(cdg.unroutable_pairs() == 0);
    }

    #[test]
    fn smallest_mesh_checkerboard_cycle_is_the_textbook_square() {
        let cfg = mesh(2);
        let cdg = Cdg::build(&cfg, &CheckerboardAdaptive).expect("builds");
        let cycle = cdg
            .verify_acyclic()
            .expect_err("checkerboard must be cyclic");
        assert_eq!(cycle.channels.len(), 4, "2×2 mesh: the four-turn square");
        assert!(cdg.confirms_cycle(&cfg, &cycle));
    }

    #[test]
    fn cycle_display_names_every_channel() {
        let cfg = mesh(2);
        let cdg = Cdg::build(&cfg, &CheckerboardAdaptive).expect("builds");
        let cycle = cdg
            .verify_acyclic()
            .expect_err("checkerboard must be cyclic");
        let text = cycle.to_string();
        for c in &cycle.channels {
            assert!(text.contains(&c.to_string()), "{text} misses {c}");
        }
        assert!(text.contains("⇒"));
    }
}
