//! Fundamental identifiers and enumerations shared by every network
//! organisation in this workspace.
//!
//! The types here are deliberately small `Copy` values: the simulator moves
//! millions of flits per run and never heap-allocates per flit.

use std::fmt;

/// A cycle count. The simulator clock is a monotonically increasing `u64`.
pub type Cycle = u64;

/// Identifier of a node (tile) in the network.
///
/// Nodes are numbered row-major: node `y * radix + x` sits at column `x`,
/// row `y` of the mesh.
///
/// # Examples
///
/// ```
/// use noc::types::NodeId;
///
/// let n = NodeId::new(9);
/// assert_eq!(n.index(), 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node id from a raw index.
    pub const fn new(index: u16) -> Self {
        NodeId(index)
    }

    /// The raw index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

/// Two-dimensional mesh coordinate of a node.
///
/// # Examples
///
/// ```
/// use noc::types::{Coord, NodeId};
///
/// let c = Coord::from_node(NodeId::new(9), 8);
/// assert_eq!((c.x, c.y), (1, 1));
/// assert_eq!(c.to_node(8), NodeId::new(9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column (X position), 0-based from the west edge.
    pub x: u8,
    /// Row (Y position), 0-based from the north edge.
    pub y: u8,
}

impl Coord {
    /// Creates a coordinate from explicit column/row values.
    pub const fn new(x: u8, y: u8) -> Self {
        Coord { x, y }
    }

    /// Converts a node id to its coordinate in a mesh of the given `radix`
    /// (nodes per row). A power-of-two radix — every committed spec's —
    /// splits the id with a mask and a shift instead of dividing.
    // hot
    #[inline]
    pub fn from_node(node: NodeId, radix: u16) -> Self {
        let idx = node.0;
        if radix.is_power_of_two() {
            return Coord {
                x: (idx & (radix - 1)) as u8,
                y: (idx >> radix.trailing_zeros()) as u8,
            };
        }
        Coord {
            x: (idx % radix) as u8,
            y: (idx / radix) as u8,
        }
    }

    /// Converts this coordinate back to a node id in a mesh of the given
    /// `radix`.
    pub fn to_node(self, radix: u16) -> NodeId {
        NodeId(self.y as u16 * radix + self.x as u16)
    }

    /// Manhattan distance (hop count on a minimal mesh path) to `other`.
    pub fn manhattan(self, other: Coord) -> u32 {
        let dx = (self.x as i32 - other.x as i32).unsigned_abs();
        let dy = (self.y as i32 - other.y as i32).unsigned_abs();
        dx + dy
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// Protocol message class. Each class travels in its own virtual channel to
/// guarantee protocol-level deadlock freedom (Dally & Towles, ch. 14).
///
/// The paper's server-processor network carries exactly these three classes;
/// requests and coherence messages are single-flit ("short") packets while
/// responses carry a cache line and are multi-flit ("long") packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageClass {
    /// Core → LLC slice requests (single flit).
    Request,
    /// Directory/coherence traffic (single flit, negligible volume).
    Coherence,
    /// LLC → core data responses (header + cache line; multi-flit).
    Response,
}

impl MessageClass {
    /// All message classes in virtual-channel index order.
    pub const ALL: [MessageClass; 3] = [
        MessageClass::Request,
        MessageClass::Coherence,
        MessageClass::Response,
    ];

    /// The virtual-channel index reserved for this class (one VC per class).
    pub const fn vc(self) -> usize {
        match self {
            MessageClass::Request => 0,
            MessageClass::Coherence => 1,
            MessageClass::Response => 2,
        }
    }

    /// Inverse of [`MessageClass::vc`].
    ///
    /// # Panics
    ///
    /// Panics if `vc` is not in `0..3`.
    pub fn from_vc(vc: usize) -> Self {
        match vc {
            0 => MessageClass::Request,
            1 => MessageClass::Coherence,
            2 => MessageClass::Response,
            _ => panic!("virtual channel {vc} does not map to a message class"),
        }
    }
}

impl fmt::Display for MessageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessageClass::Request => "request",
            MessageClass::Coherence => "coherence",
            MessageClass::Response => "response",
        };
        f.write_str(s)
    }
}

/// Unique identifier of a packet for the lifetime of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Cardinal mesh direction, also used to name router ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// Toward decreasing `y`.
    North,
    /// Toward increasing `y`.
    South,
    /// Toward increasing `x`.
    East,
    /// Toward decreasing `x`.
    West,
}

impl Direction {
    /// All four directions in port-index order.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
    ];

    /// The direction a flit travelling this way arrives *from* at the next
    /// router (i.e. the opposite direction).
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }

    /// Unit step of this direction as `(dx, dy)`.
    pub const fn delta(self) -> (i32, i32) {
        match self {
            Direction::North => (0, -1),
            Direction::South => (0, 1),
            Direction::East => (1, 0),
            Direction::West => (-1, 0),
        }
    }

    /// Whether this direction moves along the X dimension.
    pub const fn is_x(self) -> bool {
        matches!(self, Direction::East | Direction::West)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::South => "S",
            Direction::East => "E",
            Direction::West => "W",
        };
        f.write_str(s)
    }
}

/// A router port: one of the four mesh directions or the local
/// injection/ejection port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Port {
    /// A link toward the neighbouring router in the given direction.
    Dir(Direction),
    /// The local port connecting the router to its tile's network interface.
    Local,
}

impl Port {
    /// All five ports in index order (N, S, E, W, Local).
    pub const ALL: [Port; 5] = [
        Port::Dir(Direction::North),
        Port::Dir(Direction::South),
        Port::Dir(Direction::East),
        Port::Dir(Direction::West),
        Port::Local,
    ];

    /// Number of ports on a mesh router.
    pub const COUNT: usize = 5;

    /// Dense index of this port in `0..Port::COUNT`.
    pub const fn index(self) -> usize {
        match self {
            Port::Dir(Direction::North) => 0,
            Port::Dir(Direction::South) => 1,
            Port::Dir(Direction::East) => 2,
            Port::Dir(Direction::West) => 3,
            Port::Local => 4,
        }
    }

    /// Inverse of [`Port::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is not in `0..Port::COUNT`.
    pub fn from_index(index: usize) -> Self {
        Port::ALL[index]
    }

    /// The direction of this port, or `None` for the local port.
    pub const fn direction(self) -> Option<Direction> {
        match self {
            Port::Dir(d) => Some(d),
            Port::Local => None,
        }
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Port::Dir(d) => write!(f, "{d}"),
            Port::Local => f.write_str("L"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every radix from 1 to 16 and every node of its mesh: the
    /// coordinate equals the `%`/`/` formula (whether or not the radix is
    /// a power of two) and converts back to the same node.
    #[test]
    fn node_coord_round_trip() {
        for radix in 1u16..=16 {
            for idx in 0..radix * radix {
                let n = NodeId::new(idx);
                let c = Coord::from_node(n, radix);
                let at = format!("radix {radix}, idx {idx}");
                assert_eq!(
                    (c.x, c.y),
                    ((idx % radix) as u8, (idx / radix) as u8),
                    "{at}"
                );
                assert_eq!(c.to_node(radix), n, "{at}");
            }
        }
    }

    #[test]
    fn manhattan_distance() {
        let a = Coord::new(0, 0);
        let b = Coord::new(7, 7);
        assert_eq!(a.manhattan(b), 14);
        assert_eq!(b.manhattan(a), 14);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn message_class_vc_round_trip() {
        for class in MessageClass::ALL {
            assert_eq!(MessageClass::from_vc(class.vc()), class);
        }
    }

    #[test]
    #[should_panic(expected = "does not map")]
    fn message_class_bad_vc_panics() {
        let _ = MessageClass::from_vc(3);
    }

    #[test]
    fn direction_opposites() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
            let (dx, dy) = d.delta();
            let (ox, oy) = d.opposite().delta();
            assert_eq!((dx + ox, dy + oy), (0, 0));
        }
    }

    #[test]
    fn port_index_round_trip() {
        for p in Port::ALL {
            assert_eq!(Port::from_index(p.index()), p);
        }
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert_eq!(NodeId::new(3).to_string(), "n3");
        assert_eq!(Coord::new(1, 2).to_string(), "(1,2)");
        assert_eq!(MessageClass::Request.to_string(), "request");
        assert_eq!(Port::Local.to_string(), "L");
        assert_eq!(Direction::East.to_string(), "E");
        assert_eq!(PacketId(7).to_string(), "p7");
    }
}
