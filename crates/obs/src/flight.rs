//! Per-packet flight records: inject → per-hop timing → eject.
//!
//! The recorder assembles one [`FlightRecord`] per data packet from the
//! raw event stream, tracking the head flit's switch grants and link
//! traversals so each hop shows when allocation happened (or that the
//! hop rode a PRA reservation and skipped allocation entirely — the
//! *pre-allocated prefix* of the flight).

use std::collections::BTreeMap;

use crate::event::{Cycle, Event};
use crate::sink::EventSink;

/// One hop of a packet's head flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// Node the head flit departed from.
    pub node: u64,
    /// Output port index it left through.
    pub out_port: u8,
    /// Cycle switch allocation granted the hop (`None` for reserved
    /// hops, which skip allocation).
    pub grant: Option<Cycle>,
    /// Cycle the head flit traversed the link.
    pub traverse: Cycle,
    /// Whether the hop used a pre-installed PRA reservation.
    pub reserved: bool,
}

/// A packet's full flight through the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Packet id.
    pub packet: u64,
    /// Source node index.
    pub src: u64,
    /// Destination node index.
    pub dest: u64,
    /// Message class index.
    pub class: u8,
    /// Packet length in flits.
    pub len: u8,
    /// Injection cycle.
    pub injected: Cycle,
    /// Ejection cycle (tail flit accepted), when delivered.
    pub ejected: Option<Cycle>,
    /// Purge cycle, when fault-dropped instead of delivered.
    pub dropped: Option<Cycle>,
    /// Head-flit hops in traversal order.
    pub hops: Vec<HopRecord>,
}

impl FlightRecord {
    /// Inject-to-eject latency in cycles, when the packet was delivered.
    #[must_use]
    pub fn latency(&self) -> Option<u64> {
        self.ejected.map(|e| e.saturating_sub(self.injected))
    }

    /// Number of leading hops that rode PRA reservations — the paper's
    /// pre-allocated prefix of the flight.
    #[must_use]
    pub fn prealloc_prefix(&self) -> usize {
        self.hops.iter().take_while(|h| h.reserved).count()
    }
}

/// Assembles flight records from the event stream.
///
/// Completed flights are retained up to a cap; beyond it they are
/// counted and discarded, keeping memory bounded on long runs.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    active: BTreeMap<u64, FlightRecord>,
    completed: Vec<FlightRecord>,
    /// Most recent head-flit switch grant per packet, waiting for its
    /// matching link traversal: `packet -> (cycle, node, out_port)`.
    pending_grant: BTreeMap<u64, (Cycle, u64, u8)>,
    max_completed: usize,
    discarded: u64,
}

impl FlightRecorder {
    /// A recorder retaining at most `max_completed` finished flights.
    #[must_use]
    pub fn new(max_completed: usize) -> Self {
        FlightRecorder {
            active: BTreeMap::new(),
            completed: Vec::new(),
            pending_grant: BTreeMap::new(),
            max_completed,
            discarded: 0,
        }
    }

    /// Processes one event; returns the flight it completed, if any.
    pub fn observe(&mut self, cycle: Cycle, event: &Event) -> Option<&FlightRecord> {
        match *event {
            Event::PacketInjected {
                packet,
                src,
                dest,
                class,
                len,
            } => {
                self.active.insert(
                    packet,
                    FlightRecord {
                        packet,
                        src,
                        dest,
                        class,
                        len,
                        injected: cycle,
                        ejected: None,
                        dropped: None,
                        hops: Vec::new(),
                    },
                );
                None
            }
            Event::SwitchGrant {
                packet,
                seq,
                node,
                out_port,
            } => {
                if seq == 0 && self.active.contains_key(&packet) {
                    self.pending_grant.insert(packet, (cycle, node, out_port));
                }
                None
            }
            Event::LinkTraverse {
                packet,
                seq,
                node,
                out_port,
                reserved,
            } => {
                if seq == 0 {
                    if let Some(rec) = self.active.get_mut(&packet) {
                        let grant = match self.pending_grant.remove(&packet) {
                            Some((g, gnode, gport)) if gnode == node && gport == out_port => {
                                Some(g)
                            }
                            _ => None,
                        };
                        rec.hops.push(HopRecord {
                            node,
                            out_port,
                            grant,
                            traverse: cycle,
                            reserved,
                        });
                    }
                }
                None
            }
            Event::PacketEjected { packet, .. } => self.finish(packet, cycle, false),
            Event::PacketDropped { packet, .. } => self.finish(packet, cycle, true),
            _ => None,
        }
    }

    fn finish(&mut self, packet: u64, cycle: Cycle, dropped: bool) -> Option<&FlightRecord> {
        self.pending_grant.remove(&packet);
        let mut rec = self.active.remove(&packet)?;
        if dropped {
            rec.dropped = Some(cycle);
        } else {
            rec.ejected = Some(cycle);
        }
        if self.completed.len() >= self.max_completed {
            self.discarded += 1;
            return None;
        }
        self.completed.push(rec);
        self.completed.last()
    }

    /// Finished flights, oldest first (up to the retention cap).
    #[must_use]
    pub fn completed(&self) -> &[FlightRecord] {
        &self.completed
    }

    /// Finished flights discarded because the retention cap was hit.
    #[must_use]
    pub fn discarded(&self) -> u64 {
        self.discarded
    }
}

impl EventSink for FlightRecorder {
    fn record(&mut self, cycle: Cycle, event: Event) {
        self.observe(cycle, &event);
    }
}

/// Output-port letter used in compact path strings (port-index order
/// `0-3` = `N/S/E/W`, `4` = local/ejection).
#[must_use]
pub fn port_letter(out_port: u8) -> char {
    match out_port {
        0 => 'N',
        1 => 'S',
        2 => 'E',
        3 => 'W',
        4 => 'L',
        _ => '?',
    }
}

/// Renders flights as a compact CSV: one row per packet with endpoint
/// timing, hop count, pre-allocated-prefix length, and a `;`-joined
/// per-hop path (`node>dir@cycle`, `*` marking reserved hops).
#[must_use]
pub fn flights_to_csv(flights: &[FlightRecord]) -> String {
    let mut out = String::from(
        "packet,src,dest,class,len_flits,injected,finished,outcome,latency,hops,prealloc_prefix,path\n",
    );
    for f in flights {
        let (finished, outcome) = match (f.ejected, f.dropped) {
            (Some(e), _) => (e.to_string(), "delivered"),
            (None, Some(d)) => (d.to_string(), "dropped"),
            (None, None) => (String::new(), "in_flight"),
        };
        let latency = f.latency().map(|l| l.to_string()).unwrap_or_default();
        let path: Vec<String> = f
            .hops
            .iter()
            .map(|h| {
                let star = if h.reserved { "*" } else { "" };
                format!(
                    "{}>{}@{}{}",
                    h.node,
                    port_letter(h.out_port),
                    h.traverse,
                    star
                )
            })
            .collect();
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}\n",
            f.packet,
            f.src,
            f.dest,
            f.class,
            f.len,
            f.injected,
            finished,
            outcome,
            latency,
            f.hops.len(),
            f.prealloc_prefix(),
            path.join(";")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inject(packet: u64) -> Event {
        Event::PacketInjected {
            packet,
            src: 0,
            dest: 3,
            class: 2,
            len: 5,
        }
    }

    #[test]
    fn assembles_hops_with_grants_and_prefix() {
        let mut r = FlightRecorder::new(16);
        r.observe(10, &inject(1));
        // Two reserved hops, then one allocated hop.
        r.observe(
            11,
            &Event::LinkTraverse {
                packet: 1,
                seq: 0,
                node: 0,
                out_port: 1,
                reserved: true,
            },
        );
        r.observe(
            12,
            &Event::LinkTraverse {
                packet: 1,
                seq: 0,
                node: 1,
                out_port: 1,
                reserved: true,
            },
        );
        r.observe(
            13,
            &Event::SwitchGrant {
                packet: 1,
                seq: 0,
                node: 2,
                out_port: 1,
            },
        );
        r.observe(
            14,
            &Event::LinkTraverse {
                packet: 1,
                seq: 0,
                node: 2,
                out_port: 1,
                reserved: false,
            },
        );
        let done = r
            .observe(16, &Event::PacketEjected { packet: 1, node: 3 })
            .cloned()
            .expect("flight must complete on ejection");
        assert_eq!(done.hops.len(), 3);
        assert_eq!(done.prealloc_prefix(), 2);
        assert_eq!(done.hops[2].grant, Some(13));
        assert_eq!(done.hops[0].grant, None);
        assert_eq!(done.latency(), Some(6));
        assert!(r.active.is_empty());
    }

    #[test]
    fn drop_is_terminal_and_cap_is_enforced() {
        let mut r = FlightRecorder::new(1);
        r.observe(0, &inject(1));
        r.observe(1, &inject(2));
        r.observe(
            5,
            &Event::PacketDropped {
                packet: 1,
                flits: 5,
            },
        );
        r.observe(6, &Event::PacketEjected { packet: 2, node: 3 });
        assert_eq!(r.completed().len(), 1);
        assert_eq!(r.discarded(), 1);
        assert!(r.completed()[0].dropped.is_some());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut r = FlightRecorder::new(4);
        r.observe(0, &inject(7));
        r.observe(3, &Event::PacketEjected { packet: 7, node: 3 });
        let csv = flights_to_csv(r.completed());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("packet,src,dest"));
        assert!(lines[1].starts_with("7,0,3,2,5,0,3,delivered,3,0,0,"));
    }
}
