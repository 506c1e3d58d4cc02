//! Explicit-state model checking of the end-to-end reliable-delivery
//! protocol.
//!
//! [`check_reliable_protocol`] breadth-first explores every reachable
//! state of a small abstract fabric — each tracked packet's window
//! entry, its live retransmission copies, and the nondeterministic
//! interleaving of arrivals, fault purges and ack-timeout firings —
//! and proves four invariants:
//!
//! 1. **Eventual delivery** — every execution terminates, and every
//!    terminal state has every packet resolved exactly one way:
//!    delivered once, or escalated to permanent-fault handling.
//! 2. **No duplicate ejection** — no interleaving of retransmissions
//!    and stragglers ever commits the same packet twice at its
//!    destination NI.
//! 3. **No wraparound hazard** — a window entry is never retired while
//!    copies of it still roam the fabric, so its sequence number can
//!    never be reused against a stale copy.
//! 4. **Bounded retransmission storm** — no packet is ever re-sent
//!    more than its retry budget allows.
//!
//! The checker consumes the *same pure rules* the runtime executes —
//! [`noc::reliable::retry_or_escalate`],
//! [`noc::reliable::eject_disposition`] and
//! [`noc::reliable::can_retire`], parameterised by
//! [`noc::reliable::RetrySemantics`] — so the verified model cannot
//! drift from the implementation, and the seeded bug doubles
//! ([`RetrySemantics::ack_before_commit`],
//! [`RetrySemantics::unbounded_retry`]) are refuted with shortest
//! counterexample traces.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use noc::reliable::{
    can_retire, eject_disposition, retry_or_escalate, EjectOutcome, EntryState, LossOutcome,
    RetrySemantics,
};

use crate::explore::{find_cycle, trace_to, Reached};

/// Exploration bounds for the reliable-delivery model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelBounds {
    /// Tracked packets explored concurrently.
    pub packets: usize,
    /// Retry budget each packet carries.
    pub retry_budget: u8,
    /// Hard cap on distinct states (a Termination violation if hit).
    pub max_states: usize,
}

impl RelBounds {
    /// The CI configuration: two interleaved packets, budget 2.
    #[must_use]
    pub fn standard() -> Self {
        RelBounds {
            packets: 2,
            retry_budget: 2,
            max_states: 500_000,
        }
    }

    /// A small configuration for interpreted runs (Miri).
    #[must_use]
    pub fn reduced() -> Self {
        RelBounds {
            packets: 1,
            retry_budget: 1,
            max_states: 20_000,
        }
    }
}

/// Which reliable-delivery invariant a violation falls under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelInvariant {
    /// Invariant 1: every execution resolves every packet exactly once.
    EventualDelivery,
    /// Invariant 2: no packet is ever committed twice at its NI.
    DuplicateEjection,
    /// Invariant 3: no entry retires while its copies still roam.
    WraparoundHazard,
    /// Invariant 4: retransmissions never exceed the retry budget.
    RetransmissionStorm,
    /// The exploration itself failed to converge (a cycle or bound).
    Termination,
}

impl fmt::Display for RelInvariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RelInvariant::EventualDelivery => "every packet is delivered or escalated exactly once",
            RelInvariant::DuplicateEjection => "no duplicate ejection at the destination NI",
            RelInvariant::WraparoundHazard => {
                "no retirement while copies roam (sequence-number wraparound hazard)"
            }
            RelInvariant::RetransmissionStorm => "retransmissions stay within the retry budget",
            RelInvariant::Termination => "every execution terminates",
        };
        f.write_str(name)
    }
}

/// A proven-reachable violation of the reliable-delivery protocol:
/// which invariant broke, how, and the shortest action sequence that
/// reaches it.
#[derive(Debug, Clone)]
pub struct RelViolation {
    /// The invariant that broke.
    pub invariant: RelInvariant,
    /// What exactly went wrong in the violating state.
    pub detail: String,
    /// The shortest counterexample: one fabric action per line.
    pub trace: Vec<String>,
}

impl fmt::Display for RelViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "reliable-delivery invariant violated: {}",
            self.invariant
        )?;
        writeln!(f, "  {}", self.detail)?;
        writeln!(f, "counterexample ({} step(s)):", self.trace.len())?;
        for (i, action) in self.trace.iter().enumerate() {
            writeln!(f, "  {:2}. {action}", i + 1)?;
        }
        Ok(())
    }
}

/// Exploration statistics for a proven-clean protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelReport {
    /// Distinct states explored.
    pub states: usize,
    /// Transitions taken (including ones into already-seen states).
    pub transitions: usize,
    /// Terminal states where every packet delivered on some flight.
    pub terminal_delivered: usize,
    /// Terminal states where at least one packet escalated.
    pub terminal_escalated: usize,
    /// Most copies of one packet ever simultaneously in flight.
    pub max_live_copies: u8,
}

/// One tracked packet in the abstract fabric: its window entry (or
/// `None` once retired), retry charge, live copy count, and the ghost
/// record of commits and escalation the invariants are stated over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PacketModel {
    /// Window entry state; `None` = retired (entry dropped, sequence
    /// number reusable).
    entry: Option<EntryState>,
    /// Retransmissions charged so far.
    attempt: u8,
    /// Copies currently in the fabric (the original counts as one).
    live: u8,
    /// Ghost: times this packet was committed at its NI.
    ejections: u8,
    /// Ghost: whether the packet was escalated.
    escalated: bool,
}

type State = Vec<PacketModel>;

struct Node {
    state: State,
    parent: Option<(usize, String)>,
}

impl Reached for Node {
    fn parent(&self) -> Option<&(usize, String)> {
        self.parent.as_ref()
    }
}

/// One enabled transition of packet `i` in `state`, as (label, successor).
fn steps_of(state: &State, bounds: RelBounds, semantics: RetrySemantics) -> Vec<(String, State)> {
    let mut out = Vec::new();
    for (i, p) in state.iter().enumerate() {
        match p.entry {
            Some(st) => {
                if p.live > 0 {
                    // A copy reaches the destination NI.
                    let mut s = state.clone();
                    let q = &mut s[i];
                    q.live -= 1;
                    match eject_disposition(st) {
                        EjectOutcome::Commit => {
                            q.entry = Some(EntryState::Delivered);
                            q.ejections += 1;
                        }
                        EjectOutcome::Suppress => {}
                    }
                    retire_if_allowed(&mut s[i], semantics);
                    out.push((format!("packet {i}: copy arrives and ejects at the NI"), s));

                    // A copy is purged by a fault.
                    let mut s = state.clone();
                    s[i].live -= 1;
                    retire_if_allowed(&mut s[i], semantics);
                    out.push((format!("packet {i}: in-fabric copy purged by a fault"), s));
                }
                if st == EntryState::InFlight {
                    // The ack deadline fires (timeout, or NACK-on-purge
                    // when no copy is left).
                    let mut s = state.clone();
                    let label;
                    match retry_or_escalate(p.attempt, bounds.retry_budget, semantics) {
                        LossOutcome::Retransmit => {
                            s[i].attempt += 1;
                            s[i].live += 1;
                            label = format!(
                                "packet {i}: ack deadline fires, retransmission {} launched",
                                s[i].attempt
                            );
                        }
                        LossOutcome::Escalate => {
                            s[i].entry = Some(EntryState::Escalated);
                            s[i].escalated = true;
                            s[i].live = 0; // escalation purges live copies
                            label = format!(
                                "packet {i}: retry budget exhausted, escalated to \
                                 permanent-fault handling"
                            );
                        }
                    }
                    retire_if_allowed(&mut s[i], semantics);
                    out.push((label, s));
                }
            }
            None if p.live > 0 => {
                // The entry is gone but copies still roam: the layer has
                // no tombstone left, so an arrival is a plain delivery.
                let mut s = state.clone();
                s[i].live -= 1;
                s[i].ejections += 1;
                out.push((
                    format!("packet {i}: stale copy arrives after retirement and ejects"),
                    s,
                ));
                let mut s = state.clone();
                s[i].live -= 1;
                out.push((format!("packet {i}: stale copy purged by a fault"), s));
            }
            None => {}
        }
    }
    out
}

/// Applies the pure retirement rule to a resolved entry.
fn retire_if_allowed(p: &mut PacketModel, semantics: RetrySemantics) {
    if let Some(st) = p.entry {
        if st != EntryState::InFlight && can_retire(st, p.live, semantics) {
            p.entry = None;
        }
    }
}

/// Checks the per-state invariants (2, 3 and 4) for a freshly reached
/// state.
fn check_state(state: &State, bounds: RelBounds) -> Result<(), (RelInvariant, String)> {
    for (i, p) in state.iter().enumerate() {
        if p.ejections > 1 {
            return Err((
                RelInvariant::DuplicateEjection,
                format!(
                    "packet {i} was committed {} times at its destination NI",
                    p.ejections
                ),
            ));
        }
        if p.entry.is_none() && p.live > 0 {
            return Err((
                RelInvariant::WraparoundHazard,
                format!(
                    "packet {i}'s window entry retired while {} cop{} still roam the fabric; \
                     its sequence number can be reused against a stale arrival",
                    p.live,
                    if p.live == 1 { "y" } else { "ies" }
                ),
            ));
        }
        if p.attempt > bounds.retry_budget {
            return Err((
                RelInvariant::RetransmissionStorm,
                format!(
                    "packet {i} was retransmitted {} times, past its budget of {}",
                    p.attempt, bounds.retry_budget
                ),
            ));
        }
    }
    Ok(())
}

/// Exhaustively explores the reliable-delivery protocol under
/// `semantics` within `bounds` and proves the four invariants, or
/// returns the shortest counterexample.
///
/// # Errors
///
/// A [`RelViolation`] naming the broken invariant, the concrete
/// failure, and the action trace that reaches it.
pub fn check_reliable_protocol(
    bounds: RelBounds,
    semantics: RetrySemantics,
) -> Result<RelReport, Box<RelViolation>> {
    let init: State = vec![
        PacketModel {
            entry: Some(EntryState::InFlight),
            attempt: 0,
            live: 1,
            ejections: 0,
            escalated: false,
        };
        bounds.packets
    ];
    let mut nodes = vec![Node {
        state: init.clone(),
        parent: None,
    }];
    let mut seen: BTreeMap<State, usize> = BTreeMap::new();
    seen.insert(init, 0);
    let mut edges: Vec<Vec<usize>> = vec![Vec::new()];
    let mut queue: VecDeque<usize> = VecDeque::from([0]);
    let mut report = RelReport {
        states: 1,
        transitions: 0,
        terminal_delivered: 0,
        terminal_escalated: 0,
        max_live_copies: 1,
    };

    while let Some(n) = queue.pop_front() {
        let steps = steps_of(&nodes[n].state, bounds, semantics);
        if steps.is_empty() {
            classify_terminal(&nodes, n, &mut report)?;
            continue;
        }
        for (label, state) in steps {
            report.transitions += 1;
            let trace = || trace_to(&nodes, n, Some(label.clone()));
            check_state(&state, bounds)
                .map_err(|(invariant, detail)| violation(invariant, detail, trace()))?;
            for p in &state {
                report.max_live_copies = report.max_live_copies.max(p.live);
            }
            if let Some(&id) = seen.get(&state) {
                edges[n].push(id);
                continue;
            }
            let id = nodes.len();
            if id >= bounds.max_states {
                return Err(violation(
                    RelInvariant::Termination,
                    format!(
                        "exploration exceeded the {}-state bound without converging",
                        bounds.max_states
                    ),
                    trace(),
                ));
            }
            seen.insert(state.clone(), id);
            nodes.push(Node {
                state,
                parent: Some((n, label)),
            });
            edges.push(Vec::new());
            edges[n].push(id);
            queue.push_back(id);
            report.states += 1;
        }
    }

    if let Some(id) = find_cycle(&edges) {
        return Err(violation(
            RelInvariant::Termination,
            "the protocol can loop forever (a reachable state can recur)".to_string(),
            trace_to(&nodes, id, None),
        ));
    }
    Ok(report)
}

/// A terminal state must be a fully resolved fabric: every entry
/// retired, no copy roaming, and the ghost partition exact — each
/// packet delivered once XOR escalated.
fn classify_terminal(
    nodes: &[Node],
    id: usize,
    report: &mut RelReport,
) -> Result<(), Box<RelViolation>> {
    let node = &nodes[id];
    let mut any_escalated = false;
    for (i, p) in node.state.iter().enumerate() {
        let resolved_once = (p.ejections == 1) ^ p.escalated;
        if p.entry.is_some() || p.live > 0 || !resolved_once {
            return Err(violation(
                RelInvariant::EventualDelivery,
                format!(
                    "execution stops with packet {i} unresolved \
                     (entry {:?}, {} live cop{}, {} ejection(s), escalated: {})",
                    p.entry,
                    p.live,
                    if p.live == 1 { "y" } else { "ies" },
                    p.ejections,
                    p.escalated
                ),
                trace_to(nodes, id, None),
            ));
        }
        any_escalated |= p.escalated;
    }
    if any_escalated {
        report.terminal_escalated += 1;
    } else {
        report.terminal_delivered += 1;
    }
    Ok(())
}

fn violation(invariant: RelInvariant, detail: String, trace: Vec<String>) -> Box<RelViolation> {
    Box::new(RelViolation {
        invariant,
        detail,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> RelBounds {
        if cfg!(miri) {
            RelBounds::reduced()
        } else {
            RelBounds::standard()
        }
    }

    #[test]
    fn the_shipped_protocol_upholds_all_four_invariants() {
        let report = check_reliable_protocol(bounds(), RetrySemantics::correct())
            .unwrap_or_else(|v| panic!("unexpected violation:\n{v}"));
        assert!(report.states > 50, "exploration was non-trivial");
        assert!(report.transitions > report.states);
        assert!(
            report.terminal_delivered > 0,
            "some executions deliver everything"
        );
        assert!(
            report.terminal_escalated > 0,
            "some executions escalate a packet"
        );
        assert!(
            report.max_live_copies > 1,
            "duplicate copies were genuinely in flight"
        );
    }

    #[test]
    fn the_reduced_bounds_also_prove_the_invariants() {
        // The exact configuration the Miri CI job explores.
        let report = check_reliable_protocol(RelBounds::reduced(), RetrySemantics::correct())
            .unwrap_or_else(|v| panic!("unexpected violation:\n{v}"));
        assert!(report.terminal_delivered > 0);
        assert!(report.terminal_escalated > 0);
    }

    #[test]
    fn ack_before_commit_yields_a_wraparound_counterexample() {
        let v = check_reliable_protocol(bounds(), RetrySemantics::ack_before_commit())
            .expect_err("the ack-before-commit bug double must be caught");
        assert_eq!(v.invariant, RelInvariant::WraparoundHazard);
        assert!(!v.trace.is_empty());
        assert!(
            v.trace.last().is_some_and(|l| l.contains("ejects")),
            "the counterexample ends on the premature commit-and-retire: {:?}",
            v.trace
        );
        let text = v.to_string();
        assert!(text.contains("counterexample ("));
        assert!(text.contains("   1. "), "trace lines are numbered: {text}");
    }

    #[test]
    fn unbounded_retry_yields_a_storm_counterexample() {
        let v = check_reliable_protocol(bounds(), RetrySemantics::unbounded_retry())
            .expect_err("the unbounded-retry bug double must be caught");
        assert_eq!(v.invariant, RelInvariant::RetransmissionStorm);
        assert!(
            v.trace.last().is_some_and(|l| l.contains("retransmission")),
            "the counterexample ends on the over-budget retransmission: {:?}",
            v.trace
        );
    }

    #[test]
    fn stale_copies_after_a_buggy_retirement_eject_twice() {
        // Deepening check on the ack-before-commit double: if the
        // wraparound check is suspended, the very next consequence the
        // model reaches is a duplicate ejection — the two invariants
        // guard the same bug at adjacent depths.
        let semantics = RetrySemantics::ack_before_commit();
        let b = bounds();
        // First arrival commits and (buggily) retires despite the
        // second live copy.
        let state = vec![PacketModel {
            entry: Some(EntryState::InFlight),
            attempt: 0,
            live: 2, // original + one timeout duplicate
            ejections: 0,
            escalated: false,
        }];
        let steps = steps_of(&state, b, semantics);
        let (_, after) = steps
            .iter()
            .find(|(l, _)| l.contains("ejects"))
            .expect("an arrival is enabled");
        assert_eq!(after[0].entry, None, "retired with a copy live");
        assert_eq!(after[0].live, 1);
        // The stale copy then ejects as a plain (duplicate) delivery.
        let steps = steps_of(after, b, semantics);
        let (_, last) = steps
            .iter()
            .find(|(l, _)| l.contains("stale copy arrives"))
            .expect("the stale arrival is enabled");
        assert_eq!(last[0].ejections, 2, "the packet was delivered twice");
        assert!(check_state(last, b).is_err());
    }
}
