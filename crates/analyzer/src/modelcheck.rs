//! Explicit-state model checking of the crash-recovery protocol.
//!
//! [`check_protocol`] breadth-first explores every reachable state of
//! the [`crate::protocol`] model — every interleaving of appends,
//! fsyncs, torn writes, worker and supervisor SIGKILLs, heartbeats,
//! stale-lease takeovers, resumes and quarantines within the given
//! bounds — and proves five invariants:
//!
//! 1. **Trusted-prefix monotonicity** — a row committed to the main
//!    journal is never lost or rewritten by any later transition, and
//!    the main journal always replays.
//! 2. **One live writer per shard generation** — no two live worker
//!    processes ever hold the same `(shard, generation)` claim.
//! 3. **No zombie writes** — no harvest (reap or resume) ever accepts
//!    a row written by a process other than the journal's rightful
//!    owner.
//! 4. **Resume equivalence** — from *any* reachable state, the
//!    reconstruction a resume would perform equals the ghost record of
//!    durably-committed rows, exactly and in both directions.
//! 5. **Termination** — the transition graph is acyclic and every
//!    terminal state is a completed sweep (each point finished or
//!    quarantined); the supervisor never abandons the grid.
//!
//! Because breadth-first order visits states by depth, the first
//! violation found yields a **shortest counterexample trace**, printed
//! as a numbered list of protocol actions.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::explore::{find_cycle, trace_to, Reached};
use crate::protocol::{ApplyViolation, Model, ModelBounds, Phase, Semantics, State, Sup};

/// Which of the five protocol invariants a violation falls under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// Invariant 1: committed main-journal rows are immutable and the
    /// main journal always replays.
    TrustedPrefix,
    /// Invariant 2: at most one live writer per `(shard, generation)`.
    OneWriterPerGeneration,
    /// Invariant 3: harvests only accept rows from the rightful owner.
    NoZombieWrites,
    /// Invariant 4: resume reconstruction equals the committed truth.
    ResumeEquivalence,
    /// Invariant 5: every execution completes or quarantines.
    Termination,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InvariantKind::TrustedPrefix => "trusted-prefix monotonicity",
            InvariantKind::OneWriterPerGeneration => "at most one live writer per shard generation",
            InvariantKind::NoZombieWrites => "no zombie writes into a successor's journal",
            InvariantKind::ResumeEquivalence => "resume reconstructs exactly the committed rows",
            InvariantKind::Termination => "every execution completes or quarantines",
        };
        f.write_str(name)
    }
}

/// A proven-reachable protocol violation: which invariant broke, how,
/// and the shortest action sequence that reaches it from the initial
/// state.
#[derive(Debug, Clone)]
pub struct ProtocolViolation {
    /// The invariant that broke.
    pub invariant: InvariantKind,
    /// What exactly went wrong in the violating state.
    pub detail: String,
    /// The shortest counterexample: one protocol action per line.
    pub trace: Vec<String>,
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "protocol invariant violated: {}", self.invariant)?;
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
pub struct ModelReport {
    /// Distinct states explored.
    pub states: usize,
    /// Transitions taken (including ones into already-seen states).
    pub transitions: usize,
    /// Terminal states where every point completed normally.
    pub terminal_completed: usize,
    /// Terminal states where at least one point was quarantined.
    pub terminal_quarantined: usize,
    /// Highest lease generation any worker reached.
    pub max_generation: u64,
}

struct Node {
    state: State,
    rows: BTreeMap<usize, String>,
    parent: Option<(usize, String)>,
}

impl Reached for Node {
    fn parent(&self) -> Option<&(usize, String)> {
        self.parent.as_ref()
    }
}

/// Exhaustively explores the protocol under `semantics` within
/// `bounds` and proves the five invariants, or returns the shortest
/// counterexample.
///
/// # Errors
///
/// A [`ProtocolViolation`] naming the broken invariant, the concrete
/// failure, and the action trace that reaches it.
pub fn check_protocol(
    bounds: ModelBounds,
    semantics: Semantics,
) -> Result<ModelReport, Box<ProtocolViolation>> {
    let model = Model::new(bounds, semantics);
    let init = model.init();
    let init_rows = model
        .main_rows(&init)
        .map_err(|e| violation(InvariantKind::TrustedPrefix, e, Vec::new()))?;
    let mut nodes = vec![Node {
        state: init.clone(),
        rows: init_rows,
        parent: None,
    }];
    let mut seen: BTreeMap<State, usize> = BTreeMap::new();
    seen.insert(init, 0);
    let mut edges: Vec<Vec<usize>> = vec![Vec::new()];
    let mut queue: VecDeque<usize> = VecDeque::from([0]);
    let mut report = ModelReport {
        states: 1,
        transitions: 0,
        terminal_completed: 0,
        terminal_quarantined: 0,
        max_generation: 0,
    };

    while let Some(n) = queue.pop_front() {
        let steps = model.steps(&nodes[n].state);
        if steps.is_empty() {
            classify_terminal(&model, &nodes, n, &mut report)?;
            continue;
        }
        for step in steps {
            report.transitions += 1;
            let trace = || trace_to(&nodes, n, Some(step.label.clone()));
            if let Some(v) = &step.violation {
                let (kind, detail) = match v {
                    ApplyViolation::ZombieWrite(d) => (InvariantKind::NoZombieWrites, d.clone()),
                    ApplyViolation::Abandoned(d) => (InvariantKind::Termination, d.clone()),
                };
                return Err(violation(kind, detail, trace()));
            }
            let rows = check_state(&model, &step.state, &nodes[n].rows)
                .map_err(|(kind, detail)| violation(kind, detail, trace()))?;
            for inst in &step.state.instances {
                report.max_generation = report.max_generation.max(inst.generation);
            }
            if let Some(&id) = seen.get(&step.state) {
                edges[n].push(id);
                continue;
            }
            let id = nodes.len();
            if id >= bounds.max_states {
                return Err(violation(
                    InvariantKind::Termination,
                    format!(
                        "exploration exceeded the {}-state bound without converging",
                        bounds.max_states
                    ),
                    trace(),
                ));
            }
            seen.insert(step.state.clone(), id);
            nodes.push(Node {
                state: step.state,
                rows,
                parent: Some((n, step.label)),
            });
            edges.push(Vec::new());
            edges[n].push(id);
            queue.push_back(id);
            report.states += 1;
        }
    }

    if let Some(id) = find_cycle(&edges) {
        return Err(violation(
            InvariantKind::Termination,
            "the protocol can loop forever (a reachable state can recur)".to_string(),
            trace_to(&nodes, id, None),
        ));
    }
    Ok(report)
}

/// Checks the per-state invariants (1, 2 and 4) for a freshly reached
/// state and returns its main-journal rows for reuse.
fn check_state(
    model: &Model,
    state: &State,
    parent_rows: &BTreeMap<usize, String>,
) -> Result<BTreeMap<usize, String>, (InvariantKind, String)> {
    // Invariant 1: the main journal replays, and every previously
    // committed row survives unchanged.
    let rows = model
        .main_rows(state)
        .map_err(|e| (InvariantKind::TrustedPrefix, e))?;
    for (i, line) in parent_rows {
        if rows.get(i) != Some(line) {
            return Err((
                InvariantKind::TrustedPrefix,
                format!(
                    "the committed row for point {i} ({}) was lost or rewritten",
                    snip(line)
                ),
            ));
        }
    }
    // Invariant 2: at most one live claimed writer per (shard, gen).
    let mut writers: BTreeMap<(usize, u64), u32> = BTreeMap::new();
    for inst in &state.instances {
        if matches!(inst.phase, Phase::Running { .. } | Phase::InPoint { .. }) {
            let slot = writers.entry((inst.shard, inst.generation)).or_insert(0);
            *slot += 1;
            if *slot > 1 {
                return Err((
                    InvariantKind::OneWriterPerGeneration,
                    format!(
                        "two live writers both hold shard {} at generation {}",
                        inst.shard, inst.generation
                    ),
                ));
            }
        }
    }
    // Invariant 4: a resume started here reconstructs the ghost truth.
    let recon = model
        .reconstruct(state)
        .map_err(|e| (InvariantKind::ResumeEquivalence, e))?;
    if recon != state.ghost {
        return Err((
            InvariantKind::ResumeEquivalence,
            first_divergence(model, &recon, state),
        ));
    }
    Ok(rows)
}

/// Describes the first index where reconstruction and ghost disagree.
fn first_divergence(model: &Model, recon: &BTreeMap<usize, String>, state: &State) -> String {
    for i in 0..model.bounds.points {
        match (recon.get(&i), state.ghost.get(&i)) {
            (Some(r), Some(g)) if r != g => {
                return format!(
                    "resume reconstructs point {i} as {} but the committed row is {}",
                    snip(r),
                    snip(g)
                );
            }
            (Some(r), None) => {
                return format!(
                    "resume reconstructs a row for point {i} ({}) that no writer durably \
                     committed",
                    snip(r)
                );
            }
            (None, Some(g)) => {
                return format!(
                    "point {i} was durably committed ({}) but a resume cannot reconstruct it",
                    snip(g)
                );
            }
            _ => {}
        }
    }
    "reconstruction and committed truth diverge".to_string()
}

/// A terminal state must be a finished sweep: supervisor done, every
/// point rowed. Classifies it as completed or quarantined.
fn classify_terminal(
    model: &Model,
    nodes: &[Node],
    id: usize,
    report: &mut ModelReport,
) -> Result<(), Box<ProtocolViolation>> {
    let node = &nodes[id];
    if !matches!(node.state.sup, Sup::Done) || node.rows.len() != model.bounds.points {
        return Err(violation(
            InvariantKind::Termination,
            format!(
                "execution stops with {} of {} point(s) rowed and the supervisor not done",
                node.rows.len(),
                model.bounds.points
            ),
            trace_to(nodes, id, None),
        ));
    }
    if node.rows.values().any(|l| l.contains("poisoned(")) {
        report.terminal_quarantined += 1;
    } else {
        report.terminal_completed += 1;
    }
    Ok(())
}

/// Truncates a journal line for counterexample readability.
fn snip(line: &str) -> String {
    let mut out: String = line.chars().take(60).collect();
    if out.len() < line.len() {
        out.push('…');
    }
    format!("{out:?}")
}

fn violation(
    invariant: InvariantKind,
    detail: String,
    trace: Vec<String>,
) -> Box<ProtocolViolation> {
    Box::new(ProtocolViolation {
        invariant,
        detail,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use runner::protocol::{header_line, replay_journal_bytes, JournalDialect};

    fn bounds() -> ModelBounds {
        if cfg!(miri) {
            ModelBounds::reduced()
        } else {
            ModelBounds::standard()
        }
    }

    #[test]
    fn the_shipped_protocol_upholds_all_five_invariants() {
        let report = check_protocol(bounds(), Semantics::correct())
            .unwrap_or_else(|v| panic!("unexpected violation:\n{v}"));
        assert!(report.states > 100, "exploration was non-trivial");
        assert!(report.transitions > report.states);
        assert!(
            report.terminal_completed > 0,
            "some executions complete cleanly"
        );
        if cfg!(miri) {
            assert!(report.max_generation >= 1, "a respawn was explored");
        } else {
            assert!(
                report.terminal_quarantined > 0,
                "some executions quarantine a point"
            );
            assert!(
                report.max_generation >= 2,
                "two takeover generations explored"
            );
        }
    }

    #[test]
    fn the_reduced_bounds_also_prove_the_invariants() {
        // The exact configuration the Miri CI job explores; proving it
        // natively keeps that job's runtime honest and its assertions
        // meaningful.
        let report = check_protocol(ModelBounds::reduced(), Semantics::correct())
            .unwrap_or_else(|v| panic!("unexpected violation:\n{v}"));
        assert!(report.terminal_completed > 0);
        assert!(report.max_generation >= 1, "a respawn was explored");
    }

    #[test]
    fn skipping_torn_tail_truncation_yields_a_resume_counterexample() {
        let v = check_protocol(bounds(), Semantics::no_torn_tail_truncation())
            .expect_err("the torn-tail bug double must be caught");
        assert_eq!(v.invariant, InvariantKind::ResumeEquivalence);
        assert!(!v.trace.is_empty());
        assert!(
            v.trace.last().is_some_and(|l| l.contains("torn")),
            "the counterexample ends on a torn write: {:?}",
            v.trace
        );
        let text = v.to_string();
        assert!(text.contains("counterexample ("));
        assert!(text.contains("   1. "), "trace lines are numbered: {text}");
    }

    #[test]
    fn skipping_generation_fencing_yields_a_double_writer_counterexample() {
        let v = check_protocol(bounds(), Semantics::no_generation_fencing())
            .expect_err("the no-fencing bug double must be caught");
        assert_eq!(v.invariant, InvariantKind::OneWriterPerGeneration);
        let text = v.to_string();
        assert!(
            text.contains("SIGKILL supervisor") && text.contains("--resume"),
            "the counterexample goes through a supervisor crash and resume: {text}"
        );
    }

    #[test]
    fn every_tear_offset_of_a_final_row_is_dropped_exactly() {
        // Byte-level lemma behind invariant 4: however a trailing row
        // append is cut short, the real replay trusts exactly the
        // prefix before it — nothing less, and never the torn row.
        let model = crate::protocol::Model::new(ModelBounds::standard(), Semantics::correct());
        let mut base = header_line(&model.header).into_bytes();
        base.extend_from_slice(model.lines[0].as_bytes());
        base.push(b'\n');
        let torn_row = format!("{}\n", model.lines[1]);
        for cut in 0..torn_row.len() {
            let mut bytes = base.clone();
            bytes.extend_from_slice(&torn_row.as_bytes()[..cut]);
            let rep = replay_journal_bytes(&bytes, JournalDialect::WorkerShard)
                .expect("a torn tail is not corruption");
            assert_eq!(rep.done.len(), 1, "only the terminated row survives");
            assert!(rep.done.contains_key(&0));
            assert_eq!(
                rep.valid_len,
                u64::try_from(base.len()).expect("small"),
                "the trusted prefix ends before the tear (cut {cut})"
            );
        }
    }
}
