//! The core model.
//!
//! An ARM Cortex-A15-like core abstracted to what matters for NoC studies:
//! a sustained commit rate (the workload's ILP), **blocking**
//! instruction-fetch misses (the server-workload property the whole paper
//! rests on), and data misses that overlap execution up to the workload's
//! MLP. The instruction stream comes from a deterministic
//! [`workloads::CoreStream`], so every network organisation executes the
//! identical instruction sequence.

use workloads::{CoreStream, InstrEvent};

/// A memory-system request issued by the core this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreIssue {
    /// Instruction fetch miss to the LLC slice at `home` (blocking).
    IFetch {
        /// Home LLC slice.
        home: u16,
        /// Pre-drawn LLC outcome.
        llc_hit: bool,
    },
    /// Data miss to the LLC slice at `home` (overlapping).
    Data {
        /// Home LLC slice.
        home: u16,
        /// Pre-drawn LLC outcome.
        llc_hit: bool,
    },
    /// Single-flit coherence message to `peer`.
    Coherence {
        /// Destination tile.
        peer: u16,
    },
}

/// One core's execution state.
#[derive(Debug)]
pub struct CoreModel {
    stream: CoreStream,
    /// Fractional commit budget carried within a cycle.
    budget: f64,
    /// Waiting for an instruction-fetch response.
    ifetch_stalled: bool,
    /// Outstanding (overlapped) data misses.
    outstanding_data: u8,
    /// An event drawn but not yet committable (MLP-full data miss).
    pending: Option<InstrEvent>,
    /// Committed instructions (total).
    committed: u64,
    /// Cycles spent fully stalled (either fetch or MLP).
    stall_cycles: u64,
}

impl CoreModel {
    /// Creates a core over its instruction stream.
    pub fn new(stream: CoreStream) -> Self {
        CoreModel {
            stream,
            budget: 0.0,
            ifetch_stalled: false,
            outstanding_data: 0,
            pending: None,
            committed: 0,
            stall_cycles: 0,
        }
    }

    /// Total committed instructions.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Cycles in which the core could not commit anything.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Outstanding data misses.
    pub fn outstanding_data(&self) -> u8 {
        self.outstanding_data
    }

    /// An instruction-fetch response arrived: resume execution.
    pub fn complete_ifetch(&mut self) {
        debug_assert!(self.ifetch_stalled, "spurious ifetch completion");
        self.ifetch_stalled = false;
    }

    /// A data response arrived: free an MLP slot.
    pub fn complete_data(&mut self) {
        debug_assert!(self.outstanding_data > 0, "spurious data completion");
        self.outstanding_data -= 1;
    }

    /// Executes one cycle: commits up to `ilp` instructions and reports
    /// the memory requests issued. `issues` is an out-buffer cleared by
    /// the caller each cycle (avoids a per-cycle allocation).
    pub fn step(&mut self, issues: &mut Vec<CoreIssue>) -> u32 {
        if self.ifetch_stalled {
            self.stall_cycles += 1;
            return 0;
        }
        let profile = *self.stream.profile();
        // No banking of unused issue slots across cycles.
        self.budget = (self.budget + profile.ilp).min(profile.ilp.max(1.0));
        let mut done = 0u32;
        while self.budget >= 1.0 {
            let ev = match self.pending.take() {
                Some(e) => e,
                None => self.stream.next_event(),
            };
            match ev {
                InstrEvent::None => {
                    self.budget -= 1.0;
                    self.committed += 1;
                    done += 1;
                }
                InstrEvent::Coherence { peer } => {
                    self.budget -= 1.0;
                    self.committed += 1;
                    done += 1;
                    issues.push(CoreIssue::Coherence { peer });
                }
                InstrEvent::IMiss { home, llc_hit } => {
                    // The fetch miss blocks the front end: the instruction
                    // commits now (it is in flight), nothing more issues
                    // until the line returns.
                    self.budget = 0.0;
                    self.committed += 1;
                    done += 1;
                    self.ifetch_stalled = true;
                    issues.push(CoreIssue::IFetch { home, llc_hit });
                    break;
                }
                InstrEvent::DMiss { home, llc_hit } => {
                    if self.outstanding_data < profile.mlp {
                        self.budget -= 1.0;
                        self.committed += 1;
                        done += 1;
                        self.outstanding_data += 1;
                        issues.push(CoreIssue::Data { home, llc_hit });
                    } else {
                        // MLP exhausted: the miss waits for a free slot.
                        self.pending = Some(ev);
                        self.budget = 0.0;
                        break;
                    }
                }
            }
        }
        if done == 0 {
            self.stall_cycles += 1;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::WorkloadKind;

    fn core(kind: WorkloadKind, seed: u64) -> CoreModel {
        CoreModel::new(CoreStream::new(kind.profile(), 64, 0, seed))
    }

    #[test]
    fn unstalled_core_commits_at_ilp() {
        // SAT Solver has ILP 2.0 and low miss rates.
        let mut c = core(WorkloadKind::SatSolver, 1);
        let mut issues = Vec::new();
        let mut total = 0;
        let mut cycles = 0;
        // Complete everything instantly so stalls are only 1 cycle long.
        for _ in 0..10_000 {
            issues.clear();
            total += c.step(&mut issues);
            cycles += 1;
            for i in issues.drain(..) {
                match i {
                    CoreIssue::IFetch { .. } => c.complete_ifetch(),
                    CoreIssue::Data { .. } => c.complete_data(),
                    CoreIssue::Coherence { .. } => {}
                }
            }
        }
        let ipc = total as f64 / cycles as f64;
        assert!(
            ipc > 1.7,
            "near-ideal memory should give IPC close to ILP, got {ipc}"
        );
    }

    #[test]
    fn fetch_stall_blocks_until_completion() {
        let mut c = core(WorkloadKind::MediaStreaming, 2);
        let mut issues = Vec::new();
        // Run until the first fetch miss.
        let mut fetched = false;
        for _ in 0..10_000 {
            issues.clear();
            c.step(&mut issues);
            if issues.iter().any(|i| matches!(i, CoreIssue::IFetch { .. })) {
                fetched = true;
                break;
            }
            for i in issues.drain(..) {
                if matches!(i, CoreIssue::Data { .. }) {
                    c.complete_data();
                }
            }
        }
        assert!(fetched, "media streaming must fetch-miss eventually");
        assert!(c.ifetch_stalled);
        // Stalled: zero commit for as long as the response is outstanding.
        for _ in 0..50 {
            issues.clear();
            assert_eq!(c.step(&mut issues), 0);
            assert!(issues.is_empty());
        }
        c.complete_ifetch();
        issues.clear();
        assert!(c.step(&mut issues) > 0, "resumes after the line returns");
    }

    #[test]
    fn mlp_bounds_outstanding_data_misses() {
        let mut c = core(WorkloadKind::MediaStreaming, 3); // MLP = 1
        let mut issues = Vec::new();
        for _ in 0..200_000 {
            issues.clear();
            c.step(&mut issues);
            for i in &issues {
                if matches!(i, CoreIssue::IFetch { .. }) {
                    c.complete_ifetch(); // keep the fetch path instant
                }
            }
            assert!(c.outstanding_data() <= 1, "MLP must bound data misses");
            // Never complete data: the core must eventually wedge on MLP.
        }
        assert_eq!(c.outstanding_data(), 1);
        // And it is stalled (no commits).
        issues.clear();
        let n = c.step(&mut issues);
        assert_eq!(n, 0);
        c.complete_data();
        issues.clear();
        assert!(c.step(&mut issues) > 0);
    }

    #[test]
    fn lower_latency_means_more_instructions() {
        // The core's whole purpose: IPC falls as memory latency grows.
        let mut ipcs = Vec::new();
        for latency in [5u32, 50u32] {
            let mut c = core(WorkloadKind::WebSearch, 4);
            let mut issues = Vec::new();
            let mut inflight: Vec<(u32, CoreIssue)> = Vec::new();
            let mut total = 0u64;
            for cycle in 0..50_000u32 {
                // Deliver responses.
                let mut i = 0;
                while i < inflight.len() {
                    if inflight[i].0 == cycle {
                        match inflight.swap_remove(i).1 {
                            CoreIssue::IFetch { .. } => c.complete_ifetch(),
                            CoreIssue::Data { .. } => c.complete_data(),
                            CoreIssue::Coherence { .. } => {}
                        }
                    } else {
                        i += 1;
                    }
                }
                issues.clear();
                total += c.step(&mut issues) as u64;
                for iss in issues.drain(..) {
                    if !matches!(iss, CoreIssue::Coherence { .. }) {
                        inflight.push((cycle + latency, iss));
                    }
                }
            }
            ipcs.push(total as f64 / 50_000.0);
        }
        assert!(
            ipcs[0] > ipcs[1] * 1.2,
            "5-cycle memory ({}) must clearly beat 50-cycle memory ({})",
            ipcs[0],
            ipcs[1]
        );
    }
}
