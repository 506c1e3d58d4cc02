//! Workload profiles.
//!
//! Parameter provenance: the profiles encode the qualitative
//! characterisation of scale-out server workloads from *Clearing the
//! Clouds* (ASPLOS 2012) and the paper itself — most importantly the
//! instruction-fetch-dominated LLC traffic and the per-workload ILP/MLP
//! ordering (Media Streaming has "very low ILP and MLP", making it the
//! most LLC-latency-sensitive, Section V.A). Absolute values are
//! calibrated so the mesh→ideal performance gap of the simulated 64-core
//! system reproduces the paper's Figure 2/6 bands.

/// The six CloudSuite workloads of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// NoSQL data store serving key-value lookups (Cassandra).
    DataServing,
    /// Batch Hadoop text analytics.
    MapReduce,
    /// Streaming server pushing video over RTSP (Darwin).
    MediaStreaming,
    /// Batch SAT solving (Klee/Cloud9 style).
    SatSolver,
    /// Social-web PHP frontend (Olio).
    WebFrontend,
    /// Nutch/Lucene index search.
    WebSearch,
}

impl WorkloadKind {
    /// All six workloads, in the paper's figure order.
    pub const ALL: [WorkloadKind; 6] = [
        WorkloadKind::DataServing,
        WorkloadKind::MapReduce,
        WorkloadKind::MediaStreaming,
        WorkloadKind::SatSolver,
        WorkloadKind::WebFrontend,
        WorkloadKind::WebSearch,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::DataServing => "Data Serving",
            WorkloadKind::MapReduce => "MapReduce",
            WorkloadKind::MediaStreaming => "Media Streaming",
            WorkloadKind::SatSolver => "SAT Solver",
            WorkloadKind::WebFrontend => "Web Frontend",
            WorkloadKind::WebSearch => "Web Search",
        }
    }

    /// The calibrated profile for this workload.
    pub fn profile(self) -> WorkloadProfile {
        match self {
            // Request-heavy key-value serving: moderate ILP, decent MLP,
            // large instruction footprint.
            WorkloadKind::DataServing => WorkloadProfile {
                kind: self,
                ilp: 1.6,
                mlp: 4,
                i_mpki: 10.0,
                d_mpki: 12.0,
                llc_hit_ratio: 0.80,
                coherence_per_kilo_instr: 1.2,
            },
            // Batch analytics: higher ILP, more data misses that overlap,
            // least sensitive to LLC latency.
            WorkloadKind::MapReduce => WorkloadProfile {
                kind: self,
                ilp: 1.8,
                mlp: 6,
                i_mpki: 8.0,
                d_mpki: 18.0,
                llc_hit_ratio: 0.72,
                coherence_per_kilo_instr: 0.8,
            },
            // "Very low ILP and MLP, making it particularly sensitive to
            // the LLC access latency" (Section V.A).
            WorkloadKind::MediaStreaming => WorkloadProfile {
                kind: self,
                ilp: 1.2,
                mlp: 1,
                i_mpki: 22.0,
                d_mpki: 6.0,
                llc_hit_ratio: 0.88,
                coherence_per_kilo_instr: 0.5,
            },
            // Compute-heavy batch solver: high ILP, small instruction
            // footprint.
            WorkloadKind::SatSolver => WorkloadProfile {
                kind: self,
                ilp: 2.0,
                mlp: 5,
                i_mpki: 9.0,
                d_mpki: 16.0,
                llc_hit_ratio: 0.70,
                coherence_per_kilo_instr: 0.6,
            },
            // PHP frontend: large instruction footprint, modest MLP.
            WorkloadKind::WebFrontend => WorkloadProfile {
                kind: self,
                ilp: 1.5,
                mlp: 3,
                i_mpki: 12.5,
                d_mpki: 10.0,
                llc_hit_ratio: 0.82,
                coherence_per_kilo_instr: 1.0,
            },
            // Index search: latency-critical, instruction-bound, low MLP.
            WorkloadKind::WebSearch => WorkloadProfile {
                kind: self,
                ilp: 1.4,
                mlp: 2,
                i_mpki: 19.0,
                d_mpki: 8.0,
                llc_hit_ratio: 0.85,
                coherence_per_kilo_instr: 0.9,
            },
        }
    }

    /// Whether the workload is a batch job (SAT Solver, MapReduce) rather
    /// than a latency-sensitive service, per Section IV-C.
    pub fn is_batch(self) -> bool {
        matches!(self, WorkloadKind::MapReduce | WorkloadKind::SatSolver)
    }

    /// Stable machine-readable key (CLI flags, sweep specs).
    pub fn key(self) -> &'static str {
        match self {
            WorkloadKind::DataServing => "data_serving",
            WorkloadKind::MapReduce => "mapreduce",
            WorkloadKind::MediaStreaming => "media_streaming",
            WorkloadKind::SatSolver => "sat_solver",
            WorkloadKind::WebFrontend => "web_frontend",
            WorkloadKind::WebSearch => "web_search",
        }
    }

    /// Parses a [`WorkloadKind::key`] string (see [`WORKLOAD_KEYS`]).
    pub fn from_key(key: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.key() == key)
    }
}

/// The valid [`WorkloadKind::from_key`] keys, for CLI error messages.
pub const WORKLOAD_KEYS: &str =
    "data_serving, mapreduce, media_streaming, sat_solver, web_frontend, web_search";

/// LLC round-trip latency (cycles) of the paper's 16×16 mesh at low
/// load — the stall between miss bursts that sets the off-phase of the
/// derived on-off injection shape (Section III: ~30-cycle average LLC
/// access over the mesh).
const LLC_ROUND_TRIP_CYCLES: u32 = 30;

/// A per-workload bursty injection shape: `on_len` cycles of
/// back-to-back LLC traffic followed by `off_len` idle cycles.
///
/// The numbers are plain cycle counts so this crate stays free of `noc`
/// types; callers map the pair onto `noc::traffic::InjectionProcess::
/// OnOff`. The long-run rate is unchanged by the shape (the generator
/// scales the on-phase rate to preserve the mean).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstShape {
    /// Burst (on-phase) length in cycles; always ≥ 1.
    pub on_len: u32,
    /// Idle (off-phase) length in cycles.
    pub off_len: u32,
}

/// Per-workload behavioural parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Which workload this profile describes.
    pub kind: WorkloadKind,
    /// Instructions the core can commit per unstalled cycle (bounded by
    /// the 3-way Cortex-A15-like core; server workloads rarely sustain
    /// more than ~2).
    pub ilp: f64,
    /// Maximum overlapped outstanding data misses (memory-level
    /// parallelism); instruction-fetch misses always block.
    pub mlp: u8,
    /// L1-I misses per kilo-instruction (served by the LLC — the paper's
    /// dominant NoC traffic).
    pub i_mpki: f64,
    /// L1-D misses per kilo-instruction.
    pub d_mpki: f64,
    /// Fraction of LLC accesses that hit (the rest go to memory).
    pub llc_hit_ratio: f64,
    /// Coherence (invalidation/forward) messages per kilo-instruction.
    pub coherence_per_kilo_instr: f64,
}

impl WorkloadProfile {
    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of its physical range; profiles are
    /// construction-time constants, so this is a programming error.
    pub fn assert_valid(&self) {
        assert!(
            self.ilp > 0.0 && self.ilp <= 3.0,
            "ILP within the 3-way core"
        );
        assert!(self.mlp >= 1, "at least one outstanding miss");
        assert!(self.i_mpki >= 0.0 && self.i_mpki < 1000.0);
        assert!(self.d_mpki >= 0.0 && self.d_mpki < 1000.0);
        assert!((0.0..=1.0).contains(&self.llc_hit_ratio));
        assert!(self.coherence_per_kilo_instr >= 0.0);
    }

    /// Probability that a committed instruction triggers an L1-I miss.
    pub fn i_miss_prob(&self) -> f64 {
        self.i_mpki / 1000.0
    }

    /// Probability that a committed instruction triggers an L1-D miss.
    pub fn d_miss_prob(&self) -> f64 {
        self.d_mpki / 1000.0
    }

    /// Probability that a committed instruction triggers a coherence
    /// message.
    pub fn coherence_prob(&self) -> f64 {
        self.coherence_per_kilo_instr / 1000.0
    }

    /// The workload's bursty injection shape for synthetic QoS studies.
    ///
    /// A core with memory-level parallelism `m` issues up to `m`
    /// overlapped misses back-to-back (the burst), then stalls for an
    /// LLC round trip before the next cluster — so `on_len = mlp` and
    /// `off_len` is the mesh LLC round-trip. Media Streaming (MLP 1)
    /// therefore degenerates toward near-steady injection while
    /// MapReduce (MLP 6) produces the longest bursts, matching the
    /// workload ordering of Section V.A.
    pub fn burst_shape(&self) -> BurstShape {
        BurstShape {
            on_len: u32::from(self.mlp.max(1)),
            off_len: LLC_ROUND_TRIP_CYCLES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_valid() {
        for kind in WorkloadKind::ALL {
            kind.profile().assert_valid();
            assert_eq!(kind.profile().kind, kind);
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn media_streaming_is_most_latency_sensitive() {
        // Lowest ILP and MLP of all profiles (Section V.A).
        let ms = WorkloadKind::MediaStreaming.profile();
        for kind in WorkloadKind::ALL {
            let p = kind.profile();
            assert!(ms.ilp <= p.ilp, "{:?}", kind);
            assert!(ms.mlp <= p.mlp, "{:?}", kind);
        }
    }

    #[test]
    fn batch_classification_matches_paper() {
        assert!(WorkloadKind::MapReduce.is_batch());
        assert!(WorkloadKind::SatSolver.is_batch());
        assert!(!WorkloadKind::WebSearch.is_batch());
        assert!(!WorkloadKind::MediaStreaming.is_batch());
        assert!(!WorkloadKind::DataServing.is_batch());
        assert!(!WorkloadKind::WebFrontend.is_batch());
    }

    #[test]
    fn probabilities_are_small() {
        for kind in WorkloadKind::ALL {
            let p = kind.profile();
            assert!(p.i_miss_prob() < 0.05);
            assert!(p.d_miss_prob() < 0.05);
            assert!(p.coherence_prob() < 0.01);
        }
    }

    #[test]
    fn keys_round_trip_and_are_all_listed() {
        for kind in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::from_key(kind.key()), Some(kind));
            assert!(WORKLOAD_KEYS.contains(kind.key()), "{:?}", kind);
        }
        assert_eq!(WorkloadKind::from_key("quake"), None);
    }

    #[test]
    fn burst_shapes_track_mlp() {
        for kind in WorkloadKind::ALL {
            let shape = kind.profile().burst_shape();
            assert!(shape.on_len >= 1);
            assert!(shape.off_len >= 1);
            assert_eq!(shape.on_len, u32::from(kind.profile().mlp));
        }
        // Media Streaming (lowest MLP) has the shortest burst of all.
        let ms = WorkloadKind::MediaStreaming.profile().burst_shape();
        for kind in WorkloadKind::ALL {
            assert!(ms.on_len <= kind.profile().burst_shape().on_len);
        }
    }

    #[test]
    fn instruction_misses_dominate_for_services() {
        // Latency-sensitive services are instruction-footprint bound.
        for kind in [
            WorkloadKind::MediaStreaming,
            WorkloadKind::WebSearch,
            WorkloadKind::WebFrontend,
        ] {
            let p = kind.profile();
            assert!(p.i_mpki > p.d_mpki, "{:?}", kind);
        }
    }
}
