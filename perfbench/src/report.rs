//! Metric names, the run's correctness ledger, trace spans, and the
//! one-line JSON result.

use std::collections::BTreeMap;
use std::time::Instant;

use nistats::Json;

use crate::timed::Clock;

/// End-to-end metrics: every workload reports each of them in an
/// untraced run (`--trace 0`). Names and units match `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 11] = [
    ("sim_cycles_per_s", "1/s"),
    ("mesh.cycles_per_s", "1/s"),
    ("smart.cycles_per_s", "1/s"),
    ("pra.cycles_per_s", "1/s"),
    ("ideal.cycles_per_s", "1/s"),
    ("frfc.cycles_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim.pra_speedup", "ratio"),
    ("sim.pra_p99_latency_cycles", "cycles"),
];

/// Per-layer metrics of a traced run (`--trace 1`). A layer the
/// workload does not execute reports 0; `perfbench/README.md` lists
/// which workload exercises each.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("traffic.tick_ns_per_cycle", "ns/cycle"),
    ("traffic.packets", "count"),
    ("mesh.step_ns_per_cycle", "ns/cycle"),
    ("mesh.step_ns_per_link_traversal", "ns/traversal"),
    ("mesh.link_traversals", "count"),
    ("mesh.delivered", "count"),
    ("smart.step_ns_per_cycle", "ns/cycle"),
    ("smart.step_ns_per_link_traversal", "ns/traversal"),
    ("smart.link_traversals", "count"),
    ("smart.delivered", "count"),
    ("pra.step_ns_per_cycle", "ns/cycle"),
    ("pra.step_ns_per_link_traversal", "ns/traversal"),
    ("pra.link_traversals", "count"),
    ("pra.delivered", "count"),
    ("ideal.step_ns_per_cycle", "ns/cycle"),
    ("ideal.step_ns_per_link_traversal", "ns/traversal"),
    ("ideal.link_traversals", "count"),
    ("ideal.delivered", "count"),
    ("frfc.step_ns_per_cycle", "ns/cycle"),
    ("frfc.step_ns_per_link_traversal", "ns/traversal"),
    ("frfc.link_traversals", "count"),
    ("frfc.delivered", "count"),
    ("noc.drain_ns_per_cycle", "ns/cycle"),
    ("noc.inject_ns_per_call", "ns/call"),
    ("pra.segments_processed", "count"),
    ("pra.hops_preallocated", "count"),
    ("pra.injected_llc", "count"),
    ("pra.injected_lsd", "count"),
    ("pra.refused_at_ni", "count"),
    ("pra.drops", "count"),
    ("pra.wasted_reservations", "count"),
    ("pra.blocked_by_reservation_cycles", "count"),
    ("pra.reserved_moves", "count"),
    ("pra.reservation_use_ratio", "ratio"),
    ("pra.announce_calls", "count"),
    ("pra.announce_ns_per_call", "ns/call"),
    ("sysmodel.self_ns_per_cycle", "ns/cycle"),
    ("sysmodel.net_call_ns_per_cycle", "ns/cycle"),
    ("sysmodel.instructions", "count"),
    ("sysmodel.system_new_s", "s"),
    ("runner.point_s.p50", "s"),
    ("runner.point_s.max", "s"),
    ("runner.supervised_overhead", "ratio"),
    ("runner.journal_append_us", "us"),
    ("runner.cache_store_us", "us"),
    ("runner.cache_lookup_us", "us"),
    ("runner.cache_warm_s", "s"),
    ("runner.cache_hits", "count"),
    ("runner.worker_crashes", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.residual_frac", "frac"),
    ("trace.spans", "count"),
];

/// One timed interval of the traced run.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Report {
    epoch: Instant,
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
    boundaries: BTreeMap<String, Clock>,
}

impl Report {
    /// An empty report whose span clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Report {
            epoch,
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
            boundaries: BTreeMap::new(),
        }
    }

    /// Records metric `name`, which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one attempted sample or point; it failed when any check
    /// on it produced a problem.
    pub fn attempt(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("perfbench: CHECK FAILED ({what}): {p}");
            }
        }
    }

    /// Records a span from `start` to `end`; returns its id for children.
    pub fn span(
        &mut self,
        name: String,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    /// Sets the end of span `id` to `end`.
    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = end.duration_since(self.epoch).as_nanos() as u64;
    }

    /// Adds `clock` to the per-boundary total named `name`.
    pub fn boundary(&mut self, name: String, clock: Clock) {
        self.boundaries.entry(name).or_default().add(clock);
    }

    /// Whether every check so far passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Writes the spans and per-boundary totals to `path` as JSON.
    pub fn write_trace(&self, workload: &str, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::object(vec![
                    ("id".into(), Json::UInt(id as u64)),
                    ("name".into(), Json::from(s.name.as_str())),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("start_ns".into(), Json::UInt(s.start_ns)),
                    ("end_ns".into(), Json::UInt(s.end_ns)),
                ])
            })
            .collect();
        let boundaries = self
            .boundaries
            .iter()
            .map(|(name, c)| {
                Json::object(vec![
                    ("name".into(), Json::from(name.as_str())),
                    ("calls".into(), Json::UInt(c.calls)),
                    ("total_ns".into(), Json::UInt(c.ns)),
                ])
            })
            .collect();
        let doc = Json::object(vec![
            ("workload".into(), Json::from(workload)),
            ("spans".into(), Json::Array(spans)),
            ("boundaries".into(), Json::Array(boundaries)),
        ]);
        std::fs::write(path, doc.to_string_pretty(1))
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Prints the metrics of this run's mode as a table, then the
    /// one-line JSON result as the last line of standard output.
    /// An end-to-end metric the workload failed to report is a
    /// benchmark bug and fails the run.
    pub fn print(&mut self, trace: bool) {
        let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::new();
        for &(name, unit) in declared {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => {
                    eprintln!("perfbench: CHECK FAILED: workload did not report {name}");
                    self.failed += 1;
                    0.0
                }
            };
            println!("{name:<36} {value:>18.6} {unit}");
            fields.push((
                name.to_string(),
                Json::object(vec![
                    ("value".into(), Json::Float(value)),
                    ("unit".into(), Json::from(unit)),
                ]),
            ));
        }
        let result = Json::object(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::UInt(self.attempted)),
            ("failed".into(), Json::UInt(self.failed.min(self.attempted))),
            ("metrics".into(), Json::Object(fields)),
        ]);
        println!("{}", result.to_string());
    }
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fastest of repeated host-time measurements of identical work,
/// for the per-layer times that are not calibrated (see
/// [`crate::calib`]): host interference only ever slows a repetition
/// down, so the fastest one estimates the uncontended time.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of nothing");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The process's resident-memory high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
