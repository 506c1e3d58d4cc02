//! # niobs — observability for the near-ideal-noc simulators
//!
//! A near-zero-cost-when-detached event pipeline. Instrumented crates
//! (`noc`, `pra`, `sysmodel`) always compile their hooks in; with no
//! sink attached each hook is one `Option` branch — no virtual dispatch
//! and no event construction (see [`ObsHandle::emit`]).
//!
//! The pipeline's stages:
//!
//! * [`Event`] — the cross-layer event taxonomy (data network, PRA
//!   control network, LLC announce windows);
//! * [`EventSink`] / [`ObsHandle`] — the trait producers dispatch to
//!   and the handle they hold;
//! * [`RingLog`] — bounded in-memory event log;
//! * [`FlightRecorder`] — per-packet flight records (inject → per-hop
//!   per-stage timing → eject, with pre-allocated-prefix length);
//! * [`MetricsRegistry`] — named counters and exact histograms;
//! * [`chrome`] / [`flights_to_csv`] — Chrome/Perfetto `trace_event`
//!   JSON and compact per-packet CSV exporters;
//! * [`Recorder`] — the batteries-included sink combining all three
//!   collectors.

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod flight;
pub mod metrics;
pub mod ring;
pub mod sink;

pub use chrome::{chrome_trace, validate_chrome_trace, ChromeTraceError, ChromeTraceSummary};
pub use event::{Cycle, Event};
pub use flight::{flights_to_csv, FlightRecord, FlightRecorder, HopRecord};
pub use metrics::{MetricsRegistry, SparseHistogram};
pub use ring::{RingLog, TimedEvent};
pub use sink::{EventSink, ObsHandle, SharedSink};

use std::cell::RefCell;
use std::rc::Rc;

/// Capacity knobs for a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Ring-log capacity in events.
    pub ring_capacity: usize,
    /// Maximum finished flight records retained.
    pub max_flights: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            ring_capacity: 65_536,
            max_flights: 16_384,
        }
    }
}

/// The batteries-included sink: ring log + flight recorder + metrics.
///
/// Every event increments an `events.<name>` counter; terminal flights
/// also feed `packet.latency_cycles`, `packet.hops`, and
/// `packet.prealloc_prefix` histograms, so p50/p95/p99 packet latency
/// can be read off [`Recorder::metrics`] mid-run.
#[derive(Debug, Clone)]
pub struct Recorder {
    /// Bounded log of recent events.
    pub log: RingLog,
    /// Per-packet flight assembly.
    pub flights: FlightRecorder,
    /// Counters and histograms.
    pub metrics: MetricsRegistry,
}

impl Recorder {
    /// A recorder with the given capacity knobs.
    #[must_use]
    pub fn new(cfg: RecorderConfig) -> Self {
        Recorder {
            log: RingLog::new(cfg.ring_capacity),
            flights: FlightRecorder::new(cfg.max_flights),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Wraps the recorder for attachment via `ObsHandle::attach` /
    /// `Network::install_obs`.
    #[must_use]
    pub fn into_shared(self) -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(self))
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(RecorderConfig::default())
    }
}

impl EventSink for Recorder {
    fn record(&mut self, cycle: Cycle, event: Event) {
        self.metrics.inc(&format!("events.{}", event.name()), 1);
        self.log.push(cycle, event);
        if let Some(done) = self.flights.observe(cycle, &event) {
            if let Some(latency) = done.latency() {
                self.metrics.observe("packet.latency_cycles", latency);
            }
            let hops = done.hops.len() as u64;
            let prefix = done.prealloc_prefix() as u64;
            self.metrics.observe("packet.hops", hops);
            self.metrics.observe("packet.prealloc_prefix", prefix);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_routes_to_all_collectors() {
        let mut rec = Recorder::new(RecorderConfig {
            ring_capacity: 8,
            max_flights: 8,
        });
        rec.record(
            0,
            Event::PacketInjected {
                packet: 1,
                src: 0,
                dest: 1,
                class: 0,
                len: 1,
            },
        );
        rec.record(
            1,
            Event::LinkTraverse {
                packet: 1,
                seq: 0,
                node: 0,
                out_port: 1,
                reserved: false,
            },
        );
        rec.record(3, Event::PacketEjected { packet: 1, node: 1 });
        assert_eq!(rec.metrics.counter("events.packet_injected"), 1);
        assert_eq!(rec.metrics.counter("events.packet_ejected"), 1);
        assert_eq!(rec.log.len(), 3);
        assert_eq!(rec.flights.completed().len(), 1);
        let lat = rec
            .metrics
            .histogram("packet.latency_cycles")
            .expect("latency histogram must exist after a delivery");
        assert_eq!(lat.percentile(0.5), Some(3));
    }

    #[test]
    fn recorder_attaches_through_handle() {
        let shared = Recorder::default().into_shared();
        let handle = ObsHandle::attached(shared.clone());
        handle.emit(5, || Event::InjectionRefused { node: 2 });
        assert_eq!(
            shared.borrow().metrics.counter("events.injection_refused"),
            1
        );
    }
}
