//! End-to-end observability pipeline tests: Chrome-trace export
//! round-trip (serialize → parse → schema-validate), CSV export, and the
//! full-stack `System::attach_obs` path.
#![cfg(feature = "obs")]

use bench::{AnyNetwork, Organization};
use nistats::Json;
use noc::network::Network;
use noc::traffic::{Pattern, TrafficGen};
use sysmodel::{System, SystemParams};
use workloads::WorkloadKind;

/// Runs a small PRA simulation through `AnyNetwork` with a recorder
/// attached and returns the recorder.
fn recorded_pra_run() -> niobs::Recorder {
    let cfg = noc::config::NocConfigBuilder::new()
        .build()
        .expect("valid config");
    let mut net = AnyNetwork::new(Organization::MeshPra, cfg.clone());
    let shared = niobs::Recorder::default().into_shared();
    net.install_obs(shared.clone());
    let mut gen = TrafficGen::new(cfg, Pattern::UniformRandom, 0.03, 5);
    for _ in 0..2_000 {
        gen.tick(&mut net);
        net.step();
        net.drain_delivered();
    }
    gen.stop();
    net.run_to_drain(10_000);
    let rec = shared.borrow().clone();
    rec
}

#[test]
fn chrome_trace_round_trips_and_validates() {
    let rec = recorded_pra_run();
    assert!(
        !rec.flights.completed().is_empty(),
        "the run must complete flights"
    );
    let instants: Vec<niobs::TimedEvent> = rec.log.iter().cloned().collect();
    let doc = niobs::chrome_trace(rec.flights.completed(), &instants);

    // Round-trip through the serialized form, exactly as a viewer would
    // consume it.
    let text = doc.to_string();
    let parsed = Json::parse(&text).expect("export must be well-formed JSON");
    let summary =
        niobs::validate_chrome_trace(&parsed).expect("export must satisfy the trace_event schema");
    assert!(summary.events > 2, "more than the two metadata events");
    assert!(summary.tracks > 1, "per-packet tracks plus metadata");
    assert!(summary.max_ts > 0);

    // The validator must actually reject broken documents: drop `ph`
    // from a real event.
    let bad = Json::parse(&text.replacen("\"ph\":\"X\"", "\"pH\":\"X\"", 1))
        .expect("still well-formed JSON");
    assert!(
        niobs::validate_chrome_trace(&bad).is_err(),
        "validator must reject an event without ph"
    );
}

#[test]
fn csv_export_covers_every_completed_flight() {
    let rec = recorded_pra_run();
    let csv = niobs::flights_to_csv(rec.flights.completed());
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(
        lines.len(),
        rec.flights.completed().len() + 1,
        "header plus one row per flight"
    );
    assert!(lines[0].starts_with("packet,src,dest,class,len_flits"));
}

#[test]
fn system_attach_obs_feeds_all_layers() {
    let params = SystemParams::paper();
    let net = pra::network::PraNetwork::new(params.noc.clone());
    let mut sys = System::new(params, net, WorkloadKind::WebSearch, 1);
    let shared = niobs::Recorder::default().into_shared();
    sys.attach_obs(shared.clone());
    sys.run(3_000);

    let rec = shared.borrow();
    let m = &rec.metrics;
    assert!(m.counter("events.packet_injected") > 0, "data layer");
    assert!(m.counter("events.packet_ejected") > 0, "data layer");
    assert!(m.counter("events.llc_window") > 0, "system layer");
    assert!(
        m.counter("events.control_injected") > 0,
        "control layer (LLC windows launch control packets)"
    );
    assert!(
        m.histogram("packet.latency_cycles").is_some(),
        "latency histogram populated from completed flights"
    );
}
