//! QoS record/replay equivalence: a bursty run recorded into a trace
//! and replayed from it must put the network through the same history —
//! byte-identical stats and digest trails — and the equivalence must
//! hold at any worker-thread count.
//!
//! One alignment note: both drivers take a single empty step before the
//! first injection tick. A fresh network reports `now() == 0` while the
//! generator stamps its first batch with cycle 1, so a replay starting
//! from cycle 0 would deliver that batch one step late; starting both
//! sides at `now() == 1` removes the degenerate cycle and makes the
//! comparison exact.

use noc::network::Network;
use noc::trace::{Trace, TracePlayer};
use noc::traffic::{InjectionProcess, Pattern, TokenBucketCfg, TrafficGen};
use noc::types::MessageClass;
use runner::{run_tasks, to_csv, AnyNetwork, Organization, Outcome, SweepSpec};

const CYCLES: u64 = 1_500;
const DIGEST_EVERY: u64 = 100;
const DRAIN_STEPS: u64 = 3_000;

fn config() -> noc::config::NocConfig {
    noc::config::NocConfigBuilder::new()
        .radix(4)
        .build()
        .expect("valid config")
}

/// Everything the equivalence check compares: per-class delivery
/// counters, latency aggregates, and the sampled digest trail.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Snapshot {
    delivered: [u64; 3],
    total_latency: u64,
    total_hops: u64,
    max_latency: u64,
    max_latency_by_class: [u64; 3],
    link_traversals: u64,
    in_flight: usize,
    trail: Vec<u64>,
}

fn snapshot(net: &dyn Network, trail: Vec<u64>) -> Snapshot {
    let s = net.stats();
    Snapshot {
        delivered: s.packets_delivered,
        total_latency: s.total_latency,
        total_hops: s.total_hops,
        max_latency: s.max_latency,
        max_latency_by_class: s.max_latency_by_class,
        link_traversals: s.link_traversals,
        in_flight: net.in_flight(),
        trail,
    }
}

/// Drives a recorded bursty run and returns its trace plus snapshot.
/// `shaped` additionally installs a response-class token bucket.
fn recorded(org: Organization, process: InjectionProcess, shaped: bool) -> (Trace, Snapshot) {
    let mut net = AnyNetwork::new(org, config());
    let mut gen = TrafficGen::new(config(), Pattern::Transpose, 0.08, 42)
        .response_fraction(0.5)
        .injection(process)
        .record_trace();
    if shaped {
        gen = gen.token_bucket(
            MessageClass::Response,
            TokenBucketCfg {
                rate: 0.5,
                burst: 10,
            },
        );
    }
    net.step();
    let mut trail = Vec::new();
    for i in 0..CYCLES {
        gen.tick(&mut net);
        net.step();
        if (i + 1) % DIGEST_EVERY == 0 {
            trail.push(net.state_digest().expect("mesh organisations digest"));
        }
    }
    gen.stop();
    for _ in 0..DRAIN_STEPS {
        net.step();
    }
    (gen.take_trace(), snapshot(&net, trail))
}

/// Replays `trace` through a fresh network with the identical driving
/// loop (empty first step, same cycle count, same drain).
fn replayed(org: Organization, trace: Trace) -> Snapshot {
    let mut net = AnyNetwork::new(org, config());
    let mut player = TracePlayer::new(trace);
    net.step();
    let mut trail = Vec::new();
    for i in 0..CYCLES {
        player.tick(&mut net);
        net.step();
        if (i + 1) % DIGEST_EVERY == 0 {
            trail.push(net.state_digest().expect("mesh organisations digest"));
        }
    }
    assert!(player.finished(), "every recorded injection must replay");
    for _ in 0..DRAIN_STEPS {
        net.step();
    }
    snapshot(&net, trail)
}

#[test]
fn recorded_bursty_runs_replay_byte_identically() {
    let processes = [
        InjectionProcess::OnOff {
            on_len: 8,
            off_len: 56,
        },
        InjectionProcess::Mmpp {
            boost: 4.0,
            mean_dwell_lo: 40,
            mean_dwell_hi: 10,
            max_dwell_hi: 20,
        },
    ];
    for org in [Organization::Mesh, Organization::MeshPra] {
        for process in processes {
            let (trace, original) = recorded(org, process, false);
            assert!(!trace.is_empty(), "{org:?} {process:?} recorded nothing");
            let replay = replayed(org, trace);
            assert!(!original.trail.is_empty());
            assert_eq!(
                original, replay,
                "{org:?} {process:?}: record/replay diverged"
            );
        }
    }
}

#[test]
fn shaped_runs_replay_with_identical_stats() {
    // Token buckets defer packets, so replay reassigns packet ids in
    // admit order — the digest trail (which hashes ids) legitimately
    // differs, but every behavioural statistic must still match: the
    // offered load cycle-by-cycle is identical.
    let (trace, original) = recorded(
        Organization::Mesh,
        InjectionProcess::OnOff {
            on_len: 8,
            off_len: 56,
        },
        true,
    );
    let replay = replayed(Organization::Mesh, trace);
    assert_eq!(original.delivered, replay.delivered);
    assert_eq!(original.total_latency, replay.total_latency);
    assert_eq!(original.total_hops, replay.total_hops);
    assert_eq!(original.max_latency, replay.max_latency);
    assert_eq!(original.max_latency_by_class, replay.max_latency_by_class);
    assert_eq!(original.link_traversals, replay.link_traversals);
    assert_eq!(original.in_flight, replay.in_flight);
}

#[test]
fn replay_equivalence_holds_at_any_thread_count() {
    // The record→replay comparison itself, fanned out over the runner's
    // worker pool: each task records one (org, process) scenario and
    // replays it, and the snapshots must be identical no matter how many
    // threads executed the tasks.
    let scenarios: Vec<(Organization, InjectionProcess)> = vec![
        (
            Organization::Mesh,
            InjectionProcess::OnOff {
                on_len: 8,
                off_len: 56,
            },
        ),
        (
            Organization::MeshPra,
            InjectionProcess::Mmpp {
                boost: 3.0,
                mean_dwell_lo: 30,
                mean_dwell_hi: 8,
                max_dwell_hi: 16,
            },
        ),
    ];
    let run_all = |threads: usize| -> Vec<(Snapshot, Snapshot)> {
        run_tasks(
            scenarios.len(),
            threads,
            |i| {
                let (org, process) = scenarios[i];
                let (trace, original) = recorded(org, process, false);
                let replay = replayed(org, trace);
                (original, replay)
            },
            |_, _, _, _| {},
        )
        .into_iter()
        .map(|o| match o {
            Outcome::Done(pair) => pair,
            Outcome::Panicked { task, message } => panic!("task {task} panicked: {message}"),
        })
        .collect()
    };
    let serial = run_all(1);
    for (original, replay) in &serial {
        assert_eq!(original, replay, "serial record/replay diverged");
    }
    for threads in [2, 4] {
        assert_eq!(
            serial,
            run_all(threads),
            "snapshots differ between 1 and {threads} threads"
        );
    }
}

#[test]
fn bursty_shaped_sweeps_are_thread_count_independent() {
    // The QoS grid axes (injection processes, class priority, token
    // buckets) must not weaken the runner's core invariant: identical
    // CSV bytes at any thread count.
    let mut spec = SweepSpec::new("qos-threads")
        .orgs(&[Organization::Mesh, Organization::MeshPra])
        .rates(&[0.02, 0.08])
        .injections(&[InjectionProcess::OnOff {
            on_len: 8,
            off_len: 56,
        }])
        .class_priority([1, 0, 2])
        .token_buckets([
            None,
            None,
            Some(TokenBucketCfg {
                rate: 0.5,
                burst: 10,
            }),
        ])
        .windows(200, 800);
    spec.radices = vec![4];
    let points = spec.points();
    let rows = |threads| -> Vec<runner::PointRecord> {
        let run = |i: usize| runner::run_point_full(&points[i]);
        runner::run_points_full_with(&points, threads, run, |_, _, _, _| {})
            .into_iter()
            .map(|o| o.record)
            .collect()
    };
    let serial = to_csv(&rows(1));
    for threads in [2, 4] {
        let parallel = to_csv(&rows(threads));
        assert_eq!(serial, parallel, "rows differ at {threads} threads");
    }
}
