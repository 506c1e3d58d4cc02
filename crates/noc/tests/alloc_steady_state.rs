//! Proof that the per-cycle paths of the mesh, SMART and the ideal
//! network perform **zero heap allocations** in steady state.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the
//! count is armed only around the measured stepping loop. The network
//! first runs real traffic to a full drain, so every reusable buffer
//! (scratch vectors, arrival/credit queues) has reached its
//! steady-state capacity. After that, stepping the fabric — with the
//! mesh's quiescent fast path disabled, so the full phase pipeline executes
//! every cycle — must never touch the allocator: any `Box::new`,
//! `vec!`, or growth re-introduced into the hot loop fails this test
//! with an exact allocation count. A saturated mesh window, whose new
//! packets legitimately allocate, is held to a recorded budget instead.
//! Building each network is held to an exact allocation count that does
//! not grow with the mesh.
//!
//! This file holds exactly one `#[test]` on purpose: the libtest harness
//! runs tests in one process, and a sibling test allocating on another
//! thread while the counter is armed would make the count flaky.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use noc::config::NocConfig;
use noc::ideal::IdealNetwork;
use noc::mesh::MeshNetwork;
use noc::network::Network;
use noc::reserve::ReservingCore;
use noc::smart::SmartNetwork;
use noc::traffic::{Pattern, TrafficGen};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the wrapper only
// increments an atomic counter and never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_stepping_never_allocates() {
    let cfg = NocConfig::paper();
    // Building a network takes a fixed number of heap blocks, whatever
    // the mesh size: the same count at radix 16 as at the paper's 8.
    let wide = NocConfig {
        radix: 16,
        ..cfg.clone()
    };
    for c in [&cfg, &wide] {
        let built = [
            ("mesh", construction_allocations(c, MeshNetwork::new)),
            ("reserving", construction_allocations(c, ReservingCore::new)),
            ("ideal", construction_allocations(c, IdealNetwork::new)),
            ("SMART", construction_allocations(c, SmartNetwork::new)),
        ];
        assert_eq!(
            built, CONSTRUCTION_ALLOCATIONS,
            "heap allocations of building each network at radix {}",
            c.radix
        );
    }
    let counts = [
        ("mesh", idle_allocations(MeshNetwork::new(cfg.clone()))),
        ("SMART", idle_allocations(SmartNetwork::new(cfg.clone()))),
        ("ideal", idle_allocations(IdealNetwork::new(cfg))),
    ];
    for (org, count) in counts {
        assert_eq!(
            count, 0,
            "{org}: steady-state stepping performed {count} heap allocations; \
             the hot loop must reuse its buffers (see StepScratch in mesh.rs)"
        );
    }
    let busy = busy_mesh_allocations();
    assert!(
        busy <= BUSY_MESH_BUDGET,
        "saturated mesh window performed {busy} heap allocations, over the \
         budget of {BUSY_MESH_BUDGET}; switch allocation must not allocate"
    );
}

/// Heap allocations of building each network: all of a network's
/// routers share one slab per kind of state, and its network interface
/// two (per-node queues and reassembly, the source-occupancy bitset), so
/// the count does not grow with nodes, ports or VCs.
const CONSTRUCTION_ALLOCATIONS: [(&str, u64); 4] =
    [("mesh", 10), ("reserving", 14), ("ideal", 8), ("SMART", 10)];

/// Allocations of [`busy_mesh_allocations`]' window as measured before
/// switch allocation moved to occupancy masks. The window creates
/// packets, whose ledger, reassembly and delivery bookkeeping
/// legitimately allocates; the router core itself must add nothing.
const BUSY_MESH_BUDGET: u64 = 1_649;

/// Counts the heap allocations of 2 000 cycles of the paper mesh at
/// 0.08 packets/node/cycle (just below saturation, half multi-flit
/// responses) with skip-ahead off, after 1 000 warm-up cycles.
fn busy_mesh_allocations() -> u64 {
    let cfg = NocConfig::paper();
    let mut net = MeshNetwork::new(cfg.clone());
    net.set_skip_ahead(false);
    let mut gen = TrafficGen::new(cfg, Pattern::UniformRandom, 0.08, 3);
    let mut delivered = Vec::with_capacity(4096);
    for _ in 0..1_000 {
        gen.tick(&mut net);
        net.step();
        net.drain_delivered_into(&mut delivered);
        delivered.clear();
    }
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..2_000 {
        gen.tick(&mut net);
        net.step();
        net.drain_delivered_into(&mut delivered);
        delivered.clear();
    }
    ARMED.store(false, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Counts the heap allocations of building one network of `cfg`.
fn construction_allocations<N>(cfg: &NocConfig, build: fn(NocConfig) -> N) -> u64 {
    let cfg = cfg.clone();
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let net = build(cfg);
    ARMED.store(false, Ordering::SeqCst);
    drop(net);
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Warms `net` up with real traffic, drains it, then counts the heap
/// allocations of 10 000 idle cycles.
fn idle_allocations<N: Network>(mut net: N) -> u64 {
    let cfg = net.config().clone();
    // Exhaustive stepping: the mesh's fast path would turn quiescent
    // cycles into an early return and prove nothing about the phase
    // pipeline (the other organisations have no fast path).
    net.set_skip_ahead(false);

    // Warm up with real traffic so every internal buffer grows to its
    // working capacity, then drain completely.
    let mut gen = TrafficGen::new(cfg.clone(), Pattern::UniformRandom, 0.02, 1);
    // Zero-rate generator for the measured window: the tick path (RNG
    // draws, shaper scan, release scratch) runs every cycle without
    // creating packets, whose bookkeeping legitimately allocates.
    let mut idle_gen = TrafficGen::new(cfg, Pattern::UniformRandom, 0.0, 7);
    let mut delivered = Vec::with_capacity(4096);
    for _ in 0..2_000 {
        gen.tick(&mut net);
        net.step();
        net.drain_delivered_into(&mut delivered);
        delivered.clear();
    }
    for _ in 0..10_000 {
        net.step();
        net.drain_delivered_into(&mut delivered);
        delivered.clear();
        if net.in_flight() == 0 {
            break;
        }
    }
    assert_eq!(net.in_flight(), 0, "fabric must drain before measuring");

    // Measured window: the full per-cycle pipeline (traffic tick at the
    // now-empty sources included) over an idle fabric.
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..10_000 {
        idle_gen.tick(&mut net);
        net.step();
        net.drain_delivered_into(&mut delivered);
        delivered.clear();
    }
    ARMED.store(false, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::SeqCst)
}
