//! Proof that the per-cycle paths of the mesh, SMART and the ideal
//! network perform **zero heap allocations** in steady state.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the
//! count is armed only around the measured stepping loop. The network
//! first runs real traffic to a full drain, so every reusable buffer
//! (scratch vectors, arrival/credit queues, VC rings) has reached its
//! steady-state capacity. After that, stepping the fabric — with the
//! mesh's quiescent fast path disabled, so the full phase pipeline executes
//! every cycle — must never touch the allocator: any `Box::new`,
//! `vec!`, or growth re-introduced into the hot loop fails this test
//! with an exact allocation count.
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
