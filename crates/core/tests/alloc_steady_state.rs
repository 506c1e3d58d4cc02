//! Heap-allocation budget of the Mesh+PRA and FRFC step loops.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the
//! count is armed only around the measured windows. Two properties:
//!
//! * **Idle is free.** After real announced traffic has drained, 10 000
//!   cycles with skip-ahead off (so the LSD scan, control-packet
//!   processing, the reservation phases and the delivery drain all run
//!   every cycle) must not touch the allocator at all.
//! * **Busy is bounded.** A window of announced traffic allocates for
//!   per-packet bookkeeping (ledger entries, routes of control packets),
//!   never per cycle. Its count is asserted at or below the budget the
//!   current code reaches, so a regression that puts an allocation back
//!   into a per-cycle path fails with the exact count.
//!
//! This file holds exactly one `#[test]` on purpose: the libtest harness
//! runs tests in one process, and a sibling test allocating on another
//! thread while the counter is armed would make the count flaky.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use nistats::rng::Rng;
use noc::config::NocConfig;
use noc::flit::Packet;
use noc::network::{Delivered, Network};
use noc::traffic::{Pattern, TrafficGen};
use noc::types::{Cycle, MessageClass, NodeId, PacketId};
use pra::{FrfcNetwork, PraNetwork};

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

/// Allocation budgets of the busy announced window (2 000 cycles): the
/// counts the step loops reach. What remains is per packet — ledger
/// entries, the route of each control packet or FRFC wave,
/// reservation-index growth — not per cycle.
const PRA_BUSY_BUDGET: u64 = 1_852;
const FRFC_BUSY_BUDGET: u64 = 1_735;

#[test]
fn pra_and_frfc_steady_state_allocations() {
    let cfg = NocConfig::paper();
    let (pra_idle, pra_busy) = measure(PraNetwork::new(cfg.clone()));
    let (frfc_idle, frfc_busy) = measure(FrfcNetwork::new(cfg));
    for (org, idle) in [("Mesh+PRA", pra_idle), ("FRFC", frfc_idle)] {
        assert_eq!(
            idle, 0,
            "{org}: idle stepping performed {idle} heap allocations; the \
             control plane must reuse its buffers"
        );
    }
    assert!(
        pra_busy <= PRA_BUSY_BUDGET,
        "Mesh+PRA: busy window allocated {pra_busy} times (budget {PRA_BUSY_BUDGET})"
    );
    assert!(
        frfc_busy <= FRFC_BUSY_BUDGET,
        "FRFC: busy window allocated {frfc_busy} times (budget {FRFC_BUSY_BUDGET})"
    );
}

/// Deterministic announced traffic: every node sends at `rate`; half the
/// packets are responses announced 4 cycles ahead (the LLC window), the
/// rest unannounced requests.
struct Announcer {
    rng: Rng,
    rate: f64,
    next_id: u64,
    later: Vec<(Cycle, Packet)>,
}

impl Announcer {
    fn new(seed: u64, rate: f64) -> Self {
        Announcer {
            rng: Rng::new(seed),
            rate,
            next_id: 0,
            later: Vec::with_capacity(1024),
        }
    }

    fn tick<N: Network>(&mut self, net: &mut N) {
        let nodes = net.config().nodes() as u16;
        for src in 0..nodes {
            if !self.rng.gen_bool(self.rate) {
                continue;
            }
            let dest = (src + self.rng.gen_range_u16(1, nodes)) % nodes;
            self.next_id += 1;
            let (id, s, d) = (PacketId(self.next_id), NodeId::new(src), NodeId::new(dest));
            if self.rng.gen_bool(0.5) {
                let p = Packet::new(id, s, d, MessageClass::Response, 5);
                net.announce(&p, 4);
                self.later.push((net.now() + 4, p));
            } else {
                let now = net.now();
                net.inject(Packet::new(id, s, d, MessageClass::Request, 1).at(now));
            }
        }
        let now = net.now();
        let mut i = 0;
        while i < self.later.len() {
            if self.later[i].0 == now {
                let (_, p) = self.later.swap_remove(i);
                net.inject(p.at(now));
            } else {
                i += 1;
            }
        }
    }
}

/// Warms `net` up with announced traffic, then counts the allocations of
/// a busy announced window and of 10 000 idle cycles after a drain.
fn measure<N: Network>(mut net: N) -> (u64, u64) {
    let cfg = net.config().clone();
    net.set_skip_ahead(false);
    let mut traffic = Announcer::new(5, 0.02);
    let mut delivered: Vec<Delivered> = Vec::with_capacity(4096);
    for _ in 0..3_000 {
        traffic.tick(&mut net);
        net.step();
        net.drain_delivered_into(&mut delivered);
        delivered.clear();
    }

    // Busy window: the same traffic, counted.
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..2_000 {
        traffic.tick(&mut net);
        net.step();
        net.drain_delivered_into(&mut delivered);
        delivered.clear();
    }
    ARMED.store(false, Ordering::SeqCst);
    let busy = ALLOCATIONS.load(Ordering::SeqCst);

    // Drain: announced packets still waiting out their lead go in first.
    traffic.rate = 0.0;
    for _ in 0..10 {
        traffic.tick(&mut net);
        net.step();
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

    // Idle window: the full per-cycle pipeline over an empty fabric,
    // with a zero-rate generator ticking as a system model would.
    let mut idle_gen = TrafficGen::new(cfg, Pattern::UniformRandom, 0.0, 7);
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..10_000 {
        idle_gen.tick(&mut net);
        net.step();
        net.drain_delivered_into(&mut delivered);
        delivered.clear();
    }
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::SeqCst), busy)
}
