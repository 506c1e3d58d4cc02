//! DDR3-1600 memory channels.
//!
//! A latency + bandwidth queueing model: each channel serves one
//! cache-line transfer at a time (`line_cycles` of occupancy) and every
//! access pays the fixed `latency` on top of its queueing delay.

use noc::types::Cycle;

/// One memory channel.
#[derive(Debug)]
pub struct MemoryChannel {
    latency: u64,
    line_cycles: u64,
    /// Cycle at which the channel next becomes free.
    free_at: Cycle,
}

impl MemoryChannel {
    /// Creates a channel with fixed access `latency` and per-line
    /// occupancy `line_cycles`.
    pub fn new(latency: u64, line_cycles: u64) -> Self {
        MemoryChannel {
            latency,
            line_cycles,
            free_at: 0,
        }
    }

    /// Enqueues a line fetch arriving at `now`; returns the cycle its
    /// data will be ready to leave the controller.
    pub fn enqueue(&mut self, now: Cycle) -> Cycle {
        let start = self.free_at.max(now);
        self.free_at = start + self.line_cycles;
        start + self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_access_pays_latency_only() {
        let mut mc = MemoryChannel::new(90, 10);
        assert_eq!(mc.enqueue(100), 190);
    }

    #[test]
    fn back_to_back_accesses_queue_on_bandwidth() {
        let mut mc = MemoryChannel::new(90, 10);
        assert_eq!(mc.enqueue(100), 190);
        assert_eq!(mc.enqueue(100), 200, "second line starts 10 cycles later");
        assert_eq!(mc.enqueue(100), 210);
    }

    #[test]
    fn idle_gaps_do_not_accumulate_service() {
        let mut mc = MemoryChannel::new(90, 10);
        mc.enqueue(100);
        // Long idle gap; the next access starts immediately on arrival.
        assert_eq!(mc.enqueue(500), 590);
    }
}
