//! Rotating the measuring thread over the host CPUs it may run on.
//!
//! On a shared machine, interference from other tenants hits one CPU at
//! a time: the same loop pinned to each of two CPUs at once ran 1.5x
//! slower on one while the other ran at full speed, and the episodes
//! move between CPUs over seconds. Left alone, the scheduler keeps a
//! single thread on one CPU, so a whole run can sit on the disturbed
//! one. Moving the thread to the next CPU every round spreads a run's
//! repetitions over every CPU it may use.

/// glibc's `cpu_set_t`: a 1024-bit mask.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread to one allowed CPU after another, and
/// restores the original affinity when dropped (so processes spawned
/// afterwards may use every CPU again).
#[derive(Debug)]
pub struct Rotation {
    original: CpuSet,
    cpus: Vec<usize>,
    next: usize,
}

impl Rotation {
    /// Reads the thread's allowed CPUs; `None` when the call fails.
    pub fn new() -> Option<Rotation> {
        let mut original: CpuSet = [0; 16];
        // SAFETY: `original` is a writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut original) };
        if rc != 0 {
            return None;
        }
        let cpus = (0..1024)
            .filter(|&c| original[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        Some(Rotation {
            original,
            cpus,
            next: 0,
        })
    }

    /// Pins the calling thread to the next allowed CPU.
    pub fn advance(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut mask: CpuSet = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        set(&mask);
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        set(&self.original);
    }
}

/// Applies `mask` to the calling thread; a failure leaves the affinity
/// as it was, which only costs steadiness.
fn set(mask: &CpuSet) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) };
}
