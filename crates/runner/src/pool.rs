//! A work pool for independent simulation tasks.
//!
//! Plain `std` threads and channels: workers claim task indices from an
//! atomic counter (self-balancing — a slow point does not stall the
//! others), run the task under `catch_unwind`, and send the result back
//! tagged with its index. Results are reassembled **by index**, so the
//! output order is independent of scheduling — the foundation of the
//! serial-vs-parallel byte-identical guarantee.
//!
//! Network types are deliberately built *inside* the task closure: they
//! are not `Send` (observability handles use `Rc`), and they never need
//! to be — only task indices and result values cross threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// The result of one task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<T> {
    /// The task ran to completion.
    Done(T),
    /// The task panicked; the payload message is preserved along with
    /// the index of the task that blew up, so a sweep can say *which
    /// point* crashed without the caller re-threading that context. The
    /// sweep records the point as failed and carries on.
    Panicked {
        /// Index of the task that panicked.
        task: usize,
        /// The panic payload, stringified.
        message: String,
    },
}

/// Runs `count` tasks across `threads` workers and returns the outcomes
/// in task-index order. `task(i)` must be a pure function of `i` for the
/// determinism guarantee to hold. `on_complete(i, outcome, done, total)`
/// runs on the calling thread after each completion, in completion
/// order — what lets a caller journal each result durably the moment it
/// lands, without waiting for the whole batch.
///
/// `threads` is clamped to `1..=count`; with one thread the tasks run
/// inline on the calling thread (still panic-isolated, so a crashing
/// point is reported the same way at any thread count).
pub fn run_tasks<T, F, C>(
    count: usize,
    threads: usize,
    task: F,
    mut on_complete: C,
) -> Vec<Outcome<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: FnMut(usize, &Outcome<T>, usize, usize),
{
    if count == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, count);
    if workers == 1 {
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            out.push(run_one(&task, i));
            on_complete(i, &out[i], i + 1, count);
        }
        return out;
    }

    let mut results: Vec<Option<Outcome<T>>> = Vec::with_capacity(count);
    results.resize_with(count, || None);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Outcome<T>)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let task = &task;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                if tx.send((i, run_one(task, i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut done = 0usize;
        while let Ok((i, outcome)) = rx.recv() {
            done += 1;
            on_complete(i, &outcome, done, count);
            results[i] = Some(outcome);
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("every claimed index reports exactly once"))
        .collect()
}

fn run_one<T, F: Fn(usize) -> T>(task: &F, i: usize) -> Outcome<T> {
    match catch_unwind(AssertUnwindSafe(|| task(i))) {
        Ok(v) => Outcome::Done(v),
        Err(payload) => Outcome::Panicked {
            task: i,
            message: panic_message(payload.as_ref()),
        },
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        // Uneven task costs scramble completion order; index order must
        // survive anyway.
        let out = run_tasks(
            16,
            4,
            |i| {
                if i % 3 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                i * 10
            },
            |_, _, _, _| {},
        );
        let values: Vec<usize> = out
            .into_iter()
            .filter_map(|o| match o {
                Outcome::Done(v) => Some(v),
                Outcome::Panicked { .. } => None,
            })
            .collect();
        assert_eq!(values, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn panics_are_isolated_per_task() {
        let out = run_tasks(
            5,
            3,
            |i| {
                assert!(i != 2, "task 2 exploded");
                i
            },
            |_, _, _, _| {},
        );
        assert_eq!(out.len(), 5);
        for (i, o) in out.iter().enumerate() {
            match o {
                Outcome::Done(v) => assert_eq!(*v, i),
                Outcome::Panicked { task, message } => {
                    assert_eq!(i, 2);
                    assert_eq!(*task, 2, "the outcome must name its own index");
                    assert!(message.contains("task 2 exploded"), "got: {message}");
                }
            }
        }
    }

    #[test]
    fn serial_path_isolates_panics_too() {
        let out = run_tasks(3, 1, |i| assert!(i != 1), |_, _, _, _| {});
        assert!(matches!(out[0], Outcome::Done(())));
        assert!(matches!(out[1], Outcome::Panicked { task: 1, .. }));
        assert!(matches!(out[2], Outcome::Done(())));
    }

    #[test]
    fn progress_reaches_count() {
        let mut last = 0;
        let _ = run_tasks(
            7,
            4,
            |i| i,
            |_, _, done, total| {
                assert!(done <= total);
                last = done;
            },
        );
        assert_eq!(last, 7);
    }

    #[test]
    fn zero_tasks_and_excess_threads() {
        assert!(run_tasks(0, 8, |i| i, |_, _, _, _| {}).is_empty());
        let one = run_tasks(1, 64, |i| i + 1, |_, _, _, _| {});
        assert_eq!(one, [Outcome::Done(1)]);
    }
}
