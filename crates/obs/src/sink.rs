//! The event-sink trait and the producer-side handle.
//!
//! The handle is the zero-cost boundary: instrumented code holds an
//! [`ObsHandle`] and calls [`ObsHandle::emit`] with a *closure* that
//! builds the event. With no sink attached the call is a single
//! `Option` discriminant test — the closure is never invoked, so event
//! construction (field widening, label formatting) costs nothing on the
//! hot path.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::event::{Cycle, Event};

/// Receives timestamped simulator events.
///
/// Implementations must be cheap and infallible: sinks run inline with
/// the simulator and have no way to report errors mid-cycle. Bounded
/// sinks (ring logs, capped recorders) drop and count instead of
/// growing without limit.
pub trait EventSink {
    /// Records one event observed at `cycle`.
    fn record(&mut self, cycle: Cycle, event: Event);
}

/// A shareable sink handle: one sink instance observing several
/// producers (mesh + control network + system model).
///
/// The simulators are single-threaded, so `Rc<RefCell<…>>` suffices;
/// there is no locking on the hot path.
pub type SharedSink = Rc<RefCell<dyn EventSink>>;

/// Producer-side handle embedded in instrumented structs.
///
/// Defaults to detached (no sink, no dispatch). The handle is the only
/// observability state the simulators carry, so cloning a network
/// config or constructing a fresh network never allocates sink state.
#[derive(Clone, Default)]
pub struct ObsHandle {
    sink: Option<SharedSink>,
}

impl ObsHandle {
    /// A detached handle: `emit` is a no-op branch.
    #[must_use]
    pub fn disabled() -> Self {
        ObsHandle { sink: None }
    }

    /// A handle that forwards every event to `sink`.
    #[must_use]
    pub fn attached(sink: SharedSink) -> Self {
        ObsHandle { sink: Some(sink) }
    }

    /// Attaches `sink`, replacing any previous one.
    pub fn attach(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }

    /// Detaches the current sink, if any.
    pub fn detach(&mut self) {
        self.sink = None;
    }

    /// Whether a sink is attached (i.e. whether `emit` will dispatch).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records the event built by `make`, if a sink is attached.
    ///
    /// `make` runs only on the attached path; with no sink this is a
    /// single branch and no virtual call.
    #[inline]
    pub fn emit(&self, cycle: Cycle, make: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(cycle, make());
        }
    }
}

impl fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsHandle")
            .field("attached", &self.sink.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counting {
        seen: Vec<(Cycle, Event)>,
    }

    impl EventSink for Counting {
        fn record(&mut self, cycle: Cycle, event: Event) {
            self.seen.push((cycle, event));
        }
    }

    #[test]
    fn detached_handle_never_builds_events() {
        let handle = ObsHandle::disabled();
        let mut built = false;
        handle.emit(7, || {
            built = true;
            Event::InjectionRefused { node: 0 }
        });
        assert!(!built, "closure must not run without a sink");
        assert!(!handle.is_enabled());
    }

    #[test]
    fn attached_handle_dispatches_with_cycle() {
        let sink = Rc::new(RefCell::new(Counting { seen: Vec::new() }));
        let mut handle = ObsHandle::disabled();
        handle.attach(sink.clone());
        assert!(handle.is_enabled());
        handle.emit(42, || Event::InjectionRefused { node: 9 });
        handle.detach();
        handle.emit(43, || Event::InjectionRefused { node: 9 });
        let seen = &sink.borrow().seen;
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, 42);
        assert_eq!(seen[0].1, Event::InjectionRefused { node: 9 });
    }
}
