//! Lightweight trace log.
//!
//! The migration engine and placement enforcer record timestamped events so
//! tests can assert on *when* things happened in virtual time (e.g. "the
//! migration of `lhs` for phase 4 started no earlier than the last phase
//! that referenced it"). Logging is opt-in; a disabled log is a no-op.

use crate::time::VTime;
use std::fmt;

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A migration was enqueued on the helper thread's FIFO queue.
    MigrationEnqueued,
    /// The helper thread started copying.
    MigrationStarted,
    /// The copy finished.
    MigrationCompleted,
    /// The main thread stalled waiting for an in-flight migration.
    MigrationStall,
    /// A phase began executing.
    PhaseBegin,
    /// A phase finished executing.
    PhaseEnd,
    /// The profiler switched on/off.
    Profiling(bool),
    /// Placement plan recomputed.
    Replan,
    /// Free-form marker for tests.
    Marker,
}

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub at: VTime,
    pub kind: EventKind,
    /// Human-readable detail, e.g. the object name or phase id.
    pub detail: String,
}

/// An append-only trace. Disabled by default (zero cost besides a branch).
#[derive(Debug, Default, Clone)]
pub struct TraceLog {
    enabled: bool,
    events: Vec<Event>,
}

impl TraceLog {
    pub fn new(enabled: bool) -> TraceLog {
        TraceLog {
            enabled,
            events: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event (no-op when disabled).
    pub fn push(&mut self, at: VTime, kind: EventKind, detail: impl Into<String>) {
        if self.enabled {
            self.events.push(Event {
                at,
                kind,
                detail: detail.into(),
            });
        }
    }

    pub fn events(&self) -> &[Event] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// All events of `kind`, in order.
    pub fn of_kind<'a>(&'a self, kind: &'a EventKind) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| &e.kind == kind)
    }

    /// First event of `kind` whose detail contains `needle`.
    pub fn find(&self, kind: &EventKind, needle: &str) -> Option<&Event> {
        self.events
            .iter()
            .find(|e| &e.kind == kind && e.detail.contains(needle))
    }
}

impl fmt::Display for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "{} {:?} {}", e.at, e.kind, e.detail)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::new(false);
        log.push(VTime(1.0), EventKind::Marker, "x");
        assert!(log.is_empty());
    }

    #[test]
    fn enabled_log_records_in_order() {
        let mut log = TraceLog::new(true);
        log.push(VTime(1.0), EventKind::PhaseBegin, "p0");
        log.push(VTime(2.0), EventKind::PhaseEnd, "p0");
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[0].kind, EventKind::PhaseBegin);
        assert_eq!(log.events()[1].at, VTime(2.0));
    }

    #[test]
    fn find_by_kind_and_detail() {
        let mut log = TraceLog::new(true);
        log.push(VTime(0.5), EventKind::MigrationStarted, "obj=lhs phase=3");
        log.push(VTime(0.7), EventKind::MigrationStarted, "obj=rhs phase=3");
        let e = log.find(&EventKind::MigrationStarted, "rhs").unwrap();
        assert_eq!(e.at, VTime(0.7));
        assert!(log.find(&EventKind::MigrationCompleted, "rhs").is_none());
    }

    #[test]
    fn of_kind_filters() {
        let mut log = TraceLog::new(true);
        log.push(VTime(0.1), EventKind::Marker, "a");
        log.push(VTime(0.2), EventKind::PhaseBegin, "b");
        log.push(VTime(0.3), EventKind::Marker, "c");
        let markers: Vec<_> = log.of_kind(&EventKind::Marker).collect();
        assert_eq!(markers.len(), 2);
        assert_eq!(markers[1].detail, "c");
    }

    #[test]
    fn clear_resets() {
        let mut log = TraceLog::new(true);
        log.push(VTime(0.1), EventKind::Marker, "a");
        log.clear();
        assert!(log.is_empty());
    }
}
