//! FTB event and subscription types.

use ibfabric::NodeId;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Event severity, as in the FTB API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational (state transitions, progress marks).
    Info,
    /// Degradation warnings (health monitors).
    Warning,
    /// Errors requiring action (migration triggers, failures).
    Error,
    /// Node/job-fatal conditions.
    Fatal,
}

/// A fault-tolerance event flowing through the backplane.
///
/// `payload` is an `Arc<dyn Any>` so one published event can fan out to
/// many subscribers without cloning protocol structs; consumers
/// `downcast_ref` to the concrete message type of their protocol.
#[derive(Clone)]
pub struct FtbEvent {
    /// Event namespace, e.g. `"FTB.MPI.MVAPICH2"`.
    pub space: String,
    /// Event name, e.g. `"FTB_MIGRATE"`.
    pub name: String,
    /// Severity class.
    pub severity: Severity,
    /// Node that published the event.
    pub origin: NodeId,
    /// Typed payload.
    pub payload: Arc<dyn Any + Send + Sync>,
}

impl FtbEvent {
    /// Build an event with an empty payload.
    pub fn simple(space: &str, name: &str, severity: Severity, origin: NodeId) -> Self {
        FtbEvent {
            space: space.to_string(),
            name: name.to_string(),
            severity,
            origin,
            payload: Arc::new(()),
        }
    }

    /// Build an event carrying `payload`.
    pub fn with_payload<T: Any + Send + Sync>(
        space: &str,
        name: &str,
        severity: Severity,
        origin: NodeId,
        payload: T,
    ) -> Self {
        FtbEvent {
            space: space.to_string(),
            name: name.to_string(),
            severity,
            origin,
            payload: Arc::new(payload),
        }
    }

    /// Downcast the payload.
    pub fn payload_as<T: Any>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }

    /// Approximate wire size for transport accounting.
    pub fn wire_bytes(&self) -> u64 {
        (48 + self.space.len() + self.name.len() + 64) as u64
    }
}

impl fmt::Debug for FtbEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FtbEvent({}/{} {:?} from {:?})",
            self.space, self.name, self.severity, self.origin
        )
    }
}

/// A subscription filter: `None` fields match anything.
#[derive(Debug, Clone, Default)]
pub struct EventFilter {
    /// Required namespace (exact match).
    pub space: Option<String>,
    /// Accepted event names (exact match against any of them).
    pub names: Option<Vec<String>>,
    /// Minimum severity.
    pub min_severity: Option<Severity>,
}

impl EventFilter {
    /// Match every event.
    pub fn all() -> Self {
        EventFilter::default()
    }

    /// Match a namespace.
    pub fn space(space: &str) -> Self {
        EventFilter {
            space: Some(space.to_string()),
            ..Default::default()
        }
    }

    /// Match one event name within a namespace.
    pub fn named(space: &str, name: &str) -> Self {
        EventFilter::named_any(space, &[name])
    }

    /// Match any of `names` within a namespace.
    pub fn named_any(space: &str, names: &[&str]) -> Self {
        EventFilter {
            space: Some(space.to_string()),
            names: Some(names.iter().map(|n| n.to_string()).collect()),
            min_severity: None,
        }
    }

    /// Whether `ev` passes this filter.
    pub fn matches(&self, ev: &FtbEvent) -> bool {
        if let Some(s) = &self.space {
            if *s != ev.space {
                return false;
            }
        }
        if let Some(names) = &self.names {
            if !names.contains(&ev.name) {
                return false;
            }
        }
        if let Some(ms) = self.min_severity {
            if ev.severity < ms {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, sev: Severity) -> FtbEvent {
        FtbEvent::simple("FTB.TEST", name, sev, NodeId(0))
    }

    #[test]
    fn filter_all_matches_everything() {
        assert!(EventFilter::all().matches(&ev("X", Severity::Info)));
    }

    #[test]
    fn filter_by_space_and_name() {
        let f = EventFilter::named("FTB.TEST", "GO");
        assert!(f.matches(&ev("GO", Severity::Info)));
        assert!(!f.matches(&ev("STOP", Severity::Info)));
        let other = FtbEvent::simple("FTB.OTHER", "GO", Severity::Info, NodeId(0));
        assert!(!f.matches(&other));
    }

    #[test]
    fn filter_by_name_set() {
        let f = EventFilter::named_any("FTB.TEST", &["GO", "STOP"]);
        assert!(f.matches(&ev("GO", Severity::Info)));
        assert!(f.matches(&ev("STOP", Severity::Info)));
        assert!(!f.matches(&ev("WAIT", Severity::Info)));
        assert!(!EventFilter::named_any("FTB.TEST", &[]).matches(&ev("GO", Severity::Info)));
    }

    #[test]
    fn filter_by_min_severity() {
        let f = EventFilter {
            min_severity: Some(Severity::Error),
            ..Default::default()
        };
        assert!(!f.matches(&ev("X", Severity::Warning)));
        assert!(f.matches(&ev("X", Severity::Error)));
        assert!(f.matches(&ev("X", Severity::Fatal)));
    }

    #[test]
    fn payload_downcast() {
        let e = FtbEvent::with_payload("S", "N", Severity::Info, NodeId(1), 42u64);
        assert_eq!(e.payload_as::<u64>(), Some(&42));
        assert_eq!(e.payload_as::<u32>(), None);
    }
}
