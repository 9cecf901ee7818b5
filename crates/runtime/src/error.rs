//! Runtime error type.

use oml_core::ids::{NodeId, ObjectId};
use std::error::Error;
use std::fmt;

/// Everything that can go wrong talking to a [`crate::Cluster`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The object id is not (or no longer) known to the cluster.
    UnknownObject(ObjectId),
    /// The node id is outside the cluster.
    UnknownNode(NodeId),
    /// No delinearizer was registered for the given type tag before a
    /// migration tried to reinstall an object of that type.
    UnknownType(String),
    /// The object's own `invoke` reported a failure.
    MethodFailed {
        /// The object whose method failed.
        object: ObjectId,
        /// The failure message produced by the object.
        message: String,
    },
    /// A message chased a migrating object for too many hops (the object is
    /// bouncing faster than the forwarding can catch up).
    TooManyHops(ObjectId),
    /// The cluster is shutting down; the operation was dropped.
    ShuttingDown,
    /// A blocking call's deadline elapsed before a reply arrived — the node
    /// may be crashed, partitioned away, or the message was lost.
    Timeout {
        /// How long the caller waited, in milliseconds (summed over retries).
        waited_ms: u64,
    },
    /// The target node is currently suspected or declared dead by the
    /// failure detector; the call failed fast instead of sleeping out its
    /// deadline. Retrying after the object is reinstantiated (or the node
    /// heals) will succeed.
    NodeDown(NodeId),
    /// [`crate::Cluster::restart_node`] was called on a node whose current
    /// incarnation is running — restarting a live node would re-seed its
    /// recovery state (incarnation, health, breaker) inconsistently with its
    /// own view. Only crashed or declared-dead nodes can be restarted.
    NotDead(NodeId),
    /// An operation declaration was invoked with the wrong number of object
    /// arguments.
    ArityMismatch {
        /// Parameters the declaration names.
        expected: usize,
        /// Object arguments supplied.
        got: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownObject(o) => write!(f, "unknown object {o}"),
            RuntimeError::UnknownNode(n) => write!(f, "unknown node {n}"),
            RuntimeError::UnknownType(t) => write!(f, "no delinearizer registered for type `{t}`"),
            RuntimeError::MethodFailed { object, message } => {
                write!(f, "invocation on {object} failed: {message}")
            }
            RuntimeError::TooManyHops(o) => {
                write!(f, "message chasing {o} exceeded the forwarding hop limit")
            }
            RuntimeError::ShuttingDown => write!(f, "cluster is shutting down"),
            RuntimeError::Timeout { waited_ms } => {
                write!(f, "no reply within the deadline (waited {waited_ms} ms)")
            }
            RuntimeError::NodeDown(n) => {
                write!(f, "node {n} is suspected or dead; call failed fast")
            }
            RuntimeError::NotDead(n) => {
                write!(f, "node {n} is still running; only dead nodes restart")
            }
            RuntimeError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "declaration expects {expected} object arguments, got {got}"
                )
            }
        }
    }
}

impl Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        assert!(RuntimeError::UnknownObject(ObjectId::new(3))
            .to_string()
            .contains("o3"));
        assert!(RuntimeError::UnknownType("counter".into())
            .to_string()
            .contains("counter"));
        let e = RuntimeError::MethodFailed {
            object: ObjectId::new(1),
            message: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn timeout_display_includes_the_wait() {
        let e = RuntimeError::Timeout { waited_ms: 750 };
        let s = e.to_string();
        assert!(s.contains("750 ms"), "{s}");
        assert!(s.contains("deadline"), "{s}");
    }

    #[test]
    fn node_down_display_names_the_node() {
        let s = RuntimeError::NodeDown(NodeId::new(2)).to_string();
        assert!(s.contains("n2"), "{s}");
        assert!(s.contains("failed fast"), "{s}");
    }

    #[test]
    fn not_dead_display_names_the_node() {
        let s = RuntimeError::NotDead(NodeId::new(4)).to_string();
        assert!(s.contains("n4"), "{s}");
        assert!(s.contains("still running"), "{s}");
    }

    #[test]
    fn is_send_sync_error() {
        fn check<E: Error + Send + Sync + 'static>() {}
        check::<RuntimeError>();
    }
}
