//! Error types for migration-control operations.

use crate::ids::{AllianceId, ObjectId};
use std::error::Error;
use std::fmt;

/// Errors raised by attachment operations (§2.2, §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttachError {
    /// `attach(o, o)` — an object cannot be attached to itself.
    SelfAttachment(ObjectId),
    /// The edge was tagged with an alliance one of the objects is not a
    /// member of; alliances define *who* may cooperate (§3.4).
    NotAllianceMember {
        /// The offending object.
        object: ObjectId,
        /// The alliance named as cooperation context.
        alliance: AllianceId,
    },
    /// The named alliance was never created.
    UnknownAlliance(AllianceId),
}

impl fmt::Display for AttachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttachError::SelfAttachment(o) => {
                write!(f, "object {o} cannot be attached to itself")
            }
            AttachError::NotAllianceMember { object, alliance } => {
                write!(f, "object {object} is not a member of alliance {alliance}")
            }
            AttachError::UnknownAlliance(a) => write!(f, "alliance {a} does not exist"),
        }
    }
}

impl Error for AttachError {}

/// Errors raised by alliance management.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllianceError {
    /// The alliance does not exist.
    UnknownAlliance(AllianceId),
    /// The object is already a member of the alliance.
    AlreadyMember {
        /// The joining object.
        object: ObjectId,
        /// The alliance joined twice.
        alliance: AllianceId,
    },
    /// The object is not a member of the alliance.
    NotMember {
        /// The leaving object.
        object: ObjectId,
        /// The alliance left without being a member.
        alliance: AllianceId,
    },
}

impl fmt::Display for AllianceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllianceError::UnknownAlliance(a) => write!(f, "alliance {a} does not exist"),
            AllianceError::AlreadyMember { object, alliance } => {
                write!(
                    f,
                    "object {object} is already a member of alliance {alliance}"
                )
            }
            AllianceError::NotMember { object, alliance } => {
                write!(f, "object {object} is not a member of alliance {alliance}")
            }
        }
    }
}

impl Error for AllianceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = AttachError::SelfAttachment(ObjectId::new(4));
        assert_eq!(e.to_string(), "object o4 cannot be attached to itself");
        let e = AttachError::NotAllianceMember {
            object: ObjectId::new(1),
            alliance: AllianceId::new(2),
        };
        assert!(e.to_string().contains("o1"));
        assert!(e.to_string().contains("a2"));
        let e = AllianceError::UnknownAlliance(AllianceId::new(0));
        assert!(e.to_string().contains("does not exist"));
    }

    #[test]
    fn errors_are_std_errors_and_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<AttachError>();
        assert_err::<AllianceError>();
    }
}
