//! Alliances: explicit cooperation contexts between objects (§3.4).
//!
//! An alliance is "a dynamic relationship between a set of cooperative
//! objects" that defines a cooperation (and optionally a distribution)
//! policy. For migration control its one load-bearing property is that
//! *attachments can be unambiguously related to one alliance*, which lets the
//! system restrict attachment transitiveness to the cooperation context a
//! migration primitive was invoked in (A-transitive attachment).

use crate::error::AllianceError;
use crate::ids::{AllianceId, ObjectId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Creates and tracks alliances and their members.
///
/// # Example
///
/// ```
/// use oml_core::alliance::AllianceRegistry;
/// use oml_core::ids::ObjectId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut reg = AllianceRegistry::new();
/// let editors = reg.create("editors");
/// reg.join(editors, ObjectId::new(1))?;
/// reg.join(editors, ObjectId::new(2))?;
/// assert!(reg.is_member(editors, ObjectId::new(1)));
/// assert_eq!(reg.members(editors).unwrap().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AllianceRegistry {
    alliances: BTreeMap<AllianceId, Alliance>,
    next_id: u32,
}

/// One alliance: a named set of member objects.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Alliance {
    /// The alliance's identity.
    pub id: AllianceId,
    /// Human-readable label (the "target of the cooperation").
    pub name: String,
    members: BTreeSet<ObjectId>,
}

impl Alliance {
    /// The member set, in id order.
    #[must_use]
    pub fn members(&self) -> &BTreeSet<ObjectId> {
        &self.members
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the alliance has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

impl AllianceRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        AllianceRegistry::default()
    }

    /// Creates a new, empty alliance and returns its id.
    pub fn create(&mut self, name: &str) -> AllianceId {
        let id = AllianceId::new(self.next_id);
        self.next_id += 1;
        self.alliances.insert(
            id,
            Alliance {
                id,
                name: name.to_owned(),
                members: BTreeSet::new(),
            },
        );
        id
    }

    /// Adds `object` to the alliance.
    ///
    /// # Errors
    ///
    /// Returns [`AllianceError::UnknownAlliance`] for a nonexistent alliance
    /// and [`AllianceError::AlreadyMember`] for a duplicate join.
    pub fn join(&mut self, id: AllianceId, object: ObjectId) -> Result<(), AllianceError> {
        let alliance = self
            .alliances
            .get_mut(&id)
            .ok_or(AllianceError::UnknownAlliance(id))?;
        if !alliance.members.insert(object) {
            return Err(AllianceError::AlreadyMember {
                object,
                alliance: id,
            });
        }
        Ok(())
    }

    /// Removes `object` from the alliance.
    ///
    /// # Errors
    ///
    /// Returns [`AllianceError::UnknownAlliance`] or
    /// [`AllianceError::NotMember`].
    pub fn leave(&mut self, id: AllianceId, object: ObjectId) -> Result<(), AllianceError> {
        let alliance = self
            .alliances
            .get_mut(&id)
            .ok_or(AllianceError::UnknownAlliance(id))?;
        if !alliance.members.remove(&object) {
            return Err(AllianceError::NotMember {
                object,
                alliance: id,
            });
        }
        Ok(())
    }

    /// Whether `object` is a member of the alliance.
    #[must_use]
    pub fn is_member(&self, id: AllianceId, object: ObjectId) -> bool {
        self.alliances
            .get(&id)
            .is_some_and(|a| a.members.contains(&object))
    }

    /// Whether the alliance exists.
    #[must_use]
    pub fn exists(&self, id: AllianceId) -> bool {
        self.alliances.contains_key(&id)
    }

    /// The member set of an alliance, or `None` if it does not exist.
    #[must_use]
    pub fn members(&self, id: AllianceId) -> Option<&BTreeSet<ObjectId>> {
        self.alliances.get(&id).map(|a| &a.members)
    }

    /// Looks an alliance up by id.
    #[must_use]
    pub fn get(&self, id: AllianceId) -> Option<&Alliance> {
        self.alliances.get(&id)
    }

    /// Iterates over all alliances in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Alliance> {
        self.alliances.values()
    }

    /// Number of live alliances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.alliances.len()
    }

    /// Whether the registry holds no alliances.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.alliances.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    #[test]
    fn create_join_leave_roundtrip() {
        let mut reg = AllianceRegistry::new();
        let a = reg.create("test");
        assert!(reg.exists(a));
        reg.join(a, obj(1)).unwrap();
        assert!(reg.is_member(a, obj(1)));
        reg.leave(a, obj(1)).unwrap();
        assert!(!reg.is_member(a, obj(1)));
    }

    #[test]
    fn duplicate_join_is_an_error() {
        let mut reg = AllianceRegistry::new();
        let a = reg.create("x");
        reg.join(a, obj(1)).unwrap();
        assert_eq!(
            reg.join(a, obj(1)),
            Err(AllianceError::AlreadyMember {
                object: obj(1),
                alliance: a
            })
        );
    }

    #[test]
    fn leave_without_membership_is_an_error() {
        let mut reg = AllianceRegistry::new();
        let a = reg.create("x");
        assert_eq!(
            reg.leave(a, obj(9)),
            Err(AllianceError::NotMember {
                object: obj(9),
                alliance: a
            })
        );
    }

    #[test]
    fn unknown_alliance_errors() {
        let mut reg = AllianceRegistry::new();
        let ghost = AllianceId::new(99);
        assert_eq!(
            reg.join(ghost, obj(0)),
            Err(AllianceError::UnknownAlliance(ghost))
        );
        assert!(reg.members(ghost).is_none());
    }

    #[test]
    fn objects_can_join_multiple_alliances() {
        let mut reg = AllianceRegistry::new();
        let a = reg.create("a");
        let b = reg.create("b");
        reg.join(a, obj(5)).unwrap();
        reg.join(b, obj(5)).unwrap();
        // "can be members of different alliances" (§3.4)
        assert!(reg.is_member(a, obj(5)) && reg.is_member(b, obj(5)));
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut reg = AllianceRegistry::new();
        let a = reg.create("a");
        let b = reg.create("b");
        let ids: Vec<AllianceId> = reg.iter().map(|al| al.id).collect();
        assert_eq!(ids, vec![a, b]);
        assert_eq!(reg.len(), 2);
    }
}
