//! Object descriptors and the `fix`/`unfix`/`refix` primitives (§2.2).

use crate::ids::{NodeId, ObjectId};
use serde::{Deserialize, Serialize};

/// Whether an object may migrate.
///
/// The paper distinguishes a *permanent* property ("often expressed as a type
/// attribute in order to force all of its instances to be sedentary") from a
/// *transient* one ("mostly the consequence of run-time decisions, e.g., to
/// avoid thrashing"), controlled with `fix()`, `unfix()` and `refix()`.
///
/// # Example
///
/// ```
/// use oml_core::object::Mobility;
///
/// let mut m = Mobility::Mobile;
/// m.fix();
/// assert!(!m.is_movable());
/// m.unfix();
/// assert!(m.is_movable());
/// m.refix();
/// assert!(!m.is_movable());
///
/// let mut sedentary = Mobility::Sedentary;
/// sedentary.unfix(); // type-level fixing cannot be undone at run time
/// assert!(!sedentary.is_movable());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Mobility {
    /// Permanently sedentary (type attribute); `unfix()` has no effect.
    Sedentary,
    /// Transiently fixed by a run-time `fix()`/`refix()` decision.
    Fixed,
    /// Free to migrate.
    #[default]
    Mobile,
}

impl Mobility {
    /// Whether a migration of this object is currently permitted.
    #[must_use]
    pub fn is_movable(self) -> bool {
        self == Mobility::Mobile
    }

    /// `fix()` — transiently pin the object at its current node.
    ///
    /// Has no effect on permanently sedentary objects (they are already as
    /// fixed as they can be).
    pub fn fix(&mut self) {
        if *self == Mobility::Mobile {
            *self = Mobility::Fixed;
        }
    }

    /// `unfix()` — lift a transient fix. Permanent (type-level) fixing is not
    /// affected.
    pub fn unfix(&mut self) {
        if *self == Mobility::Fixed {
            *self = Mobility::Mobile;
        }
    }

    /// `refix()` — re-establish a transient fix; identical to [`Mobility::fix`]
    /// but kept as a separate primitive to mirror the linguistic support the
    /// paper describes.
    pub fn refix(&mut self) {
        self.fix();
    }
}

/// Static description of one object in the system.
///
/// Dynamic state (current node, in-transit status, queued calls) lives in the
/// substrate (`oml-sim` / `oml-runtime`); the descriptor carries the
/// properties policies may consult.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectDescriptor {
    /// The object's identity.
    pub id: ObjectId,
    /// Where the object is created.
    pub home: NodeId,
    /// Migration permission.
    pub mobility: Mobility,
}

impl ObjectDescriptor {
    /// Creates a mobile object.
    #[must_use]
    pub fn new(id: ObjectId, home: NodeId) -> Self {
        ObjectDescriptor {
            id,
            home,
            mobility: Mobility::Mobile,
        }
    }

    /// Builder-style: marks the object permanently sedentary.
    #[must_use]
    pub fn sedentary(mut self) -> Self {
        self.mobility = Mobility::Sedentary;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fix_unfix_refix_cycle() {
        let mut m = Mobility::Mobile;
        assert!(m.is_movable());
        m.fix();
        assert_eq!(m, Mobility::Fixed);
        m.refix(); // idempotent
        assert_eq!(m, Mobility::Fixed);
        m.unfix();
        assert_eq!(m, Mobility::Mobile);
        m.unfix(); // idempotent
        assert_eq!(m, Mobility::Mobile);
    }

    #[test]
    fn sedentary_is_immutable_at_runtime() {
        let mut m = Mobility::Sedentary;
        m.unfix();
        assert_eq!(m, Mobility::Sedentary);
        m.fix();
        assert_eq!(m, Mobility::Sedentary);
        assert!(!m.is_movable());
    }

    #[test]
    fn default_mobility_is_mobile() {
        assert_eq!(Mobility::default(), Mobility::Mobile);
    }

    #[test]
    fn descriptor_builders() {
        let d = ObjectDescriptor::new(ObjectId::new(1), NodeId::new(2)).sedentary();
        assert_eq!(d.mobility, Mobility::Sedentary);
        assert_eq!(d.home, NodeId::new(2));
    }
}
