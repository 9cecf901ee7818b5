//! Strongly typed identifiers for the entities of the object system.
//!
//! Every entity — node, object, alliance, client, move-block — is addressed
//! by a dense `u32` index wrapped in a newtype, so the different id spaces
//! cannot be confused (C-NEWTYPE) and all lookups stay `Vec`-indexable.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        pub struct $name(u32);

        impl $name {
            /// Wraps a raw index.
            #[must_use]
            pub const fn new(raw: u32) -> Self {
                $name(raw)
            }

            /// The raw index, usable for `Vec` lookups.
            #[must_use]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// The raw `u32` value.
            #[must_use]
            pub const fn as_u32(self) -> u32 {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

define_id!(
    /// A network node (a machine in the distributed system).
    NodeId,
    "n"
);
define_id!(
    /// A distribution unit: one migratable (or sedentary) object.
    ObjectId,
    "o"
);
define_id!(
    /// A cooperation context (§3.4): alliances scope attachment
    /// transitiveness.
    AllianceId,
    "a"
);
define_id!(
    /// A client application instance (sedentary by construction, §4.1).
    ClientId,
    "c"
);
define_id!(
    /// One dynamic move-block instance (a `move`/`visit` region).
    BlockId,
    "b"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_round_trip() {
        let n = NodeId::new(7);
        assert_eq!(n.index(), 7);
        assert_eq!(n.as_u32(), 7);
        assert_eq!(usize::from(n), 7);
    }

    #[test]
    fn display_includes_prefix() {
        assert_eq!(NodeId::new(3).to_string(), "n3");
        assert_eq!(ObjectId::new(0).to_string(), "o0");
        assert_eq!(AllianceId::new(1).to_string(), "a1");
        assert_eq!(ClientId::new(2).to_string(), "c2");
        assert_eq!(BlockId::new(9).to_string(), "b9");
        assert_eq!(format!("{:?}", NodeId::new(3)), "n3");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        assert!(ObjectId::new(1) < ObjectId::new(2));
        let set: HashSet<ObjectId> = [ObjectId::new(1), ObjectId::new(1)].into_iter().collect();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(ObjectId::default(), ObjectId::new(0));
    }
}
