//! The mobile-object trait and the per-node type registry.

use std::sync::Arc;

use parking_lot::RwLock;

/// A migratable object.
///
/// Objects "have a well-defined interface consisting of a set of methods
/// which can be invoked by clients … and encapsulate their state" (§2.1).
/// The runtime never looks inside an object: it dispatches invocations
/// through [`MobileObject::invoke`] and, on migration, linearizes the state
/// with [`MobileObject::linearize`] and reinstalls it with the
/// [`Delinearizer`] registered for its [`MobileObject::type_tag`].
///
/// Payloads and results are raw bytes; the [`crate::wire`] module offers
/// small helpers for encoding them.
pub trait MobileObject: Send {
    /// The type tag naming this object's delinearizer.
    fn type_tag(&self) -> &'static str;

    /// Executes `method` with `payload`, returning the result bytes.
    ///
    /// # Errors
    ///
    /// Returns a message describing the failure (unknown method, bad
    /// payload, domain error); the runtime wraps it in
    /// [`crate::RuntimeError::MethodFailed`].
    fn invoke(&mut self, method: &str, payload: &[u8]) -> Result<Vec<u8>, String>;

    /// Serializes the object's state for transfer.
    ///
    /// The output must be a function of the object's state, and the state
    /// must change only through [`MobileObject::invoke`]: a node keeps the
    /// image it last shipped, installed or refreshed from and ships that
    /// again, without calling `linearize`, until the object is next
    /// invoked.
    fn linearize(&self) -> Vec<u8>;
}

/// Reconstructs an object from its linearized state.
pub type Delinearizer = fn(&[u8]) -> Box<dyn MobileObject>;

/// A shared, concurrent registry mapping type tags to delinearizers.
///
/// Every node consults the same registry when an `Install` message arrives —
/// the runtime analogue of all nodes running the same program text. A
/// program registers a handful of types, so a lookup scans them comparing
/// tags rather than hashing one.
#[derive(Clone, Default)]
pub(crate) struct TypeRegistry {
    inner: Arc<RwLock<Vec<(String, Delinearizer)>>>,
}

impl TypeRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        TypeRegistry::default()
    }

    /// Registers (or replaces) the delinearizer for `tag`.
    pub fn register(&self, tag: &str, f: Delinearizer) {
        let mut types = self.inner.write();
        match types.iter_mut().find(|(known, _)| known == tag) {
            Some((_, known)) => *known = f,
            None => types.push((tag.to_owned(), f)),
        }
    }

    /// Looks a delinearizer up.
    #[must_use]
    pub fn get(&self, tag: &str) -> Option<Delinearizer> {
        let types = self.inner.read();
        types
            .iter()
            .find(|(known, _)| known == tag)
            .map(|&(_, f)| f)
    }
}

impl std::fmt::Debug for TypeRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tags: Vec<String> = self.inner.read().iter().map(|(t, _)| t.clone()).collect();
        f.debug_struct("TypeRegistry").field("tags", &tags).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo(Vec<u8>);
    impl MobileObject for Echo {
        fn type_tag(&self) -> &'static str {
            "echo"
        }
        fn invoke(&mut self, _method: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
            Ok(payload.to_vec())
        }
        fn linearize(&self) -> Vec<u8> {
            self.0.clone()
        }
    }

    #[test]
    fn registry_round_trip() {
        let reg = TypeRegistry::new();
        assert!(reg.get("echo").is_none());
        reg.register("echo", |bytes| Box::new(Echo(bytes.to_vec())));
        let f = reg.get("echo").expect("registered");
        let mut obj = f(&[1, 2, 3]);
        assert_eq!(obj.linearize(), vec![1, 2, 3]);
        assert_eq!(obj.invoke("x", &[9]).unwrap(), vec![9]);
        assert_eq!(obj.type_tag(), "echo");
    }

    #[test]
    fn registering_a_tag_again_replaces_its_delinearizer() {
        let reg = TypeRegistry::new();
        reg.register("echo", |bytes| Box::new(Echo(bytes.to_vec())));
        reg.register("other", |_| Box::new(Echo(vec![0])));
        reg.register("echo", |_| Box::new(Echo(vec![7])));
        let f = reg.get("echo").expect("registered");
        assert_eq!(f(&[1, 2, 3]).linearize(), vec![7]);
        assert_eq!(reg.get("other").expect("registered")(&[]).linearize(), [0]);
        assert_eq!(format!("{reg:?}").matches("echo").count(), 1);
    }

    #[test]
    fn registry_is_cloneable_and_shared() {
        let a = TypeRegistry::new();
        let b = a.clone();
        a.register("echo", |bytes| Box::new(Echo(bytes.to_vec())));
        assert!(b.get("echo").is_some());
    }

    #[test]
    fn debug_lists_tags() {
        let reg = TypeRegistry::new();
        reg.register("echo", |bytes| Box::new(Echo(bytes.to_vec())));
        assert!(format!("{reg:?}").contains("echo"));
    }
}
