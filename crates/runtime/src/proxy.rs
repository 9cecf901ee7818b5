//! Object handles: the client-side proxy view.
//!
//! In the systems the paper builds on, "calls to objects are trapped,
//! linearized and forwarded to the current location of the callee" through
//! proxy objects (§3.1). [`ObjRef`] is that proxy: a cheap handle bundling
//! an object id with the cluster it lives in, so call sites read like local
//! method invocations.

use oml_core::attach::AttachOutcome;
use oml_core::error::AttachError;
use oml_core::ids::{AllianceId, NodeId, ObjectId};

use crate::cluster::{Cluster, MoveGuard};
use crate::error::RuntimeError;

/// A proxy handle to one object in a [`Cluster`].
///
/// # Example
///
/// ```
/// use oml_runtime::{Cluster, MobileObject};
/// use oml_core::ids::NodeId;
///
/// struct Echo;
/// impl MobileObject for Echo {
///     fn type_tag(&self) -> &'static str { "echo" }
///     fn invoke(&mut self, _m: &str, p: &[u8]) -> Result<Vec<u8>, String> { Ok(p.to_vec()) }
///     fn linearize(&self) -> Vec<u8> { Vec::new() }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cluster = Cluster::builder().nodes(2).build();
/// cluster.register_type("echo", |_| Box::new(Echo));
/// let id = cluster.create(NodeId::new(0), Box::new(Echo))?;
///
/// let obj = cluster.object(id);
/// assert_eq!(obj.invoke("ping", b"hi")?, b"hi");
/// {
///     let guard = obj.move_to(NodeId::new(1))?;
///     assert!(guard.granted());
/// }
/// assert!(obj.is_resident(NodeId::new(1)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ObjRef<'c> {
    cluster: &'c Cluster,
    id: ObjectId,
}

impl<'c> ObjRef<'c> {
    pub(crate) fn new(cluster: &'c Cluster, id: ObjectId) -> Self {
        ObjRef { cluster, id }
    }

    /// The referenced object's id.
    #[must_use]
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// Invokes a method (trapped and forwarded to wherever the object is).
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`].
    pub fn invoke(&self, method: &str, payload: &[u8]) -> Result<Vec<u8>, RuntimeError> {
        self.cluster.invoke(self.id, method, payload)
    }

    /// Opens a move-block towards `node` (see [`Cluster::move_block`]).
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`].
    pub fn move_to(&self, node: NodeId) -> Result<MoveGuard<'c>, RuntimeError> {
        self.cluster.move_block(self.id, node)
    }

    /// Opens a visit-block towards `node` (§2.3).
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`].
    pub fn visit(&self, node: NodeId) -> Result<MoveGuard<'c>, RuntimeError> {
        self.cluster.visit_block(self.id, node)
    }

    /// `location_of()` — where the object currently is.
    #[must_use]
    pub fn location(&self) -> Option<NodeId> {
        self.cluster.location_of(self.id)
    }

    /// `is_resident()` — whether the object is at `node`.
    #[must_use]
    pub fn is_resident(&self, node: NodeId) -> bool {
        self.cluster.is_resident(self.id, node)
    }

    /// `fix()` — transiently pin the object.
    pub fn fix(&self) {
        self.cluster.fix(self.id);
    }

    /// `unfix()` — release a transient fix.
    pub fn unfix(&self) {
        self.cluster.unfix(self.id);
    }

    /// `refix()` — re-establish a transient fix.
    pub fn refix(&self) {
        self.cluster.refix(self.id);
    }

    /// `attach(self, to)` — latch this object to another.
    ///
    /// # Errors
    ///
    /// Propagates [`AttachError`].
    pub fn attach_to(
        &self,
        to: ObjRef<'_>,
        context: Option<AllianceId>,
    ) -> Result<AttachOutcome, AttachError> {
        self.cluster.attach(self.id, to.id, context)
    }

    /// `detach(self, to)` — undo an attachment; returns whether an edge was
    /// removed.
    pub fn detach_from(&self, to: ObjRef<'_>) -> bool {
        self.cluster.detach(self.id, to.id)
    }
}

impl Cluster {
    /// Returns a proxy handle for `id`.
    ///
    /// The handle does not validate existence — operations on a nonexistent
    /// object report [`RuntimeError::UnknownObject`].
    #[must_use]
    pub fn object(&self, id: ObjectId) -> ObjRef<'_> {
        ObjRef::new(self, id)
    }
}
