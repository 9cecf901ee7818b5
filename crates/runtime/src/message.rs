//! Inter-node messages (crate-internal).

use std::time::Instant;

use oml_core::ids::{AllianceId, BlockId, NodeId, ObjectId};

use crate::error::RuntimeError;
use crate::object::MobileObject;
use crate::store::StoredCheckpoint;
use crate::transport::channel::{answer, Reply};

/// Reply to an invocation: the object's own reply bytes.
pub(crate) type InvokeReply = Reply<Result<Vec<u8>, RuntimeError>>;
/// Reply to a move-request (`Ok(true)` = granted).
pub(crate) type MoveReply = Reply<Result<bool, RuntimeError>>;

/// One object in transit inside a [`Message::Install`] or a
/// [`Message::CheckpointPut`]: its id and its linearized copy, in the
/// crate's one checkpoint record. `object_epoch` is the object's epoch at
/// ship time: when the failure detector is active, receivers reject items
/// older than the object's current epoch — a pre-crash install queued
/// behind a reinstantiation can never resurrect the dead incarnation's
/// copy. Always 0 without a detector. In an install `seq` means nothing;
/// the refresh at the receiving host assigns it.
pub(crate) type Shipped = (ObjectId, StoredCheckpoint);

/// What a [`Message::CheckpointAck`] says about one copy: `(object,
/// object_epoch, seq)`.
pub(crate) type Acked = (ObjectId, u64, u64);

/// Everything nodes exchange.
pub(crate) enum Message {
    /// Install a freshly created object (ships the live instance), with
    /// the birth copy its replicas hold as its image, if they hold one
    /// (boxed: a message is as large as its largest kind).
    Create {
        object: ObjectId,
        instance: Box<dyn MobileObject>,
        image: Option<Box<StoredCheckpoint>>,
        reply: Reply<Result<(), RuntimeError>>,
    },
    /// A trapped invocation, forwarded to the object's location: the
    /// method's name followed by the payload, in one buffer.
    Invoke {
        object: ObjectId,
        request: Vec<u8>,
        method_len: usize,
        hops: u8,
        reply: InvokeReply,
    },
    /// A `move()`-request, interpreted by the policy at the callee's node.
    MoveRequest {
        object: ObjectId,
        to: NodeId,
        block: BlockId,
        context: Option<AllianceId>,
        hops: u8,
        /// The requester's deadline (its `await_reply` budget). A node that
        /// processes the request after this instant denies it: the requester
        /// has already timed out and dropped its guard, so a grant could only
        /// orphan a placement lock — and ship the object into a race with
        /// whatever the requester is doing instead.
        expires: Instant,
        reply: MoveReply,
    },
    /// A closure arriving at its new node: every member that shipped
    /// together, main object last. The receiver installs the whole list in
    /// one step, so no observer sees half a working set.
    Install {
        members: Vec<Shipped>,
        /// `Some` when this install completes a granted move: the main
        /// object, the block to install for and the requester to notify.
        install_for: Option<(ObjectId, BlockId, MoveReply)>,
    },
    /// Ship the listed closure members, if still hosted here, towards `to`
    /// in one `Install` (no notification).
    Surrender { members: Vec<ObjectId>, to: NodeId },
    /// A move-block completed.
    EndRequest {
        object: ObjectId,
        block: BlockId,
        from: NodeId,
        was_granted: bool,
        context: Option<AllianceId>,
        hops: u8,
    },
    /// Checkpoint refreshes propagating to one replica node: per object
    /// the same record an [`Message::Install`] carries — type tag,
    /// linearized state and the `(object_epoch, seq)` freshness stamp —
    /// with its state shared, not copied. The receiver stores each copy
    /// that is fresher than its current one and always acks the whole list
    /// back to the sender in one message.
    CheckpointPut { items: Vec<Shipped> },
    /// A replica's acknowledgement of a [`Message::CheckpointPut`]:
    /// `(object, object_epoch, seq)` per item. Acks are deduplicated by
    /// `(object, object_epoch, seq, replica)` before they count toward each
    /// object's write quorum, so duplicated or re-sent acks cannot inflate
    /// durability.
    CheckpointAck { items: Vec<Acked>, replica: NodeId },
}

impl Message {
    /// Answers the caller still blocked on this message with `err`; a
    /// message nobody waits on is simply dropped.
    pub(crate) fn refuse(self, err: RuntimeError) {
        match self {
            Message::Create { reply, .. } => {
                answer(reply, Err(err));
            }
            Message::Invoke { reply, .. } => {
                answer(reply, Err(err));
            }
            Message::MoveRequest { reply, .. } => {
                answer(reply, Err(err));
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for Message {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ids = |list: &[Shipped]| list.iter().map(|&(o, _)| o).collect::<Vec<_>>();
        match self {
            Message::Create { object, .. } => write!(f, "Create({object})"),
            Message::Invoke {
                object,
                request,
                method_len,
                ..
            } => {
                let (method, _) = split_request(request, *method_len);
                write!(f, "Invoke({object}.{method})")
            }
            Message::MoveRequest { object, to, .. } => write!(f, "MoveRequest({object} → {to})"),
            Message::Install { members, .. } => write!(f, "Install{:?}", ids(members)),
            Message::Surrender { members, to } => write!(f, "Surrender({members:?} → {to})"),
            Message::EndRequest { object, block, .. } => write!(f, "End({object}, {block})"),
            Message::CheckpointPut { items } => write!(f, "CheckpointPut{:?}", ids(items)),
            Message::CheckpointAck { items, replica } => {
                write!(f, "CheckpointAck({items:?} from {replica})")
            }
        }
    }
}

/// An [`Message::Invoke`]'s request as the method's name and the payload.
/// The name was a `&str` cut at a character boundary, so it always decodes.
pub(crate) fn split_request(request: &[u8], method_len: usize) -> (&str, &[u8]) {
    let (method, payload) = request.split_at(method_len);
    (std::str::from_utf8(method).unwrap_or_default(), payload)
}

/// Forwarding budget for messages chasing a migrating object.
pub(crate) const MAX_HOPS: u8 = 16;

/// Most members a list-carrying message holds when its sender, not a
/// closure's size at one node, decides how many there are to send: the
/// checkpoint puts (and so acks) of a refresh or a repair sweep, the
/// installs of a dead node's objects, the surrenders asked of one host. A
/// node handles a message in one step between two heartbeats; 64 members
/// of a few KiB keep that step to tens of microseconds, far below any
/// heartbeat interval, however many objects a sweep or a dead host has.
const MAX_BATCH: usize = 64;

/// Adds `item` to the list bound for `node`, opening a new one at first
/// sight and whenever the current one holds [`MAX_BATCH`] — each list
/// becomes one message. Lists stay in first-appearance order; a cluster has
/// few nodes, so the scan is short.
pub(crate) fn group_push<T>(groups: &mut Vec<(NodeId, Vec<T>)>, node: NodeId, item: T) {
    let mut lists = groups.iter_mut().rev();
    match lists.find(|(n, list)| *n == node && list.len() < MAX_BATCH) {
        Some((_, list)) => list.push(item),
        None => groups.push((node, vec![item])),
    }
}

/// What actually travels on the channels: a message plus the trace id its
/// `Send` event carried (0 when tracing is off — the receiver then emits no
/// `Recv`), stamped with the sender's identity and incarnation epoch for
/// fencing.
pub(crate) struct Envelope {
    pub(crate) trace_id: u64,
    /// Raw id of the sending node, or [`crate::fault::CLIENT`] for the
    /// client facade (which is never fenced).
    pub(crate) from: u32,
    /// The sender's incarnation at send time. Receivers that have seen a
    /// newer incarnation of `from` drop the message (zombie fencing); 0 when
    /// no detector is configured.
    pub(crate) epoch: u64,
    pub(crate) msg: Message,
}
