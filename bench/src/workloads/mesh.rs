//! The two in-process workloads: nodes are threads of the harness process
//! and messages travel over the `ChannelMesh`; `wire`, `frame`, `socket`
//! and the WAL do no work here.

use super::{Inputs, Tally};
use crate::blob::{self, Blob};
use crate::driver::{tick, wait_until, Counters, SpanKind, Tracer, Workload};
use oml_core::attach::AttachmentMode;
use oml_core::ids::{AllianceId, NodeId, ObjectId};
use oml_core::policy::PolicyKind;
use oml_runtime::Cluster;
use std::time::{Duration, Instant};

const NODES: u32 = 3;

fn cluster_counters(cluster: &Cluster) -> Counters {
    let s = cluster.stats();
    Counters {
        moves_granted: s.moves_granted,
        moves_denied: s.moves_denied,
        objects_migrated: s.objects_migrated,
        forwards: s.forwards,
        retries: s.retries,
        ckpt_refreshes: s.checkpoint_refreshes,
        quorum_failures: s.quorum_refresh_failures,
        ..Counters::default()
    }
}

fn create(cluster: &Cluster, node: u32, state_len: usize) -> Result<ObjectId, String> {
    cluster
        .create(NodeId::new(node), Blob::boxed(state_len))
        .map_err(|e| format!("create at node {node}: {e}"))
}

// ---------------------------------------------------------------------------
// mesh_invoke

const INVOKE_OBJECTS: usize = 64;
const INVOKE_STATE: usize = 64;

/// `mesh_invoke`: one remote `invoke("add", 64 B)` per operation against 64
/// small objects spread over three nodes, no failure detector. The floor
/// under every other workload: client call, channel hand-off, node dispatch
/// and the reply hand-off, nothing else.
pub struct MeshInvoke {
    cluster: Cluster,
    objects: Vec<ObjectId>,
    seed: u64,
}

pub struct InvokeClient {
    inputs: Inputs,
    tally: Tally,
}

impl MeshInvoke {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let cluster = Cluster::builder().nodes(NODES).build();
        cluster.register_type(blob::TYPE_TAG, blob::delinearize);
        let objects = (0..INVOKE_OBJECTS)
            .map(|i| create(&cluster, i as u32 % NODES, INVOKE_STATE))
            .collect::<Result<_, _>>()?;
        Ok(MeshInvoke {
            cluster,
            objects,
            seed,
        })
    }
}

impl Workload for MeshInvoke {
    type Client = InvokeClient;
    const WINDOW: Duration = Duration::from_millis(100);

    fn warmup_ops(&self) -> usize {
        50_000
    }

    fn client(&self, index: usize) -> InvokeClient {
        InvokeClient {
            inputs: Inputs::new(self.seed, index, INVOKE_OBJECTS as u32, 1),
            tally: Tally::new(INVOKE_OBJECTS),
        }
    }

    fn op<T: Tracer>(
        &self,
        c: &mut InvokeClient,
        i: usize,
        start: Instant,
        tracer: &mut T,
    ) -> bool {
        let input = c.inputs.at(i);
        let object = input.object as usize;
        let result = self
            .cluster
            .invoke(self.objects[object], "add", c.inputs.payload(input.word));
        tracer.child(SpanKind::Invoke, start, tick::<T>(start));
        match result {
            Ok(_) => {
                c.tally.acked(object, input.word);
                true
            }
            Err(_) => false,
        }
    }

    fn counters(&self) -> Counters {
        cluster_counters(&self.cluster)
    }

    fn worker_pids(&self) -> Vec<u32> {
        Vec::new()
    }

    fn finish(self, clients: Vec<InvokeClient>) -> Result<(), String> {
        let total = Tally::merged(clients.iter().map(|c| &c.tally), INVOKE_OBJECTS);
        let check = total.check_against(|o| {
            self.cluster
                .invoke(self.objects[o], "get", &[])
                .map_err(|e| format!("final get on object {o}: {e}"))
        });
        self.cluster.shutdown();
        check
    }
}

// ---------------------------------------------------------------------------
// mesh_move

const ROOTS: usize = 16;
const HELPERS: usize = 7;
const MOVE_STATE: usize = 1024;
const INVOKES_PER_BLOCK: usize = 4;

/// `mesh_move`: the paper's mechanism. Sixteen shared working sets — a root
/// with seven helpers attached in the `work` alliance, 1 KiB each — start at
/// node 2. An operation is a move block on behalf of the application homed
/// at a node drawn from the seed: `move_block_in(root, node, work)`, four
/// `add`s on the root, `end`. Transient placement grants the move unless
/// the other client holds the root's lock (then the `add`s go remote); a
/// granted move ships the A-transitive closure of eight unless the set is
/// already there.
///
/// Each node's application also keeps a private session object attached to
/// *every* root in its own alliance. Attachment is undirected, so under
/// unrestricted semantics any move would drag all sixteen sets; the
/// A-transitive closure in `work` leaves the sessions where they are, and
/// `finish` checks that it did.
pub struct MeshMove {
    cluster: Cluster,
    work: AllianceId,
    /// `sets[r][0]` is root `r`, the rest its helpers.
    sets: Vec<Vec<ObjectId>>,
    sessions: Vec<ObjectId>,
    seed: u64,
}

pub struct MoveClient {
    inputs: Inputs,
    tally: Tally,
}

impl MeshMove {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let cluster = Cluster::builder()
            .nodes(NODES)
            .policy(PolicyKind::TransientPlacement)
            .attachment_mode(AttachmentMode::ATransitive)
            .failure_detector(50, 4)
            .replication(2)
            .build();
        cluster.register_type(blob::TYPE_TAG, blob::delinearize);
        let work = cluster.create_alliance("work");
        let join = |alliance, object| {
            cluster
                .join_alliance(alliance, object)
                .map_err(|e| format!("join {alliance:?}: {e}"))
        };
        let attach = |object, to, alliance| {
            cluster
                .attach(object, to, Some(alliance))
                .map(drop)
                .map_err(|e| format!("attach in {alliance:?}: {e}"))
        };
        let mut sets = Vec::with_capacity(ROOTS);
        for _ in 0..ROOTS {
            let root = create(&cluster, 2, MOVE_STATE)?;
            join(work, root)?;
            let mut set = vec![root];
            for _ in 0..HELPERS {
                let helper = create(&cluster, 2, MOVE_STATE)?;
                join(work, helper)?;
                attach(helper, root, work)?;
                set.push(helper);
            }
            sets.push(set);
        }
        let mut sessions = Vec::new();
        for node in 0..NODES {
            let app = cluster.create_alliance(&format!("app-{node}"));
            let session = create(&cluster, node, MOVE_STATE)?;
            join(app, session)?;
            for set in &sets {
                join(app, set[0])?;
                attach(session, set[0], app)?;
            }
            sessions.push(session);
        }
        Ok(MeshMove {
            cluster,
            work,
            sets,
            sessions,
            seed,
        })
    }
}

impl Workload for MeshMove {
    type Client = MoveClient;
    const WINDOW: Duration = Duration::from_millis(100);

    fn warmup_ops(&self) -> usize {
        6_000
    }

    fn client(&self, index: usize) -> MoveClient {
        MoveClient {
            inputs: Inputs::new(self.seed, index, ROOTS as u32, NODES),
            tally: Tally::new(ROOTS),
        }
    }

    fn op<T: Tracer>(&self, c: &mut MoveClient, i: usize, start: Instant, tracer: &mut T) -> bool {
        let input = c.inputs.at(i);
        let set = &self.sets[input.object as usize];
        let (root, dest) = (set[0], NodeId::new(input.dest));
        let Ok(guard) = self.cluster.move_block_in(root, dest, Some(self.work)) else {
            return false;
        };
        let requested = tick::<T>(start);
        tracer.child(SpanKind::MoveRequest, start, requested);
        // a denial is the protocol working: the adds below simply go remote
        let mut ok = !guard.granted() || set.iter().all(|&o| self.cluster.is_resident(o, dest));
        for k in 0..INVOKES_PER_BLOCK {
            let word = input.word.rotate_left(k as u32);
            match self.cluster.invoke(root, "add", c.inputs.payload(word)) {
                Ok(_) => c.tally.acked(input.object as usize, word),
                Err(_) => ok = false,
            }
        }
        let worked = tick::<T>(requested);
        tracer.child(SpanKind::Work, requested, worked);
        guard.end();
        tracer.child(SpanKind::End, worked, tick::<T>(worked));
        ok
    }

    fn counters(&self) -> Counters {
        cluster_counters(&self.cluster)
    }

    fn worker_pids(&self) -> Vec<u32> {
        Vec::new()
    }

    fn finish(self, clients: Vec<MoveClient>) -> Result<(), String> {
        let total = Tally::merged(clients.iter().map(|c| &c.tally), ROOTS);
        let check = (|| {
            // an end-request is fire-and-forget; each root's `get` queues
            // behind the last one sent to its host
            total.check_against(|r| {
                self.cluster
                    .invoke(self.sets[r][0], "get", &[])
                    .map_err(|e| format!("final get on root {r}: {e}"))
            })?;
            if !wait_until(Duration::from_secs(2), || {
                self.cluster.held_locks().is_empty()
            }) {
                return Err(format!("locks still held: {:?}", self.cluster.held_locks()));
            }
            for (r, set) in self.sets.iter().enumerate() {
                let at = self.cluster.location_of(set[0]);
                if set.iter().any(|&o| self.cluster.location_of(o) != at) {
                    return Err(format!("working set {r} is split across nodes"));
                }
            }
            for (node, &session) in self.sessions.iter().enumerate() {
                if !self.cluster.is_resident(session, NodeId::new(node as u32)) {
                    return Err(format!(
                        "session {node} was dragged off its node: the closure left `work`"
                    ));
                }
            }
            Ok(())
        })();
        self.cluster.shutdown();
        check
    }
}
