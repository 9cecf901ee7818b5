//! What an in-process call allocates, counted: a counting global allocator
//! (each allocation on the calling thread, delegated to `System`) around
//! one manual-clock client, whose calls all run on its own thread. A call
//! to an idle node allocates only what it carries — the request (method
//! name and payload in one buffer) and the object's reply, handed back as
//! the object returned it — and nothing for its reply's way back: the
//! calling thread reuses one reply slot from call to call. A granted move
//! of an unchanged closure to another node allocates what its `Install`
//! carries and what installing it makes — nothing per member for its
//! linearized state, which ships as the image its host kept. The counts are
//! exact in debug builds too: the debug-only lock-nesting trap allocates
//! nothing.

use oml_core::ids::NodeId;
use oml_runtime::{Cluster, MobileObject};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations this thread made while counting; `None` when not.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    let _ = COUNT.try_with(|count| count.set(count.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the count touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// How many allocations `run` makes on this thread.
fn allocations(run: impl FnOnce()) -> u64 {
    COUNT.set(Some(0));
    run();
    COUNT.replace(None).unwrap_or_default()
}

/// Replies with the first 8 bytes of its payload: one allocation.
struct Echo;

impl MobileObject for Echo {
    fn type_tag(&self) -> &'static str {
        "echo"
    }
    fn invoke(&mut self, _method: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        Ok(payload[..8].to_vec())
    }
    fn linearize(&self) -> Vec<u8> {
        Vec::new()
    }
}

#[test]
fn an_in_process_call_allocates_only_what_it_carries() {
    let cluster = Cluster::builder().nodes(2).manual_clock().build();
    cluster.register_type("echo", |_| Box::new(Echo));
    let at = NodeId::new(1);
    let object = cluster.create(at, Box::new(Echo)).unwrap();
    let payload = [7u8; 64];
    let call = || assert_eq!(cluster.invoke(object, "add", &payload).unwrap(), [7; 8]);
    let block = || {
        let guard = cluster.move_block(object, at).unwrap();
        assert!(guard.granted());
        guard.end();
    };
    // warm-up: the thread's reply slots, the tables' first growth
    for _ in 0..100 {
        call();
        block();
    }
    for _ in 0..1_000 {
        // the request buffer and the object's reply
        assert_eq!(allocations(call), 2, "per invoke");
        // a grant and an end at the object's own node carry no buffer
        assert_eq!(allocations(block), 0, "per move block of a local object");
    }
}

/// A one-byte state: delinearizing one allocates its box.
struct Byte(u8);

impl MobileObject for Byte {
    fn type_tag(&self) -> &'static str {
        "byte"
    }
    fn invoke(&mut self, _method: &str, _payload: &[u8]) -> Result<Vec<u8>, String> {
        Ok(vec![self.0])
    }
    fn linearize(&self) -> Vec<u8> {
        vec![self.0]
    }
}

#[test]
fn moving_an_unchanged_closure_allocates_only_its_install() {
    let cluster = Cluster::builder()
        .nodes(3)
        .manual_clock()
        .failure_detector(50, 3)
        .replication(2)
        .build();
    cluster.register_type("byte", |state| Box::new(Byte(state[0])));
    let set: Vec<_> = (0..8)
        .map(|_| cluster.create(NodeId::new(0), Box::new(Byte(1))).unwrap())
        .collect();
    for &helper in &set[1..] {
        cluster.attach(helper, set[0], None).unwrap();
    }
    let block = |to: u32| {
        let guard = cluster.move_block(set[0], NodeId::new(to)).unwrap();
        assert!(guard.granted());
        guard.end();
    };
    // warm-up: every host's tables, and each member's image
    for i in 0..100 {
        block(1 + i % 2);
    }
    for i in 0..1_000 {
        // the Install's member list, one box per delinearized member, and
        // the end's one-item refresh list
        assert_eq!(allocations(|| block(i % 3)), 10, "per move of 8");
    }
}
