//! Every long-lived lock in oml-runtime must be a *named* `OrderedMutex` /
//! `OrderedRwLock` so the lock-nesting trap sees its acquisitions. This
//! test scans the crate's sources for raw `parking_lot` constructions and
//! fails on any outside the reviewed allowlist — a new raw lock must either
//! be converted or explicitly allowlisted here with a justification.

use std::fs;
use std::path::Path;

/// Files allowed to construct raw (unregistered) `parking_lot` locks, with
/// the reviewed reason each is safe to keep out of the trap's sight.
const ALLOWLIST: &[(&str, &str)] = &[
    // the Ordered wrappers themselves are built on raw parking_lot locks
    (
        "trace.rs",
        "OrderedMutex/OrderedRwLock implementation + the trace collector's leaf mutex",
    ),
    // the injector's decision tables are leaves locked for a few loads each,
    // never while any Ordered lock is held
    ("fault.rs", "fault-injector internal leaf locks"),
    // the type registry is populated before workers start and read-locked
    // as a leaf afterwards
    ("object.rs", "type-registry leaf RwLock"),
    // transport-internal leaf locks (peer slots, fencing floors, thread
    // handles): held for map lookups only, never while any Ordered lock or
    // another transport lock is held
    ("socket.rs", "socket transport leaf locks"),
    // coordinator state + trace collector: two leaves, always acquired
    // state-then-trace or independently, never interleaved with Ordered
    // locks (the multiprocess runtime does not use the in-process Cluster)
    ("multiproc.rs", "multi-process coordinator leaf locks"),
    // one node inbox's queue, state slot and sleeper counts: held to queue
    // or pop a message or move the node's state in or out of its slot; a
    // handler runs only after the state is taken out and the lock released,
    // so no other lock is ever taken while it is held. A caller's reply
    // slot: held only to open, answer, wait on or close one call, and
    // nothing else is locked while it is held
    (
        "channel.rs",
        "in-process inbox and reply-slot leaf locks (with their condvars)",
    ),
];

#[test]
fn all_long_lived_locks_are_registered() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut offenders = Vec::new();
    scan(&src, &mut offenders);
    assert!(
        offenders.is_empty(),
        "raw parking_lot lock constructions outside the allowlist — convert \
         them to OrderedMutex/OrderedRwLock (crate::trace) or allowlist them \
         with a justification:\n{}",
        offenders.join("\n")
    );
}

fn scan(dir: &Path, offenders: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("source dir readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            scan(&path, offenders);
            continue;
        }
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 file name");
        if ALLOWLIST.iter().any(|(f, _)| *f == name) {
            continue;
        }
        let text = fs::read_to_string(&path).expect("source readable");
        for (i, line) in text.lines().enumerate() {
            let trimmed = line.trim_start();
            if trimmed.starts_with("//") {
                continue;
            }
            // raw construction sites; Ordered wrappers call these from
            // trace.rs, which is allowlisted above
            let raw = ["Mutex::new(", "RwLock::new("]
                .iter()
                .any(|pat| match line.find(pat) {
                    // `OrderedMutex::new(` contains `Mutex::new(` — only the
                    // unprefixed form is an offender
                    Some(pos) => !line[..pos].ends_with("Ordered"),
                    None => false,
                });
            if raw || line.contains("parking_lot::Mutex<") || line.contains("parking_lot::RwLock<")
            {
                offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
}
