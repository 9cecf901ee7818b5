//! Every filesystem operation in the checkpoint store must live in
//! `store/fsio.rs`, behind the [`Storage`] trait — that is what lets the
//! chaos suites swap in the scripted `FaultFs` and prove torn writes,
//! skipped fsyncs, and bit flips are handled, and what keeps the WAL's
//! error paths honest: a filesystem error must surface as a
//! `StoreError`, never a panic. This test is the `transport_deadlines.rs`
//! rule extended to disks: it scans `src/store/` and fails on any
//! `std::fs` usage outside the boundary file, and on any bare
//! `.unwrap()`/`.expect()` in non-test store code — fs results included.

use std::fs;
use std::path::Path;

/// The one file allowed to touch `std::fs`: every operation there is a
/// small total wrapper returning `io::Result`, reviewed as a unit.
const IO_BOUNDARY: &str = "fsio.rs";

/// Raw filesystem access: naming the types is already a smell outside the
/// boundary, whether or not a call follows.
const FORBIDDEN_FS: &[&str] = &[
    "std::fs",
    "File::",
    "OpenOptions",
    "fs::read",
    "fs::write",
    "fs::rename",
    "fs::remove",
    "fs::create_dir",
];

fn store_sources() -> Vec<std::path::PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("src")
        .join("store");
    let mut out: Vec<_> = fs::read_dir(&dir)
        .expect("store source dir readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("rs"))
        .collect();
    out.sort();
    out
}

/// The store modules keep their `#[cfg(test)] mod tests` at the end of the
/// file, so everything from that marker on is test-only code.
fn non_test_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .take_while(|(_, line)| !line.trim_start().starts_with("#[cfg(test)]"))
}

#[test]
fn fs_io_is_confined_to_fsio() {
    let mut offenders = Vec::new();
    for path in store_sources() {
        if path.file_name().and_then(|n| n.to_str()) == Some(IO_BOUNDARY) {
            continue;
        }
        let text = fs::read_to_string(&path).expect("source readable");
        for (i, line) in non_test_lines(&text) {
            if line.trim_start().starts_with("//") {
                continue;
            }
            if FORBIDDEN_FS.iter().any(|pat| line.contains(pat)) {
                offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "raw filesystem access outside store/fsio.rs — route it through the \
         `Storage` trait so FaultFs can reach it:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn store_code_never_panics_on_results() {
    // a full disk, a yanked volume, or an injected fault must come back as
    // a StoreError the caller can act on — a panic in the store tears down
    // whatever thread was checkpointing
    let mut offenders = Vec::new();
    for path in store_sources() {
        let text = fs::read_to_string(&path).expect("source readable");
        for (i, line) in non_test_lines(&text) {
            if line.trim_start().starts_with("//") {
                continue;
            }
            if line.contains(".unwrap(") || line.contains(".expect(") {
                offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "bare unwrap/expect in non-test store code — propagate a StoreError \
         instead:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn fsio_is_the_only_module_and_is_covered() {
    // the boundary file must actually exist under the scanned directory —
    // if it is ever renamed this test must fail loudly rather than scan
    // nothing and pass vacuously
    assert!(
        store_sources()
            .iter()
            .any(|p| p.file_name().and_then(|n| n.to_str()) == Some(IO_BOUNDARY)),
        "store/fsio.rs not found — update IO_BOUNDARY if the module moved"
    );
}
