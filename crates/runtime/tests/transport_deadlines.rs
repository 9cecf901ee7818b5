//! Every raw socket operation in oml-runtime must live in
//! `transport/netio.rs`, whose wrappers carry explicit deadlines
//! (`connect_deadline`, `accept_deadline`, `write_all_deadline`,
//! `read_chunk` under a read timeout). A bare `connect()`/`accept()`/
//! `write()` anywhere else can block forever on a half-dead peer and
//! wedge a supervisor thread — the PR 1 "no bare `recv()`" rule, extended
//! to sockets. This test scans the crate's sources and fails on any std
//! networking or raw io-trait usage outside that one reviewed file. Since
//! senders, the dial supervisor and the worker's timer sleep on condition
//! variables, the same goes for those: only the `wait_timeout` forms.

use std::fs;
use std::path::Path;

/// The one file allowed to name std networking types and the raw
/// `io::Read`/`io::Write` traits: every call site there is wrapped in a
/// deadline-carrying helper.
const IO_BOUNDARY: &str = "netio.rs";

/// Patterns that indicate raw socket construction or raw blocking I/O.
/// Conservative on purpose: naming the *types* is already a smell outside
/// the boundary, whether or not a blocking call follows.
const FORBIDDEN: &[&str] = &[
    "std::net::",
    "std::os::unix::net::",
    "TcpStream::",
    "TcpListener::",
    "UnixStream::",
    "UnixListener::",
    "io::Read",
    "io::Write",
];

#[test]
fn raw_socket_io_is_confined_to_netio() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut offenders = Vec::new();
    let raw_io = |line: &str| FORBIDDEN.iter().any(|pat| line.contains(pat));
    scan(&src, Some(IO_BOUNDARY), &raw_io, &mut offenders);
    assert!(
        offenders.is_empty(),
        "raw socket i/o outside transport/netio.rs — route it through the \
         deadline-carrying wrappers (connect_deadline / accept_deadline / \
         write_all_deadline / read_chunk) instead:\n{}",
        offenders.join("\n")
    );
}

/// `Condvar::wait(guard)` / `wait_while(guard, ..)`: a wait nothing bounds.
/// (`Child::wait()` takes no argument and reaps a process already killed.)
fn unbounded_wait(line: &str) -> bool {
    line.contains(".wait_while(")
        || line
            .match_indices(".wait(")
            .any(|(at, pat)| !line[at + pat.len()..].starts_with(')'))
}

#[test]
fn every_condvar_wait_carries_a_timeout() {
    assert!(unbounded_wait("out = self.changed.wait(out).unwrap();"));
    assert!(!unbounded_wait("let _ = child.wait(); // reap"));
    assert!(!unbounded_wait("self.changed.wait_timeout(out, left)"));
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut offenders = Vec::new();
    scan(&src, None, &unbounded_wait, &mut offenders);
    assert!(
        offenders.is_empty(),
        "a condition-variable wait without a deadline — use wait_timeout / \
         wait_timeout_while, so a lost wake-up costs a bounded delay:\n{}",
        offenders.join("\n")
    );
}

/// Collects every non-comment line under `dir` that `offends`, skipping
/// the file named `except`.
fn scan(
    dir: &Path,
    except: Option<&str>,
    offends: &dyn Fn(&str) -> bool,
    offenders: &mut Vec<String>,
) {
    for entry in fs::read_dir(dir).expect("source dir readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            scan(&path, except, offends, offenders);
            continue;
        }
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 file name");
        if Some(name) == except {
            continue;
        }
        let text = fs::read_to_string(&path).expect("source readable");
        for (i, line) in text.lines().enumerate() {
            let trimmed = line.trim_start();
            if trimmed.starts_with("//") {
                continue;
            }
            if offends(line) {
                offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
}

#[test]
fn netio_itself_has_no_deadline_free_blocking_calls() {
    // inside the boundary file, the dangerous zero-argument blocking forms
    // must not appear: connect without a deadline wrapper, accept outside
    // the poll loop, write_all on a stream that was not just re-armed
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("src")
        .join("transport")
        .join(IO_BOUNDARY);
    let text = fs::read_to_string(&path).expect("netio.rs readable");
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        assert!(
            !line.contains("TcpStream::connect(",),
            "netio.rs:{}: bare TcpStream::connect (use connect_timeout): {}",
            i + 1,
            line.trim()
        );
    }
}
