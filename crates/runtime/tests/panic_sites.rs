//! The panic audit as a scan: every `.unwrap()`, `.expect(`, `panic!` and
//! `unreachable!` in oml-runtime's non-test code is either gone or on the
//! reviewed list below with the reason it cannot fire on input a peer, a
//! disk or a caller of the public API controls. A new site fails this test
//! until it is turned into an error or reviewed here; a listed site that
//! no longer exists fails it too, so the list never outlives the code.
//!
//! Comment lines are not counted, and neither is an item under
//! `#[cfg(test)]` (the sources are rustfmt-formatted, so such an item ends
//! at the first line that closes it at its own indentation).

use std::fs;
use std::path::Path;

/// `(file under src/, snippet of the line, why it cannot fire)`. Each entry
/// names exactly one site.
const ALLOWLIST: &[(&str, &str, &str)] = &[
    (
        "cluster.rs",
        r#"timer.due.pop().expect("peeked")"#,
        "the heap was peeked non-empty under the same guard one line before",
    ),
    (
        "cluster.rs",
        r#"panic!("durable store node-{i}: {e}")"#,
        "ClusterBuilder::build is infallible by signature: a durable-store \
         directory that cannot be opened is a configuration error, reported \
         with the node and the I/O error before any node runs",
    ),
    (
        "cluster.rs",
        r#".expect("spawn the cluster's timer")"#,
        "the OS refused one thread at build time; there is no cluster to \
         degrade to",
    ),
    (
        "cluster.rs",
        r#"panic!("advance_clock requires ClusterBuilder::manual_clock")"#,
        "API misuse, documented under `# Panics`: a wall-clock cluster has no \
         clock to advance",
    ),
    (
        "node.rs",
        r#".expect("checked by handle()")"#,
        "handle() routes an invoke elsewhere unless its object is installed \
         here, and the node's state is this step's alone until it returns",
    ),
    (
        "transport/channel.rs",
        r#".expect("a claimed state waits in its slot")"#,
        "a claim is queued only for a node whose state is in its slot, and \
         only the claimer takes it out",
    ),
    (
        "transport/frame.rs",
        r#"u64::from_le_bytes(lo.try_into().expect("8 of 16 bytes")),"#,
        "split_at(8) of a sixteen-byte block: the low half is eight bytes",
    ),
    (
        "transport/frame.rs",
        r#"u64::from_le_bytes(hi.try_into().expect("8 of 16 bytes")),"#,
        "split_at(8) of a sixteen-byte block: the high half is eight bytes",
    ),
    (
        "transport/frame.rs",
        r#"quads.next().expect("the caller checked MIN_LEN")"#,
        "the kernel is entered only for inputs of at least MIN_LEN (64) \
         bytes, so the first 64-byte chunk exists",
    ),
    (
        "transport/socket.rs",
        r#".expect("spawn reader thread")"#,
        "the OS refused one thread for an accepted session; nothing has been \
         handed to it yet",
    ),
    (
        "transport/socket.rs",
        r#".expect("spawn peer supervisor")"#,
        "the OS refused one thread while a peer starts; nothing is connected \
         yet to degrade",
    ),
    (
        "transport/socket.rs",
        r#".expect("spawn peer reader")"#,
        "the OS refused one thread for a new connection; nothing has been \
         sent on it yet",
    ),
];

const PATTERNS: &[&str] = &[".unwrap()", ".expect(", "panic!", "unreachable!"];

#[test]
fn every_panic_site_is_reviewed() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut sites = Vec::new();
    scan(&src, &src, &mut sites);
    let mut matched = vec![0usize; ALLOWLIST.len()];
    let mut offenders = Vec::new();
    for (file, line_no, line) in &sites {
        let entry = ALLOWLIST
            .iter()
            .position(|(f, snippet, _)| f == file && line.contains(snippet));
        match entry {
            Some(i) => matched[i] += 1,
            None => offenders.push(format!("src/{file}:{line_no}: {line}")),
        }
    }
    assert!(
        offenders.is_empty(),
        "panic sites outside the reviewed list — return an error instead, \
         or add the site with the reason it cannot fire:\n{}",
        offenders.join("\n")
    );
    let stale: Vec<String> = ALLOWLIST
        .iter()
        .zip(&matched)
        .filter(|&(_, &n)| n != 1)
        .map(|((f, snippet, _), n)| format!("src/{f}: {snippet} (matched {n} sites)"))
        .collect();
    assert!(
        stale.is_empty(),
        "reviewed entries that no longer name exactly one site:\n{}",
        stale.join("\n")
    );
}

/// Collects `(path under src/, line number, trimmed line)` for every
/// pattern match in non-test code under `dir`.
fn scan(root: &Path, dir: &Path, sites: &mut Vec<(String, usize, String)>) {
    for entry in fs::read_dir(dir).expect("source dir readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            scan(root, &path, sites);
            continue;
        }
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let file = path
            .strip_prefix(root)
            .expect("under src/")
            .to_str()
            .expect("utf-8 path")
            .to_owned();
        let text = fs::read_to_string(&path).expect("source readable");
        for (i, line) in non_test_lines(&text) {
            let trimmed = line.trim();
            if PATTERNS.iter().any(|p| trimmed.contains(p)) {
                sites.push((file.clone(), i + 1, trimmed.to_owned()));
            }
        }
    }
}

/// The lines of `text` that are neither comments nor inside an item under
/// `#[cfg(test)]`, with their 0-based numbers.
fn non_test_lines(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut lines = text.lines().enumerate();
    while let Some((i, line)) = lines.next() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") {
            skip_item(&mut lines);
            continue;
        }
        out.push((i, line));
    }
    out
}

/// Skips the item an attribute applies to: further attributes, then either
/// one line ending in `;` or everything up to the `}` at the item's own
/// indentation.
fn skip_item<'a>(lines: &mut impl Iterator<Item = (usize, &'a str)>) {
    for (_, line) in lines.by_ref() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[") || trimmed.starts_with("//") {
            continue;
        }
        if !line.trim_end().ends_with('{') {
            return; // a one-line item
        }
        let close = format!("{}}}", &line[..line.len() - trimmed.len()]);
        for (_, line) in lines.by_ref() {
            if line.trim_end() == close {
                return;
            }
        }
        return;
    }
}

#[test]
fn test_items_and_comments_are_not_scanned() {
    let text = "fn a() {\n    x.unwrap();\n}\n// y.unwrap()\n#[cfg(test)]\n\
                fn helper() {\n    z.unwrap();\n}\n#[cfg(test)]\nuse w;\n\
                fn b() {\n    v.expect(\"v\");\n}\n#[cfg(test)]\nmod tests {\n    \
                fn t() {\n        u.unwrap();\n    }\n}\n";
    let kept: Vec<&str> = non_test_lines(text)
        .into_iter()
        .map(|(_, l)| l.trim())
        .filter(|l| PATTERNS.iter().any(|p| l.contains(p)))
        .collect();
    assert_eq!(kept, ["x.unwrap();", "v.expect(\"v\");"]);
}
