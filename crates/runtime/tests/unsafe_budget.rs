//! The crate was `#![forbid(unsafe_code)]` until the CRC-32 kernel needed
//! one call from run-time feature detection into `#[target_feature]`
//! functions, which the language cannot prove and so makes the caller
//! assert. That is the whole budget: one `unsafe` block, in
//! `transport/frame.rs`, under a `// SAFETY:` comment, in a file that
//! forms no raw pointer and reinterprets no bytes — and the crate root
//! still denies the lint, so a second one needs a second `#[allow]` that
//! this test then refuses. Like `store_io.rs` and `transport_deadlines.rs`
//! it scans the sources: a convention nothing checks is not kept.

use std::fs;
use std::path::{Path, PathBuf};

/// The one file allowed an `unsafe` block.
const CRC_MODULE: &str = "transport/frame.rs";

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source dir readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// Occurrences of `word` as a whole identifier (`unsafe_code` is not
/// `unsafe`) on a line of code.
fn count_word(line: &str, word: &str) -> usize {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|token| *token == word)
        .count()
}

#[test]
fn one_unsafe_block_under_a_safety_comment_in_the_crc_module() {
    assert_eq!(count_word("#![deny(unsafe_code)]", "unsafe"), 0);
    assert_eq!(count_word("let x = unsafe { f() };", "unsafe"), 1);

    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    rust_sources(&src, &mut files);
    files.sort();

    // (file, zero-based line) of every `unsafe` keyword; opt-outs counted
    let (mut keywords, mut allows) = (Vec::new(), 0);
    for path in &files {
        let text = fs::read_to_string(path).expect("source readable");
        for (i, line) in text.lines().enumerate() {
            if is_comment(line) {
                continue;
            }
            for _ in 0..count_word(line, "unsafe") {
                keywords.push((path.clone(), i));
            }
            allows += usize::from(line.contains("allow(unsafe_code)"));
        }
    }
    let crc_module = src.join(CRC_MODULE);
    assert_eq!(
        keywords.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        [&crc_module],
        "exactly one `unsafe` in crates/runtime/src, in {CRC_MODULE}: {keywords:?}"
    );
    assert_eq!(allows, 1, "exactly one #[allow(unsafe_code)]");

    // directly above it: the attribute that admits it, and above that a
    // comment block that opens with `// SAFETY:`
    let text = fs::read_to_string(&crc_module).expect("frame.rs readable");
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let at = keywords[0].1;
    assert_eq!(
        lines[at - 1],
        "#[allow(unsafe_code)]",
        "the #[allow] sits on the statement it admits"
    );
    let comment_start = (0..at - 1)
        .rev()
        .take_while(|&i| is_comment(lines[i]))
        .last()
        .expect("a comment directly above the #[allow]");
    assert!(
        lines[comment_start].starts_with("// SAFETY:"),
        "frame.rs:{}: the comment above the `unsafe` block must open with `// SAFETY:`, found {:?}",
        comment_start + 1,
        lines[comment_start]
    );
    let safety = lines[comment_start..at - 1].join(" ");
    for feature in ["pclmulqdq", "sse4.1"] {
        assert!(
            safety.contains(feature),
            "the SAFETY comment names the detected feature `{feature}`"
        );
        assert!(
            text.contains(&format!("is_x86_feature_detected!(\"{feature}\")")),
            "`{feature}` is detected at run time"
        );
    }

    // nothing in the module needs more than that one assertion: values in,
    // values out
    for forbidden in ["*const", "*mut", "transmute"] {
        assert!(
            !text.contains(forbidden),
            "{CRC_MODULE} must not contain `{forbidden}`"
        );
    }

    let root = fs::read_to_string(src.join("lib.rs")).expect("lib.rs readable");
    assert!(
        root.lines().any(|l| l == "#![deny(unsafe_code)]"),
        "lib.rs denies unsafe_code crate-wide"
    );
}
