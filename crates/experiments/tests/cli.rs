//! End-to-end tests of the `repro` command-line interface.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn table1_prints_the_glossary() {
    let out = repro().arg("table1").output().expect("repro runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 1"));
    assert!(stdout.contains("Migration duration for servers"));
    assert!(stdout.contains("mean(8)"));
}

#[test]
fn fig4_is_analytic_and_instant() {
    let out = repro()
        .args(["fig4", "--quick"])
        .output()
        .expect("repro runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("placement saves M+C"));
    assert!(stdout.contains("transient placement"));
}

#[test]
fn fig4_plot_flag_draws_a_chart() {
    let out = repro()
        .args(["fig4", "--quick", "--plot"])
        .output()
        .expect("repro runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains('┬'), "plot frame present");
    assert!(stdout.contains("calls N"), "x label present");
}

#[test]
fn fig4_svg_flag_writes_a_file() {
    let dir = std::env::temp_dir().join(format!("oml-cli-test-{}", std::process::id()));
    let out = repro()
        .args(["fig4", "--quick", "--svg", dir.to_str().unwrap()])
        .output()
        .expect("repro runs");
    assert!(out.status.success());
    let svg = std::fs::read_to_string(dir.join("fig4.svg")).expect("svg written");
    assert!(svg.starts_with("<svg"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_experiment_fails_with_usage() {
    let out = repro().arg("fig99").output().expect("repro runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment"));
}

#[test]
fn missing_experiment_fails_with_usage() {
    let out = repro().output().expect("repro runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"));
}

#[test]
fn bad_flag_is_reported() {
    let out = repro()
        .args(["fig4", "--frobnicate"])
        .output()
        .expect("repro runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unexpected argument"));
}

#[test]
fn custom_without_scenario_is_an_error() {
    let out = repro()
        .args(["custom", "--quick"])
        .output()
        .expect("repro runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--scenario"));
}

#[test]
fn replot_of_missing_file_is_an_error() {
    let out = repro()
        .args(["does-not-exist.csv", "--quick"])
        .output()
        .expect("repro runs");
    assert!(!out.status.success());
}

#[test]
fn check_clean_paths_exit_zero() {
    // the exit-code contract: every clean verification path exits zero —
    // for --seeds alone and with --recovery / --durability stacked on
    for args in [
        &["check", "--seeds", "2"][..],
        &["check", "--seeds", "2", "--recovery"][..],
        &["check", "--seeds", "2", "--durability"][..],
    ] {
        let out = repro().args(args).output().expect("repro runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{args:?} exited {:?}:\n{stdout}\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("all invariants hold"),
            "{args:?} did not report success:\n{stdout}"
        );
    }
}

/// The checker's verdict on `name`'s scenario without its sabotage, as
/// `repro check` printed it: the line after the report's event count.
fn clean_twin_verdict<'a>(stdout: &'a str, name: &str) -> Option<&'a str> {
    let section = stdout.split(&format!("\n{name} scenario ")).nth(1)?;
    let report = section.split_once(" without sabotage:\n")?.1;
    report.lines().nth(1)
}

#[test]
fn check_durability_prints_each_control_scenario_clean() {
    let out = repro()
        .args(["check", "--durability", "--seeds", "2"])
        .output()
        .expect("repro runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for name in ["no-repair", "stale-promotion"] {
        let verdict = clean_twin_verdict(&stdout, name);
        assert_eq!(verdict, Some("all invariants hold"), "{name}:\n{stdout}");
        let flagged = format!("{name} negative control under");
        assert!(
            stdout.contains(&flagged),
            "{name} was not rigged:\n{stdout}"
        );
    }
}

#[test]
fn check_negative_path_exits_nonzero() {
    let out = repro()
        .args(["check", "--negative"])
        .output()
        .expect("repro runs");
    assert!(
        !out.status.success(),
        "the negative-control path must exit nonzero (violations are present by construction)"
    );
    // nonzero because the rigged violations were *found*, not because the
    // tooling broke
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.matches("flagged as expected").count(),
        3,
        "expected all three negative controls flagged:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // beside each its scenario without the sabotage, clean
    for name in ["unfenced zombie", "no-repair", "stale-promotion"] {
        let verdict = clean_twin_verdict(&stdout, name);
        assert_eq!(verdict, Some("all invariants hold"), "{name}:\n{stdout}");
    }
}

#[test]
fn explore_replay_of_garbage_exits_nonzero() {
    let dir = std::env::temp_dir().join(format!("oml-cli-explore-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.schedule");
    std::fs::write(
        &path,
        "# oml-check counterexample schedule v1\nnot a field\n",
    )
    .unwrap();
    let out = repro()
        .args(["explore", "--replay", path.to_str().unwrap()])
        .output()
        .expect("repro runs");
    assert!(!out.status.success(), "garbage schedule must not verify");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The experiment names `repro` lists when run without arguments: the
/// first word of every entry line (two-space indent; continuation lines
/// are indented further).
fn listed_experiments() -> Vec<String> {
    let out = repro().output().expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let entry = |line: &str| {
        let name = line.strip_prefix("  ")?.split(' ').next()?;
        (!name.is_empty() && !name.starts_with('<')).then(|| name.to_owned())
    };
    stderr.lines().filter_map(entry).collect()
}

/// The table is the CLI: what the help lists is what dispatches, once each.
#[test]
fn usage_lists_every_registered_experiment() {
    let names = listed_experiments();
    assert!(names.len() > 20, "the help lost its listing: {names:?}");
    for (i, name) in names.iter().enumerate() {
        assert!(!names[..i].contains(name), "`{name}` is listed twice");
        // a registered name gets as far as the flag that does not exist; an
        // unregistered one is refused by name before that
        let out = repro().args([name, "--frobnicate"]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unexpected argument") && !stderr.contains("unknown experiment"),
            "`{name}` is listed but does not dispatch:\n{stderr}"
        );
    }
    assert_eq!(names.last().map(String::as_str), Some("all"));
}

/// Every `` `repro <word>` `` the two documents spell is a registered name.
#[test]
fn docs_name_only_registered_experiments() {
    let names = listed_experiments();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("document is readable");
        let mut mentions = 0;
        // `repro <file.csv>` names a placeholder, not an experiment
        let named = |rest: &&str| !rest.starts_with('<');
        for rest in text.split("`repro ").skip(1).filter(named) {
            let word: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect();
            assert!(
                names.contains(&word),
                "{doc} says `repro {word}`, which `repro` does not list"
            );
            mentions += 1;
        }
        assert!(mentions > 0, "{doc} no longer mentions `repro` at all");
    }
}
