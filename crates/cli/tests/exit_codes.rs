//! Through the real binary: an invocation that cannot mean what it says
//! exits 2 and names what is wrong, instead of running a default.

use std::process::Command;

/// `(exit code, stdout + stderr)` of `distgraph <args>`.
fn distgraph(args: &[&str]) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_distgraph"))
        .args(args)
        .output()
        .expect("spawn distgraph");
    let mut text = String::from_utf8_lossy(&output.stdout).into_owned();
    text.push_str(&String::from_utf8_lossy(&output.stderr));
    (output.status.code().unwrap_or(-1), text)
}

#[test]
fn mistyped_misplaced_and_repeated_flags_exit_two() {
    for (args, complaint) in [
        (
            &["fault", "uk-web", "--stratgies", "random"][..],
            "unknown flag --stratgies for `fault` (did you mean --strategies?)",
        ),
        (
            &["stats", "g.txt", "--parts", "banana"],
            "unknown flag --parts for `stats`",
        ),
        (
            &["serve", "g.txt", "--fair"],
            "unknown flag --fair for `serve`",
        ),
        (
            &["trace", "LiveJournal", "--intervall", "4"],
            "unknown flag --intervall for `trace` (did you mean --interval?)",
        ),
        (
            &[
                "elastic",
                "LiveJournal",
                "--fair",
                "--tenants",
                "2",
                "--fair",
            ],
            "flag --fair given twice for `elastic`",
        ),
    ] {
        let (code, text) = distgraph(args);
        assert_eq!(code, 2, "{args:?}: {text}");
        assert!(text.contains(complaint), "{args:?}: {text}");
    }
}

#[test]
fn a_trace_machine_without_a_crash_exits_two() {
    let (code, text) = distgraph(&["trace", "LiveJournal", "--machine", "3"]);
    assert_eq!(code, 2, "{text}");
    assert!(
        text.contains("error: --machine without --crash-at injects no crash"),
        "{text}"
    );
}

#[test]
fn window_is_an_unknown_flag() {
    for (args, complaint) in [
        (
            &["partition", "g.txt", "--strategy", "hdrf", "--window", "16"][..],
            "unknown flag --window for `partition`",
        ),
        (
            &[
                "run",
                "g.txt",
                "--app",
                "wcc",
                "--strategy",
                "oblivious",
                "--window",
                "auto",
            ],
            "unknown flag --window for `run`",
        ),
    ] {
        let (code, text) = distgraph(args);
        assert_eq!(code, 2, "{args:?}: {text}");
        assert!(text.contains(complaint), "{args:?}: {text}");
    }
}

#[test]
fn events_that_cannot_fire_exit_two_naming_the_rule() {
    for (args, rule) in [
        (
            &["fault", "LiveJournal", "--crash-at", "30", "--steps", "5"][..],
            "an event at superstep 30 never fires: PageRank(5) ends after superstep 4",
        ),
        (
            &["elastic", "LiveJournal", "--scale-out", "3:0"],
            "a scale-out must add at least one machine",
        ),
        (
            &["elastic", "LiveJournal", "--preempt", "2:0:5"],
            "a warning of 5 supersteps cannot precede a departure at superstep 2",
        ),
    ] {
        let (code, text) = distgraph(&[args, &["--scale", "0.02"]].concat());
        assert_eq!(code, 2, "{args:?}: {text}");
        assert_eq!(text, format!("error: {rule}\n"), "{args:?}");
    }
}

#[test]
fn partition_counts_pds_cannot_build_exit_two() {
    let dir = std::env::temp_dir().join(format!("distgraph-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let graph = dir.join("triangle.txt");
    std::fs::write(&graph, "0 1\n1 2\n2 0\n").expect("write graph");
    let graph = graph.to_str().expect("utf-8 temp path");
    // 196611 is what 65537² + 65537 + 1 wraps to in 32 bits; 183 is
    // 13² + 13 + 1, whose difference-set search does not finish.
    for parts in ["196611", "183"] {
        let (code, text) = distgraph(&["partition", graph, "--strategy", "pds", "--parts", parts]);
        assert_eq!(code, 2, "--parts {parts}: {text}");
        assert_eq!(
            text,
            format!("error: PDS cannot run on {parts} partitions\n")
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
