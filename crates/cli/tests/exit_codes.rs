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
