//! Behaviour lock for the experiment harness: every registered experiment,
//! run in-process at a small scale, must render exactly the tables pinned in
//! `tests/golden_experiments.txt` — each experiment's rendered tables under an
//! `== <id> ==` line, in registry order. A refactor that claims "same
//! behaviour" proves it here; a change that moves a number on purpose re-pins
//! the rows it moved, and `git diff` shows each moved cell in its row. On a
//! mismatch the actual listing is left under `target/tmp/` for a plain
//! `diff`.

use gp_bench::experiments::registry;
use std::path::Path;

const SCALE: f64 = 0.02;
const SEED: u64 = 42;

#[test]
fn every_experiment_renders_its_pinned_tables() {
    let golden = include_str!("golden_experiments.txt");
    // Experiments share nothing (each builds its own pipeline), so they run
    // side by side; their sections are joined in registry order.
    let actual: String = std::thread::scope(|scope| {
        let running: Vec<_> = registry()
            .into_iter()
            .map(|exp| {
                scope.spawn(move || {
                    let tables: String = (exp.run)(SCALE, SEED)
                        .iter()
                        .map(|table| table.to_string())
                        .collect();
                    format!("== {} ==\n{tables}", exp.id)
                })
            })
            .collect();
        running
            .into_iter()
            .map(|handle| handle.join().expect("experiment panicked"))
            .collect()
    });
    if actual == golden {
        return;
    }
    let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_experiments.actual.txt");
    std::fs::write(&dump, &actual).expect("write actual tables");
    // Table titles are framed the same way; only a registered id opens an
    // experiment's section.
    let ids: Vec<&str> = registry().iter().map(|exp| exp.id).collect();
    let mut experiment = "";
    for (n, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        if let Some(id) = want.strip_prefix("== ").and_then(|l| l.strip_suffix(" ==")) {
            if ids.contains(&id) {
                experiment = id;
            }
        }
        assert_eq!(
            want,
            got,
            "line {} of tests/golden_experiments.txt (in `{experiment}`) moved \
             (pinned vs now); full listing: {}",
            n + 1,
            dump.display()
        );
    }
    panic!(
        "the tables run to {} lines, tests/golden_experiments.txt to {}; full listing: {}",
        actual.lines().count(),
        golden.lines().count(),
        dump.display()
    );
}
