//! Behaviour lock for the experiment harness: every registered experiment,
//! run in-process at a small scale, must render exactly the bytes pinned in
//! `tests/golden_experiments.txt` (one `<id> <fnv1a-64 of its tables>` line
//! per registry entry). A refactor that claims "same behaviour" proves it
//! here; a change that moves a number on purpose re-pins the lines it moved
//! and says so.

use gp_bench::experiments::registry;

const SCALE: f64 = 0.02;
const SEED: u64 = 42;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn every_experiment_renders_its_pinned_tables() {
    let golden = include_str!("golden_experiments.txt");
    // Experiments share nothing (each builds its own pipeline), so they run
    // side by side; the digests are collected in registry order.
    let actual: Vec<String> = std::thread::scope(|scope| {
        let running: Vec<_> = registry()
            .into_iter()
            .map(|exp| {
                scope.spawn(move || {
                    let text: String = (exp.run)(SCALE, SEED)
                        .iter()
                        .map(|table| table.to_string())
                        .collect();
                    format!("{} {:016x}", exp.id, fnv1a64(text.as_bytes()))
                })
            })
            .collect();
        running
            .into_iter()
            .map(|handle| handle.join().expect("experiment panicked"))
            .collect()
    });
    let pinned: Vec<&str> = golden.lines().collect();
    let listing = actual.join("\n");
    for (want, got) in pinned.iter().zip(&actual) {
        assert_eq!(
            want, got,
            "first experiment whose rendered tables moved (pinned vs now); \
             full listing now:\n{listing}"
        );
    }
    assert_eq!(
        pinned.len(),
        actual.len(),
        "registry and golden file disagree on the experiment count; \
         full listing now:\n{listing}"
    );
}
