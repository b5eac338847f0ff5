//! Behaviour lock for the `distgraph` binary: the stdout and exit code of a
//! fixed list of invocations must equal `tests/golden_cli.txt` byte for
//! byte. The list covers every scenario subcommand (`fault`, `elastic`,
//! `trace`, `run` on all three systems) and `help`, so a CLI refactor proves
//! "same bytes" with one test. On a mismatch the actual transcript is left
//! in the test's temp dir for a plain `diff` against the golden file.

use std::path::Path;
use std::process::Command;

/// Every invocation runs with the temp dir as its working directory, so the
/// relative paths below (and the ones echoed back on stdout) are stable.
const INVOCATIONS: &[&str] = &[
    "help",
    "generate LiveJournal --scale 0.02 --seed 7 -o golden-lj.txt",
    "partition golden-lj.txt --strategy hdrf --parts 9 --seed 7 -o golden-parts.txt",
    "partition golden-lj.txt --strategy pds --parts 9",
    "run golden-lj.txt --app pagerank --strategy hybrid --system powergraph",
    "run golden-lj.txt --app wcc --strategy grid --system powerlyra --threads 2",
    "run golden-lj.txt --app sssp --strategy random --parts 10 --system graphx",
    "run golden-lj.txt --app pagerank --strategy random --partition-file golden-parts.txt",
    "fault LiveJournal --scale 0.02 --seed 11 --cluster local-9 --crash-at 3 --machine 2 \
     --interval 2 --steps 8 --strategies random,hybrid --loss-rate 0.05 --async",
    "fault UK-web --scale 0.02",
    "fault road-net-CA --scale 0.02 --strategies grid,hdrf,oblivious --cluster local-10 \
     --interval 0 --crash-at 4 --steps 6 --threads 2",
    "elastic LiveJournal --scale 0.02 --seed 11 --strategies random,grid --scale-out 2:9",
    "elastic LiveJournal --scale 0.02 --seed 11 --preempt 5:2:4 --drain 7:1:0 --steps 12 \
     --policy always --interval 3",
    "elastic LiveJournal --scale 0.02 --tenants 3 --fair",
    "elastic Twitter --scale 0.02 --strategies hybrid --scale-out 3:4 --policy never \
     --tenants 2 --cluster ec2-16 --interval 0",
    "trace LiveJournal --scale 0.02 --strategy hdrf --app pagerank10 --cluster local-9 \
     --interval 2 -o golden-trace-pg",
    "trace road-net-CA --scale 0.02 --strategy grid --app kcore --system powerlyra \
     --cluster local-9 --crash-at 5 --machine 2 --interval 3 --loss-rate 0.02 \
     -o golden-trace-pl",
    "trace LiveJournal --scale 0.02 --strategy 2d --app wcc --system graphx \
     --cluster local-10 -o golden-trace-gx",
    "trace Enwiki-2013 --scale 0.02 --app coloring --system powerlyra -o golden-trace-async",
    // Serving at a size where some 2-hop queries stop at `KHOP_CAP`, so
    // adjacency order decides what they visit: HDRF with repairs off, then
    // 1D under a threshold that fires rebalances.
    "store build powerlaw --edges 40k --seed 7 -o golden-serve.gps",
    "serve golden-serve.gps --strategy hdrf --horizon 30 --seed 7 --rebalance-threshold 1000 \
     --rf-threshold 1000",
    "serve golden-serve.gps --strategy 1d --horizon 30 --seed 7 --rebalance-threshold 1.02",
];

/// Lines whose value is the host's, not the program's: the peak-RSS note
/// of `store build`.
const HOST_DEPENDENT: &str = "peak RSS: ";

fn transcript(work_dir: &Path) -> String {
    let mut text = String::new();
    for line in INVOCATIONS {
        let args: Vec<&str> = line.split_whitespace().collect();
        let output = Command::new(env!("CARGO_BIN_EXE_distgraph"))
            .args(&args)
            .current_dir(work_dir)
            .output()
            .expect("spawn distgraph");
        text.push_str(&format!("$ distgraph {}\n", args.join(" ")));
        for out in String::from_utf8_lossy(&output.stdout).split_inclusive('\n') {
            if out.starts_with(HOST_DEPENDENT) {
                text.push_str(HOST_DEPENDENT);
                text.push_str("(host)\n");
            } else {
                text.push_str(out);
            }
        }
        text.push_str(&format!("[exit {}]\n", output.status.code().unwrap_or(-1)));
    }
    text
}

#[test]
fn fixed_invocations_print_the_pinned_bytes() {
    let golden = include_str!("../../../tests/golden_cli.txt");
    let work_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-cli");
    std::fs::create_dir_all(&work_dir).expect("create work dir");
    let actual = transcript(&work_dir);
    if actual != golden {
        let dump = work_dir.join("golden_cli.actual.txt");
        std::fs::write(&dump, &actual).expect("write actual transcript");
        let line = golden
            .lines()
            .zip(actual.lines())
            .position(|(want, got)| want != got)
            .unwrap_or_else(|| golden.lines().count().min(actual.lines().count()));
        panic!(
            "distgraph output moved at line {} of tests/golden_cli.txt:\n  pinned: {:?}\n  \
             now:    {:?}\nfull transcript: {}",
            line + 1,
            golden.lines().nth(line).unwrap_or("<end of file>"),
            actual.lines().nth(line).unwrap_or("<end of file>"),
            dump.display()
        );
    }
}
