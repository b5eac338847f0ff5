//! The repo benchmark: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! One process runs one workload (so `peak_rss_mib` is per workload);
//! `--workload all` starts one child process per workload in turn. The
//! report goes to stdout, the last line being the result object the driver
//! reads; the exit code is non-zero when any operation's check failed.

mod check;
mod host;
mod metrics;
mod probes;
mod run;
#[cfg(test)]
mod selftest;
mod sizes;
mod stats;
mod trace;
mod workloads;

use check::Pins;
use run::{traced, untraced, Opts, Outcome};
use sizes::Sizes;
use std::path::Path;
use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "usage: benchmark --workload <paper-suite|ingress-stream|engine-supersteps|\
serve-churn|mt-scaling|all> [--seed 42] [--seconds 10] [--trace 0|1] [--repin 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repin: bool,
}

fn on_off(value: &str) -> Result<bool, &'static str> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err("expected 0 or 1"),
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        repin: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => parsed.trace = on_off(value).map_err(|e| bad(&e))?,
            "--repin" => parsed.repin = on_off(value).map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err(format!("--seconds {} must be positive", parsed.seconds));
    }
    if parsed.workload != "all" && !workloads::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload `{}`", parsed.workload));
    }
    Ok(parsed)
}

fn run_kind<I>(opts: &Opts, trace: bool, workload: Workload<I>) -> Outcome {
    if trace {
        traced(opts, &workload)
    } else {
        untraced(opts, &workload)
    }
}

/// Run one workload in this process; returns whether every check passed.
fn run_one(args: &Args) -> bool {
    let pins = if args.repin {
        Pins::recording()
    } else {
        Pins::parse(include_str!("../expected/pins.txt")).expect("expected/pins.txt parses")
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    // Generated inputs live in a directory of this process's own, removed
    // at the end; the trace is written beside it and stays.
    let inputs_dir = out.join(format!("inputs-{}", std::process::id()));
    std::fs::create_dir_all(&inputs_dir).expect("benchmark/out/ is writable");
    let sizes = Sizes::full();
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        sizes: &sizes,
        pins: &pins,
        dir: &inputs_dir,
        trace_path: out.join(format!("trace-{}.json", args.workload)),
    };
    let outcome = match args.workload.as_str() {
        "paper-suite" => run_kind(&opts, args.trace, workloads::paper_suite()),
        "ingress-stream" => run_kind(&opts, args.trace, workloads::ingress_stream()),
        "engine-supersteps" => run_kind(&opts, args.trace, workloads::engine_supersteps()),
        "serve-churn" => run_kind(&opts, args.trace, workloads::serve_churn()),
        _ => run_kind(&opts, args.trace, workloads::mt_scaling()),
    };
    std::fs::remove_dir_all(&inputs_dir).expect("remove the generated inputs");
    print!("{}", outcome.text);
    if args.repin {
        print!(
            "pins recorded for expected/pins.txt:\n{}",
            pins.recorded_lines()
        );
    }
    println!(
        "{}",
        metrics::result_json(
            outcome.checks.attempted,
            outcome.checks.failed,
            &outcome.metrics
        )
    );
    outcome.passed()
}

/// `--workload all`: one child process per workload, so each reports its own
/// peak RSS. Every child is waited for before the next one starts.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut ok = true;
    for workload in workloads::NAMES {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--repin", if args.repin { "1" } else { "0" }])
            .status()
            .expect("start a child benchmark process");
        ok &= status.success();
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
