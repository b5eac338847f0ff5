//! The two kinds of run. The *untraced* run gives the end-to-end metrics:
//! set-up several times (median reported), one warm-up repetition, then timed
//! repetitions in a closed loop — one client, the next repetition starts when
//! the previous one has been checked — for `--seconds`. The *traced* run
//! gives the per-layer metrics: the workload with spans on and off in
//! alternation (the difference is what tracing costs), then the layer probes.

use crate::check::{ensure, Checks, Fnv, Pins};
use crate::host::{cpu_seconds, nproc, peak_rss_mib};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::probes::{battery, Values};
use crate::sizes::Sizes;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::workloads::{Env, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed repetitions whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Command-line options of one run.
pub struct Opts<'a> {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the timed part lasts.
    pub seconds: f64,
    /// Input sizes of the workload (`full` outside tests).
    pub sizes: &'a Sizes,
    /// Pinned expectations.
    pub pins: &'a Pins,
    /// Scratch directory for generated inputs.
    pub dir: &'a Path,
    /// Where the traced run writes its Chrome trace.
    pub trace_path: PathBuf,
}

/// What a run reports.
pub struct Outcome {
    /// Every metric of the run's kind, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Operation counts and failure messages over the whole run.
    pub checks: Checks,
    /// Human-readable report, printed above the result line.
    pub text: String,
}

impl Outcome {
    /// Whether every operation's check passed; the exit code follows it.
    pub fn passed(&self) -> bool {
        self.checks.failed == 0
    }
}

fn pins_for<'a>(opts: &Opts<'a>) -> Option<&'a Pins> {
    (opts.sizes.label == "full").then_some(opts.pins)
}

/// Count a repetition whose digest differs from the first one's as a failed
/// operation: the simulated outputs must not depend on when they are run.
fn same_digest(checks: &mut Checks, first: Fnv, now: Fnv) {
    checks.op("repetitions agree", |_| {
        ensure(first == now, || {
            format!(
                "digest {:#018x} differs from the first repetition's {:#018x}",
                now.0, first.0
            )
        })
    });
}

fn digest_line(opts: &Opts, workload: &str, digest: Fnv) -> String {
    let key = format!("digest.{workload}");
    opts.pins.record("digest.seed", opts.seed);
    opts.pins.record(&key, format!("{:#018x}", digest.0));
    let verdict = match (pins_for(opts), opts.pins.get("digest.seed")) {
        (Some(pins), Some(seed)) if seed == opts.seed.to_string() => match pins.get(&key) {
            Some(pinned) if pinned == format!("{:#018x}", digest.0) => {
                "identical to expected/pins.txt".to_string()
            }
            Some(pinned) => format!("DIFFERS from expected/pins.txt ({pinned})"),
            None => "not pinned".to_string(),
        },
        _ => "pinned for another seed or size".to_string(),
    };
    format!(
        "  simulated-output digest {:#018x}: {verdict} (printed, not gated)\n",
        digest.0
    )
}

fn failure_lines(checks: &Checks) -> String {
    let mut text = format!(
        "  failed_share   {} ({} of {} operations)\n",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    let mut distinct: Vec<(&String, usize)> = Vec::new();
    for failure in &checks.failures {
        match distinct.iter_mut().find(|(seen, _)| *seen == failure) {
            Some((_, times)) => *times += 1,
            None => distinct.push((failure, 1)),
        }
    }
    for (failure, times) in distinct {
        text.push_str(&format!("  FAILED x{times} {failure}\n"));
    }
    text
}

/// The untraced run: end-to-end metrics.
pub fn untraced<I>(opts: &Opts, w: &Workload<I>) -> Outcome {
    let tracer = Tracer::new(false);
    let env = Env {
        sizes: opts.sizes,
        seed: opts.seed,
        dir: opts.dir,
        pins: pins_for(opts),
        tracer: &tracer,
    };
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        // Drop the previous inputs first: two copies would inflate peak RSS.
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some((w.setup)(&env));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("SETUPS > 0");

    let warm_up = (w.rep)(&env, &inputs);
    let digest = warm_up.checks.digest;
    let work = warm_up.work;
    let mut checks = Checks::default();
    checks.absorb(warm_up.checks);

    let (mut wall_s, mut cpu_s) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while wall_s.len() < MIN_REPS || started.elapsed().as_secs_f64() < opts.seconds {
        let (c0, t0) = (cpu_seconds(), Instant::now());
        let rep = (w.rep)(&env, &inputs);
        wall_s.push(t0.elapsed().as_secs_f64());
        cpu_s.push(cpu_seconds() - c0);
        same_digest(&mut checks, digest, rep.checks.digest);
        checks.absorb(rep.checks);
    }

    let (wall, cpu, setup) = (
        Summary::of(&wall_s),
        Summary::of(&cpu_s),
        Summary::of(&setup_s),
    );
    let values = [
        wall.median,
        cpu.median,
        work as f64 / wall.median,
        peak_rss_mib(),
        setup.median,
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();

    let mut text = header(opts, w);
    for (m, spread) in metrics
        .iter()
        .zip([Some(wall), Some(cpu), None, None, Some(setup)])
    {
        text.push_str(&format!("  {:14} {} {}", m.name, m.value, m.unit));
        if let Some(s) = spread {
            text.push_str(&format!(
                "  (median; min {} max {} n {})",
                s.min, s.max, s.n
            ));
        }
        text.push('\n');
    }
    text.push_str(&format!("  work per repetition: {work} {}\n", w.unit));
    text.push_str(&failure_lines(&checks));
    text.push_str(&digest_line(opts, w.name, digest));
    Outcome {
        metrics,
        checks,
        text,
    }
}

fn header<I>(opts: &Opts, w: &Workload<I>) -> String {
    format!(
        "workload {}  seed {}  sizes {}  threads {}  host.nproc {}\n",
        w.name,
        opts.seed,
        opts.sizes.label,
        w.threads,
        nproc()
    )
}

/// The traced run: per-layer metrics and the Chrome trace.
pub fn traced<I>(opts: &Opts, w: &Workload<I>) -> Outcome {
    let tracer = Tracer::new(true);
    let env = Env {
        sizes: opts.sizes,
        seed: opts.seed,
        dir: opts.dir,
        pins: pins_for(opts),
        tracer: &tracer,
    };
    tracer.set_context("setup", 0);
    let inputs = tracer.span("harness.setup", || (w.setup)(&env));
    tracer.set_enabled(false);
    let warm_up = (w.rep)(&env, &inputs);
    let digest = warm_up.checks.digest;
    let mut checks = Checks::default();
    checks.absorb(warm_up.checks);

    // Phase A: the workload, spans on and off in alternation.
    let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
    let mut shares: Vec<BTreeMap<&str, f64>> = Vec::new();
    let started = Instant::now();
    while off_s.len() < 2 || started.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        let on = on_s.len() == off_s.len();
        tracer.set_enabled(on);
        tracer.set_context("rep", (on_s.len() + off_s.len()) as u32);
        let from = tracer.mark();
        let t0 = Instant::now();
        let rep = tracer.span("harness.rep", || (w.rep)(&env, &inputs));
        let wall = t0.elapsed().as_secs_f64();
        if on {
            on_s.push(wall);
            let total = tracer.seconds_in(from..tracer.mark(), "harness.rep");
            let mut rep_shares = tracer.layer_self_seconds_in(from..tracer.mark());
            rep_shares
                .values_mut()
                .for_each(|seconds| *seconds /= total);
            shares.push(rep_shares);
        } else {
            off_s.push(wall);
        }
        same_digest(&mut checks, digest, rep.checks.digest);
        checks.absorb(rep.checks);
    }
    tracer.set_enabled(true);
    drop(inputs);

    // Phase B: the layer probes, the same battery whatever the workload.
    let probe_sizes = if opts.sizes.label == "full" {
        Sizes::probe()
    } else {
        opts.sizes.clone()
    };
    let probe_env = Env {
        sizes: &probe_sizes,
        pins: None,
        ..env
    };
    let mut iterations: Vec<Values> = Vec::new();
    while iterations.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        tracer.set_context("probe", iterations.len() as u32);
        iterations.push(tracer.span("harness.probes", || battery(&probe_env, &mut checks)));
    }

    let overhead = (median(&on_s) - median(&off_s)) / median(&off_s);
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "bench.trace_overhead_share" {
                overhead
            } else if let Some(layer) = name.strip_prefix("share.") {
                // A layer without a span in this workload has no self time.
                median(
                    &shares
                        .iter()
                        .map(|s| s.get(layer).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                )
            } else {
                let samples: Vec<f64> = iterations
                    .iter()
                    .map(|v| {
                        *v.get(name)
                            .unwrap_or_else(|| panic!("probes did not measure {name}"))
                    })
                    .collect();
                median(&samples)
            };
            Metric { name, value, unit }
        })
        .collect();

    std::fs::write(&opts.trace_path, tracer.chrome_trace_json(w.name))
        .expect("trace file inside the checkout");

    let mut text = header(opts, w);
    text.push_str(&format!(
        "  traced repetitions {} / untraced {} / probe iterations {} (sizes {}) / spans {}\n",
        on_s.len(),
        off_s.len(),
        iterations.len(),
        probe_sizes.label,
        tracer.len()
    ));
    for m in &metrics {
        text.push_str(&format!("  {:36} {} {}\n", m.name, m.value, m.unit));
    }
    text.push_str(&failure_lines(&checks));
    text.push_str(&digest_line(opts, w.name, digest));
    text.push_str(&format!(
        "  trace written to {}\n",
        opts.trace_path.display()
    ));
    Outcome {
        metrics,
        checks,
        text,
    }
}
