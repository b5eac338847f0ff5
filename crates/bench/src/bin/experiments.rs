//! The experiment harness CLI.
//!
//! ```text
//! experiments list                 # show every table/figure id
//! experiments all [-s SCALE] [--seed SEED] [--csv DIR]
//! experiments fig5-3 table5-1 ...  # run specific experiments
//! ```
//!
//! Every experiment prints the same rows/series the paper reports.
//! `--scale` trades fidelity for speed (1.0 = default mini datasets,
//! 0.1 = smoke test); `--csv DIR` additionally writes each table as CSV.

use gp_bench::experiments::{find, registry};
use gp_gen::Dataset;
use std::io::Write;
use std::process::ExitCode;

struct Args {
    ids: Vec<String>,
    scale: f64,
    seed: u64,
    csv_dir: Option<String>,
    svg_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ids: Vec::new(),
        scale: 1.0,
        seed: 42,
        csv_dir: None,
        svg_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-s" | "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                let scale = v.parse().map_err(|_| format!("bad scale {v:?}"))?;
                args.scale = Dataset::check_scale(scale).map_err(|e| format!("scale {e}"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--csv" => {
                args.csv_dir = Some(it.next().ok_or("--csv needs a directory")?);
            }
            "--svg" => {
                args.svg_dir = Some(it.next().ok_or("--svg needs a directory")?);
            }
            "-h" | "--help" => {
                print_help();
                std::process::exit(0);
            }
            other => args.ids.push(other.to_string()),
        }
    }
    if args.ids.is_empty() {
        return Err("no experiment ids given (try `list` or `all`)".into());
    }
    Ok(args)
}

fn print_help() {
    println!(
        "experiments — regenerate the paper's tables and figures\n\n\
         USAGE: experiments <ids...|all|list> [-s SCALE] [--seed SEED] [--csv DIR] [--svg DIR]\n\n\
         IDS:"
    );
    for e in registry() {
        println!("  {:<10} {}", e.id, e.title);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            print_help();
            return ExitCode::FAILURE;
        }
    };

    if args.ids.iter().any(|i| i == "list") {
        print_help();
        return ExitCode::SUCCESS;
    }

    let ids: Vec<String> = if args.ids.iter().any(|i| i == "all") {
        registry().iter().map(|e| e.id.to_string()).collect()
    } else {
        args.ids.clone()
    };

    for dir in [&args.csv_dir, &args.svg_dir].into_iter().flatten() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }

    for id in &ids {
        let Some(exp) = find(id) else {
            eprintln!("error: unknown experiment {id:?} (see `experiments list`)");
            return ExitCode::FAILURE;
        };
        eprintln!(
            ">> {id}: {} (scale {}, seed {})",
            exp.title, args.scale, args.seed
        );
        let start = std::time::Instant::now();
        let tables = (exp.run)(args.scale, args.seed);
        for (i, table) in tables.iter().enumerate() {
            println!("{table}");
            if let Some(dir) = &args.csv_dir {
                let path = format!("{dir}/{id}-{i}.csv");
                match std::fs::File::create(&path) {
                    Ok(mut f) => {
                        if let Err(e) = table.write_csv(&mut f).and_then(|_| f.flush()) {
                            eprintln!("warning: failed writing {path}: {e}");
                        }
                    }
                    Err(e) => eprintln!("warning: cannot create {path}: {e}"),
                }
            }
            if let Some(dir) = &args.svg_dir {
                if let Some(chart) = gp_bench::charts::chart_for(table) {
                    let path = format!("{dir}/{id}-{i}.svg");
                    if let Err(e) = std::fs::write(&path, chart.to_svg()) {
                        eprintln!("warning: cannot write {path}: {e}");
                    }
                }
            }
        }
        eprintln!("<< {id} done in {:.1}s\n", start.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
