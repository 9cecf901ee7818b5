//! `oml-runtime-bench`: the runtime benchmark of ISSUE 11. See
//! `bench/README.md` for what it measures and why it is built this way.
//!
//! One binary plays three roles: the harness (checks the guards, starts a
//! process per workload run, reports), a workload process (`--child`), and
//! a worker of the multi-process runtime (when the coordinator's
//! environment variables are present).

mod alloc;
mod blob;
mod budget;
mod child;
mod cputime;
mod driver;
mod guard;
mod hist;
mod layers;
mod procfs;
mod report;
mod seq;
mod top;
mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: oml-runtime-bench [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]]
                         [--repeat N] [--smoke]

  --workload NAME  run one of mesh_invoke, mesh_move, sock_invoke, sock_migrate_wal and
                   print one JSON result line last; without it, run all four --repeat
                   times, then traced, compare the repeats against the metrics' bounds
                   and write bench/out/{result.json,trace.json,budget.md}
  --seed N         workload seed, decimal or 0x-hex (default 0x0b9ec7ed)
  --seconds N      measured seconds per run (default 20)
  --trace [0|1]    with --workload: 1 runs the traced variant and reports the
                   per-layer metrics instead of the end-to-end ones
  --repeat N       end-to-end repeats of the whole set (default 2)
  --smoke          2-second runs and no gating: does it still run?";

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

struct Parsed {
    top: top::Args,
    child: Option<String>,
    setup_only: bool,
}

fn parse(args: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        top: top::Args {
            workload: None,
            seed: seq::DEFAULT_SEED,
            seconds: 20,
            trace: false,
            repeat: 2,
            smoke: false,
        },
        child: None,
        setup_only: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => parsed.top.workload = Some(value("a workload name")?.clone()),
            "--child" => parsed.child = Some(value("a workload name")?.clone()),
            "--seed" => {
                parsed.top.seed = parse_u64(value("a number")?).ok_or("--seed needs a number")?;
            }
            "--seconds" => {
                parsed.top.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|n| (1..=600).contains(n))
                    .ok_or("--seconds needs a whole number from 1 to 600")?;
            }
            "--repeat" => {
                parsed.top.repeat = value("a number")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--repeat needs a whole number of at least 1")?;
            }
            "--trace" => {
                // the driver passes a value, a person need not
                parsed.top.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.top.smoke = true,
            "--setup-only" => parsed.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.top.smoke {
        parsed.top.seconds = 2;
    }
    Ok(parsed)
}

fn main() {
    if let Some(worker) = oml_runtime::WorkerOptions::from_env() {
        workloads::sock::worker_main(&worker);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("oml-runtime-bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(workload) = parsed.child {
        let started_unix_ns = std::env::var("OML_BENCH_T0")
            .ok()
            .and_then(|t| t.parse().ok())
            .unwrap_or(0);
        child::main(&child::ChildArgs {
            workload,
            seed: parsed.top.seed,
            seconds: parsed.top.seconds,
            trace: parsed.top.trace,
            setup_only: parsed.setup_only,
            started_unix_ns,
        });
    }
    std::process::exit(top::run(&parsed.top));
}
