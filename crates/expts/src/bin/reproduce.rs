//! `reproduce` — regenerate the paper's tables and figures.
//!
//! ```sh
//! reproduce all            # every experiment, laptop scale
//! reproduce all --jobs 4   # same output, on 4 worker threads
//! reproduce fig4 table7    # selected experiments
//! reproduce --full fig7    # paper-scale cluster & workload (slow)
//! reproduce sweep fig4 --seeds 1..8
//!                          # one experiment across seeds; median/p10/p90
//! reproduce all --jobs 4 --bench bench.json
//!                          # machine-readable timing + heartbeat record
//! reproduce --list         # what exists
//! reproduce --trace run.jsonl --metrics run.json
//!                          # instrumented reference run: JSONL decision
//!                          # trace + metrics snapshot + summary table
//! reproduce --trace run.jsonl --trace-verbose --timeseries ts.jsonl
//!                          # + decision provenance on TaskPlaced events
//!                          # and a per-heartbeat telemetry stream
//! reproduce --journal run.wal --crash-at 6 --outcome o.json
//!                          # journaled run killed at heartbeat 6, then
//!                          # recovered by replaying the journal; the
//!                          # recovered outcome must be byte-identical to
//!                          # an uninterrupted run
//! ```

use std::io::{ErrorKind, Write};
use std::process::exit;
use std::time::Instant;

use tetris_expts::cli::{self, Cmd};
use tetris_expts::experiments::{self, registry};
use tetris_expts::{instrument, runner};

/// Every line the binary prints goes through here, from whichever thread
/// finished the experiment. A reader that closed early (`reproduce all |
/// head`) ends the run cleanly with exit 0: nobody reads the rest. Any
/// other write error is exit 1.
fn emit(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        exit(1);
    }
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let default_jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let p = match cli::parse(&args, default_jobs) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            exit(2);
        }
    };

    match p.cmd {
        Cmd::Help => outln!("{}", cli::HELP),
        Cmd::List => {
            outln!("{}", cli::HELP);
            print_registry();
        }
        Cmd::Instrument {
            trace,
            metrics,
            verbose,
            timeseries,
            crash_frac,
            shards,
            journal,
            crash_at,
            outcome,
        } => {
            let ctx = tetris_expts::RunCtx::new(p.scale, p.seed).scaled(p.scale_factor);
            let opts = instrument::InstrumentOpts {
                trace,
                metrics,
                verbose,
                timeseries,
                crash_frac,
                shards,
                journal,
                crash_at,
                outcome,
            };
            match instrument::instrumented_run(&ctx, &opts) {
                Ok(report) => outln!("{report}"),
                Err(e) => {
                    eprintln!("instrumented run failed: {e}");
                    exit(1);
                }
            }
        }
        Cmd::Run { ids } if ids.is_empty() => {
            outln!("{}", cli::HELP);
            print_registry();
            outln!("\nrun `reproduce all` for the full battery.");
        }
        Cmd::Run { ids } => {
            let selected: Vec<_> = if ids.iter().any(|i| i == "all") {
                registry()
            } else {
                // Ids were validated by the parser; keep first-mention order.
                ids.iter()
                    .map(|id| experiments::find(id).expect("validated id"))
                    .collect()
            };

            // Open the record before the first experiment: an unwritable
            // path must not cost a full suite run to discover.
            let bench_out = p.bench.as_deref().map(|path| {
                let file = std::fs::File::create(path).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    exit(2);
                });
                (path, file)
            });

            let start = Instant::now();
            let runs =
                runner::run_experiments(selected, p.scale, p.scale_factor, p.seed, p.jobs, |r| {
                    outln!("{}", "=".repeat(74));
                    outln!("[{}] {}", r.id, r.what);
                    outln!("{}", "=".repeat(74));
                    outln!("{}", r.report);
                    outln!("({} finished in {:.1}s)\n", r.id, r.seconds);
                });
            let wall = start.elapsed().as_secs_f64();

            if let Some((path, mut file)) = bench_out {
                let b = runner::bench_report(&runs, p.scale, p.seed, p.jobs, wall);
                outln!(
                    "suite: {} experiments in {:.1}s wall ({:.1}s cpu, jobs={}, \
                     estimated speedup {:.2}x)",
                    b.experiments.len(),
                    b.wall_seconds,
                    b.cpu_seconds,
                    b.jobs,
                    b.speedup_estimate
                );
                let longest = b
                    .experiments
                    .iter()
                    .max_by(|a, c| a.seconds.partial_cmp(&c.seconds).unwrap())
                    .map(|e| (e.id.as_str(), e.seconds))
                    .unwrap_or(("-", 0.0));
                outln!(
                    "parallelism: Amdahl bound {:.2}x (longest experiment '{}' at {:.1}s), \
                     worker utilization {:.0}%, thread cpu {:.1}s of {:.1}s wall-sum",
                    b.amdahl_bound,
                    longest.0,
                    longest.1,
                    b.worker_utilization * 100.0,
                    b.thread_cpu_seconds,
                    b.cpu_seconds
                );
                if b.jobs > 1 && b.thread_cpu_seconds < 0.6 * b.cpu_seconds {
                    outln!(
                        "note: workers were descheduled for {:.0}% of their runtime — the \
                         machine has fewer free cores than --jobs; expect no speedup from \
                         parallelism here",
                        100.0 * (1.0 - b.thread_cpu_seconds / b.cpu_seconds.max(1e-9))
                    );
                }
                let json = serde_json::to_string_pretty(&b).expect("bench serializes");
                if let Err(e) = writeln!(file, "{json}") {
                    eprintln!("cannot write {path}: {e}");
                    exit(1);
                }
                outln!("bench -> {path}");
            }
        }
        Cmd::Sweep { id, seeds } => {
            let exp = experiments::find(&id).expect("validated id");
            outln!("{}", "=".repeat(74));
            outln!(
                "[sweep {}] {} — seeds {}..{} ({} seeds, jobs={})",
                exp.id,
                exp.what,
                seeds.first().unwrap(),
                seeds.last().unwrap(),
                seeds.len(),
                p.jobs
            );
            outln!("{}", "=".repeat(74));
            let start = Instant::now();
            let runs = runner::run_sweep(exp, p.scale, p.scale_factor, seeds, p.jobs, |r| {
                outln!("  seed {:<4} finished in {:.1}s", r.seed, r.seconds);
            });
            outln!(
                "\nper-seed headline metrics, aggregated over {} seeds:\n",
                runs.len()
            );
            outln!("{}", runner::aggregate_sweep(&runs));
            outln!(
                "(sweep {} finished in {:.1}s)",
                id,
                start.elapsed().as_secs_f64()
            );
        }
    }
}

fn print_registry() {
    outln!("\nexperiments:");
    for e in &registry() {
        outln!("  {:<8} {}", e.id, e.what);
    }
}
