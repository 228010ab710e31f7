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
//! reproduce --journal run.wal --checkpoint-every 4 --crash-at 6 --outcome o.json
//!                          # journaled run killed at heartbeat 6, then
//!                          # recovered from the journal; the recovered
//!                          # outcome must be byte-identical to an
//!                          # uninterrupted run
//! ```

use std::io::Write;
use std::time::Instant;

use tetris_expts::cli::{self, Cmd};
use tetris_expts::experiments::{self, registry};
use tetris_expts::{instrument, runner};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let default_jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let p = match cli::parse(&args, default_jobs) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    match p.cmd {
        Cmd::Help => cli::print_help(),
        Cmd::List => {
            cli::print_help();
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
            checkpoint_every,
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
                checkpoint_every,
                crash_at,
                outcome,
            };
            match instrument::instrumented_run(&ctx, &opts) {
                Ok(report) => println!("{report}"),
                Err(e) => {
                    eprintln!("instrumented run failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        Cmd::Run { ids } if ids.is_empty() => {
            cli::print_help();
            print_registry();
            println!("\nrun `reproduce all` for the full battery.");
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
                    std::process::exit(2);
                });
                (path, file)
            });

            let start = Instant::now();
            let runs =
                runner::run_experiments(selected, p.scale, p.scale_factor, p.seed, p.jobs, |r| {
                    println!("{}", "=".repeat(74));
                    println!("[{}] {}", r.id, r.what);
                    println!("{}", "=".repeat(74));
                    println!("{}", r.report);
                    println!("({} finished in {:.1}s)\n", r.id, r.seconds);
                });
            let wall = start.elapsed().as_secs_f64();

            if let Some((path, mut file)) = bench_out {
                let b = runner::bench_report(&runs, p.scale, p.seed, p.jobs, wall);
                println!(
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
                println!(
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
                    println!(
                        "note: workers were descheduled for {:.0}% of their runtime — the \
                         machine has fewer free cores than --jobs; expect no speedup from \
                         parallelism here",
                        100.0 * (1.0 - b.thread_cpu_seconds / b.cpu_seconds.max(1e-9))
                    );
                }
                let json = serde_json::to_string_pretty(&b).expect("bench serializes");
                if let Err(e) = writeln!(file, "{json}") {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
                println!("bench -> {path}");
            }
        }
        Cmd::Sweep { id, seeds } => {
            let exp = experiments::find(&id).expect("validated id");
            println!("{}", "=".repeat(74));
            println!(
                "[sweep {}] {} — seeds {}..{} ({} seeds, jobs={})",
                exp.id,
                exp.what,
                seeds.first().unwrap(),
                seeds.last().unwrap(),
                seeds.len(),
                p.jobs
            );
            println!("{}", "=".repeat(74));
            let start = Instant::now();
            let runs = runner::run_sweep(exp, p.scale, p.scale_factor, seeds, p.jobs, |r| {
                println!("  seed {:<4} finished in {:.1}s", r.seed, r.seconds);
            });
            println!(
                "\nper-seed headline metrics, aggregated over {} seeds:\n",
                runs.len()
            );
            println!("{}", runner::aggregate_sweep(&runs));
            println!(
                "(sweep {} finished in {:.1}s)",
                id,
                start.elapsed().as_secs_f64()
            );
        }
    }
}

fn print_registry() {
    println!("\nexperiments:");
    for e in &registry() {
        println!("  {:<8} {}", e.id, e.what);
    }
}
