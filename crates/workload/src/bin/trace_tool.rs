//! `trace-tool` — generate, inspect and analyze workload traces, and read
//! the run artifacts the instrumented `reproduce` run emits.
//!
//! ```sh
//! trace-tool generate suite    --jobs 50  --scale 0.08 --seed 42 -o suite.json
//! trace-tool generate facebook --jobs 120 --scale 0.06 --seed 43 -o fb.json
//! trace-tool info    fb.json
//! trace-tool analyze fb.json       # Table-2 correlations + Fig-2 diversity
//! trace-tool explain run.jsonl --task 17   # why a task landed where it did
//! trace-tool explain run.jsonl --job 3     # every placement of one job
//! trace-tool report  ts.jsonl [--csv ts.csv]  # telemetry series summary
//! ```

use std::process::exit;

use tetris_obs::event::{Event, TraceRecord};
use tetris_obs::summary::Summary;
use tetris_obs::timeseries::{csv_row, SeriesSummary, CSV_HEADER};
use tetris_obs::TelemetrySample;
use tetris_workload::analysis::{CorrelationMatrix, DemandDiversity, Heatmap};
use tetris_workload::{trace, FacebookTraceConfig, Workload, WorkloadSuiteConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]),
        Some("info") => info(&args[1..]),
        Some("analyze") => analyze(&args[1..]),
        Some("explain") => explain(&args[1..]),
        Some("report") => report(&args[1..]),
        _ => {
            eprintln!(
                "usage:\n  trace-tool generate <suite|facebook> [--jobs N] [--scale F] \
                 [--seed N] -o FILE\n  trace-tool info FILE\n  trace-tool analyze FILE\n  \
                 trace-tool explain TRACE.jsonl (--task N | --job N)\n  \
                 trace-tool report TIMESERIES.jsonl [--csv FILE]"
            );
            exit(2);
        }
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The value of flag `name` parsed as `what`, if the flag is given. A
/// value that does not parse is a usage error (exit 2), not a panic.
fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str, what: &str) -> Option<T> {
    flag(args, name).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{name} expects {what}, got '{v}'");
            exit(2);
        })
    })
}

fn generate(args: &[String]) {
    let kind = args.first().cloned().unwrap_or_default();
    let jobs: usize = parsed_flag(args, "--jobs", "a job count").unwrap_or(50);
    let scale: f64 = parsed_flag(args, "--scale", "a number").unwrap_or(0.08);
    let seed: u64 = parsed_flag(args, "--seed", "an unsigned integer").unwrap_or(42);
    let out = flag(args, "-o").unwrap_or_else(|| {
        eprintln!("generate requires -o FILE");
        exit(2);
    });
    let (w, provenance) = match kind.as_str() {
        "suite" => (
            WorkloadSuiteConfig::scaled(jobs, scale).generate(seed),
            format!("suite jobs={jobs} scale={scale} seed={seed}"),
        ),
        "facebook" => (
            FacebookTraceConfig {
                n_jobs: jobs,
                scale,
                ..FacebookTraceConfig::default()
            }
            .generate(seed),
            format!("facebook jobs={jobs} scale={scale} seed={seed}"),
        ),
        other => {
            eprintln!("unknown generator '{other}' (suite|facebook)");
            exit(2);
        }
    };
    if let Err(e) = trace::save(&out, &w, &provenance) {
        eprintln!("cannot write {out}: {e}");
        exit(2);
    }
    let mut s = Summary::new(format!("wrote {out}"));
    s.row("jobs", w.jobs.len())
        .row("tasks", w.num_tasks())
        .row("provenance", provenance);
    print!("{s}");
}

fn load(args: &[String]) -> (String, Workload, String) {
    let path = args.first().cloned().unwrap_or_else(|| {
        eprintln!("missing FILE argument");
        exit(2);
    });
    match trace::load(&path) {
        Ok(tf) => (path, tf.workload, tf.provenance),
        Err(e) => {
            eprintln!("failed to load trace: {e}");
            exit(1);
        }
    }
}

fn info(args: &[String]) {
    let (path, w, provenance) = load(args);
    let stages: usize = w.jobs.iter().map(|j| j.stages.len()).sum();
    let recurring = w.jobs.iter().filter(|j| j.family.is_some()).count();
    let horizon = w.jobs.iter().map(|j| j.arrival).fold(0.0f64, f64::max);
    let mut s = Summary::new(format!("{path} ({provenance})"));
    s.row("jobs", w.jobs.len())
        .row("tasks", w.num_tasks())
        .row("stored blocks", w.num_blocks)
        .row("stages", stages)
        .row("recurring jobs", recurring)
        .row("arrival horizon", format!("{horizon:.0}s"));
    print!("{s}");
}

fn analyze(args: &[String]) {
    let (_, w, _) = load(args);
    println!("== demand correlation (Table 2) ==");
    let m = CorrelationMatrix::compute(&w);
    println!("{}", m.render());
    println!("== demand diversity (Figure 2) ==");
    println!("{}", DemandDiversity::compute(&w).render());
    println!("== cores vs memory heat-map ==");
    println!("{}", Heatmap::compute(&w, 1, 20).render());
}

/// Parse a decision-trace JSONL file into trace records. Exits 1 on
/// unreadable files or malformed lines (a truncated last line from a
/// killed run is reported with its line number).
fn load_trace(path: &str) -> Vec<TraceRecord> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            serde_json::from_str(line).unwrap_or_else(|e| {
                eprintln!("{path}:{}: bad trace line: {e}", i + 1);
                exit(1);
            })
        })
        .collect()
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("-".to_string(), |x| format!("{x:.4}"))
}

/// `explain TRACE.jsonl (--task N | --job N)` — reconstruct the placement
/// story of one task (or every task of one job) from the decision trace:
/// where it went, the score that won, and — when the trace was recorded
/// with `--trace-verbose` — the runner-up candidates it beat plus the
/// incremental-cache state behind the decision.
fn explain(args: &[String]) {
    let path = args.first().cloned().unwrap_or_else(|| {
        eprintln!("usage: trace-tool explain TRACE.jsonl (--task N | --job N)");
        exit(2);
    });
    let task_filter: Option<usize> = parsed_flag(args, "--task", "a task uid");
    let job_filter: Option<usize> = parsed_flag(args, "--job", "a job id");
    if task_filter.is_none() == job_filter.is_none() {
        eprintln!("explain needs exactly one of --task N or --job N");
        exit(2);
    }
    let matches_filter = |job: usize, task: usize| {
        task_filter.is_none_or(|t| t == task) && job_filter.is_none_or(|j| j == job)
    };

    let records = load_trace(&path);
    let mut shown = 0usize;
    for r in &records {
        match &r.event {
            Event::TaskPlaced {
                job,
                task,
                machine,
                alignment_score,
                srtf_score,
                combined_score,
                considered_machines,
                provenance,
                priority,
            } if matches_filter(*job, *task) => {
                shown += 1;
                let prio = priority.map_or(String::new(), |p| format!(" priority=p{p}"));
                println!(
                    "t={:.2} job={job} task={task} PLACED on machine {machine}{prio}",
                    r.t
                );
                println!(
                    "  scores: alignment={} srtf={} combined={} considered_machines={}",
                    fmt_opt(*alignment_score),
                    fmt_opt(*srtf_score),
                    fmt_opt(*combined_score),
                    considered_machines.map_or("-".to_string(), |c| c.to_string()),
                );
                match provenance {
                    Some(p) => {
                        println!(
                            "  incremental: cache_hits={} cache_rebuilds={} \
                             cache_flushed={} dirty_jobs={}",
                            p.cache_hits, p.cache_rebuilds, p.cache_flushed, p.dirty_jobs
                        );
                        println!(
                            "  candidates scored on this machine: {} ({} rejected shown)",
                            p.candidates,
                            p.rejected.len()
                        );
                        for (i, c) in p.rejected.iter().enumerate() {
                            println!(
                                "    rejected #{}: job={} task={} alignment={} srtf={} score={:.4}",
                                i + 1,
                                c.job,
                                c.task,
                                fmt_opt(c.alignment),
                                fmt_opt(c.srtf),
                                c.score
                            );
                        }
                    }
                    None => {
                        println!("  (no provenance in this trace — record it with --trace-verbose)")
                    }
                }
            }
            Event::TaskPreempted {
                job,
                task,
                machine,
                reason,
                priority,
                preempted_by,
            } if matches_filter(*job, *task) => {
                let prio = priority.map_or(String::new(), |p| format!(" priority=p{p}"));
                let by = preempted_by.map_or(String::new(), |t| format!(" preempted_by=task {t}"));
                println!(
                    "t={:.2} job={job} task={task} PREEMPTED from machine {machine} \
                     ({reason}){prio}{by}",
                    r.t
                );
            }
            Event::TaskCompleted {
                job,
                task,
                machine,
                attempts,
            } if matches_filter(*job, *task) => {
                println!(
                    "t={:.2} job={job} task={task} COMPLETED on machine {machine} \
                     (attempts={attempts})",
                    r.t
                );
            }
            Event::TaskAbandoned {
                job,
                task,
                attempts,
            } if matches_filter(*job, *task) => {
                println!(
                    "t={:.2} job={job} task={task} ABANDONED after {attempts} attempts",
                    r.t
                );
            }
            _ => {}
        }
    }
    if shown == 0 {
        let what = match (task_filter, job_filter) {
            (Some(t), _) => format!("task {t}"),
            (_, Some(j)) => format!("job {j}"),
            _ => unreachable!(),
        };
        eprintln!("no placements of {what} in {path}");
        exit(1);
    }
}

/// `report TS.jsonl [--csv FILE]` — summarize a telemetry time-series
/// stream: headline min/mean/max per column, a downsampled table of the
/// curves, and optionally the full series as CSV.
fn report(args: &[String]) {
    let path = args.first().cloned().unwrap_or_else(|| {
        eprintln!("usage: trace-tool report TIMESERIES.jsonl [--csv FILE]");
        exit(2);
    });
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let samples: Vec<TelemetrySample> = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            serde_json::from_str(line).unwrap_or_else(|e| {
                eprintln!("{path}:{}: bad telemetry line: {e}", i + 1);
                exit(1);
            })
        })
        .collect();
    if samples.is_empty() {
        eprintln!("{path}: empty time-series");
        exit(1);
    }

    println!("== telemetry summary ({path}) ==");
    print!("{}", SeriesSummary::compute(&samples).render());

    // Downsampled curve table: at most 20 evenly spaced rows, always
    // including the last sample, so a long run still fits a terminal.
    println!();
    println!(
        "{:>10} {:>9} {:>9} {:>6} {:>8} {:>8} {:>8} {:>8} {:>5}",
        "t", "max_alloc", "max_usage", "frag", "pack_eff", "pending", "running", "suspect", "down"
    );
    let step = samples.len().div_ceil(20).max(1);
    let rows = samples
        .iter()
        .step_by(step)
        .chain(if !(samples.len() - 1).is_multiple_of(step) {
            samples.last()
        } else {
            None
        });
    for s in rows {
        println!(
            "{:>10.2} {:>9.4} {:>9.4} {:>6.3} {:>8.4} {:>8} {:>8} {:>8} {:>5}",
            s.t,
            s.alloc.max(),
            s.usage.max(),
            s.fragmentation,
            s.packing_efficiency,
            s.pending_tasks,
            s.running_tasks,
            s.suspect_machines,
            s.down_machines
        );
    }

    if let Some(csv_path) = flag(args, "--csv") {
        let mut out = String::with_capacity(samples.len() * 96);
        out.push_str(CSV_HEADER);
        out.push('\n');
        for s in &samples {
            out.push_str(&csv_row(s));
            out.push('\n');
        }
        std::fs::write(&csv_path, out).unwrap_or_else(|e| {
            eprintln!("cannot write {csv_path}: {e}");
            exit(1);
        });
        println!("\ncsv -> {csv_path}");
    }
}
