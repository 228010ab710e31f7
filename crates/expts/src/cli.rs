//! Argument parsing for the `reproduce` binary.
//!
//! Strict by design: unrecognized `--flags` are rejected up front with a
//! pointer at `--help` (the old parser swallowed them as experiment ids
//! and failed with a misleading "unknown experiment '--trcae'"), and
//! every flag value is validated where it is parsed. The parser is a pure
//! function of the argument vector so the whole grammar is unit-testable
//! without spawning the binary.

use crate::experiments;
use crate::setup::{Scale, DEFAULT_SEED};

/// What the binary should do, as parsed from the command line.
#[derive(Debug, PartialEq)]
pub enum Cmd {
    /// `--help` / `-h`.
    Help,
    /// `--list`.
    List,
    /// Run the named experiments (empty = print help + the registry).
    Run {
        /// Experiment ids, already validated against the registry
        /// ("all" expands later).
        ids: Vec<String>,
    },
    /// `sweep <id> --seeds A..B`: one experiment across seeds.
    Sweep {
        /// The experiment id, validated.
        id: String,
        /// The seeds to fan out over (inclusive range, ascending).
        seeds: Vec<u64>,
    },
    /// `--trace` / `--metrics` / `--timeseries`: the instrumented
    /// reference run.
    Instrument {
        /// JSONL decision-trace path.
        trace: Option<String>,
        /// Metrics-snapshot path.
        metrics: Option<String>,
        /// `--trace-verbose`: attach decision provenance (runner-up
        /// candidates, incremental-cache state) to every `TaskPlaced`
        /// trace event. Requires `--trace`.
        verbose: bool,
        /// `--timeseries FILE.jsonl`: stream one telemetry sample per
        /// heartbeat (utilization, fragmentation, packing efficiency,
        /// backlog, suspect machines).
        timeseries: Option<String>,
        /// `--crash-frac F`: fraction of machines undergoing
        /// crash/recover cycles (churn-style fault injection), so the
        /// telemetry curves can be read against cluster churn.
        crash_frac: f64,
        /// `--shards N`: run the reference configuration under the
        /// Omega-style sharded multi-scheduler (`N` optimistic scheduler
        /// instances over shared state, DESIGN.md §14). 1 = the plain
        /// single-scheduler path.
        shards: usize,
        /// `--journal FILE`: append a write-ahead decision journal
        /// (checkpoints + committed batches, DESIGN.md §15) and save it
        /// here.
        journal: Option<String>,
        /// `--checkpoint-every K`: snapshot cadence of the journal, in
        /// scheduling heartbeats (requires `--journal`).
        checkpoint_every: Option<u64>,
        /// `--crash-at N`: kill the scheduler at heartbeat `N`, then
        /// recover it from the journal and continue to completion
        /// (requires `--journal`).
        crash_at: Option<u64>,
        /// `--outcome FILE`: write the run's final `SimOutcome` as JSON —
        /// the byte-identity artifact crash-recovery smokes `cmp` against.
        outcome: Option<String>,
    },
}

/// A fully parsed command line.
#[derive(Debug, PartialEq)]
pub struct Parsed {
    /// Cluster/workload scale.
    pub scale: Scale,
    /// Workload-size multiplier (`--scale F`, validated positive; 1.0 =
    /// the experiment's own default sizing). Used by CI smokes to shrink
    /// self-sizing experiments like `churn`.
    pub scale_factor: f64,
    /// Master seed.
    pub seed: u64,
    /// Worker-thread count (validated ≥ 1).
    pub jobs: usize,
    /// `--bench FILE`: write the benchmark JSON here.
    pub bench: Option<String>,
    /// The subcommand.
    pub cmd: Cmd,
}

/// Seeds swept when `sweep` is given without `--seeds` (1..8 inclusive).
const DEFAULT_SWEEP: (u64, u64) = (1, 8);

/// Parse the argument vector (without argv[0]). `default_jobs` is the
/// machine's available parallelism, injected so tests are deterministic.
pub fn parse(args: &[String], default_jobs: usize) -> Result<Parsed, String> {
    let mut scale = Scale::Laptop;
    let mut scale_factor = 1.0f64;
    let mut seed = DEFAULT_SEED;
    let mut jobs = default_jobs.max(1);
    let mut bench = None;
    let mut trace = None;
    let mut metrics = None;
    let mut verbose = false;
    let mut timeseries = None;
    let mut crash_frac = 0.0f64;
    let mut crash_frac_given = false;
    let mut shards = 1usize;
    let mut shards_given = false;
    let mut journal = None;
    let mut checkpoint_every = None;
    let mut crash_at = None;
    let mut outcome = None;
    let mut seeds_range = None;
    let mut list = false;
    let mut help = false;
    let mut positional: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        match a.as_str() {
            "--full" => scale = Scale::Full,
            "--laptop" => scale = Scale::Laptop,
            "--list" => list = true,
            "-h" | "--help" => help = true,
            "--seed" => {
                seed = value("--seed")?
                    .parse::<u64>()
                    .map_err(|_| "--seed expects an integer".to_string())?;
            }
            "--scale" => {
                let v = value("--scale")?;
                scale_factor = v
                    .parse::<f64>()
                    .ok()
                    .filter(|f| f.is_finite() && *f > 0.0)
                    .ok_or(format!("--scale expects a positive number (got '{v}')"))?;
            }
            "--jobs" | "-j" => {
                let v = value("--jobs")?;
                jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--jobs expects an integer >= 1 (got '{v}')"))?;
            }
            "--seeds" => {
                let v = value("--seeds")?;
                seeds_range = Some(parse_seed_range(&v)?);
            }
            "--trace" => trace = Some(value("--trace")?),
            "--trace-verbose" => verbose = true,
            "--metrics" => metrics = Some(value("--metrics")?),
            "--timeseries" => timeseries = Some(value("--timeseries")?),
            "--crash-frac" => {
                let v = value("--crash-frac")?;
                crash_frac = v
                    .parse::<f64>()
                    .ok()
                    .filter(|f| (0.0..=1.0).contains(f))
                    .ok_or(format!(
                        "--crash-frac expects a fraction in [0,1] (got '{v}')"
                    ))?;
                crash_frac_given = true;
            }
            "--shards" => {
                let v = value("--shards")?;
                shards = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--shards expects an integer >= 1 (got '{v}')"))?;
                shards_given = true;
            }
            "--journal" => journal = Some(value("--journal")?),
            "--checkpoint-every" => {
                let v = value("--checkpoint-every")?;
                checkpoint_every = Some(v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or(
                    format!("--checkpoint-every expects an integer >= 1 (got '{v}')"),
                )?);
            }
            "--crash-at" => {
                let v = value("--crash-at")?;
                crash_at = Some(
                    v.parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or(format!("--crash-at expects an integer >= 1 (got '{v}')"))?,
                );
            }
            "--outcome" => outcome = Some(value("--outcome")?),
            "--bench" => bench = Some(value("--bench")?),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}' (try --help)"));
            }
            other => positional.push(other.to_string()),
        }
    }

    let cmd = if help {
        Cmd::Help
    } else if list {
        Cmd::List
    } else if trace.is_some()
        || metrics.is_some()
        || timeseries.is_some()
        || journal.is_some()
        || outcome.is_some()
    {
        if !positional.is_empty() {
            return Err(format!(
                "--trace/--metrics/--timeseries/--journal/--outcome run the instrumented \
                 reference run and cannot be combined with experiment ids (got: {})",
                positional.join(" ")
            ));
        }
        if verbose && trace.is_none() {
            return Err("--trace-verbose requires --trace FILE.jsonl".to_string());
        }
        if checkpoint_every.is_some() && journal.is_none() {
            return Err("--checkpoint-every requires --journal FILE".to_string());
        }
        if crash_at.is_some() && journal.is_none() {
            return Err(
                "--crash-at requires --journal FILE (recovery needs the journal)".to_string(),
            );
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
        }
    } else if positional.first().map(String::as_str) == Some("sweep") {
        let id = match positional.len() {
            2 => positional.pop().unwrap(),
            _ => return Err("usage: reproduce sweep <experiment> [--seeds A..B]".to_string()),
        };
        if id != "all" && experiments::find(&id).is_none() {
            return Err(format!("unknown experiment '{id}' (try --list)"));
        }
        if id == "all" {
            return Err("sweep takes a single experiment id, not 'all'".to_string());
        }
        let (lo, hi) = seeds_range.unwrap_or(DEFAULT_SWEEP);
        Cmd::Sweep {
            id,
            seeds: (lo..=hi).collect(),
        }
    } else {
        for id in &positional {
            if id != "all" && experiments::find(id).is_none() {
                return Err(format!("unknown experiment '{id}' (try --list)"));
            }
        }
        Cmd::Run { ids: positional }
    };

    if seeds_range.is_some() && !matches!(cmd, Cmd::Sweep { .. }) {
        return Err("--seeds only applies to `reproduce sweep <id>`".to_string());
    }
    if bench.is_some() && !matches!(cmd, Cmd::Run { .. }) {
        return Err("--bench only applies to experiment runs".to_string());
    }
    if (verbose
        || crash_frac_given
        || shards_given
        || checkpoint_every.is_some()
        || crash_at.is_some())
        && !matches!(cmd, Cmd::Instrument { .. })
    {
        return Err(
            "--trace-verbose/--crash-frac/--shards/--checkpoint-every/--crash-at only \
             apply to the instrumented run (--trace/--metrics/--timeseries/--journal)"
                .to_string(),
        );
    }

    Ok(Parsed {
        scale,
        scale_factor,
        seed,
        jobs,
        bench,
        cmd,
    })
}

/// Parse `A..B` (inclusive, ascending) into a seed range.
fn parse_seed_range(v: &str) -> Result<(u64, u64), String> {
    let err = || format!("--seeds expects an inclusive range like 1..8 (got '{v}')");
    let (lo, hi) = v.split_once("..").ok_or_else(err)?;
    let lo = lo.parse::<u64>().map_err(|_| err())?;
    let hi = hi.parse::<u64>().map_err(|_| err())?;
    if lo > hi {
        return Err(err());
    }
    Ok((lo, hi))
}

/// The `--help` text.
pub fn print_help() {
    println!(
        "reproduce — regenerate the Tetris paper's tables and figures\n\n\
         usage: reproduce [options] <experiment>... | all\n\
         \x20      reproduce sweep <experiment> [--seeds A..B]\n\
         \x20      reproduce [--trace FILE.jsonl [--trace-verbose]] [--metrics FILE.json]\n\
         \x20                [--timeseries FILE.jsonl] [--crash-frac F] [--shards N]\n\
         \x20                [--journal FILE [--checkpoint-every K] [--crash-at N]]\n\
         \x20                [--outcome FILE.json]\n\n\
         --laptop  20-machine cluster, scaled workloads (default; seconds\n\
                   per experiment)\n\
         --full    250-machine cluster, paper-scale workloads (roughly ten\n\
                   minutes per simulation run — pick experiments singly)\n\
         --seed N  master seed (default 42; workloads derive from it)\n\
         --scale F workload-size multiplier for self-sizing experiments\n\
                   like churn (default 1.0; CI smokes use e.g. 0.05)\n\
         --jobs N  worker threads for running experiments/seeds in\n\
                   parallel (default: available cores; output is\n\
                   byte-identical to --jobs 1)\n\
         sweep     run one experiment across a seed range and aggregate\n\
                   its headline metrics (median/p10/p90); --seeds A..B is\n\
                   inclusive and defaults to 1..8\n\
         --bench FILE\n\
                   write a machine-readable benchmark record (wall-clock,\n\
                   per-experiment seconds, merged heartbeat histograms)\n\
         --trace   instrumented reference run; stream every scheduling\n\
                   decision to FILE.jsonl as JSON Lines\n\
         --metrics instrumented reference run; write the metrics snapshot\n\
                   (counters + latency histograms + telemetry samples) to\n\
                   FILE.json\n\
         --trace-verbose\n\
                   attach decision provenance to every TaskPlaced trace\n\
                   event: top rejected candidates with their score\n\
                   breakdown plus incremental-cache state (requires\n\
                   --trace; default traces stay byte-identical)\n\
         --timeseries FILE.jsonl\n\
                   stream one cluster telemetry sample per heartbeat\n\
                   (utilization, fragmentation, packing efficiency,\n\
                   backlog, suspect machines) as JSON Lines\n\
         --crash-frac F\n\
                   churn-style fault injection for the instrumented run:\n\
                   fraction of machines crash/recover-cycling in [0,1]\n\
         --shards N\n\
                   run the instrumented reference configuration under the\n\
                   Omega-style sharded multi-scheduler: N optimistic\n\
                   scheduler instances over shared cluster state with\n\
                   commit-time conflict resolution (default 1 = the plain\n\
                   single-scheduler path; decisions are byte-identical\n\
                   only at N=1)\n\
         --journal FILE\n\
                   write-ahead decision journal for the instrumented run:\n\
                   CRC-framed checkpoints + committed placement batches\n\
                   (DESIGN.md §15), saved to FILE for crash recovery\n\
         --checkpoint-every K\n\
                   full-state snapshot cadence of the journal in\n\
                   scheduling heartbeats (default 32; bounds recovery's\n\
                   replay to at most K batches; requires --journal)\n\
         --crash-at N\n\
                   kill the scheduler at heartbeat N, then recover it from\n\
                   the journal and continue — the final outcome must be\n\
                   byte-identical to the uninterrupted run (requires\n\
                   --journal)\n\
         --outcome FILE.json\n\
                   write the run's final SimOutcome as JSON; recovery\n\
                   smokes `cmp` a crashed-and-recovered outcome against an\n\
                   uninterrupted one"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Parsed, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>(), 4)
    }

    #[test]
    fn defaults() {
        let got = p(&["all"]).unwrap();
        assert_eq!(got.scale, Scale::Laptop);
        assert_eq!(got.seed, DEFAULT_SEED);
        assert_eq!(got.jobs, 4);
        assert_eq!(
            got.cmd,
            Cmd::Run {
                ids: vec!["all".into()]
            }
        );
    }

    #[test]
    fn unknown_flags_are_rejected_up_front() {
        // A misspelling, and a flag that existed once: same rejection.
        for flag in ["--trcae", "--bench-baseline"] {
            let e = p(&[flag, "out.jsonl"]).unwrap_err();
            assert!(e.contains(&format!("unknown flag '{flag}'")), "{e}");
            assert!(e.contains("--help"), "{e}");
        }
    }

    #[test]
    fn unknown_experiment_is_rejected() {
        let e = p(&["fig99"]).unwrap_err();
        assert!(e.contains("unknown experiment 'fig99'"), "{e}");
    }

    #[test]
    fn jobs_validation() {
        assert_eq!(p(&["all", "--jobs", "2"]).unwrap().jobs, 2);
        assert_eq!(p(&["all", "-j", "9"]).unwrap().jobs, 9);
        assert!(p(&["all", "--jobs", "0"]).unwrap_err().contains(">= 1"));
        assert!(p(&["all", "--jobs", "x"]).unwrap_err().contains(">= 1"));
        assert!(p(&["all", "--jobs"]).unwrap_err().contains("value"));
    }

    #[test]
    fn sweep_grammar() {
        let got = p(&["sweep", "fig4", "--seeds", "3..6"]).unwrap();
        assert_eq!(
            got.cmd,
            Cmd::Sweep {
                id: "fig4".into(),
                seeds: vec![3, 4, 5, 6],
            }
        );
        // Default range.
        match p(&["sweep", "fig4"]).unwrap().cmd {
            Cmd::Sweep { seeds, .. } => assert_eq!(seeds, (1..=8).collect::<Vec<_>>()),
            c => panic!("{c:?}"),
        }
        assert!(p(&["sweep"]).unwrap_err().contains("usage"));
        assert!(p(&["sweep", "fig4", "fig5"]).unwrap_err().contains("usage"));
        assert!(p(&["sweep", "nope"])
            .unwrap_err()
            .contains("unknown experiment"));
        assert!(p(&["sweep", "all"])
            .unwrap_err()
            .contains("single experiment"));
        assert!(p(&["sweep", "fig4", "--seeds", "6..3"])
            .unwrap_err()
            .contains("inclusive"));
        assert!(p(&["fig4", "--seeds", "1..3"])
            .unwrap_err()
            .contains("sweep"));
    }

    #[test]
    fn seed_and_scale_flags() {
        let got = p(&["--full", "--seed", "7", "fig7"]).unwrap();
        assert_eq!(got.scale, Scale::Full);
        assert_eq!(got.seed, 7);
        assert_eq!(got.scale_factor, 1.0);
        assert!(p(&["--seed", "x"]).unwrap_err().contains("integer"));
    }

    #[test]
    fn scale_factor_flag() {
        assert_eq!(p(&["all"]).unwrap().scale_factor, 1.0);
        assert_eq!(p(&["all", "--scale", "0.05"]).unwrap().scale_factor, 0.05);
        assert!(p(&["all", "--scale", "0"])
            .unwrap_err()
            .contains("positive"));
        assert!(p(&["all", "--scale", "-1"])
            .unwrap_err()
            .contains("positive"));
        assert!(p(&["all", "--scale", "x"])
            .unwrap_err()
            .contains("positive"));
        assert!(p(&["all", "--scale"]).unwrap_err().contains("value"));
    }

    #[test]
    fn instrument_mode() {
        let got = p(&["--trace", "t.jsonl", "--metrics", "m.json"]).unwrap();
        assert_eq!(
            got.cmd,
            Cmd::Instrument {
                trace: Some("t.jsonl".into()),
                metrics: Some("m.json".into()),
                verbose: false,
                timeseries: None,
                crash_frac: 0.0,
                shards: 1,
                journal: None,
                checkpoint_every: None,
                crash_at: None,
                outcome: None,
            }
        );
        assert!(p(&["--trace", "t.jsonl", "fig4"])
            .unwrap_err()
            .contains("cannot"));
        assert!(p(&["--trace"]).unwrap_err().contains("value"));
    }

    #[test]
    fn telemetry_flags() {
        let got = p(&[
            "--trace",
            "t.jsonl",
            "--trace-verbose",
            "--timeseries",
            "ts.jsonl",
            "--crash-frac",
            "0.1",
        ])
        .unwrap();
        assert_eq!(
            got.cmd,
            Cmd::Instrument {
                trace: Some("t.jsonl".into()),
                metrics: None,
                verbose: true,
                timeseries: Some("ts.jsonl".into()),
                crash_frac: 0.1,
                shards: 1,
                journal: None,
                checkpoint_every: None,
                crash_at: None,
                outcome: None,
            }
        );
        // --timeseries alone selects instrument mode.
        match p(&["--timeseries", "ts.jsonl"]).unwrap().cmd {
            Cmd::Instrument {
                timeseries: Some(ts),
                verbose: false,
                ..
            } => assert_eq!(ts, "ts.jsonl"),
            c => panic!("{c:?}"),
        }
        // Verbose needs a trace to attach provenance to.
        assert!(p(&["--metrics", "m.json", "--trace-verbose"])
            .unwrap_err()
            .contains("--trace-verbose requires --trace"));
        // Instrument-only flags are rejected on experiment runs.
        assert!(p(&["fig4", "--trace-verbose"])
            .unwrap_err()
            .contains("only apply"));
        assert!(p(&["fig4", "--crash-frac", "0.1"])
            .unwrap_err()
            .contains("only apply"));
        // Fraction validation.
        assert!(p(&["--trace", "t.jsonl", "--crash-frac", "1.5"])
            .unwrap_err()
            .contains("[0,1]"));
        assert!(p(&["--trace", "t.jsonl", "--crash-frac", "x"])
            .unwrap_err()
            .contains("[0,1]"));
        assert!(p(&["--timeseries", "ts.jsonl", "fig4"])
            .unwrap_err()
            .contains("cannot"));
    }

    #[test]
    fn shards_flag() {
        match p(&["--metrics", "m.json", "--shards", "4"]).unwrap().cmd {
            Cmd::Instrument { shards, .. } => assert_eq!(shards, 4),
            c => panic!("{c:?}"),
        }
        // Defaults to the plain single-scheduler path.
        match p(&["--metrics", "m.json"]).unwrap().cmd {
            Cmd::Instrument { shards, .. } => assert_eq!(shards, 1),
            c => panic!("{c:?}"),
        }
        assert!(p(&["--metrics", "m.json", "--shards", "0"])
            .unwrap_err()
            .contains(">= 1"));
        assert!(p(&["--metrics", "m.json", "--shards", "x"])
            .unwrap_err()
            .contains(">= 1"));
        assert!(p(&["--metrics", "m.json", "--shards"])
            .unwrap_err()
            .contains("value"));
        // Instrument-only, like the other telemetry flags.
        assert!(p(&["fig4", "--shards", "2"])
            .unwrap_err()
            .contains("only apply"));
    }

    #[test]
    fn journal_flags() {
        // --journal alone selects instrument mode.
        match p(&["--journal", "j.wal"]).unwrap().cmd {
            Cmd::Instrument {
                journal: Some(j),
                checkpoint_every: None,
                crash_at: None,
                ..
            } => assert_eq!(j, "j.wal"),
            c => panic!("{c:?}"),
        }
        match p(&[
            "--journal",
            "j.wal",
            "--checkpoint-every",
            "4",
            "--crash-at",
            "6",
            "--outcome",
            "o.json",
        ])
        .unwrap()
        .cmd
        {
            Cmd::Instrument {
                journal: Some(j),
                checkpoint_every: Some(k),
                crash_at: Some(n),
                outcome: Some(o),
                ..
            } => {
                assert_eq!(j, "j.wal");
                assert_eq!(k, 4);
                assert_eq!(n, 6);
                assert_eq!(o, "o.json");
            }
            c => panic!("{c:?}"),
        }
        // --outcome alone also selects instrument mode (the golden side
        // of a recovery smoke).
        match p(&["--outcome", "o.json"]).unwrap().cmd {
            Cmd::Instrument {
                outcome: Some(o), ..
            } => assert_eq!(o, "o.json"),
            c => panic!("{c:?}"),
        }
        // The journal-dependent knobs need the journal.
        assert!(p(&["--metrics", "m.json", "--checkpoint-every", "4"])
            .unwrap_err()
            .contains("requires --journal"));
        assert!(p(&["--metrics", "m.json", "--crash-at", "3"])
            .unwrap_err()
            .contains("requires --journal"));
        // Value validation.
        assert!(p(&["--journal", "j", "--checkpoint-every", "0"])
            .unwrap_err()
            .contains(">= 1"));
        assert!(p(&["--journal", "j", "--crash-at", "0"])
            .unwrap_err()
            .contains(">= 1"));
        assert!(p(&["--journal", "j", "--crash-at", "x"])
            .unwrap_err()
            .contains(">= 1"));
        // Instrument-only, like the other telemetry flags.
        assert!(p(&["fig4", "--crash-at", "3"])
            .unwrap_err()
            .contains("only apply"));
        assert!(p(&["fig4", "--journal", "j.wal"])
            .unwrap_err()
            .contains("cannot be combined"));
    }

    #[test]
    fn bench_flags() {
        let got = p(&["all", "--bench", "b.json"]).unwrap();
        assert_eq!(got.bench.as_deref(), Some("b.json"));
        assert!(p(&["--list", "--bench", "b.json"])
            .unwrap_err()
            .contains("runs"));
    }

    #[test]
    fn help_and_list() {
        assert_eq!(p(&["--help"]).unwrap().cmd, Cmd::Help);
        assert_eq!(p(&["-h", "all"]).unwrap().cmd, Cmd::Help);
        assert_eq!(p(&["--list"]).unwrap().cmd, Cmd::List);
        assert_eq!(p(&[]).unwrap().cmd, Cmd::Run { ids: vec![] });
    }
}
