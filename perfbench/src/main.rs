//! `perfbench`: the repo's end-to-end + per-layer benchmark. Five named
//! workloads measured from outside through public functions; see README.md
//! next to this package for the metric glossary and how to run it.

mod compare;
mod json;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, ExitCode};

use json::Json;
use metrics::{benchmark_json_lists, MetricSet};
use workloads::{nproc, Opts, WorkloadResult, WORKLOADS};

const USAGE: &str = "\
usage:
  perfbench all|<workload> [--seed N] [--seconds S] [--traced] [--smoke]
                           [--shards N] [--out FILE] [--trace-out FILE]
  perfbench --workload <workload> --seed N --seconds S --trace 0|1   (BENCHMARK.json form)
  perfbench compare A.jsonl B.jsonl
workloads: suite_pack fb_slots serving_preempt heartbeat_backlog durable_run
  --seed        simulator seed (default 42; the generators' seed is pinned)
  --seconds     measure each workload for S seconds (default 10)
  --traced      add the traced phase: per-layer metrics, spans
  --smoke       every workload at about 1/20 size
  --out         append one JSON result line per workload (input of `compare`)
  --trace-out   append the traced phase's spans, one JSON object per line";

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Cli {
    /// `all`, or one workload.
    target: String,
    opts: Opts,
    /// `--trace 0|1` was given: end with the driver's one-line JSON object.
    driver: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        target: String::new(),
        opts: Opts::default(),
        driver: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))
                .cloned()
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: cannot read {v:?} as a number"))
        }
        match arg.as_str() {
            "--seed" => cli.opts.seed = num(arg, value()?)?,
            "--shards" => cli.opts.shards = num(arg, value()?)?,
            "--seconds" => {
                let s: f64 = num(arg, value()?)?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {s}: want a non-negative number"));
                }
                cli.opts.seconds = s;
            }
            "--trace" => {
                cli.driver = true;
                cli.opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: want 0 or 1")),
                };
            }
            "--traced" => cli.opts.traced = true,
            "--smoke" => cli.opts.smoke = true,
            "--workload" => cli.target = value()?,
            "--out" => cli.out = Some(value()?),
            "--trace-out" => cli.trace_out = Some(value()?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            target if cli.target.is_empty() => cli.target = target.to_string(),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    if cli.target.is_empty() {
        if !cli.opts.smoke {
            return Err("name a workload, or `all`".into());
        }
        cli.target = "all".into();
    }
    if cli.target != "all" && !WORKLOADS.iter().any(|(n, _)| *n == cli.target) {
        return Err(format!("unknown workload {}", cli.target));
    }
    if cli.driver && cli.target == "all" {
        return Err("--trace 0|1 is the one-workload driver form; name a workload".into());
    }
    // The load comes from one process with at most `nproc` threads; only
    // the sharded probes use more than one.
    if cli.opts.shards == 0 || cli.opts.shards > nproc() {
        return Err(format!(
            "--shards {}: this host has {} core(s); a probe on more threads than cores \
             measures the scheduler's time slicing, not the code",
            cli.opts.shards,
            nproc()
        ));
    }
    Ok(cli)
}

/// First line of a command's output, or "unknown": the header records
/// what it can and never fails the run.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn header(opts: &Opts) -> Json {
    Json::obj([
        ("seed", Json::Num(opts.seed as f64)),
        (
            "generator_seed",
            Json::Num(workloads::GENERATOR_SEED as f64),
        ),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("nproc", Json::Num(nproc() as f64)),
        ("threads", Json::Num(opts.shards as f64)),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        (
            "git",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

fn append(path: &str, text: &str) -> Result<(), String> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("{path}: {e}"))
}

/// Per-layer self-time table of the traced phase, printed from the spans.
fn print_span_table(r: &WorkloadResult) {
    let by_name = trace::self_by_name(&r.spans, None);
    let total: u64 = by_name.values().map(|v| v.1).sum();
    println!("  spans (traced phase, all operations): self time by layer");
    for (name, (calls, self_ns)) in &by_name {
        println!(
            "    {:<36} {:>12.6} s {:>6.1}%  calls={calls}",
            name,
            *self_ns as f64 / 1e9,
            *self_ns as f64 * 100.0 / total.max(1) as f64
        );
    }
}

/// Run one workload in this process and report it. Returns whether every
/// operation passed its checks.
fn run_one(cli: &Cli) -> Result<bool, String> {
    let head = header(&cli.opts);
    println!("perfbench {} {}", cli.target, head.to_line());
    let r = workloads::run(&cli.target, &cli.opts).expect("parse_cli checked the name");

    r.e2e.print_table("end-to-end (timed phase, tracing off)");
    if cli.opts.traced {
        r.layer.print_table("per-layer (traced phase)");
        print_span_table(&r);
    }
    if let Some(digest) = r.outcome_digest {
        println!("  outcome_digest {digest:016x}");
    }
    println!(
        "  ops attempted={} failed={}",
        r.ops.attempted, r.ops.failed
    );
    for reason in &r.ops.reasons {
        println!("  FAILED {reason}");
    }

    if let Some(path) = &cli.out {
        append(path, &(r.to_json(&head).to_line() + "\n"))?;
    }
    if let Some(path) = &cli.trace_out {
        let mut text = String::new();
        for s in &r.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                text,
                "{{\"workload\": \"{}\", \"id\": {}, \"parent\": {parent}, \"op\": {}, \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                r.name, s.id, s.op, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        append(path, &text)?;
    }

    let ok = r.ops.failed == 0;
    if cli.driver {
        // The driver reads the last line of stdout: end-to-end metrics of
        // the timed phase, or with --trace 1 the traced phase's per-layer ones.
        let (end_to_end, per_layer) = benchmark_json_lists();
        let metrics = if cli.opts.traced {
            MetricSet::driver_json(&per_layer, &[&r.layer, &r.e2e])
        } else {
            MetricSet::driver_json(&end_to_end, &[&r.e2e])
        };
        let line = Json::obj([
            ("correct", Json::Bool(ok)),
            ("attempted", Json::Num(r.ops.attempted as f64)),
            ("failed", Json::Num(r.ops.failed as f64)),
            ("metrics", metrics),
        ]);
        println!("{}", line.to_line());
    }
    Ok(ok)
}

/// `all`: one child process per workload, so each has its own peak RSS and
/// starts from a cold allocator. Children run one after another and every
/// one is waited for.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let o = &cli.opts;
    let mut rest = vec![
        "--seed".to_string(),
        o.seed.to_string(),
        "--shards".into(),
        o.shards.to_string(),
        "--seconds".into(),
        o.seconds.to_string(),
    ];
    for (flag, on) in [("--traced", o.traced), ("--smoke", o.smoke)] {
        if on {
            rest.push(flag.into());
        }
    }
    for (flag, path) in [("--out", &cli.out), ("--trace-out", &cli.trace_out)] {
        if let Some(p) = path {
            rest.extend([flag.into(), p.clone()]);
        }
    }
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let status = Command::new(&exe)
            .arg(name)
            .args(&rest)
            .status()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        if !status.success() {
            println!("perfbench: {name} exited with {status}");
            ok = false;
        }
    }
    println!(
        "perfbench all: {}",
        if ok {
            "every workload passed its checks"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::from(if args.is_empty() { 2 } else { 0 });
    }
    let result = if args[0] == "compare" {
        match &args[1..] {
            [a, b] => read_sides(a, b).map(|(a, b)| compare::compare(&a, &b) == 0),
            _ => Err("compare wants two files".into()),
        }
    } else {
        parse_cli(&args).and_then(|cli| {
            if cli.target == "all" {
                run_all(&cli)
            } else {
                run_one(&cli)
            }
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn read_sides(a: &str, b: &str) -> Result<(compare::Side, compare::Side), String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::read_side(&text).map_err(|e| format!("{path}: {e}")))
    };
    Ok((read(a)?, read(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_and_full_form_parse() {
        let c = cli(&[
            "--workload",
            "fb_slots",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.target, "fb_slots");
        assert_eq!((c.opts.seed, c.opts.seconds), (7, 10.0));
        assert!(c.driver && c.opts.traced);

        let c = cli(&["all", "--traced", "--out", "a.jsonl"]).unwrap();
        assert_eq!(c.target, "all");
        assert!(c.opts.traced && !c.driver);
        assert_eq!(cli(&["--smoke"]).unwrap().target, "all");
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["nonesuch"][..],
            &["suite_pack", "--seed"],
            &["suite_pack", "--seed", "x"],
            &["suite_pack", "--seconds", "-1"],
            &["suite_pack", "--trace", "2"],
            &["suite_pack", "fb_slots"],
            &["suite_pack", "--frobnicate"],
            &["all", "--trace", "0"],
            &["--seed", "3"],
            &["suite_pack", "--shards", "0"],
            &["suite_pack", "--shards", "100000"],
        ] {
            assert!(cli(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// `BENCHMARK.json` and the tables in `metrics.rs` say the same thing.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let b = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = b
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| match b.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text_of = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_string();

        let listed: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert!(ours.iter().all(|(_, why)| why.len() <= 200));

        let (end_to_end, per_layer) = benchmark_json_lists();
        for (key, table) in [("end_to_end", end_to_end), ("per_layer", per_layer)] {
            let listed = list(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (m, def) in listed.iter().zip(table) {
                assert_eq!(text_of(m, "name"), def.name);
                assert_eq!(text_of(m, "unit"), def.unit, "{}", def.name);
                assert_eq!(text_of(m, "better"), def.better.label(), "{}", def.name);
                if key == "end_to_end" {
                    assert_eq!(m.get("bound").and_then(Json::as_f64), Some(def.bound));
                } else {
                    assert!(m.get("bound").is_none(), "per-layer metrics have no bound");
                }
            }
        }
    }
}
