//! `perfbench compare A B`: judge side B against side A, one row per
//! (workload, end-to-end metric), by each metric's own bound and direction.
//!
//! Each file holds the result lines `--out` appended — one line per
//! workload per run, so several runs of a side are simply more lines. The
//! verdicts follow choosing-metrics §6.5: `regressed` when B's median is
//! worse than A's by more than the bound; `unresolved`, not `unchanged`,
//! when the run-to-run spread of either side is wider than the bound —
//! unless every run of one side beats every run of the other.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{self, format_value, Better, MetricDef};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Values of one side: (workload, metric) -> one value per run.
pub type Side = BTreeMap<(String, String), Vec<f64>>;

/// Read the end-to-end values out of result lines. Lines that are not
/// perfbench results are an error: comparing against a stray file must not
/// pass silently.
pub fn read_side(text: &str) -> Result<Side, String> {
    let mut side = Side::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |what: &str| format!("line {}: {what}", i + 1);
        let v = Json::parse(line).map_err(|e| at(&e))?;
        if v.get("schema").and_then(Json::as_str) != Some("perfbench/v1") {
            return Err(at("not a perfbench/v1 result line"));
        }
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| at("no workload"))?;
        let e2e = v
            .get("e2e")
            .and_then(Json::as_obj)
            .ok_or_else(|| at("no e2e object"))?;
        for (name, m) in e2e {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| at(&format!("metric {name} has no numeric value")))?;
            side.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    if side.is_empty() {
        return Err("no result lines".into());
    }
    Ok(side)
}

/// `b` relative to `a`, signed so that positive is worse.
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let rel = if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY * (b - a).signum()
        }
    } else {
        (b - a) / a.abs()
    };
    match def.better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let worse = worsening(def, stats::median(a), stats::median(b));
    // "Every run of one side beats every run of the other" settles a row
    // whatever the spread; it needs more than one run to mean anything.
    let separated = |winners: &[f64], losers: &[f64]| {
        winners.len().min(losers.len()) >= 2
            && winners
                .iter()
                .all(|&w| losers.iter().all(|&l| worsening(def, l, w) < 0.0))
    };
    let noisy = stats::spread(a) > def.bound || stats::spread(b) > def.bound;
    if worse > def.bound {
        if noisy && !separated(a, b) {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        }
    } else if worse < -def.bound {
        if noisy && !separated(b, a) {
            Verdict::Unresolved
        } else {
            Verdict::Improved
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

fn summary(xs: &[f64]) -> String {
    match stats::quartiles(xs) {
        Some((q1, q3)) => format!(
            "{} [{} .. {}] n={}",
            format_value(stats::median(xs)),
            format_value(q1),
            format_value(q3),
            xs.len()
        ),
        None => format!("{} n=1", format_value(xs[0])),
    }
}

/// Print the table; returns how many rows regressed.
pub fn compare(a: &Side, b: &Side) -> usize {
    let mut regressed = 0;
    println!(
        "{:<18} {:<24} {:<6} {:>7} {:>9}  {:<11} A: median [q1 .. q3]  |  B: median [q1 .. q3]",
        "workload", "metric", "unit", "bound", "change", "verdict"
    );
    for (key, av) in a {
        let (workload, name) = key;
        let Some(def) = metrics::find(name) else {
            println!("{workload:<18} {name:<24} (not a metric of this build; skipped)");
            continue;
        };
        let Some(bv) = b.get(key) else {
            println!("{workload:<18} {name:<24} missing on side B");
            regressed += 1;
            continue;
        };
        let verdict = judge(def, av, bv);
        if verdict == Verdict::Regressed {
            regressed += 1;
        }
        let change = worsening(def, stats::median(av), stats::median(bv));
        println!(
            "{workload:<18} {name:<24} {:<6} {:>7} {:>+8.1}%  {:<11} {}  |  {}",
            def.unit,
            format!("{:.1}%", def.bound * 100.0),
            change * 100.0,
            verdict.label(),
            summary(av),
            summary(bv),
        );
    }
    for key in b.keys().filter(|k| !a.contains_key(*k)) {
        println!("{:<18} {:<24} new on side B", key.0, key.1);
    }
    println!("change is signed so that + is worse; {regressed} row(s) regressed");
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricSet, E2E};

    fn def(name: &str) -> &'static MetricDef {
        metrics::find(name).unwrap()
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let timing = |better| MetricDef {
            name: "t",
            unit: "s",
            better,
            bound: 0.25,
            gated: false,
        };
        let wall = &timing(Better::Lower);
        assert_eq!(judge(wall, &[1.0], &[1.2]), Verdict::Unchanged);
        assert_eq!(judge(wall, &[1.0], &[1.3]), Verdict::Regressed);
        assert_eq!(judge(wall, &[1.0], &[0.7]), Verdict::Improved);
        let tput = &timing(Better::Higher);
        assert_eq!(judge(tput, &[100.0], &[70.0]), Verdict::Regressed);
        assert_eq!(judge(tput, &[100.0], &[130.0]), Verdict::Improved);
        // Spread wider than the bound: unresolved, whichever way it leans...
        let noisy = [1.0, 1.4, 0.8, 1.6, 1.0];
        assert_eq!(judge(wall, &noisy, &[1.0; 5]), Verdict::Unresolved);
        assert_eq!(
            judge(wall, &noisy, &[1.4, 1.5, 1.45, 1.5, 1.4]),
            Verdict::Unresolved
        );
        // ...unless every run of one side beats every run of the other.
        assert_eq!(judge(wall, &noisy, &[2.0; 5]), Verdict::Regressed);
        assert_eq!(judge(wall, &noisy, &[0.5; 5]), Verdict::Improved);
        // Exact metrics: any change is a change.
        let makespan = def("sim_makespan_s");
        assert_eq!(
            judge(makespan, &[3013.0; 5], &[3013.0; 5]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(makespan, &[3013.0; 5], &[3020.0; 5]),
            Verdict::Regressed
        );
        // failed_op_frac: bound 0, expected 0.
        let failed = def("failed_op_frac");
        assert_eq!(judge(failed, &[0.0], &[0.0]), Verdict::Unchanged);
        assert_eq!(judge(failed, &[0.0], &[0.01]), Verdict::Regressed);
    }

    #[test]
    fn result_lines_round_trip_through_the_writer_and_reader() {
        let mut set = MetricSet::default();
        set.put(E2E, "run_wall_s", 1.618_033_988_749_895, 7);
        set.put(E2E, "sim_makespan_s", 3013.0, 1);
        let line = |wall: f64| {
            let mut s = set.clone();
            s.values[0].value = wall;
            Json::obj([
                ("schema", Json::str("perfbench/v1")),
                ("workload", Json::str("suite_pack")),
                ("e2e", s.to_json()),
            ])
            .to_line()
        };
        let text = format!("{}\n\n{}\n", line(1.618_033_988_749_895), line(1.7));
        let side = read_side(&text).unwrap();
        let key = ("suite_pack".to_string(), "run_wall_s".to_string());
        assert_eq!(side[&key], vec![1.618_033_988_749_895, 1.7]);
        assert_eq!(compare(&side, &side), 0);

        assert!(read_side("").is_err());
        assert!(read_side("{\"schema\": \"other\"}").is_err());
        assert!(read_side("not json").is_err());
    }
}
