//! Minimal plain-text summary rendering for CLI tools.
//!
//! `tetris_metrics::TextTable` renders the paper's report tables; this module
//! covers the humbler case — a tool that used to `println!` a handful of
//! stats and now wants them aligned and greppable without pulling in the
//! metrics crate (which would cycle: metrics → workload → … → obs).

use crate::histogram::Histogram;

/// An aligned `key: value` block under a `== title ==` header.
#[derive(Debug, Default)]
pub struct Summary {
    title: String,
    rows: Vec<(String, String)>,
}

impl Summary {
    /// New summary block titled `title`.
    pub fn new(title: impl Into<String>) -> Self {
        Summary {
            title: title.into(),
            rows: Vec::new(),
        }
    }

    /// Append one `key: value` row.
    pub fn row(&mut self, key: impl Into<String>, value: impl std::fmt::Display) -> &mut Self {
        self.rows.push((key.into(), value.to_string()));
        self
    }

    /// Render with keys left-padded to a common width.
    pub fn render(&self) -> String {
        let width = self.rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = format!("== {} ==\n", self.title);
        for (k, v) in &self.rows {
            out.push_str(&format!("  {k:width$}  {v}\n"));
        }
        out
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// One-line `count/p50/p90/p99/max` rendering of a histogram, with values
/// shown in a human unit (`scale` divides raw samples; e.g. `1e3` for
/// ns → µs) and `unit` appended.
pub fn histogram_line(h: &Histogram, scale: f64, unit: &str) -> String {
    let fmt = |v: Option<u64>| match v {
        Some(v) => format!("{:.1}{unit}", v as f64 / scale),
        None => "-".to_string(),
    };
    format!(
        "n={} p50={} p90={} p99={} max={}",
        h.count(),
        fmt(h.quantile(0.5)),
        fmt(h.quantile(0.9)),
        fmt(h.quantile(0.99)),
        fmt(h.max()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_aligns_keys() {
        let mut s = Summary::new("test");
        s.row("a", 1).row("longer_key", "x");
        let out = s.render();
        assert!(out.starts_with("== test ==\n"), "{out}");
        assert!(out.contains("  a           1\n"), "{out:?}");
        assert!(out.contains("  longer_key  x\n"), "{out:?}");
    }

    #[test]
    fn histogram_line_scales_units() {
        let mut h = Histogram::new();
        h.record(2_000);
        let line = histogram_line(&h, 1e3, "us");
        assert!(line.contains("n=1"), "{line}");
        assert!(line.contains("p50=2.0us"), "{line}");
    }
}
