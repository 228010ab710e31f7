//! Structured experiment output: rendered text plus typed headline
//! metrics.
//!
//! Experiments used to return a bare `String`, which forced anything
//! downstream (sweep aggregation, benchmark emission, tests) to re-parse
//! printed tables. A [`Report`] carries the rendered text unchanged —
//! `Display` reproduces exactly what the CLI printed before — alongside a
//! flat list of named numbers the aggregators consume directly.

/// The result of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The rendered report, byte-identical to the pre-`Report` CLI output.
    pub text: String,
    /// Headline numbers, in presentation order. A sweep formats each
    /// name from the value its table row prints (`f0.25_…`,
    /// `cold_ms_51000`), so a point is stated once; [`Report::push`]
    /// refuses a name twice, and `scripts/golden/metric_names.txt` pins
    /// every experiment's names.
    pub metrics: Vec<(String, f64)>,
}

impl Report {
    /// Report with text and no metrics (yet).
    pub fn new(text: impl Into<String>) -> Self {
        Report {
            text: text.into(),
            metrics: Vec::new(),
        }
    }

    /// Builder-style: append one named metric.
    #[must_use]
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.push(name, value);
        self
    }

    /// Append one named metric.
    ///
    /// # Panics
    ///
    /// If the report already holds `name`: two sweep values that format
    /// alike would otherwise hand sweep aggregation (which reads the
    /// first) and `--bench` (which keeps the last) different numbers.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            !self.metrics.iter().any(|(n, _)| *n == name),
            "duplicate metric {name}"
        );
        self.metrics.push((name, value));
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_exactly_the_text() {
        let r = Report::new("line one\nline two\n").metric("x", 1.5);
        assert_eq!(format!("{r}"), "line one\nline two\n");
    }

    #[test]
    fn metrics_accumulate_in_order_and_look_up() {
        let mut r = Report::new("t");
        r.push("a", 1.0);
        r.push("b", -2.0);
        assert_eq!(r.metrics, vec![("a".into(), 1.0), ("b".into(), -2.0)]);
        assert_eq!(r.get("b"), Some(-2.0));
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate metric f0.25_jct")]
    fn pushing_a_name_twice_panics() {
        let mut r = Report::new("t");
        for f in [0.25, 0.251] {
            r.push(format!("f{f:.2}_jct"), 1.0);
        }
    }
}
