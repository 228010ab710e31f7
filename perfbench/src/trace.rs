//! In-memory spans recorded around the calls into each layer, and the
//! `Timed` policy wrapper that records one span per policy call.
//!
//! Spans are taken from outside the program (choosing-metrics §4): the
//! harness opens one before calling a public function and closes it after.
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use tetris_sim::{Assignment, ClusterView, SchedulerEvent, SchedulerPolicy};

/// One recorded span. `op` groups the spans of one benchmark operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span and count recorder. Spans nest by call order: the innermost open
/// span is the parent of the next one opened.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    counts: BTreeMap<&'static str, u64>,
}

/// The tracer is shared between the harness (root spans) and the `Timed`
/// wrapper the engine owns for the duration of a run.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Tracer::new()))
    }

    /// Start a new operation: spans opened from now on carry the next id
    /// and counts start again from 0.
    pub fn next_op(&mut self) -> u32 {
        self.open.clear();
        self.counts.clear();
        self.op += 1;
        self.op
    }

    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, and with it anything still open inside it.
    pub fn end(&mut self, id: u32) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        if let Some(at) = self.open.iter().rposition(|&open| open == id) {
            self.open.truncate(at);
        }
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Add to a named count of the current operation, taken at a layer
    /// boundary.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hand the recorded spans over, leaving the tracer empty.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Run `f` inside a span named `name`. The span closes when `f` returns and
/// also when it panics (the probes assert equivalence inside, and a caught
/// panic is a failed operation): a span left open would become the parent
/// of every span opened after it.
pub fn spanned<T>(tracer: &SharedTracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    struct Close<'a>(&'a SharedTracer, u32);
    impl Drop for Close<'_> {
        fn drop(&mut self) {
            // Never panics: a tracer borrowed elsewhere during an unwind
            // loses this span's end time, nothing more.
            if let Ok(mut t) = self.0.try_borrow_mut() {
                t.end(self.1);
            }
        }
    }
    let id = tracer.borrow_mut().begin(name);
    let _close = Close(tracer, id);
    f()
}

/// [`spanned`] when there is a tracer, plain `f()` when there is none: the
/// timed phase and the traced phase run the same code.
pub fn spanned_if<T>(
    tracer: Option<&SharedTracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => spanned(t, name, f),
        None => f(),
    }
}

/// Self time of every span, indexed like `spans`: duration minus the
/// union of its direct children's intervals (clipped to the span, so
/// overlapping or overhanging children are never subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: (calls, total self ns), for the spans of `op` (all
/// operations when `None`).
pub fn self_by_name(spans: &[Span], op: Option<u32>) -> BTreeMap<&'static str, (u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if op.is_none_or(|o| o == s.op) {
            let e = out.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += self_ns;
        }
    }
    out
}

/// The layer a wrapped policy belongs to: the names of its spans and counts.
#[derive(Debug, PartialEq, Eq)]
pub struct PolicyLayer {
    /// Prefix of the layer's per-layer metric names.
    pub prefix: &'static str,
    pub schedule: &'static str,
    pub on_event: &'static str,
    pub proposals: &'static str,
    pub empty_passes: &'static str,
}

/// `tetris-core` (the Tetris policy).
pub const CORE: PolicyLayer = PolicyLayer {
    prefix: "core",
    schedule: "core.schedule",
    on_event: "core.on_event",
    proposals: "core.proposals",
    empty_passes: "core.empty_passes",
};

/// `tetris-baselines` (DRF on `fb_slots`).
pub const BASELINES: PolicyLayer = PolicyLayer {
    prefix: "baselines",
    schedule: "baselines.schedule",
    on_event: "baselines.on_event",
    proposals: "baselines.proposals",
    empty_passes: "baselines.empty_passes",
};

/// A policy that records one span per `schedule` / `on_event` call and
/// otherwise is the policy it wraps. It forwards exactly the calls that
/// decide placements or carry state across a crash; the observability
/// hooks (`set_capture_provenance`, `take_provenance`, `drain_metrics`)
/// keep their trait defaults, which is what an unobserved run sees anyway,
/// so wrapping cannot change a decision.
pub struct Timed<P> {
    inner: P,
    tracer: SharedTracer,
    layer: &'static PolicyLayer,
    /// Counted here and handed to the tracer when the engine drops the
    /// policy at the end of the run: a map lookup per call would be a
    /// tenth of `fb_slots`' run, whose passes take a microsecond.
    proposals: u64,
    empty_passes: u64,
}

impl<P: SchedulerPolicy> Timed<P> {
    pub fn new(inner: P, tracer: SharedTracer, layer: &'static PolicyLayer) -> Self {
        Timed {
            inner,
            tracer,
            layer,
            proposals: 0,
            empty_passes: 0,
        }
    }
}

impl<P> Drop for Timed<P> {
    fn drop(&mut self) {
        // Never panics: a tracer borrowed elsewhere during an unwind loses
        // these counts, nothing more.
        if let Ok(mut t) = self.tracer.try_borrow_mut() {
            t.count(self.layer.proposals, self.proposals);
            t.count(self.layer.empty_passes, self.empty_passes);
        }
    }
}

impl<P: SchedulerPolicy> SchedulerPolicy for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_event(&mut self, view: &ClusterView<'_>, event: &SchedulerEvent) {
        spanned(&self.tracer, self.layer.on_event, || {
            self.inner.on_event(view, event)
        });
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let out = spanned(&self.tracer, self.layer.schedule, || {
            self.inner.schedule(view)
        });
        self.proposals += out.len() as u64;
        self.empty_passes += u64::from(out.is_empty());
        out
    }

    fn uses_tracker(&self) -> bool {
        self.inner.uses_tracker()
    }

    fn export_state(&self) -> Option<String> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &str) {
        self.inner.import_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: if parent.is_some() { "child" } else { "root" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..40 with grandchild 20..30; child 50..60.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 20, 10, 10]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        // Children 10..50 and 30..70 overlap on 30..50; one overhangs the
        // parent's end; one lies inside another.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            span(3, Some(0), 90, 120),
            span(4, Some(0), 35, 45),
        ];
        // Covered: 10..70 (60) + 90..100 (10) = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_by_call_order_and_groups_by_name() {
        let t = Tracer::shared();
        t.borrow_mut().next_op();
        spanned(&t, "sim.run", || {
            spanned(&t, "core.schedule", || {});
            spanned(&t, "core.schedule", || {});
        });
        let tr = t.borrow();
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|x| x.op == 1 && x.end_ns >= x.start_ns));
        let by = self_by_name(s, Some(1));
        assert_eq!(by["core.schedule"].0, 2);
        let total: u64 = by.values().map(|v| v.1).sum();
        assert_eq!(total, s[0].duration_ns());
        assert!(self_by_name(s, Some(2)).is_empty());
    }

    #[test]
    fn a_caught_panic_inside_a_span_closes_it() {
        let t = Tracer::shared();
        t.borrow_mut().next_op();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        spanned(&t, "sim.probe.block", || {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                spanned(&t, "sim.probe.settle", || {
                    spanned(&t, "core.schedule", || panic!("streams diverged"))
                })
            }));
            assert!(caught.is_err());
            spanned(&t, "sim.probe.cold", || {});
        });
        std::panic::set_hook(hook);
        let tr = t.borrow();
        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert!(tr.open.is_empty());
        // The span opened after the panic nests under the block, not under
        // the spans the panic unwound through, and those have end times.
        assert_eq!(s[3].parent, Some(0));
        assert!(s[1].end_ns >= s[2].end_ns && s[2].end_ns >= s[2].start_ns);
        assert_eq!(self_times_ns(s).iter().sum::<u64>(), s[0].duration_ns());
    }
}
