//! The five workloads and what they share: options, the repetition
//! budget, failure accounting, set-up timing and the result record.

mod durable;
mod engine;
mod heartbeat;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tetris_core::{TetrisConfig, TetrisScheduler};
use tetris_resources::MachineSpec;
use tetris_sim::{ClusterConfig, SimOutcome};
use tetris_workload::Workload;

use crate::json::Json;
use crate::metrics::{MetricSet, E2E, PER_LAYER};
use crate::stats;
use crate::trace::{PolicyLayer, Span, Tracer};

/// Workload names with the one-line reason each exists (`BENCHMARK.json`
/// carries the same lines).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "suite_pack",
        "paper 5.1 job mix under Tetris: three quarters of the run is the core policy pass, so a policy optimisation shows here first and an engine one least",
    ),
    (
        "fb_slots",
        "heavy-tailed trace under slot-based DRF, which over-allocates links: ~90% is the sim engine (flow recompute, event queue) and core does nothing",
    ),
    (
        "serving_preempt",
        "services over a batch backlog with preemption on: the constrained query, spread re-bans and priority-preemption path suite_pack never touches",
    ),
    (
        "heartbeat_backlog",
        "paper Table 8: one scheduling decision with 51k tasks pending, cold and event-synced warm, with no engine event loop at all",
    ),
    (
        "durable_run",
        "journaled run, scheduler crash and recovery: the only workload where sim::journal, sim::recovery and the vendored serde path do the work",
    ),
];

/// What a run was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Feeds `SimConfig::seed`: block-replica placement, tracker jitter
    /// and every other draw the simulator makes.
    pub seed: u64,
    /// Every workload at about 1/20 size, three repetitions, all checks on.
    pub smoke: bool,
    /// How long the timed phase measures. The operations are milliseconds
    /// to tens of milliseconds each, so seconds buy hundreds of samples.
    pub seconds: f64,
    /// Add the traced phase (per-layer metrics and spans).
    pub traced: bool,
    /// Shards of the `sim::sharded` probes: two where the host has two
    /// cores, and never more than `nproc`.
    pub shards: usize,
}

pub const DEFAULT_SEED: u64 = 42;
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Seed of the workload generators, pinned. ISSUE 14 had `--seed` feed the
/// generators too, but across generator seeds one configuration's class mix
/// and arrival bursts make the same workload cost up to 3x as much per run,
/// and the driver judges steadiness over ten runs with ten different seeds:
/// it would read the generator's spread as noise in the code.
pub const GENERATOR_SEED: u64 = 42;

impl Default for Opts {
    fn default() -> Self {
        Opts {
            seed: DEFAULT_SEED,
            smoke: false,
            seconds: DEFAULT_SECONDS,
            traced: false,
            shards: nproc().min(2),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Opts {
    /// `full` at full size, `smoke` under `--smoke`.
    fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Repetition budget of the timed phase: as many repetitions as fit in
    /// `--seconds`, and at least two per variant (one to set the variant's
    /// reference outcome and one to compare with it), which is all `--smoke`
    /// makes. A traced run gives the timed phase half the seconds: the
    /// traced phase needs the rest.
    fn budget(&self, variants: usize) -> Budget {
        Budget {
            seconds: if self.traced {
                self.seconds / 2.0
            } else {
                self.seconds
            },
            min_reps: 2 * variants,
            smoke: self.smoke,
            started: Instant::now(),
        }
    }
}

pub struct Budget {
    seconds: f64,
    min_reps: usize,
    smoke: bool,
    started: Instant,
}

impl Budget {
    /// Whether to start another repetition after `done` of them.
    fn more(&self, done: usize) -> bool {
        done < self.min_reps || (!self.smoke && self.started.elapsed().as_secs_f64() < self.seconds)
    }
}

/// The simulator seeds one process measures: `--seed` and `n - 1` derived
/// from it. How much work a run or a cold decision is depends on where the
/// seed put each block's replicas (181 k to 217 k events on `fb_slots`),
/// and the driver judges steadiness over ten runs with ten different seeds.
/// So repetitions take the variants in turn, and a gated timing is the mean
/// over the variants of each variant's fastest sample: as seed-dependent as
/// one run's, with 1/sqrt(n) of the spread.
fn variant_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| seed.wrapping_add(i * 7919)).collect()
}

/// Timings of one operation, kept per variant.
struct Samples(Vec<Vec<f64>>);

impl Samples {
    fn new(variants: usize) -> Self {
        Samples(vec![Vec::new(); variants])
    }

    fn push(&mut self, variant: usize, value: f64) {
        self.0[variant].push(value);
    }

    /// Take over `other`'s samples, variant by variant.
    fn extend(&mut self, other: Samples) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            mine.extend(theirs);
        }
    }

    fn of(&self, variant: usize) -> &[f64] {
        &self.0[variant]
    }

    fn all(&self) -> Vec<f64> {
        self.0.iter().flatten().copied().collect()
    }

    /// The gated statistic, with the total sample count: the mean over the
    /// variants of each variant's fastest sample. Fastest, because the work
    /// is deterministic and the host's interference only ever adds to it
    /// (README "Noise"). `None` until every variant has a sample.
    fn fastest_mean(&self) -> Option<(f64, usize)> {
        let fastest: Option<Vec<f64>> = self
            .0
            .iter()
            .map(|xs| (!xs.is_empty()).then(|| stats::min(xs)))
            .collect();
        let n = self.0.iter().map(Vec::len).sum();
        fastest.map(|f| (f.iter().sum::<f64>() / f.len() as f64, n))
    }
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Ops {
    /// Count one operation; it failed if `problems` is non-empty.
    fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.reasons.push(format!("{what}: {p}"));
            }
        }
    }

    /// Run one operation that may panic (the probes assert equivalence
    /// inside): a panic is a failed operation, not a dead benchmark.
    fn guarded<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("panic without a message");
                self.record(what, vec![format!("panicked: {msg}")]);
                None
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Everything one workload measured.
pub struct WorkloadResult {
    pub name: &'static str,
    pub e2e: MetricSet,
    pub layer: MetricSet,
    pub ops: Ops,
    pub spans: Vec<Span>,
    /// Digest of the reference run's outcome, where the workload runs the
    /// engine: equal digests across two processes, or two commits, mean
    /// every task was placed on the same machine at the same simulated time.
    pub outcome_digest: Option<u64>,
    peak_rss_mb: Option<f64>,
}

impl WorkloadResult {
    fn new(name: &'static str) -> Self {
        WorkloadResult {
            name,
            e2e: MetricSet::default(),
            layer: MetricSet::default(),
            ops: Ops::default(),
            spans: Vec::new(),
            outcome_digest: None,
            peak_rss_mb: None,
        }
    }

    /// Read the process's peak RSS, the first time this is called. Every
    /// workload calls it after its first complete operation: the peak then
    /// covers the set-ups and one operation, and does not creep with the
    /// number of repetitions `--seconds` happened to fit (allocator
    /// retention made it 80 to 102 MB on `fb_slots` otherwise).
    fn mark_peak_rss(&mut self) {
        self.peak_rss_mb.get_or_insert_with(peak_rss_mb);
    }

    fn e2e(&mut self, name: &str, value: f64, samples: usize) {
        self.e2e.put(E2E, name, value, samples);
    }

    fn layer(&mut self, name: &str, value: f64, samples: usize) {
        self.layer.put(PER_LAYER, name, value, samples);
    }

    /// The two gated timings, in ms with their sample counts: the
    /// workload's primary whole operation and its second one, each by
    /// [`Samples::fastest_mean`]. `None` when every attempt failed.
    fn gated_ops(&mut self, op_wall_ms: Option<(f64, usize)>, aux_wall_ms: Option<(f64, usize)>) {
        for (name, v) in [("op_wall_ms", op_wall_ms), ("aux_wall_ms", aux_wall_ms)] {
            if let Some((value, n)) = v {
                self.e2e(name, value, n);
            }
        }
    }

    /// Close the timed phase with the metrics every workload has.
    fn finish_timed(&mut self, setup: (f64, usize)) {
        self.mark_peak_rss();
        let rss = self.peak_rss_mb.unwrap_or(0.0);
        self.e2e("setup_s", setup.0, setup.1);
        self.e2e("peak_rss_mb", rss, 1);
    }

    /// The result as one JSON line for `--out` and `compare`.
    pub fn to_json(&self, header: &Json) -> Json {
        Json::obj([
            ("schema", Json::str("perfbench/v1")),
            ("header", header.clone()),
            ("workload", Json::str(self.name)),
            (
                "outcome_digest",
                self.outcome_digest
                    .map_or(Json::Null, |d| Json::Str(format!("{d:016x}"))),
            ),
            ("ops_attempted", Json::Num(self.ops.attempted as f64)),
            ("ops_failed", Json::Num(self.ops.failed as f64)),
            (
                "failures",
                Json::Arr(self.ops.reasons.iter().map(Json::str).collect()),
            ),
            ("e2e", self.e2e.to_json()),
            ("per_layer", self.layer.to_json()),
        ])
    }
}

/// Run one workload by name.
pub fn run(name: &str, opts: &Opts) -> Option<WorkloadResult> {
    let mut r = match name {
        "suite_pack" => engine::suite_pack(opts),
        "fb_slots" => engine::fb_slots(opts),
        "serving_preempt" => engine::serving_preempt(opts),
        "heartbeat_backlog" => heartbeat::run(opts),
        "durable_run" => durable::run(opts),
        _ => return None,
    };
    let failed = r.ops.failed_frac();
    let attempted = r.ops.attempted as usize;
    r.e2e("failed_op_frac", failed, attempted);
    Some(r)
}

/// Run `setup` again and again for half a second — at least 15 times, at
/// most 200: set-ups take from 0.1 ms to 80 ms — and return the last
/// product and the median time with its sample count. The median, so that
/// one slow set-up does not set the value a later change is judged against.
fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (T, (f64, usize)) {
    let started = Instant::now();
    let mut secs = Vec::new();
    let mut last = None;
    while secs.len() < 15 || (secs.len() < 200 && started.elapsed().as_secs_f64() < 0.5) {
        drop(last.take()); // one input alive at a time: set-up must not double the RSS
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least 15 set-ups"),
        (stats::median(&secs), secs.len()),
    )
}

/// `workload.*`: what the generator made and how long it took.
fn workload_layer_metrics(r: &mut WorkloadResult, workload: &Workload, generate_s: f64) {
    r.layer("workload.generate_ms", generate_s * 1e3, 1);
    r.layer("workload.tasks", workload.num_tasks() as f64, 1);
    r.layer("workload.jobs", workload.jobs.len() as f64, 1);
}

/// Per span name `(calls, self ns)` of one traced operation.
type SelfByName = std::collections::BTreeMap<&'static str, (u64, u64)>;

/// Policy-layer metrics of traced operation `op`, from the spans and counts
/// `Timed` recorded: `core.*` under Tetris, `baselines.*` under DRF.
/// `placements` (the engine's count of applied assignments) gives the
/// accept ratio where an engine ran.
fn policy_layer_metrics(
    r: &mut WorkloadResult,
    tracer: &Tracer,
    (op, by_name): (u32, &SelfByName),
    layer: &PolicyLayer,
    placements: Option<u64>,
) {
    let (calls, self_ns) = by_name.get(layer.schedule).copied().unwrap_or((0, 0));
    let (event_calls, event_ns) = by_name.get(layer.on_event).copied().unwrap_or((0, 0));
    let schedule_us: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.op == op && s.name == layer.schedule)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    let proposals = tracer.counted(layer.proposals);
    let mut put = |suffix: &str, value: f64, n: usize| {
        r.layer(&format!("{}.{suffix}", layer.prefix), value, n);
    };
    put("schedule_s", self_ns as f64 / 1e9, 1);
    put("schedule_calls", calls as f64, 1);
    if !schedule_us.is_empty() {
        put(
            "schedule_p50_us",
            stats::median(&schedule_us),
            schedule_us.len(),
        );
    }
    if let Ok(p99) = stats::percentile(&schedule_us, 0.99) {
        put("schedule_p99_us", p99, schedule_us.len());
    }
    put("on_event_s", event_ns as f64 / 1e9, 1);
    put("on_event_calls", event_calls as f64, 1);
    put("proposals", proposals as f64, 1);
    if let Some(placed) = placements {
        put("accept_frac", placed as f64 / proposals.max(1) as f64, 1);
    }
    put(
        "empty_pass_frac",
        tracer.counted(layer.empty_passes) as f64 / calls.max(1) as f64,
        1,
    );
}

fn cluster(machines: usize) -> ClusterConfig {
    ClusterConfig::uniform(machines, MachineSpec::paper_large())
}

fn tetris() -> TetrisScheduler {
    TetrisScheduler::new(TetrisConfig::default())
}

/// Wall seconds of `f`.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// FNV-1a over formatted text, fed through `fmt::Write` so a 15 000-task
/// outcome is hashed without building its 3 MB debug string.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of everything a run decided: two runs with equal digests placed
/// every task on the same machine at the same simulated time.
pub fn outcome_digest(o: &SimOutcome) -> u64 {
    let mut h = Fnv1a::new();
    write!(h, "{:?}{:?}{:?}", o.jobs, o.tasks, o.stats).expect("hashing cannot fail");
    h.0
}

/// What is wrong with a finished engine run, if anything.
fn outcome_problems(o: &SimOutcome, reference_digest: Option<u64>) -> Vec<String> {
    let mut problems = Vec::new();
    if !o.completed {
        problems.push("run did not complete".into());
    }
    if o.stats.rejected_assignments > 0 {
        problems.push(format!(
            "{} rejected assignments",
            o.stats.rejected_assignments
        ));
    }
    if o.stats.tasks_abandoned > 0 {
        problems.push(format!("{} tasks abandoned", o.stats.tasks_abandoned));
    }
    if let Some(want) = reference_digest {
        let got = outcome_digest(o);
        if got != want {
            problems.push(format!(
                "outcome digest {got:016x} differs from the first run's {want:016x}"
            ));
        }
    }
    problems
}

/// `VmHWM` of this process in MB (10^6 bytes), 0 where `/proc` has none.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Opts {
        Opts {
            smoke: true,
            traced: true,
            ..Opts::default()
        }
    }

    #[test]
    fn every_workload_passes_its_checks_at_smoke_size_and_repeats() {
        for (name, _) in WORKLOADS {
            let a = run(name, &smoke()).expect("known workload");
            assert_eq!(a.ops.failed, 0, "{name}: {:?}", a.ops.reasons);
            assert!(a.ops.attempted > 0, "{name} attempted nothing");
            // The driver's line needs every gated metric, none of them 0.
            for def in E2E.iter().filter(|m| m.gated) {
                let v = a.e2e.get(def.name).unwrap_or(0.0);
                assert!(v > 0.0, "{name}: {} = {v}", def.name);
            }
            assert!(!a.spans.is_empty(), "{name} traced nothing");
            // Decisions, simulated results and counts repeat exactly for a
            // seed.
            let b = run(name, &smoke()).expect("known workload");
            assert_eq!(a.outcome_digest, b.outcome_digest, "{name}");
            for m in &a.e2e.values {
                if m.def.bound <= crate::metrics::EXACT_BOUND {
                    assert_eq!(
                        Some(m.value),
                        b.e2e.get(m.def.name),
                        "{name}: {} differs between two runs",
                        m.def.name
                    );
                }
            }
            for count in ["sim.events", "sim.placements", "sim.journal.bytes"] {
                assert_eq!(a.layer.get(count), b.layer.get(count), "{name}: {count}");
            }
        }
        assert!(run("no_such_workload", &smoke()).is_none());
    }

    #[test]
    fn budget_fills_the_time_and_covers_every_variant_twice() {
        let smoke = smoke().budget(2);
        assert!(smoke.more(3) && !smoke.more(4));
        let mut o = Opts::default();
        o.seconds = 0.0;
        let timed = o.budget(4);
        assert!(timed.more(7) && !timed.more(8));
        o.seconds = 3600.0;
        assert!(o.budget(1).more(1_000));
    }

    #[test]
    fn gated_statistic_is_the_mean_of_each_variants_fastest() {
        let mut s = Samples::new(2);
        s.push(0, 3.0);
        assert_eq!(s.fastest_mean(), None, "variant 1 has no sample yet");
        s.push(1, 5.0);
        s.push(0, 2.0);
        s.push(1, 9.0);
        assert_eq!(s.fastest_mean(), Some((3.5, 4)));
        assert_eq!(s.all().len(), 4);
        assert_eq!(variant_seeds(42, 3), [42, 42 + 7919, 42 + 2 * 7919]);
    }

    #[test]
    fn a_panicking_operation_is_counted_not_fatal() {
        let mut ops = Ops::default();
        assert_eq!(ops.guarded("fine", || 3), Some(3));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out: Option<()> = ops.guarded("probe", || panic!("streams diverged"));
        std::panic::set_hook(hook);
        assert_eq!(out, None);
        assert_eq!((ops.attempted, ops.failed), (1, 1));
        assert_eq!(ops.reasons, ["probe: panicked: streams diverged"]);
        ops.record("run", vec![]);
        assert_eq!(ops.failed_frac(), 0.5);
    }
}
