//! The three workloads whose operation is one full `Simulation::run`:
//! `suite_pack` (policy-bound), `fb_slots` (engine-bound) and
//! `serving_preempt` (the constrained / preemptive path).
//!
//! Sized so that a run takes 35 to 160 ms, a quarter or less of what ISSUE
//! 14 listed: on the builder's host only an operation that short, repeated
//! a hundred times, has a fastest sample that repeats (README "Noise").

use std::time::Instant;

use tetris_baselines::DrfScheduler;
use tetris_core::AlignmentKind;
use tetris_expts::setup::run_observed;
use tetris_expts::{RunCtx, Scale};
use tetris_metrics::RunMetrics;
use tetris_resources::{ResourceVec, NUM_RESOURCES};
use tetris_sim::probe::RecomputeProbe;
use tetris_sim::{
    ClusterConfig, SchedulerPolicy, ShardedScheduler, SimConfig, SimOutcome, Simulation,
};
use tetris_workload::{FacebookTraceConfig, ServingMixConfig, Workload, WorkloadSuiteConfig};

use super::{
    cluster, outcome_digest, outcome_problems, policy_layer_metrics, tetris, timed, timed_setups,
    variant_seeds, workload_layer_metrics, Opts, Samples, WorkloadResult, GENERATOR_SEED,
};
use crate::stats;
use crate::trace::{
    self_by_name, spanned, PolicyLayer, SharedTracer, Timed, Tracer, BASELINES, CORE,
};

#[derive(Clone, Copy)]
enum Policy {
    Tetris,
    Drf,
}

impl Policy {
    fn layer(self) -> &'static PolicyLayer {
        match self {
            Policy::Tetris => &CORE,
            Policy::Drf => &BASELINES,
        }
    }

    fn boxed(self) -> Box<dyn SchedulerPolicy> {
        match self {
            Policy::Tetris => Box::new(tetris()),
            Policy::Drf => Box::new(DrfScheduler::new()),
        }
    }

    fn timed(self, tracer: SharedTracer) -> Box<dyn SchedulerPolicy> {
        match self {
            Policy::Tetris => Box::new(Timed::new(tetris(), tracer, self.layer())),
            Policy::Drf => Box::new(Timed::new(DrfScheduler::new(), tracer, self.layer())),
        }
    }
}

/// One engine workload: how to make its input and which policy runs it.
struct Case {
    name: &'static str,
    machines: usize,
    /// Seed-derived variants of the run (`variant_seeds`): as many as bring
    /// the gated timings' ten-seed spread under a third of their bound, as
    /// few as leave each variant a dozen samples in a measuring window.
    variants: usize,
    policy: Policy,
    generate: fn(&Opts) -> Workload,
    config: fn(u64) -> SimConfig,
    /// Whether the `core::align` and `sim::sharded` probes ride on this
    /// workload's traced phase.
    standalone_probes: bool,
}

struct Input {
    cluster: ClusterConfig,
    workload: Workload,
    /// One configuration per variant; the first has `--seed` itself.
    cfgs: Vec<SimConfig>,
    generate_s: f64,
}

impl Input {
    fn sim(&self, variant: usize, policy: Box<dyn SchedulerPolicy>) -> Simulation<'static> {
        Simulation::build(self.cluster.clone(), self.workload.clone())
            .scheduler(policy)
            .config(self.cfgs[variant].clone())
    }
}

fn seeded(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.seed = seed;
    cfg
}

pub fn suite_pack(opts: &Opts) -> WorkloadResult {
    run(
        &Case {
            name: "suite_pack",
            machines: opts.size(100, 10),
            variants: opts.size(4, 2),
            policy: Policy::Tetris,
            generate: |o| {
                WorkloadSuiteConfig::scaled(o.size(100, 20), 0.05).generate(GENERATOR_SEED)
            },
            config: seeded,
            standalone_probes: true,
        },
        opts,
    )
}

pub fn fb_slots(opts: &Opts) -> WorkloadResult {
    run(
        &Case {
            name: "fb_slots",
            machines: opts.size(20, 8),
            variants: opts.size(16, 2),
            policy: Policy::Drf,
            generate: |o| {
                FacebookTraceConfig {
                    n_jobs: o.size(120, 30),
                    scale: if o.smoke { 0.02 } else { 0.03 },
                    mean_interarrival: 12.0,
                    ..FacebookTraceConfig::default()
                }
                .generate(GENERATOR_SEED + 1)
            },
            config: seeded,
            standalone_probes: false,
        },
        opts,
    )
}

pub fn serving_preempt(opts: &Opts) -> WorkloadResult {
    run(
        &Case {
            name: "serving_preempt",
            machines: opts.size(40, 20),
            variants: opts.size(4, 2),
            policy: Policy::Tetris,
            generate: |o| {
                ServingMixConfig::laptop(if o.smoke { 0.5 } else { 2.0 }).generate(GENERATOR_SEED)
            },
            config: |seed| {
                // The `serving` experiment's offset.
                let mut cfg = seeded(seed + 77);
                cfg.preemption = true;
                cfg
            },
            standalone_probes: false,
        },
        opts,
    )
}

/// Share of service replicas placed later than their SLO allows; a replica
/// that never started counts as late. `None` for an all-batch workload.
fn slo_violation_frac(w: &Workload, o: &SimOutcome) -> Option<f64> {
    let (mut replicas, mut late) = (0u64, 0u64);
    for t in &o.tasks {
        let spec = &w.jobs[t.job.index()];
        if let Some(slo) = spec.class.slo_latency() {
            replicas += 1;
            if t.start.is_none_or(|s| s - spec.arrival > slo) {
                late += 1;
            }
        }
    }
    (replicas > 0).then(|| late as f64 / replicas as f64)
}

fn run(case: &Case, opts: &Opts) -> WorkloadResult {
    let mut r = WorkloadResult::new(case.name);

    let (input, setup) = timed_setups(|| {
        let (workload, generate_s) = timed(|| (case.generate)(opts));
        Input {
            cluster: cluster(case.machines),
            workload,
            cfgs: variant_seeds(opts.seed, case.variants)
                .into_iter()
                .map(case.config)
                .collect(),
            generate_s,
        }
    });

    // Timed phase, tracing off: the run, and the same run the way
    // `reproduce` makes every one of its runs — through `run_observed`, an
    // `Obs` with a detached recorder attached — turn about, so both sample
    // the whole measuring window. Building the `Simulation` is inside the
    // timed operation: work moved from `run` into `build` must not vanish.
    // A variant's first outcome is the reference every later run of that
    // variant must reproduce.
    let ctx = RunCtx::new(Scale::Laptop, opts.seed);
    let mut digests: Vec<Option<u64>> = vec![None; case.variants];
    let mut reference = None;
    let mut run_s = Samples::new(case.variants);
    let mut observed_s = Samples::new(case.variants);
    let budget = opts.budget(case.variants);
    let mut done = 0;
    while budget.more(done) {
        let v = done % case.variants;
        let (o, s) = timed(|| input.sim(v, case.policy.boxed()).run());
        run_s.push(v, s);
        r.ops.record("run", outcome_problems(&o, digests[v]));
        let digest = *digests[v].get_or_insert_with(|| outcome_digest(&o));
        reference.get_or_insert(o);

        let (o, s) = timed(|| run_observed(&ctx, input.sim(v, case.policy.boxed())));
        observed_s.push(v, s);
        r.ops
            .record("observed run", outcome_problems(&o, Some(digest)));
        r.mark_peak_rss();
        done += 1;
    }
    // The plain `--seed` variant's: what the simulated results and the
    // traced phase are about.
    let reference = reference.expect("the budget makes at least two repetitions");
    let digest = digests[0].expect("variant 0 ran first");
    r.outcome_digest = Some(digest);

    let all_run_s = run_s.all();
    let run_wall_s = stats::median(&all_run_s);
    r.e2e("run_wall_s", run_wall_s, all_run_s.len());
    r.e2e(
        "tasks_per_s",
        input.workload.num_tasks() as f64 / run_wall_s,
        all_run_s.len(),
    );
    r.e2e("sim_makespan_s", reference.makespan(), 1);
    r.e2e("sim_avg_jct_s", reference.avg_jct(), 1);
    if let Some(frac) = slo_violation_frac(&input.workload, &reference) {
        r.e2e("sim_slo_violation_frac", frac, 1);
    }
    let in_ms = |s: &Samples| s.fastest_mean().map(|(s, n)| (s * 1e3, n));
    r.gated_ops(in_ms(&run_s), in_ms(&observed_s));
    r.finish_timed(setup);

    if opts.traced {
        let timed = TimedPhase {
            reference: &reference,
            digest,
            run_s: &run_s,
            observed_s: &observed_s,
        };
        traced_phase(case, &input, opts, &timed, &mut r);
    }
    r
}

/// What the traced phase needs from the timed one.
struct TimedPhase<'a> {
    reference: &'a SimOutcome,
    digest: u64,
    run_s: &'a Samples,
    observed_s: &'a Samples,
}

/// Traced runs. Each follows an untraced run, and the tracing overhead is
/// the fastest traced over the fastest of those neighbours: this host's
/// speed drifts over tens of seconds, so the timed phase is no reference.
const TRACED_REPS: usize = 10;

fn traced_phase(
    case: &Case,
    input: &Input,
    opts: &Opts,
    timed_phase: &TimedPhase<'_>,
    r: &mut WorkloadResult,
) {
    let &TimedPhase {
        reference,
        digest,
        run_s,
        observed_s,
    } = timed_phase;
    let tracer = Tracer::shared();

    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut op = 0;
    for _ in 0..opts.size(TRACED_REPS, 2) {
        let (o, s) = timed(|| input.sim(0, case.policy.boxed()).run());
        plain_s.push(s);
        r.ops.record("run", outcome_problems(&o, Some(digest)));

        op = tracer.borrow_mut().next_op();
        let (o, s) = timed(|| {
            spanned(&tracer, "sim.run", || {
                input.sim(0, case.policy.timed(tracer.clone())).run()
            })
        });
        traced_s.push(s);
        // Identity check: the wrapper must not have changed one decision.
        r.ops
            .record("traced run", outcome_problems(&o, Some(digest)));
    }
    // Per-layer numbers come from the last traced run.
    let op_wall_s = *traced_s.last().expect("at least one traced repetition");

    workload_layer_metrics(r, &input.workload, input.generate_s);

    let st = &reference.stats;
    let tr = tracer.borrow();
    let by_name = self_by_name(tr.spans(), Some(op));
    let engine_self_s = by_name.get("sim.run").map_or(0.0, |v| v.1 as f64 / 1e9);
    r.layer("sim.engine_self_s", engine_self_s, 1);
    r.layer("sim.engine_self_frac", engine_self_s / op_wall_s, 1);
    r.layer("sim.events", st.events as f64, 1);
    r.layer(
        "sim.events_per_s",
        st.events as f64 / stats::median(run_s.of(0)),
        run_s.of(0).len(),
    );
    r.layer(
        "sim.us_per_event",
        engine_self_s * 1e6 / st.events.max(1) as f64,
        1,
    );
    r.layer("sim.schedule_calls", st.schedule_calls as f64, 1);
    r.layer("sim.placements", st.placements as f64, 1);
    r.layer(
        "sim.rejected_assignments",
        st.rejected_assignments as f64,
        1,
    );
    r.layer("sim.task_retries", st.task_failures as f64, 1);
    r.layer("sim.preemptions", st.preemptions as f64, 1);
    policy_layer_metrics(
        r,
        &tr,
        (op, &by_name),
        case.policy.layer(),
        Some(st.placements),
    );
    r.layer("bench.spans", by_name.values().map(|v| v.0 as f64).sum(), 1);
    drop(tr);
    r.layer(
        "bench.trace_overhead_frac",
        stats::min(&traced_s) / stats::min(&plain_s) - 1.0,
        traced_s.len(),
    );
    // The timed phase made as many observed runs as plain ones, turn
    // about, of the same variants.
    if let (Some((observed, n)), Some((plain, _))) =
        (observed_s.fastest_mean(), run_s.fastest_mean())
    {
        r.layer("obs.noop_overhead_frac", observed / plain - 1.0, n);
    }

    tracer.borrow_mut().next_op();
    let (_, summarize_s) = timed(|| {
        spanned(&tracer, "metrics.summarize", || {
            std::hint::black_box(RunMetrics::of(reference))
        })
    });
    r.layer("metrics.summarize_ms", summarize_s * 1e3, 1);

    recompute_probe(case, input, r);
    if case.standalone_probes {
        align_throughput(r);
        sharded_run(input, reference, opts, &tracer, r);
    }
    r.spans = tracer.borrow_mut().take_spans();
}

/// `sim::state`: the full-cluster flow-rate recompute on this workload's
/// own flows — every job arrived and one scheduling pass applied.
fn recompute_probe(case: &Case, input: &Input, r: &mut WorkloadResult) {
    const REPS: usize = 200;
    let mut probe = RecomputeProbe::new(
        input.cluster.clone(),
        input.workload.clone(),
        input.cfgs[0].clone(),
        case.policy.boxed().as_mut(),
    );
    probe.measure(); // rates settle on the first call
    let us: Vec<f64> = (0..REPS)
        .map(|_| timed(|| probe.measure()).1 * 1e6)
        .collect();
    r.layer("sim.state.recompute_full_us", stats::median(&us), REPS);
    r.layer("sim.state.live_links", probe.links() as f64, 1);
    r.layer("sim.state.flows", probe.flows() as f64, 1);
}

/// `core::align`: scorer throughput on seeded capacity-normalised vectors.
fn align_throughput(r: &mut WorkloadResult) {
    const PAIRS: usize = 1024;
    const CALLS: usize = 1_000_000;
    // splitmix64: the vectors only need to be spread over [0, 1) and the
    // same on every run.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut unit = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut vec6 = || {
        let mut v = [0.0; NUM_RESOURCES];
        v.iter_mut().for_each(|x| *x = unit());
        ResourceVec(v)
    };
    let pairs: Vec<(ResourceVec, ResourceVec)> = (0..PAIRS).map(|_| (vec6(), vec6())).collect();
    let kind = AlignmentKind::default();
    let t = Instant::now();
    let mut acc = 0.0;
    for i in 0..CALLS {
        let (d, a) = &pairs[i % PAIRS];
        acc += kind.score_normalized(std::hint::black_box(d), std::hint::black_box(a));
    }
    std::hint::black_box(acc);
    r.layer(
        "core.align.scores_per_s",
        CALLS as f64 / t.elapsed().as_secs_f64(),
        CALLS,
    );
}

/// `sim::sharded`: the same engine run under the Omega-style driver. It
/// must place exactly the tasks the unsharded run placed.
fn sharded_run(
    input: &Input,
    reference: &SimOutcome,
    opts: &Opts,
    tracer: &SharedTracer,
    r: &mut WorkloadResult,
) {
    tracer.borrow_mut().next_op();
    let policy = ShardedScheduler::new(opts.shards, input.cfgs[0].seed, |_| Box::new(tetris()));
    let (o, s) = timed(|| {
        spanned(tracer, "sim.sharded.run", || {
            input.sim(0, Box::new(policy)).run()
        })
    });
    let mut problems = outcome_problems(&o, None);
    if o.stats.placements != reference.stats.placements {
        problems.push(format!(
            "sharded run placed {} tasks, unsharded {}",
            o.stats.placements, reference.stats.placements
        ));
    }
    r.ops.record("sharded run", problems);
    r.layer("sim.sharded.run_wall_s", s, 1);
    r.layer("sim.sharded.placed", o.stats.placements as f64, 1);
}
