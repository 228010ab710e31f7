//! `heartbeat_backlog`: the paper's Table 8 — the time of one scheduling
//! decision with 51 000 tasks pending. No engine event loop runs here.
//!
//! Two operations, reported separately because they differ by two orders
//! of magnitude and regress independently: the **cold** decision (a fresh,
//! unsynced Tetris rebuilding its world from the view) and the **warm**
//! one (an event-synced Tetris after one machine drained).

use tetris_core::TetrisScheduler;
use tetris_sim::probe::{ColdPassProbe, IncrementalProbe, ScheduleProbe};
use tetris_sim::{ClusterConfig, SchedulerPolicy, ShardedScheduler, SimConfig};
use tetris_workload::{Workload, WorkloadSuiteConfig};

use super::{
    cluster, policy_layer_metrics, tetris, timed, timed_setups, variant_seeds,
    workload_layer_metrics, Ops, Opts, Samples, WorkloadResult, GENERATOR_SEED,
};
use crate::stats;
use crate::trace::{self_by_name, spanned, spanned_if, SharedTracer, Timed, Tracer, CORE};

/// Cold decisions per block. Blocks interleave the two operations so both
/// sample the whole run, not one end of it each; the slower operation gets
/// most of a block's time.
const COLD_PER_BLOCK: usize = 50;

/// A workload whose root stages alone hold at least `n` pending tasks,
/// every job arrived by t = 1 (the construction `reproduce table8` and the
/// `overheads` bench use; a private copy so this package follows only the
/// generator's public API).
fn pending_workload(n: usize, seed: u64) -> Workload {
    let mut jobs = (n / 90).max(1);
    loop {
        let mut cfg = WorkloadSuiteConfig::scaled(jobs, 0.125);
        cfg.arrival_horizon = 1.0;
        let w = cfg.generate(seed);
        let maps: usize = w.jobs.iter().map(|j| j.stages[0].len()).sum();
        if maps >= n {
            return w;
        }
        jobs += (jobs / 4).max(1);
    }
}

struct Input {
    cluster: ClusterConfig,
    workload: Workload,
    cfg: SimConfig,
    generate_s: f64,
    /// Every job arrived, nothing placed: the states a cold decision sees,
    /// one per seed-derived variant (the first has `--seed` itself).
    backlogs: Vec<ScheduleProbe>,
}

/// What a block's decisions did. Every block starts from the same state,
/// so every block must decide the same.
#[derive(Debug, Default, Clone, PartialEq)]
struct Decided {
    settled: usize,
    warm_drained: usize,
    warm_placed: usize,
    /// Per variant, the tasks its cold decisions placed (all the same).
    cold_placed: Vec<usize>,
}

struct Block {
    cold_ms: Samples,
    warm_us: Vec<f64>,
    /// Warm heartbeats that drained nothing: no decision to time.
    discarded: usize,
    decided: Decided,
}

/// One block: a fresh packed cluster, one warm heartbeat per machine, then
/// the cold decisions. `wrap` lets the traced phase substitute `Timed`.
fn block<P: SchedulerPolicy>(
    input: &mut Input,
    ops: &mut Ops,
    tracer: Option<&SharedTracer>,
    wrap: impl Fn(TetrisScheduler) -> P,
) -> Block {
    let variants = input.backlogs.len();
    let mut b = Block {
        cold_ms: Samples::new(variants),
        warm_us: Vec::new(),
        discarded: 0,
        decided: Decided {
            cold_placed: vec![0; variants],
            ..Decided::default()
        },
    };
    let machines = input.cluster.len();

    // Both policies are plain event-synced Tetris: the probe asserts their
    // streams stay identical, and the first one's time is the sample.
    let (mut inc, mut twin) = (wrap(tetris()), wrap(tetris()));
    let warm = ops.guarded("warm heartbeats", || {
        let mut probe = IncrementalProbe::new(
            input.cluster.clone(),
            input.workload.clone(),
            input.cfg.clone(),
        );
        let settled = spanned_if(tracer, "sim.probe.settle", || {
            probe.settle(&mut inc, &mut twin).0
        });
        let beats: Vec<_> = (0..machines)
            .map(|_| {
                spanned_if(tracer, "sim.probe.warm_heartbeat", || {
                    probe.warm_heartbeat(&mut inc, &mut twin)
                })
            })
            .collect();
        (settled, beats)
    });
    if let Some((settled, beats)) = warm {
        b.decided.settled = settled;
        for hb in beats {
            b.decided.warm_drained += hb.drained;
            b.decided.warm_placed += hb.placements;
            if hb.drained == 0 {
                b.discarded += 1;
            } else {
                b.warm_us.push(hb.inc_ns as f64 / 1e3);
                ops.record("warm heartbeat", vec![]);
            }
        }
    }

    for i in 0..COLD_PER_BLOCK {
        let v = i % variants;
        let mut policy = wrap(tetris());
        let (placed, s) = timed(|| {
            spanned_if(tracer, "sim.probe.cold", || {
                input.backlogs[v].measure(&mut policy)
            })
        });
        b.cold_ms.push(v, s * 1e3);
        let first = &mut b.decided.cold_placed[v];
        if *first == 0 {
            *first = placed;
        }
        let mut problems = Vec::new();
        if placed == 0 {
            problems.push("placed nothing".to_string());
        } else if placed != *first {
            problems.push(format!(
                "placed {placed} tasks, the variant's first decision placed {first}"
            ));
        }
        ops.record("cold decision", problems);
    }
    b
}

pub fn run(opts: &Opts) -> WorkloadResult {
    let mut r = WorkloadResult::new("heartbeat_backlog");
    let machines = opts.size(100, 20);
    let backlog = opts.size(51_000, 2_600);
    // Variants of the cold decision's state; the warm probe needs none
    // (its ten-seed spread is 4 % as it is).
    let variants = opts.size(4, 2);

    let (mut input, setup) = timed_setups(|| {
        let (workload, generate_s) = timed(|| pending_workload(backlog, GENERATOR_SEED));
        let cluster = cluster(machines);
        let mut cfg = SimConfig::default();
        cfg.seed = opts.seed;
        let backlogs = variant_seeds(opts.seed, variants)
            .into_iter()
            .map(|seed| {
                let mut cfg = cfg.clone();
                cfg.seed = seed;
                ScheduleProbe::new(cluster.clone(), workload.clone(), cfg)
            })
            .collect();
        Input {
            cluster,
            workload,
            cfg,
            generate_s,
            backlogs,
        }
    });

    let mut cold_ms = Samples::new(variants);
    let mut warm_us = Vec::new();
    let mut discarded = 0;
    let mut reference: Option<Decided> = None;
    let budget = opts.budget(1);
    let mut blocks = 0;
    while budget.more(blocks) {
        let b = block(&mut input, &mut r.ops, None, |p| p);
        r.mark_peak_rss();
        let first = reference.get_or_insert_with(|| b.decided.clone());
        if b.decided != *first {
            r.ops.record(
                "block",
                vec![format!(
                    "decisions {:?} differ from the first block's {first:?}",
                    b.decided
                )],
            );
        }
        cold_ms.extend(b.cold_ms);
        warm_us.extend(b.warm_us);
        discarded += b.discarded;
        blocks += 1;
    }
    let reference = reference.expect("the budget makes at least two blocks");
    let all_cold_ms = cold_ms.all();
    println!(
        "  heartbeat_backlog: {} pending tasks in {} jobs on {machines} machines; {blocks} blocks, \
         {} cold and {} warm samples, {discarded} warm heartbeats drained nothing and were discarded",
        input.backlogs[0].pending(),
        input.workload.jobs.len(),
        all_cold_ms.len(),
        warm_us.len(),
    );

    r.e2e(
        "decision_cold_p50_ms",
        stats::median(&all_cold_ms),
        all_cold_ms.len(),
    );
    if !warm_us.is_empty() {
        r.e2e(
            "decision_warm_p50_us",
            stats::median(&warm_us),
            warm_us.len(),
        );
    }
    // The tail percentiles follow the ten-samples-beyond rule: a run too
    // short to have them says so instead of reporting a maximum as a p95.
    for (name, xs) in [
        ("decision_cold_p95_ms", &all_cold_ms),
        ("decision_warm_p95_us", &warm_us),
    ] {
        match stats::percentile(xs, 0.95) {
            Ok(v) => r.e2e(name, v, xs.len()),
            Err(e) => println!("  {name}: {e}"),
        }
    }
    let fastest_warm_ms =
        (!warm_us.is_empty()).then(|| (stats::min(&warm_us) / 1e3, warm_us.len()));
    r.gated_ops(cold_ms.fastest_mean(), fastest_warm_ms);
    r.finish_timed(setup);

    if opts.traced {
        traced_phase(&mut input, opts, &reference, &mut r);
    }
    r
}

fn traced_phase(input: &mut Input, opts: &Opts, reference: &Decided, r: &mut WorkloadResult) {
    let tracer = Tracer::shared();
    // An untraced block right before the traced one: the overhead is read
    // from neighbours in time, not against the timed phase.
    let plain = block(input, &mut r.ops, None, |p| p);
    let op = tracer.borrow_mut().next_op();
    let b = spanned(&tracer, "sim.probe.block", || {
        block(input, &mut r.ops, Some(&tracer), |p| {
            Timed::new(p, tracer.clone(), &CORE)
        })
    });
    // Identity check: the wrapper must not have changed one decision.
    if b.decided != *reference {
        r.ops.record(
            "traced block",
            vec![format!(
                "decisions {:?} differ from the untraced {reference:?}",
                b.decided
            )],
        );
    }

    workload_layer_metrics(r, &input.workload, input.generate_s);
    let tr = tracer.borrow();
    let by_name = self_by_name(tr.spans(), Some(op));
    policy_layer_metrics(r, &tr, (op, &by_name), &CORE, None);
    r.layer("bench.spans", by_name.values().map(|v| v.0 as f64).sum(), 1);
    drop(tr);
    r.layer(
        "bench.trace_overhead_frac",
        stats::min(&b.cold_ms.all()) / stats::min(&plain.cold_ms.all()) - 1.0,
        COLD_PER_BLOCK,
    );

    sharded_cold_pass(input, opts, &tracer, r);
    index_cold_pass(opts, &tracer, r);

    r.spans = tracer.borrow_mut().take_spans();
}

/// `sim::sharded`: the cold decision fanned out over `--shards` inner
/// policies.
fn sharded_cold_pass(input: &Input, opts: &Opts, tracer: &SharedTracer, r: &mut WorkloadResult) {
    tracer.borrow_mut().next_op();
    let reps = opts.size(10, 3);
    let (mut wall_ms, mut critical_ms) = (Vec::new(), Vec::new());
    let (mut committed, mut conflicts, mut retry_rounds) = (0, 0, 0);
    for _ in 0..reps {
        let mut policy = ShardedScheduler::new(opts.shards, input.cfg.seed, |_| Box::new(tetris()));
        let (placed, s) = timed(|| {
            spanned(tracer, "sim.sharded.pass", || {
                input.backlogs[0].measure(&mut policy)
            })
        });
        wall_ms.push(s * 1e3);
        critical_ms.push(policy.last_heartbeat_critical_ns() as f64 / 1e6);
        let st = policy.stats();
        committed += st.committed;
        conflicts += st.conflicts;
        retry_rounds += st.retry_rounds;
        // Shards pack this heterogeneous backlog differently from one
        // scheduler, so the placed count may differ from the unsharded
        // decision's (the equal-count invariant is the engine run's, checked
        // on `suite_pack`); what must hold is that every committed proposal
        // is returned and something is placed.
        let mut problem = Vec::new();
        if placed == 0 {
            problem.push("placed nothing".to_string());
        }
        if st.committed != placed as u64 {
            problem.push(format!(
                "returned {placed} assignments but committed {}",
                st.committed
            ));
        }
        r.ops.record("sharded cold decision", problem);
    }
    r.layer("sim.sharded.cold_wall_ms", stats::median(&wall_ms), reps);
    r.layer(
        "sim.sharded.cold_critical_ms",
        stats::median(&critical_ms),
        reps,
    );
    r.layer(
        "sim.sharded.conflict_frac",
        conflicts as f64 / (committed + conflicts).max(1) as f64,
        reps,
    );
    r.layer(
        "sim.sharded.retry_rounds",
        retry_rounds as f64 / reps as f64,
        reps,
    );
}

/// `sim::view` + `sim::index`: one cold pass over a saturated cluster,
/// answered by the bucketed index and by the linear scan.
fn index_cold_pass(opts: &Opts, tracer: &SharedTracer, r: &mut WorkloadResult) {
    tracer.borrow_mut().next_op();
    let probe = ColdPassProbe::new(opts.size(10_000, 500), opts.size(100_000, 5_000));
    // One paired pass for the probe's own indexed == linear assert; its
    // queries are dropped so the stats below cover the timed passes only.
    if r.ops
        .guarded("index equivalence", || {
            probe.measure(&mut tetris(), &mut tetris())
        })
        .is_some()
    {
        r.ops.record("index equivalence", vec![]);
    }
    probe.take_index_stats();
    let reps = opts.size(50, 5);
    let (mut indexed_us, mut linear_us) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let mut p = tetris();
        let s = timed(|| {
            spanned(tracer, "sim.index.cold_pass", || {
                probe.cold_schedule_indexed(&mut p)
            })
        })
        .1;
        indexed_us.push(s * 1e6);
    }
    let st = probe.take_index_stats();
    for _ in 0..reps {
        let mut p = tetris();
        linear_us.push(timed(|| probe.cold_schedule_linear(&mut p)).1 * 1e6);
    }
    let (indexed, linear) = (stats::median(&indexed_us), stats::median(&linear_us));
    r.layer("sim.index.cold_pass_indexed_us", indexed, reps);
    r.layer("sim.index.cold_pass_linear_us", linear, reps);
    r.layer("sim.index.speedup", linear / indexed, reps);
    r.layer(
        "sim.index.pruned_frac",
        st.pruned as f64 / (st.pruned + st.returned).max(1) as f64,
        reps,
    );
    r.layer(
        "sim.index.env_visits_per_query",
        st.env_visits as f64 / st.queries.max(1) as f64,
        reps,
    );
}
