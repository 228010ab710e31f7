//! The §5.3 sweep loop, written once: Tetris configs judged against fixed
//! baselines on the same workload draws (Figs. 8 and 10, Table 7, the
//! remote-penalty and ε sweeps). No baseline depends on the swept knob, so
//! each one runs once a draw, not once a config.

use tetris_core::TetrisConfig;
use tetris_metrics::pct_improvement;
use tetris_workload::{stats::mean, Workload};

use crate::setup::{run, run_tetris, with_zero_arrivals, SchedName};
use crate::RunCtx;

/// One config's mean gains against one baseline, in percent: average job
/// completion time with arrivals as drawn, and makespan with every job
/// arriving at zero (§5.3.1).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Gain {
    pub(crate) jct: f64,
    pub(crate) makespan: f64,
}

/// The default config with one knob set to each of `values`.
pub(crate) fn sweep<T: Copy>(
    values: &[T],
    set: impl Fn(&mut TetrisConfig, T),
) -> Vec<TetrisConfig> {
    let config = |&v: &T| {
        let mut tc = TetrisConfig::default();
        set(&mut tc, v);
        tc
    };
    values.iter().map(config).collect()
}

/// The Facebook-like trace at each sweep seed (one zero-arrival makespan
/// is noisy: whichever job finishes last sets it).
pub(crate) fn facebook_draws(ctx: &RunCtx) -> Vec<Workload> {
    let seeds = ctx.sweep_seeds().into_iter();
    seeds.map(|seed| ctx.scale.facebook_seeded(seed)).collect()
}

/// `gains[c][b]`: config `c`'s gains against baseline `b`, each the mean
/// over `draws` in draw order. A draw runs every baseline and every config
/// once with its arrivals and once with all arrivals at zero.
pub(crate) fn mean_gains(
    ctx: &RunCtx,
    draws: &[Workload],
    baselines: &[SchedName],
    configs: &[TetrisConfig],
) -> Vec<Vec<Gain>> {
    let (cluster, cfg) = (ctx.cluster(), ctx.sim_config());
    // Per config, per baseline: the (JCT, makespan) gain of each draw.
    let mut per_draw = vec![vec![(Vec::new(), Vec::new()); baselines.len()]; configs.len()];
    for w in draws {
        let w0 = with_zero_arrivals(w.clone());
        let base: Vec<(f64, f64)> = baselines
            .iter()
            .map(|&b| {
                let jct = run(ctx, &cluster, w, b, &cfg).avg_jct();
                (jct, run(ctx, &cluster, &w0, b, &cfg).makespan())
            })
            .collect();
        for (tc, row) in configs.iter().zip(&mut per_draw) {
            let jct = run_tetris(ctx, &cluster, w, tc.clone(), &cfg).avg_jct();
            let makespan = run_tetris(ctx, &cluster, &w0, tc.clone(), &cfg).makespan();
            for (&(b_jct, b_makespan), (jcts, makespans)) in base.iter().zip(row) {
                jcts.push(pct_improvement(b_jct, jct));
                makespans.push(pct_improvement(b_makespan, makespan));
            }
        }
    }
    let mean_gain = |(j, m): (Vec<f64>, Vec<f64>)| Gain {
        jct: mean(&j),
        makespan: mean(&m),
    };
    let row = |r: Vec<_>| r.into_iter().map(mean_gain).collect();
    per_draw.into_iter().map(row).collect()
}
