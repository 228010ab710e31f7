//! One module per paper artifact. Every experiment is a pure function of
//! its [`RunCtx`] returning a [`Report`] — rendered text for the CLI plus
//! typed headline metrics for sweep aggregation and benchmark emission.

pub mod churn;
pub mod deployment;
pub mod extensions;
mod gains;
pub mod ingestion;
pub mod knobs;
pub mod load;
pub mod motivating;
pub mod omega;
pub mod recovery;
pub mod scale;
pub mod sensitivity;
pub mod serving;
pub mod simulation;
pub mod table8;
pub mod upper_bound;
pub mod workload_tables;

use crate::{Report, RunCtx};

/// An experiment: id, what it reproduces, runner.
pub struct Experiment {
    /// Short id used on the command line ("fig4", "table2", ...).
    pub id: &'static str,
    /// One-line description of the paper artifact.
    pub what: &'static str,
    /// Runner. A plain `fn` (no captured state): experiments are pure
    /// functions of the context, which is what makes running them on a
    /// thread pool sound.
    pub run: fn(&RunCtx) -> Report,
    /// Serial seconds (at least 1) at laptop scale, as `reproduce all
    /// --jobs 1` measured them on a 2-vCPU host. The parallel runner starts
    /// the most expensive experiments first (longest-processing-time-
    /// first), which keeps the suite's critical path from being one big
    /// experiment queued last.
    pub cost: u32,
}

/// The full registry, in the paper's order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig1",
            what: "Figure 1 — motivating example: packing vs DRF on 3 jobs",
            run: motivating::fig1,
            cost: 1,
        },
        Experiment {
            id: "table2",
            what: "Table 2 — cross-resource demand correlation matrix",
            run: workload_tables::table2,
            cost: 1,
        },
        Experiment {
            id: "fig2",
            what: "Figure 2 — heat-map of task resource demands",
            run: workload_tables::fig2,
            cost: 1,
        },
        Experiment {
            id: "table3",
            what: "Table 3 — resource tightness probabilities",
            run: workload_tables::table3,
            cost: 1,
        },
        Experiment {
            id: "ub",
            what: "§2.2.3 — aggregate upper bound on packing gains",
            run: upper_bound::ub,
            cost: 1,
        },
        Experiment {
            id: "fig4",
            what: "Figure 4 — deployment: JCT improvement CDF + makespan",
            run: deployment::fig4,
            cost: 1,
        },
        Experiment {
            id: "fig5",
            what: "Figure 5 — running tasks and utilization timelines",
            run: deployment::fig5,
            cost: 1,
        },
        Experiment {
            id: "table6",
            what: "Table 6 — machine high-usage probabilities per scheduler",
            run: deployment::table6,
            cost: 1,
        },
        Experiment {
            id: "fig6",
            what: "Figure 6 — resource tracker vs data ingestion",
            run: ingestion::fig6,
            cost: 1,
        },
        Experiment {
            id: "fig7",
            what: "Figure 7 — simulation: JCT improvement CDFs + ablations",
            run: simulation::fig7,
            cost: 6,
        },
        Experiment {
            id: "table7",
            what: "Table 7 — alignment heuristic comparison",
            run: simulation::table7,
            cost: 1,
        },
        Experiment {
            id: "fig8",
            what: "Figure 8 — fairness knob sweep (efficiency side)",
            run: knobs::fig8,
            cost: 1,
        },
        Experiment {
            id: "fig9",
            what: "Figure 9 — fairness knob sweep (job slowdowns)",
            run: knobs::fig9,
            cost: 1,
        },
        Experiment {
            id: "riu",
            what: "§5.3.2 — relative integral unfairness",
            run: knobs::riu,
            cost: 1,
        },
        Experiment {
            id: "fig10",
            what: "Figure 10 — barrier knob sweep",
            run: knobs::fig10,
            cost: 4,
        },
        Experiment {
            id: "rp",
            what: "§5.3.3 — remote-penalty sensitivity",
            run: sensitivity::remote_penalty,
            cost: 3,
        },
        Experiment {
            id: "eps",
            what: "§5.3.3 — alignment-vs-SRTF weighting sensitivity",
            run: sensitivity::epsilon,
            cost: 4,
        },
        Experiment {
            id: "fig11",
            what: "Figure 11 — gains vs cluster load",
            run: load::fig11,
            cost: 1,
        },
        Experiment {
            id: "ext-est",
            what: "Extension — robustness to demand-estimation error (§4.1)",
            run: extensions::estimation,
            cost: 1,
        },
        Experiment {
            id: "ext-starve",
            what: "Extension — starvation prevention by reservation (§3.5)",
            run: extensions::starvation,
            cost: 1,
        },
        Experiment {
            id: "churn",
            what: "Extension — graceful degradation under machine churn (§3.1/§4.3)",
            run: churn::churn,
            cost: 7,
        },
        Experiment {
            id: "table8",
            what: "Table 8 — heartbeat overheads: incremental vs full-rebuild scheduling",
            run: table8::table8,
            cost: 1,
        },
        Experiment {
            id: "scale",
            what:
                "Extension — indexed MachineQuery: sublinear cold-pass placement at 100k machines",
            run: scale::scale,
            cost: 2,
        },
        Experiment {
            id: "omega",
            what: "Extension — Omega-style sharded multi-scheduler: heartbeat scaling vs shards",
            run: omega::omega,
            cost: 1,
        },
        Experiment {
            id: "recovery",
            what: "Extension — crash-recovery: re-execution against a WAL, byte-identical resume",
            run: recovery::recovery,
            cost: 1,
        },
        Experiment {
            id: "serving",
            what:
                "Extension — serving SLOs: diurnal services + preemption over a batch backlog (§16)",
            run: serving::serving,
            cost: 1,
        },
    ]
}

/// The upper median of `xs` (sorted in place): the sweeps' per-rep
/// timing summary.
fn median(xs: &mut [u64]) -> f64 {
    xs.sort_unstable();
    xs[xs.len() / 2] as f64
}

/// Look up one experiment by id.
pub fn find(id: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique_and_nonempty() {
        let reg = registry();
        assert_eq!(reg.len(), 26);
        let mut ids: Vec<_> = reg.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 26);
    }

    #[test]
    fn find_looks_up_by_id() {
        assert_eq!(find("fig4").unwrap().id, "fig4");
        assert!(find("nope").is_none());
    }
}
