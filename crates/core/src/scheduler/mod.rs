//! The Tetris scheduler (paper §3): alignment packing, multi-resource
//! SRTF, the fairness and barrier knobs and §3.5's reservations behind one
//! `SchedulerPolicy`. `schedule` is a sequence of named steps; each file
//! holds one layer's state and the steps that fill it, and visibility is
//! the interface between them (DESIGN.md "The Tetris pass in layers").

use tetris_sim::{
    Assignment, ClusterView, MachineId, PlacementProvenance, SchedulerEvent, SchedulerPolicy,
    WorkingLedger,
};
use tetris_workload::TaskUid;

use crate::align::AlignmentKind;
use crate::estimate::{DemandEstimator, EstimationMode};
use crate::fairness::FairnessMeasure;
use crate::srtf::CombinedScorer;

mod bans;
mod candidates;
mod reserve;
mod scan;

use candidates::{CandidateSet, IncState};
use scan::Worklist;

/// Configuration of the Tetris scheduler. Defaults follow the paper's
/// recommended operating point.
#[derive(Debug, Clone)]
pub struct TetrisConfig {
    /// Fairness knob `f ∈ [0,1]` (§3.4). 0 = pure packing efficiency,
    /// →1 = strict fairness. Paper default: 0.25.
    pub fairness_knob: f64,
    /// Barrier knob `b ∈ [0,1]` (§3.5): promote stragglers of a
    /// barrier-feeding stage once `b` of it has finished; 1 disables.
    /// Paper default: 0.9 (good range [0.85, 0.95]).
    pub barrier_knob: f64,
    /// Penalty applied to the alignment score when a placement reads
    /// remote input (§3.2). Paper default: 10 %, insensitive in 8–20 %.
    pub remote_penalty: f64,
    /// SRTF weight multiplier `m` (ε = m·ā/p̄, §3.3.2). 0 disables the
    /// remaining-work term (pure packing). Paper default: 1.
    pub srtf_multiplier: f64,
    /// Alignment heuristic (Table 7). Default: cosine.
    pub alignment: AlignmentKind,
    /// How distance-from-fair-share is measured for the fairness knob.
    pub fairness_measure: FairnessMeasure,
    /// Ablation switch: when false, Tetris only *sees* CPU and memory —
    /// like the shipped baselines — so it over-allocates disk/network.
    /// Used to decompose the gains (§5.3.1: "nearly two-thirds of the
    /// gains are due to avoiding over-allocation").
    pub consider_io_dims: bool,
    /// Demand estimation mode (§4.1).
    pub estimation: EstimationMode,
    /// Starvation prevention by reservation — the paper's §3.5 future-work
    /// item ("a more principled solution that reserves machine resources
    /// for starved tasks"). When a runnable task has been pending longer
    /// than `patience` seconds, Tetris reserves the machine where it is
    /// closest to fitting: nothing else is placed there until the starved
    /// task fits. The default is `None` — the paper's deployed behaviour,
    /// which relies on heartbeat batching alone (§3.5) — so enabling
    /// reservations is an explicit, documented extension.
    pub starvation: Option<StarvationConfig>,
}

/// Parameters of starvation-prevention reservations (§3.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StarvationConfig {
    /// Pending age (seconds) after which a task counts as starved.
    pub patience: f64,
    /// Maximum machines reserved at once (bounds the capacity set aside).
    pub max_reservations: usize,
}

impl Default for StarvationConfig {
    fn default() -> Self {
        StarvationConfig {
            patience: 120.0,
            max_reservations: 2,
        }
    }
}

impl Default for TetrisConfig {
    fn default() -> Self {
        TetrisConfig {
            fairness_knob: 0.25,
            barrier_knob: 0.9,
            remote_penalty: 0.10,
            srtf_multiplier: 1.0,
            alignment: AlignmentKind::Cosine,
            fairness_measure: FairnessMeasure::DominantShare,
            consider_io_dims: true,
            estimation: EstimationMode::Exact,
            starvation: None,
        }
    }
}

impl TetrisConfig {
    /// Pure packing: no fairness constraint, no SRTF, no barrier hints.
    /// The "most efficient and most unfair" configuration.
    pub fn packing_only() -> Self {
        TetrisConfig {
            fairness_knob: 0.0,
            srtf_multiplier: 0.0,
            barrier_knob: 1.0,
            ..Self::default()
        }
    }

    /// Validate ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.fairness_knob) {
            return Err("fairness_knob must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.barrier_knob) {
            return Err("barrier_knob must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.remote_penalty) {
            return Err("remote_penalty must be in [0,1]".into());
        }
        if !(self.srtf_multiplier >= 0.0) || !self.srtf_multiplier.is_finite() {
            return Err("srtf_multiplier must be finite and ≥ 0".into());
        }
        if let Some(sc) = &self.starvation {
            if !(sc.patience > 0.0) || sc.max_reservations == 0 {
                return Err("invalid starvation config".into());
            }
        }
        Ok(())
    }
}

/// The Tetris scheduler.
///
/// ```
/// use tetris_core::{TetrisConfig, TetrisScheduler};
/// use tetris_sim::{ClusterConfig, Simulation};
/// use tetris_resources::MachineSpec;
/// use tetris_workload::WorkloadSuiteConfig;
///
/// let outcome = Simulation::build(
///         ClusterConfig::uniform(4, MachineSpec::paper_large()),
///         WorkloadSuiteConfig::small().generate(3),
///     )
///     .scheduler(TetrisScheduler::new(TetrisConfig::default()))
///     .seed(3)
///     .run();
/// assert!(outcome.all_jobs_completed());
/// ```
pub struct TetrisScheduler {
    cfg: TetrisConfig,
    scorer: CombinedScorer,
    estimator: DemandEstimator,
    /// Machines currently reserved for a starved task (§3.5).
    reservations: Vec<(MachineId, TaskUid)>,
    /// Event-maintained incremental state (see [`IncState`]).
    inc: IncState,
    /// The per-call layers, reused across calls: that changes where the
    /// data lives, never what it holds (`tests/schedule_equivalence.rs`).
    cands: CandidateSet,
    work: Worklist,
    /// What this call has charged and placed.
    ledger: WorkingLedger,
    /// Every `(task, machine)` this call planned, for the memo's test.
    #[cfg(test)]
    planned: Vec<(TaskUid, MachineId)>,
    /// Rendered once at construction — `name()` is called per round and
    /// per trace event.
    name: String,
}

impl TetrisScheduler {
    /// Build from a config.
    ///
    /// # Panics
    /// If the config is out of range.
    pub fn new(cfg: TetrisConfig) -> Self {
        cfg.validate().expect("invalid TetrisConfig");
        let mut name = format!(
            "tetris(f={},b={},m={},{})",
            cfg.fairness_knob,
            cfg.barrier_knob,
            cfg.srtf_multiplier,
            cfg.alignment.label()
        );
        if !cfg.consider_io_dims {
            name.push_str("[cpu-mem-only]");
        }
        TetrisScheduler {
            scorer: CombinedScorer::new(cfg.srtf_multiplier),
            estimator: DemandEstimator::new(cfg.estimation),
            reservations: Vec::new(),
            inc: IncState::default(),
            cands: CandidateSet::default(),
            work: Worklist::default(),
            ledger: WorkingLedger::new(!cfg.consider_io_dims),
            #[cfg(test)]
            planned: Vec::new(),
            name,
            cfg,
        }
    }

    /// Machines currently reserved for starved tasks (diagnostics).
    pub fn reserved_machines(&self) -> Vec<MachineId> {
        self.reservations.iter().map(|&(m, _)| m).collect()
    }

    /// The configuration in use.
    pub fn config(&self) -> &TetrisConfig {
        &self.cfg
    }

    /// Drop every layer's reusable buffers, forcing the next `schedule()`
    /// call to start from cold allocations — the reference behaviour the
    /// equivalence suite compares warm-scratch runs against. Persistent
    /// policy state (estimator, reservations, caches) is untouched.
    pub fn reset_scratch(&mut self) {
        self.cands = CandidateSet::default();
        self.work = Worklist::default();
        self.ledger = WorkingLedger::new(!self.cfg.consider_io_dims);
    }
}

/// What one call records about itself as its steps run: the provenance
/// its placements share, and the machines it considered.
#[derive(Default)]
struct PassRecord {
    prov: PlacementProvenance,
    considered: u32,
}

impl SchedulerPolicy for TetrisScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn uses_tracker(&self) -> bool {
        // Tetris subtracts tracker-reported external usage (§4.3).
        true
    }

    fn on_event(&mut self, _view: &ClusterView<'_>, event: &SchedulerEvent) {
        self.inc.on_event(event);
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        let mut pass = PassRecord::default();
        self.ledger.begin(view);
        #[cfg(test)]
        self.planned.clear();
        self.inc.invalidate(&self.cfg, &mut pass);
        self.estimator.update(view);
        self.lapse_reservations(view);
        if !self.build_candidates(view, &mut pass) {
            return Vec::new();
        }
        self.build_worklist(view, &mut pass);
        let mut out = self.fill(view, &pass);
        self.reserve_starved(view);
        // Priority preemption (DESIGN.md §16): when enabled and a
        // higher-priority job placed nothing above, evict strictly
        // lower-priority tasks to make room. No-op (None) with
        // `SimConfig::preemption` off, so batch runs are unchanged.
        if let Some(pre) = tetris_sim::plan_priority_preemption(view, &self.ledger) {
            out.push(pre);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_resources::{MachineSpec, Resource};
    use tetris_sim::{ClusterConfig, Simulation};
    use tetris_workload::WorkloadSuiteConfig;

    #[test]
    fn config_validation() {
        assert!(TetrisConfig::default().validate().is_ok());
        let mut c = TetrisConfig::default();
        c.fairness_knob = 1.5;
        assert!(c.validate().is_err());
        let mut c = TetrisConfig::default();
        c.remote_penalty = -0.1;
        assert!(c.validate().is_err());
        let mut c = TetrisConfig::default();
        c.srtf_multiplier = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = TetrisConfig::default();
        c.starvation = Some(StarvationConfig {
            patience: 60.0,
            max_reservations: 0,
        });
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid TetrisConfig")]
    fn new_panics_on_bad_config() {
        let mut c = TetrisConfig::default();
        c.barrier_knob = 2.0;
        let _ = TetrisScheduler::new(c);
    }

    #[test]
    fn name_reflects_config() {
        let s = TetrisScheduler::new(TetrisConfig::default());
        // The whole name: knobs and alignment, no other suffix.
        assert_eq!(s.name(), "tetris(f=0.25,b=0.9,m=1,cosine)");
        let mut c = TetrisConfig::default();
        c.consider_io_dims = false;
        assert!(TetrisScheduler::new(c).name().ends_with(")[cpu-mem-only]"));
    }

    #[test]
    fn completes_a_small_suite() {
        let outcome = Simulation::build(
            ClusterConfig::uniform(6, MachineSpec::paper_large()),
            WorkloadSuiteConfig::small().generate(5),
        )
        .scheduler(TetrisScheduler::new(TetrisConfig::default()))
        .seed(5)
        .run();
        assert!(outcome.all_jobs_completed());
        assert!(outcome.stats.placements >= outcome.tasks.len() as u64);
    }

    #[test]
    fn never_overallocates_any_dimension_without_reclamation() {
        // With idle reclamation off, availability is the demand ledger and
        // Tetris's feasibility checks make over-allocation impossible
        // (§3.2).
        let cluster = ClusterConfig::uniform(6, MachineSpec::paper_large());
        let cap = MachineSpec::paper_large().capacity();
        let mut cfg = tetris_sim::SimConfig::default();
        cfg.seed = 8;
        cfg.reclaim_idle = false;
        let outcome = Simulation::build(cluster, WorkloadSuiteConfig::small().generate(8))
            .scheduler(TetrisScheduler::new(TetrisConfig::default()))
            .config(cfg)
            .run();
        assert!(outcome.all_jobs_completed());
        for s in &outcome.samples {
            for ms in s.machines.as_ref().unwrap() {
                for r in Resource::ALL {
                    assert!(
                        ms.allocated.get(r) <= cap.get(r) * (1.0 + 1e-9) + 1e-6,
                        "over-allocated {r}: {}",
                        ms.allocated.get(r)
                    );
                }
            }
        }
    }

    #[test]
    fn reclamation_never_overcommits_memory_and_helps_throughput() {
        // With reclamation on (the paper's §4.1 design), idle CPU/IO peaks
        // are re-offered — but memory is a held resource and must never be
        // over-committed by Tetris.
        let cluster = ClusterConfig::uniform(6, MachineSpec::paper_large());
        let cap = MachineSpec::paper_large().capacity();
        let run = |reclaim| {
            let mut cfg = tetris_sim::SimConfig::default();
            cfg.seed = 8;
            cfg.reclaim_idle = reclaim;
            Simulation::build(
                ClusterConfig::uniform(6, MachineSpec::paper_large()),
                WorkloadSuiteConfig::small().generate(8),
            )
            .scheduler(TetrisScheduler::new(TetrisConfig::default()))
            .config(cfg)
            .run()
        };
        let _ = cluster;
        let with = run(true);
        let without = run(false);
        assert!(with.all_jobs_completed());
        for s in &with.samples {
            for ms in s.machines.as_ref().unwrap() {
                assert!(
                    ms.allocated.get(Resource::Mem) <= cap.get(Resource::Mem) * (1.0 + 1e-9),
                    "memory over-committed: {}",
                    ms.allocated.get(Resource::Mem)
                );
            }
        }
        // Reclamation must not hurt completion; it usually improves it.
        assert!(with.makespan() <= without.makespan() * 1.10);
    }

    #[test]
    fn cpu_mem_only_ablation_overallocates_io() {
        // With IO dims masked, Tetris behaves like the baselines and can
        // over-allocate disk/network on IO-heavy workloads: 12 disk-bound
        // writers (150 MB/s demand each) fit a machine by CPU+memory but
        // demand 9× its 200 MB/s disk.
        use tetris_resources::units::{GB, MB};
        use tetris_workload::{TaskParams, WorkloadBuilder};
        let mut b = WorkloadBuilder::new();
        let j = b.begin_job("writers", None, 0.0);
        b.add_stage(j, "w", vec![], 12, |_| TaskParams {
            cores: 1.0,
            mem: GB,
            duration: 20.0,
            cpu_frac: 0.1,
            io_burst: 1.0,
            inputs: vec![],
            output_bytes: 3000.0 * MB, // 150 MB/s over 20 s
            remote_frac: 1.0,
        });
        let mut cfg = TetrisConfig::default();
        cfg.consider_io_dims = false;
        let cluster = ClusterConfig::uniform(2, MachineSpec::paper_large());
        let mut sim_cfg = tetris_sim::SimConfig::default();
        sim_cfg.sample_period = Some(1.0);
        let outcome = Simulation::build(cluster, b.finish())
            .scheduler(TetrisScheduler::new(cfg))
            .config(sim_cfg)
            .run();
        let cap = MachineSpec::paper_large().capacity();
        let overallocated = outcome.samples.iter().any(|s| {
            s.machines.as_ref().unwrap().iter().any(|ms| {
                ms.allocated.get(Resource::DiskWrite) > cap.get(Resource::DiskWrite) * 1.01
            })
        });
        assert!(overallocated, "expected IO over-allocation in the ablation");
        // ... and the contention stretches the tasks well past ideal.
        assert!(
            outcome.mean_task_stretch() > 1.5,
            "stretch {}",
            outcome.mean_task_stretch()
        );
    }

    #[test]
    fn deterministic() {
        let run = || {
            Simulation::build(
                ClusterConfig::uniform(5, MachineSpec::paper_large()),
                WorkloadSuiteConfig::small().generate(2),
            )
            .scheduler(TetrisScheduler::new(TetrisConfig::default()))
            .seed(2)
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(
            a.tasks.iter().map(|t| t.finish).collect::<Vec<_>>(),
            b.tasks.iter().map(|t| t.finish).collect::<Vec<_>>()
        );
    }
}
