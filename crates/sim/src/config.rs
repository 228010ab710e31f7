//! Simulation configuration.

use tetris_resources::{Resource, ResourceVec};

use crate::cluster::MachineId;
use crate::fault::FaultPlan;
use crate::time::SimTime;

/// Interference model: when the demand on a disk or network link exceeds
/// its capacity by a factor ρ > 1, the link's *effective* delivered
/// bandwidth drops to `capacity / (1 + α·(ρ − 1))`.
///
/// This models the paper's central observation about over-allocation:
/// "When tasks contend for a resource, the total effective throughput is
/// lowered due to systemic reasons such as buffer overflows on switches
/// (incast), disk seek overheads, and processor cache misses" (§2.1).
/// CPU time-sharing is treated as efficient (α = 0 there); memory
/// over-commit is modelled separately via thrashing.
#[derive(Debug, Clone, Copy)]
pub struct Interference {
    /// Seek-overhead coefficient for DiskRead/DiskWrite links.
    pub disk_alpha: f64,
    /// Incast coefficient for NetIn/NetOut links.
    pub net_alpha: f64,
    /// Lower bound on delivered/nominal bandwidth: however badly a link is
    /// over-subscribed, it still delivers at least this fraction (seeks and
    /// incast degrade throughput, they don't zero it).
    pub floor: f64,
}

impl Default for Interference {
    fn default() -> Self {
        // Calibrated so that heavy over-subscription costs real
        // throughput (ρ = 2 delivers half the bandwidth, ρ = 4 a quarter)
        // without being cliff-like; see DESIGN.md.
        Interference {
            disk_alpha: 1.0,
            net_alpha: 1.0,
            floor: 0.25,
        }
    }
}

impl Interference {
    /// No interference loss (pure proportional sharing).
    pub fn none() -> Self {
        Interference {
            disk_alpha: 0.0,
            net_alpha: 0.0,
            floor: 1.0,
        }
    }

    /// The α for one resource dimension.
    pub fn alpha(&self, r: Resource) -> f64 {
        match r {
            Resource::DiskRead | Resource::DiskWrite => self.disk_alpha,
            Resource::NetIn | Resource::NetOut => self.net_alpha,
            Resource::Cpu | Resource::Mem => 0.0,
        }
    }

    /// Effective capacity of a link of capacity `cap` under total demand
    /// `demand` (≥ cap).
    pub fn effective_capacity(&self, r: Resource, cap: f64, demand: f64) -> f64 {
        if demand <= cap {
            return cap;
        }
        let rho = demand / cap;
        cap * (1.0 / (1.0 + self.alpha(r) * (rho - 1.0))).max(self.floor)
    }
}

/// A period of external (non-task) resource usage on one machine: data
/// ingestion, evacuation/re-replication, or a misbehaving process
/// (paper §4.3). The resource tracker observes it and reports it to the
/// scheduler; schedulers that ignore the tracker (slot-based baselines)
/// keep placing tasks onto the loaded machine — the Figure-6 experiment.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ExternalLoad {
    /// The loaded machine.
    pub machine: MachineId,
    /// Start time (seconds).
    pub start: f64,
    /// Duration (seconds).
    pub duration: f64,
    /// Resource usage rates while active (e.g. `DiskWrite` for ingestion,
    /// `DiskRead`+`NetOut` for evacuation).
    pub load: ResourceVec,
}

/// Engine knobs. All defaults follow the paper where it states a value and
/// are documented in DESIGN.md where it does not.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for simulator-internal randomness (block placement, failures).
    /// Workload randomness is seeded separately at generation time.
    pub seed: u64,
    /// HDFS-style replication factor for stored blocks.
    pub replication: usize,
    /// Utilization sampling period in seconds (None disables timelines).
    pub sample_period: Option<f64>,
    /// Record per-machine samples (Figure 5/6, Table 6). Disable for very
    /// large sweeps to save memory.
    pub record_machine_samples: bool,
    /// Record per-job allocation samples (relative integral unfairness).
    pub record_job_samples: bool,
    /// Hard stop: simulated seconds after which the run aborts (guards
    /// against a policy that never schedules some task).
    pub max_time: f64,
    /// Probability in [0,1] that a finishing task instead fails and
    /// re-runs. 1.0 is allowed and bounded: the failure roll is skipped
    /// once a task reaches its last permitted attempt, so even
    /// always-failing tasks terminate after `max_task_attempts` runs.
    pub task_failure_prob: f64,
    /// Maximum attempts per task before it is abandoned (job never
    /// completes); mirrors YARN's retry limit.
    pub max_task_attempts: u32,
    /// Maximum distinct source machines per shuffle read. Real shuffles
    /// fetch in bounded parallel waves; bounding fan-in keeps the flow
    /// graph tractable. Sources are aggregated to the largest `fanin`
    /// contributors, preserving total bytes.
    pub shuffle_fanin: usize,
    /// External (non-task) load periods.
    pub external_loads: Vec<ExternalLoad>,
    /// Interference (throughput-loss) model for over-subscribed disk and
    /// network links.
    pub interference: Interference,
    /// Usage-based idle reclamation for tracker-aware schedulers
    /// (paper §4.1): availability is derived from tracker-reported *usage*
    /// plus a decaying ramp-up allowance for recently placed tasks, so
    /// resources an over-estimate (or a finished CPU phase) leaves idle
    /// are re-offered. Disable to make tracker-aware availability purely
    /// demand-ledger based (strictly no over-allocation, but idle peaks
    /// are never reclaimed).
    pub reclaim_idle: bool,
    /// Fault-injection plan: machine crash/recover cycles, straggler
    /// slowdown windows, and tracker misbehavior. Disabled by default;
    /// a disabled plan perturbs nothing (byte-identical runs).
    pub faults: FaultPlan,
    /// Maintain the machine-side free-capacity index so `MachineQuery`
    /// serves cold-pass candidate selection sublinearly (DESIGN.md §13).
    /// Disable to force the linear-scan oracle every indexed path is
    /// pinned decision-identical against (`sim/tests/prop_index.rs`).
    pub machine_index: bool,
    /// Ignored: the write-ahead journal holds decisions only and recovery
    /// replays from heartbeat 0 (DESIGN.md §15), so there is no snapshot
    /// cadence to set. Kept only until the benchmark harness stops
    /// setting it.
    pub checkpoint_every: u64,
    /// Priority preemption (DESIGN.md §16): when on, policies may return
    /// assignments that evict strictly-lower-priority running tasks to
    /// place a higher class that cannot fit. Off by default — batch-only
    /// runs stay byte-identical to pre-serving behaviour.
    pub preemption: bool,
    /// Per-machine taint bitmasks, indexed by machine id (Kubernetes-style
    /// taints). Tasks only land on a tainted machine when their job's
    /// `PlacementConstraints::tolerations` covers every taint bit. Empty
    /// (the default) means an untainted cluster; when non-empty the length
    /// must equal the cluster size (checked at build time).
    pub machine_taints: Vec<u64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            replication: 3,
            sample_period: Some(5.0),
            record_machine_samples: true,
            record_job_samples: true,
            max_time: 30.0 * 24.0 * 3600.0,
            task_failure_prob: 0.0,
            max_task_attempts: 4,
            shuffle_fanin: 12,
            external_loads: Vec::new(),
            interference: Interference::default(),
            reclaim_idle: true,
            faults: FaultPlan::default(),
            machine_index: true,
            checkpoint_every: 32,
            preemption: false,
            machine_taints: Vec::new(),
        }
    }
}

impl SimConfig {
    /// Validate configuration values; called by the engine at build time.
    pub fn validate(&self) -> Result<(), String> {
        if self.replication == 0 {
            return Err("replication must be ≥ 1".into());
        }
        if let Some(p) = self.sample_period {
            if !(p > 0.0) {
                return Err("sample_period must be positive".into());
            }
        }
        if !(self.max_time > 0.0) {
            return Err("max_time must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.task_failure_prob) {
            return Err("task_failure_prob must be in [0,1]".into());
        }
        if self.max_task_attempts == 0 {
            return Err("max_task_attempts must be ≥ 1".into());
        }
        if self.shuffle_fanin == 0 {
            return Err("shuffle_fanin must be ≥ 1".into());
        }
        if !(self.interference.disk_alpha >= 0.0) || !(self.interference.net_alpha >= 0.0) {
            return Err("interference coefficients must be ≥ 0".into());
        }
        if !(0.0..=1.0).contains(&self.interference.floor) {
            return Err("interference floor must be in [0,1]".into());
        }
        for (i, e) in self.external_loads.iter().enumerate() {
            if !(e.start >= 0.0) || !(e.duration > 0.0) {
                return Err(format!("external load {i} has invalid timing"));
            }
            if e.load.min_component() < 0.0 || e.load.has_nan() {
                return Err(format!("external load {i} has invalid load vector"));
            }
        }
        self.faults.validate(self.max_time)?;
        Ok(())
    }

    /// Taint bitmask of one machine (0 = untainted; also the answer for
    /// machines beyond an empty/short taint table).
    pub(crate) fn machine_taint(&self, m: usize) -> u64 {
        self.machine_taints.get(m).copied().unwrap_or(0)
    }

    /// Hard-stop time as [`SimTime`].
    pub(crate) fn max_sim_time(&self) -> SimTime {
        SimTime::from_secs(self.max_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_resources::Resource;

    #[test]
    fn default_is_valid() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
    }

    #[test]
    fn rejects_bad_values() {
        let mut c = SimConfig::default();
        c.replication = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.sample_period = Some(-1.0);
        assert!(c.validate().is_err());

        // The failure probability accepts the full closed interval: 1.0 is
        // bounded because the roll is skipped on the final attempt.
        let mut c = SimConfig::default();
        c.task_failure_prob = 1.0;
        assert_eq!(c.validate(), Ok(()));
        c.task_failure_prob = 1.0 + 1e-9;
        assert!(c.validate().is_err());
        c.task_failure_prob = -0.1;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.shuffle_fanin = 0;
        assert!(c.validate().is_err());

        // Scheduler crashes are 1-based: heartbeat 0 never happens.
        let mut c = SimConfig::default();
        c.faults.sched_crash = Some(crate::fault::SchedulerCrash {
            at_heartbeat: 0,
            mid_commit: false,
        });
        assert!(c.validate().is_err());
        c.faults.sched_crash = Some(crate::fault::SchedulerCrash {
            at_heartbeat: 1,
            mid_commit: true,
        });
        assert_eq!(c.validate(), Ok(()));

        // Fault plans are validated against the sim horizon.
        let mut c = SimConfig::default();
        c.faults.crash_frac = 0.1;
        c.faults.window = (0.0, c.max_time);
        assert!(c.validate().is_err());
        c.faults.window = (0.0, 600.0);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn rejects_bad_external_load() {
        let mut c = SimConfig::default();
        c.external_loads.push(ExternalLoad {
            machine: MachineId(0),
            start: 0.0,
            duration: 0.0,
            load: ResourceVec::zero().with(Resource::DiskWrite, 1.0),
        });
        assert!(c.validate().is_err());
    }
}
