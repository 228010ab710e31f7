//! Resource-tracker reports (paper §4.1).
//!
//! The tracker process on every node reports aggregate usage to the
//! cluster-wide resource manager. The engine runs the report cycle every
//! `REPORT_PERIOD_SECS` through `SimState::tracker_report`, below, which
//! also scores each machine's trustworthiness and prunes the ramp-up
//! entries older than the horizon. The paper describes the allowance for
//! usage-based reports:
//!
//! > "In its reports, the tracker provides allowance for newly assigned
//! > tasks to 'ramp up' their usages. It does so by increasing the
//! > observed usage by a small amount per task; the amount decreases over
//! > the task's lifetime and goes to zero after a threshold (we use 10s)."
//!
//! `SimState::availability` adds it: without the allowance, a scheduler
//! that trusts *usage* reports would over-schedule during the window
//! between assigning a task and the task reaching its steady-state usage.

use tetris_resources::{Resource, ResourceVec};

use crate::cluster::MachineId;
use crate::fault::TrackerMode;
use crate::state::SimState;

/// Ramp-up horizon in seconds (paper: 10 s).
pub(crate) const RAMP_UP_HORIZON_SECS: f64 = 10.0;

/// Seconds between two usage reports (§4.1: machines report usage
/// periodically; this staleness is also what batches freed resources and
/// avoids large-task starvation, §3.5).
pub(crate) const REPORT_PERIOD_SECS: f64 = 1.0;

// ----------------------------------------------------------------------
// Misbehaving-node detection (fault model, DESIGN.md §10)
//
// The resource manager scores each machine's trustworthiness from its
// report stream. Missed reports (crashed machine), implausible reports
// (claimed usage beyond hardware capacity) and frozen reports (stale
// tracker: the report stops moving while the allocation ledger does) add
// suspicion; every plausible report halves it. A machine at or above
// `SUSPECT_THRESHOLD` is *suspect*: schedulers deprioritize it rather
// than blacklist it, so the cluster degrades gracefully and a recovered
// machine earns its way back within a few report periods.
// ----------------------------------------------------------------------

/// Suspicion at or above which a machine is suspect. Two strikes: one
/// missed report is forgiven (report loss happens), two in a row are not.
pub(crate) const SUSPECT_THRESHOLD: f64 = 2.0;
/// Suspicion ceiling, so recovery time after a long outage is bounded
/// (cap → below threshold in two good reports at the default decay).
pub(crate) const SUSPICION_CAP: f64 = 8.0;
/// Multiplicative decay applied by each plausible report.
pub(crate) const SUSPICION_DECAY: f64 = 0.5;
/// Suspicion below this snaps to exactly zero (keeps honest machines'
/// state canonical and comparisons exact).
pub(crate) const SUSPICION_ZERO_BELOW: f64 = 0.125;
/// Suspicion added per missed report (machine down / unreachable).
pub(crate) const MISSED_REPORT_SUSPICION: f64 = 1.0;
/// Suspicion added per implausible (over-capacity) report.
pub(crate) const IMPLAUSIBLE_REPORT_SUSPICION: f64 = 1.0;
/// A report is implausible when any rate dimension exceeds capacity by
/// more than this factor (small margin forgives measurement jitter).
pub(crate) const PLAUSIBLE_CAPACITY_MARGIN: f64 = 1.05;
/// Consecutive frozen-while-ledger-moves reports before the stale
/// detector starts adding suspicion.
pub(crate) const STALE_STREAK_REPORTS: u32 = 3;

/// True if a usage report claims more than the machine's hardware can
/// deliver on some dimension (beyond the plausibility margin). Memory is
/// included: a report above physical RAM is just as impossible.
pub(crate) fn report_implausible(reported: &ResourceVec, capacity: &ResourceVec) -> bool {
    Resource::ALL.iter().any(|&r| {
        let cap = capacity.get(r);
        cap > 0.0 && reported.get(r) > cap * PLAUSIBLE_CAPACITY_MARGIN
    })
}

impl SimState {
    /// Tracker tick: machines report their current usage (task flows plus
    /// external activity) and prune expired ramp-up entries.
    ///
    /// With faults enabled, reports pass through each machine's
    /// [`TrackerMode`] (stale trackers freeze their last report, liars
    /// scale theirs) and feed the per-machine suspicion score: a down
    /// machine misses its report, an over-capacity report is implausible,
    /// and a frozen report while the allocation ledger moves marks a stale
    /// tracker. Suspicion decays on plausible reports. Machines crossing
    /// the suspect threshold (either way) are appended to `transitions`
    /// as `(machine, now_suspect)` so the engine can trace them.
    pub(crate) fn tracker_report(&mut self, transitions: &mut Vec<(MachineId, bool)>) {
        let horizon = RAMP_UP_HORIZON_SECS;
        let now = self.now;
        if !self.cfg.faults.enabled() {
            // Fast path, byte-identical to the pre-fault tracker.
            for mi in 0..self.machines.len() {
                let usage = self.machines[mi].usage(&self.flows);
                let ms = &mut self.machines[mi];
                ms.external_reported = ms.external;
                ms.usage_reported = usage;
                ms.recent.retain(|(t, _)| now.secs_since(*t) < horizon);
            }
            if self.cfg.reclaim_idle {
                // Reported usage moved on every machine and feeds the
                // reclaim-mode availability bound; the report is already
                // O(machines), so the index refresh rides along free.
                self.index_rebuild();
            }
            return;
        }
        let transitions_at_entry = transitions.len();
        for mi in 0..self.machines.len() {
            let was_suspect = self.machines[mi].suspicion >= SUSPECT_THRESHOLD;
            if self.machines[mi].down {
                // Missed report: the tracker hears nothing from a crashed
                // machine, which is itself a strong signal.
                let ms = &mut self.machines[mi];
                ms.suspicion = (ms.suspicion + MISSED_REPORT_SUSPICION).min(SUSPICION_CAP);
            } else {
                let usage = self.machines[mi].usage(&self.flows);
                let mode = self.tracker_modes[mi];
                let ms = &mut self.machines[mi];
                let (reported_usage, reported_external) = match mode {
                    TrackerMode::Honest => (usage, ms.external),
                    // A stale tracker re-sends its previous report forever.
                    TrackerMode::Stale => (ms.usage_reported, ms.external_reported),
                    // A misreporting tracker scales true usage by a factor
                    // (over- or under-reporting).
                    TrackerMode::Misreport(f) => (usage * f, ms.external * f),
                };
                if report_implausible(&reported_usage, &ms.capacity) {
                    // Claims more usage than the hardware can deliver.
                    ms.suspicion = (ms.suspicion + IMPLAUSIBLE_REPORT_SUSPICION).min(SUSPICION_CAP);
                    ms.stale_streak = 0;
                } else if reported_usage.get(Resource::Mem) != ms.allocated.get(Resource::Mem) {
                    // The report's memory figure contradicts the master's
                    // own allocation ledger. Memory is a space resource —
                    // an honest report equals allocated memory *by
                    // construction* — so a mismatch means the report is
                    // frozen (or scaled) while the ledger moved: a stale
                    // tracker. Rate resources can't be used here: a
                    // saturated link honestly repeats `capacity` forever.
                    // The streak tolerates one-report races a real,
                    // asynchronous cluster would produce.
                    ms.stale_streak += 1;
                    if ms.stale_streak >= STALE_STREAK_REPORTS {
                        ms.suspicion = (ms.suspicion + MISSED_REPORT_SUSPICION).min(SUSPICION_CAP);
                    }
                } else {
                    ms.stale_streak = 0;
                    ms.suspicion *= SUSPICION_DECAY;
                    if ms.suspicion < SUSPICION_ZERO_BELOW {
                        ms.suspicion = 0.0;
                    }
                }
                ms.usage_reported = reported_usage;
                ms.external_reported = reported_external;
                ms.recent.retain(|(t, _)| now.secs_since(*t) < horizon);
            }
            let is_suspect = self.machines[mi].suspicion >= SUSPECT_THRESHOLD;
            if is_suspect != was_suspect {
                transitions.push((MachineId(mi), is_suspect));
            }
        }
        if self.cfg.reclaim_idle {
            // Reported usage feeds the reclaim-mode bound on every machine.
            self.index_rebuild();
        } else {
            // Ledger-mode bound ignores reported usage: only suspicion
            // flips change the considered set.
            for i in transitions_at_entry..transitions.len() {
                let m = transitions[i].0;
                self.index_touch(m.index());
            }
        }
    }

    /// Cluster-wide tracker-reported usage as a fraction of capacity, in
    /// the most-loaded resource dimension. Observability only — policies
    /// see per-machine availability, never this aggregate.
    pub(crate) fn tracker_usage_fraction(&self) -> f64 {
        let mut usage = ResourceVec::zero();
        let mut cap = ResourceVec::zero();
        for ms in &self.machines {
            usage += ms.usage_reported + ms.external_reported;
            cap += ms.capacity;
        }
        usage
            .iter()
            .map(|(r, u)| {
                let c = cap.get(r);
                if c > 0.0 {
                    u / c
                } else {
                    0.0
                }
            })
            .fold(0.0f64, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::tests::{mk_state, one_stage, one_task_workload, params};
    use crate::time::SimTime;
    use tetris_workload::{JobId, TaskUid};

    fn d(cpu: f64) -> ResourceVec {
        ResourceVec::zero().with(Resource::Cpu, cpu)
    }

    /// CPU the scheduler loses on machine 0, `age` seconds after 2-core
    /// tasks were placed there at each of `placed_at`. No tracker report
    /// runs, so reported usage stays zero and the loss is the ramp-up
    /// allowance alone.
    fn allowance_cpu(placed_at: &[f64], age: f64) -> f64 {
        let mut st = mk_state(one_stage(placed_at.len(), params(2.0, 100.0, vec![])));
        st.job_arrives(JobId(0));
        for (i, &t) in placed_at.iter().enumerate() {
            st.now = SimTime::from_secs(t);
            st.apply_assignment(TaskUid(i), MachineId(0));
        }
        st.now = SimTime::from_secs(age);
        let cap = st.machines[0].capacity.get(Resource::Cpu);
        cap - st.availability(MachineId(0), true).get(Resource::Cpu)
    }

    #[test]
    fn allowance_full_at_zero_age() {
        assert_eq!(allowance_cpu(&[0.0], 0.0), 2.0);
    }

    #[test]
    fn allowance_decays_linearly() {
        assert_eq!(allowance_cpu(&[0.0], RAMP_UP_HORIZON_SECS / 2.0), 1.0);
    }

    #[test]
    fn allowance_zero_at_and_after_horizon() {
        assert_eq!(allowance_cpu(&[0.0], RAMP_UP_HORIZON_SECS), 0.0);
        assert_eq!(allowance_cpu(&[0.0], 10.0 * RAMP_UP_HORIZON_SECS), 0.0);
    }

    #[test]
    fn allowances_of_young_tasks_add_up() {
        // 2 cores at age 0 plus half of 2 cores at age 5.
        assert_eq!(allowance_cpu(&[0.0, 5.0], 5.0), 3.0);
    }

    #[test]
    fn implausible_report_detection() {
        let cap = d(4.0);
        // Within capacity and within the margin: plausible.
        assert!(!report_implausible(&d(4.0), &cap));
        assert!(!report_implausible(&d(4.0 * 1.04), &cap));
        // Beyond the margin: impossible hardware claim.
        assert!(report_implausible(&d(4.0 * 1.06), &cap));
        // Zero-capacity dimensions are ignored (cannot divide a claim by
        // hardware that isn't there).
        assert!(!report_implausible(
            &ResourceVec::zero().with(Resource::NetIn, 1.0),
            &d(4.0)
        ));
    }

    #[test]
    fn suspicion_constants_are_consistent() {
        // The cap must drop below the threshold within a few good reports,
        // and one strike must not be enough to mark a machine suspect.
        const { assert!(MISSED_REPORT_SUSPICION < SUSPECT_THRESHOLD) };
        const { assert!(SUSPECT_THRESHOLD < SUSPICION_CAP) };
        let mut s = SUSPICION_CAP;
        let mut reports = 0;
        while s >= SUSPECT_THRESHOLD {
            s *= SUSPICION_DECAY;
            reports += 1;
        }
        assert!(reports <= 3, "recovery takes too long: {reports} reports");
    }

    #[test]
    fn suspicion_rises_on_missed_reports_and_decays_on_good_ones() {
        let mut st = mk_state(one_task_workload(1.0, 10.0));
        st.cfg.faults.stale_frac = 0.5; // any non-zero knob enables faults
        let mut transitions = Vec::new();
        st.machine_crash(MachineId(0));
        let reports_to_suspect = (SUSPECT_THRESHOLD / MISSED_REPORT_SUSPICION).ceil() as usize;
        for _ in 0..reports_to_suspect {
            st.tracker_report(&mut transitions);
        }
        assert_eq!(transitions, vec![(MachineId(0), true)]);
        assert!(st.machines[0].suspicion >= SUSPECT_THRESHOLD);
        // Machine 1 stayed honest and unsuspected.
        assert_eq!(st.machines[1].suspicion, 0.0);
        // Recovery + good reports clear the suspicion.
        st.machine_recover(MachineId(0));
        transitions.clear();
        for _ in 0..16 {
            st.tracker_report(&mut transitions);
        }
        assert_eq!(transitions, vec![(MachineId(0), false)]);
        assert_eq!(st.machines[0].suspicion, 0.0);
    }

    #[test]
    fn stale_tracker_mode_freezes_reports_and_raises_suspicion() {
        let mut st = mk_state(one_task_workload(2.0, 10.0));
        st.cfg.faults.stale_frac = 0.5;
        st.tracker_modes[0] = TrackerMode::Stale;
        st.job_arrives(JobId(0));
        let mut transitions = Vec::new();
        st.tracker_report(&mut transitions);
        // Place a task: allocation moves, but the stale report stays
        // frozen at zero usage.
        st.apply_assignment(TaskUid(0), MachineId(0));
        st.recompute_dirty();
        for _ in 0..16 {
            st.tracker_report(&mut transitions);
        }
        assert!(st.machines[0].usage_reported.is_zero());
        assert_eq!(transitions, vec![(MachineId(0), true)]);
    }
}
