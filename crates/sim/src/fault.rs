//! Fault injection: deterministic, seed-driven cluster churn (paper §3.1,
//! §4.3).
//!
//! The paper's simulator replays "online job arrivals and failures", and
//! the deployed Tetris explicitly survives evacuation/re-replication and
//! misbehaving processes. This module grows the simulator a first-class
//! fault model with three ingredients:
//!
//! * **Crash/recover cycles** — a fraction of machines goes down and comes
//!   back, killing resident flows/tasks; lost attempts are re-queued with
//!   a restart backoff (capped by `max_task_attempts`) and lost block
//!   replicas are re-replicated through the external-load machinery.
//! * **Slowdown windows** — transient stragglers: a machine's effective
//!   disk/net bandwidth is scaled by a factor in `(0, 1]` for a while.
//! * **Tracker misbehavior** — machines whose usage reports go stale or
//!   are multiplied by an over/under-reporting factor, feeding the
//!   suspicion scoring in [`crate::tracker`].
//!
//! Determinism: all fault randomness is drawn from the simulation's seeded
//! RNG, *after* block placement and only when the plan is
//! [`FaultPlan::enabled`]. A disabled plan draws nothing and schedules
//! nothing, so runs without faults are byte-identical to runs built before
//! this module existed.

use rand::rngs::StdRng;
use rand::Rng;

/// Declarative fault-injection plan; expanded into a concrete, sorted
/// event schedule per run (see [`FaultPlan::expand`]). All knobs default
/// to "off"; `SimConfig::validate` rejects inconsistent settings.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Fraction of machines that undergo crash/recover cycling, in [0,1].
    pub crash_frac: f64,
    /// Crash/recover cycles per affected machine.
    pub crash_cycles: u32,
    /// Seconds a crashed machine stays down before recovering.
    pub downtime: f64,
    /// Window `[start, end)` of simulated seconds in which crashes and
    /// slowdowns begin. Recovery may extend past `end` by `downtime`
    /// (resp. `slowdown_duration`), but must stay inside the sim horizon.
    pub window: (f64, f64),
    /// Seconds a task attempt lost to a crash waits before it becomes
    /// schedulable again (≥ 0; 0 = immediate re-queue).
    pub restart_backoff: f64,
    /// Fraction of machines that experience one transient slowdown window,
    /// in [0,1].
    pub slowdown_frac: f64,
    /// Multiplier in (0,1] applied to the machine's effective disk and
    /// network bandwidth while slowed (1.0 = no slowdown).
    pub slowdown_factor: f64,
    /// Duration of each slowdown window in seconds.
    pub slowdown_duration: f64,
    /// Fraction of machines whose tracker reports freeze (stale reports),
    /// in [0,1].
    pub stale_frac: f64,
    /// Fraction of machines whose tracker multiplies reported usage by
    /// [`FaultPlan::misreport_factor`], in [0,1].
    pub misreport_frac: f64,
    /// Usage misreport multiplier (> 0; above 1 over-reports, below 1
    /// under-reports).
    pub misreport_factor: f64,
    /// Seconds before each crash during which the doomed machine's
    /// tracker goes stale (0 = crashes strike with no warning). Failing
    /// machines usually flake before they die; the stale reports feed the
    /// suspicion score, giving tracker-aware schedulers a window to stop
    /// placing work on the machine. Cleared when the machine recovers.
    pub flake_lead: f64,
    /// Re-replicate block replicas lost to a crash via external-load
    /// flows on a surviving source and a new destination (§4.3).
    pub evacuate: bool,
    /// Bandwidth (bytes/sec) of each re-replication transfer.
    pub rerep_bandwidth: f64,
    /// Bytes re-replicated per lost block replica (the workload does not
    /// size blocks individually; this calibration constant stands in for
    /// an HDFS block).
    pub rerep_bytes: f64,
    /// Kill the *scheduler* (not a machine) at a given heartbeat, leaving
    /// the journal as the only record of its decisions. Exercised by the
    /// crash-recovery path (DESIGN.md §15); requires the run to journal.
    pub sched_crash: Option<SchedulerCrash>,
}

/// A scheduler process crash, for crash-recovery testing. Unlike machine
/// faults this draws no randomness and schedules no events, so it is
/// deliberately *excluded* from [`FaultPlan::enabled`]: configuring a
/// crash must not perturb fault-expansion RNG draws, or the recovered
/// run could never be byte-identical to an uninterrupted one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerCrash {
    /// 1-based scheduling heartbeat at which the scheduler dies.
    pub at_heartbeat: u64,
    /// Die *mid-commit*: journal only half of the heartbeat's placements
    /// and no commit record, leaving a torn trailing batch for recovery
    /// to discard (the sharded mid-commit scenario).
    pub mid_commit: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            crash_frac: 0.0,
            crash_cycles: 1,
            downtime: 60.0,
            window: (0.0, 600.0),
            restart_backoff: 5.0,
            slowdown_frac: 0.0,
            slowdown_factor: 1.0,
            slowdown_duration: 120.0,
            stale_frac: 0.0,
            misreport_frac: 0.0,
            misreport_factor: 1.0,
            flake_lead: 0.0,
            evacuate: true,
            rerep_bandwidth: 50.0 * 1024.0 * 1024.0,
            rerep_bytes: 128.0 * 1024.0 * 1024.0,
            sched_crash: None,
        }
    }
}

impl FaultPlan {
    /// True iff the plan injects anything *into the simulated cluster*. A
    /// disabled plan draws no randomness and schedules no events — the
    /// byte-identity guarantee. `sched_crash` is intentionally absent: a
    /// scheduler crash kills the engine process mid-run but must not
    /// change what an uninterrupted run would have computed.
    pub fn enabled(&self) -> bool {
        (self.crash_frac > 0.0 && self.crash_cycles > 0)
            || self.slowdown_frac > 0.0
            || self.stale_frac > 0.0
            || self.misreport_frac > 0.0
    }

    /// Validate the plan against the run's hard stop `max_time`.
    pub fn validate(&self, max_time: f64) -> Result<(), String> {
        for (name, f) in [
            ("crash_frac", self.crash_frac),
            ("slowdown_frac", self.slowdown_frac),
            ("stale_frac", self.stale_frac),
            ("misreport_frac", self.misreport_frac),
        ] {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("fault {name} must be in [0,1]"));
            }
        }
        if !(self.restart_backoff >= 0.0) || !self.restart_backoff.is_finite() {
            return Err("fault restart_backoff must be finite and ≥ 0".into());
        }
        if !(self.flake_lead >= 0.0) || !self.flake_lead.is_finite() {
            return Err("fault flake_lead must be finite and ≥ 0".into());
        }
        if !(self.misreport_factor > 0.0) {
            return Err("fault misreport_factor must be > 0".into());
        }
        if !(self.rerep_bandwidth > 0.0) || !(self.rerep_bytes >= 0.0) {
            return Err("fault re-replication constants must be positive".into());
        }
        if !(self.slowdown_factor > 0.0 && self.slowdown_factor <= 1.0) {
            return Err("fault slowdown_factor must be in (0,1]".into());
        }
        let crashes = self.crash_frac > 0.0 && self.crash_cycles > 0;
        let slows = self.slowdown_frac > 0.0;
        if crashes || slows {
            let (a, b) = self.window;
            if !(a >= 0.0) || !(b > a) {
                return Err("fault window must satisfy 0 ≤ start < end".into());
            }
            if crashes {
                if !(self.downtime > 0.0) {
                    return Err("fault downtime must be > 0".into());
                }
                if b + self.downtime > max_time {
                    return Err("fault window + downtime exceeds max_time".into());
                }
            }
            if slows {
                if !(self.slowdown_duration > 0.0) {
                    return Err("fault slowdown_duration must be > 0".into());
                }
                if b + self.slowdown_duration > max_time {
                    return Err("fault window + slowdown_duration exceeds max_time".into());
                }
            }
        }
        if let Some(sc) = &self.sched_crash {
            // Heartbeats are event-driven, so the horizon in heartbeats is
            // not statically derivable from max_time; a crash heartbeat the
            // run never reaches simply means the run completes uncrashed.
            if sc.at_heartbeat == 0 {
                return Err("fault sched_crash.at_heartbeat must be ≥ 1".into());
            }
        }
        Ok(())
    }

    /// Expand the plan into a concrete schedule for `n_machines`, drawing
    /// from `rng`. The returned events are sorted by `(time, kind,
    /// machine)` so the engine's queue push order — and hence event
    /// sequence numbers — is deterministic.
    pub(crate) fn expand(
        &self,
        n_machines: usize,
        max_time: f64,
        rng: &mut StdRng,
    ) -> ExpandedFaultPlan {
        let mut ex = ExpandedFaultPlan {
            events: Vec::new(),
            tracker_modes: vec![TrackerMode::Honest; n_machines],
        };
        let (w0, w1) = self.window;

        if self.crash_frac > 0.0 && self.crash_cycles > 0 {
            for m in pick_machines(self.crash_frac, n_machines, rng) {
                let mut starts: Vec<f64> = (0..self.crash_cycles)
                    .map(|_| w0 + rng.gen::<f64>() * (w1 - w0))
                    .collect();
                starts.sort_by(|a, b| a.partial_cmp(b).unwrap());
                // Enforce recover-before-next-crash spacing.
                let mut prev_up = f64::NEG_INFINITY;
                for t in starts {
                    let down = t.max(prev_up);
                    let up = down + self.downtime;
                    if up > max_time {
                        break;
                    }
                    if self.flake_lead > 0.0 {
                        // The tracker flakes before the crash, but never
                        // while the machine is still down from the
                        // previous cycle.
                        let flake = (down - self.flake_lead).max(prev_up).max(0.0);
                        if flake < down {
                            ex.events.push((flake, FaultKind::Flake(m)));
                        }
                    }
                    ex.events.push((down, FaultKind::Down(m)));
                    ex.events.push((up, FaultKind::Up(m)));
                    prev_up = up;
                }
            }
        }

        if self.slowdown_frac > 0.0 && self.slowdown_factor < 1.0 {
            for m in pick_machines(self.slowdown_frac, n_machines, rng) {
                let start = w0 + rng.gen::<f64>() * (w1 - w0);
                let end = start + self.slowdown_duration;
                if end <= max_time {
                    ex.events.push((start, FaultKind::SlowStart(m)));
                    ex.events.push((end, FaultKind::SlowEnd(m)));
                }
            }
        }

        if self.stale_frac > 0.0 {
            for m in pick_machines(self.stale_frac, n_machines, rng) {
                ex.tracker_modes[m] = TrackerMode::Stale;
            }
        }
        if self.misreport_frac > 0.0 && self.misreport_factor != 1.0 {
            for m in pick_machines(self.misreport_frac, n_machines, rng) {
                // Stale wins if a machine is picked for both: a frozen
                // tracker cannot also scale fresh readings.
                if ex.tracker_modes[m] == TrackerMode::Honest {
                    ex.tracker_modes[m] = TrackerMode::Misreport(self.misreport_factor);
                }
            }
        }

        ex.events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then_with(|| a.1.sort_key().cmp(&b.1.sort_key()))
        });
        ex
    }
}

/// Pick `ceil(frac · n)` distinct machines via a partial Fisher–Yates
/// shuffle (deterministic given the RNG state). Returns at least one
/// machine whenever `frac > 0` and the cluster is non-empty.
fn pick_machines(frac: f64, n: usize, rng: &mut StdRng) -> Vec<usize> {
    if n == 0 || frac <= 0.0 {
        return Vec::new();
    }
    let k = ((frac * n as f64).ceil() as usize).clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// A concrete fault transition at some simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// Machine crashes.
    Down(usize),
    /// Machine recovers.
    Up(usize),
    /// IO slowdown begins.
    SlowStart(usize),
    /// IO slowdown ends.
    SlowEnd(usize),
    /// Tracker goes stale ahead of an imminent crash.
    Flake(usize),
}

impl FaultKind {
    /// A recovery sorts before a crash at the same instant: the spacing
    /// in [`FaultPlan::expand`] starts a machine's next cycle exactly when
    /// its last one ends, and the other order would crash the machine
    /// while it is down and then bring it up for the whole next cycle.
    fn sort_key(&self) -> (u8, usize) {
        match *self {
            FaultKind::Up(m) => (0, m),
            FaultKind::Down(m) => (1, m),
            FaultKind::SlowStart(m) => (2, m),
            FaultKind::SlowEnd(m) => (3, m),
            FaultKind::Flake(m) => (4, m),
        }
    }
}

/// How a machine's tracker behaves (assigned per machine at expansion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TrackerMode {
    /// Reports true usage.
    Honest,
    /// Reports never change after the first one (frozen tracker).
    Stale,
    /// Reports usage multiplied by the factor.
    Misreport(f64),
}

/// Expanded plan: sorted fault events plus per-machine tracker modes. A
/// pure function of (plan, machine count, horizon, rng state), drawn once
/// per run by the engine.
pub(crate) struct ExpandedFaultPlan {
    /// `(time_seconds, transition)`, sorted.
    pub(crate) events: Vec<(f64, FaultKind)>,
    /// Tracker behavior per machine index.
    pub(crate) tracker_modes: Vec<TrackerMode>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn plan_with_crashes() -> FaultPlan {
        FaultPlan {
            crash_frac: 0.3,
            crash_cycles: 2,
            downtime: 30.0,
            window: (0.0, 300.0),
            ..FaultPlan::default()
        }
    }

    #[test]
    fn default_plan_is_disabled_and_valid() {
        let p = FaultPlan::default();
        assert!(!p.enabled());
        assert_eq!(p.validate(1e6), Ok(()));
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let mut p = plan_with_crashes();
        p.crash_frac = 1.5;
        assert!(p.validate(1e6).is_err());

        let mut p = plan_with_crashes();
        p.restart_backoff = -1.0;
        assert!(p.validate(1e6).is_err());

        let mut p = plan_with_crashes();
        p.downtime = 0.0;
        assert!(p.validate(1e6).is_err());

        let mut p = plan_with_crashes();
        p.window = (100.0, 50.0);
        assert!(p.validate(1e6).is_err());

        // Window + downtime must stay inside the horizon.
        let p = plan_with_crashes();
        assert!(p.validate(310.0).is_err());
        assert!(p.validate(330.0).is_ok());

        let mut p = FaultPlan::default();
        p.slowdown_frac = 0.5;
        p.slowdown_factor = 0.0;
        assert!(p.validate(1e6).is_err());
        p.slowdown_factor = 1.5;
        assert!(p.validate(1e6).is_err());
        p.slowdown_factor = 0.3;
        assert!(p.validate(1e6).is_ok());

        let mut p = FaultPlan::default();
        p.misreport_frac = 0.2;
        p.misreport_factor = 0.0;
        assert!(p.validate(1e6).is_err());
    }

    #[test]
    fn expansion_is_deterministic_and_sorted() {
        let p = plan_with_crashes();
        let a = p.expand(20, 1e6, &mut StdRng::seed_from_u64(9));
        let b = p.expand(20, 1e6, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.events, b.events);
        assert!(
            a.events.windows(2).all(|w| w[0].0 <= w[1].0),
            "events must be time-sorted"
        );
        // 30% of 20 = 6 machines, 2 cycles each → ≤ 24 events, all paired.
        assert!(a.events.len().is_multiple_of(2) && !a.events.is_empty());
    }

    #[test]
    fn crash_cycles_never_overlap_per_machine() {
        let p = FaultPlan {
            crash_frac: 1.0,
            crash_cycles: 5,
            downtime: 40.0,
            window: (0.0, 100.0), // tight window forces spacing pushes
            ..FaultPlan::default()
        };
        let ex = p.expand(4, 1e6, &mut StdRng::seed_from_u64(3));
        // In the order the engine applies them, not only in time: a cycle
        // pushed back to start as the last one ends shares its instant.
        for m in 0..4 {
            let (mut down, mut downs, mut abutting) = (None, 0, 0);
            for &(t, k) in &ex.events {
                match k {
                    FaultKind::Down(x) if x == m => {
                        assert!(down.is_none(), "machine {m} crashed while down");
                        down = Some(t);
                        downs += 1;
                    }
                    FaultKind::Up(x) if x == m => {
                        down.take().expect("recovered while up");
                        abutting += usize::from(ex.events.contains(&(t, FaultKind::Down(m))));
                    }
                    _ => {}
                }
            }
            assert!(downs >= 1 && down.is_none());
            assert!(
                abutting >= 1,
                "the tight window abuts cycles on machine {m}"
            );
        }
    }

    #[test]
    fn flake_events_precede_each_crash() {
        let mut p = plan_with_crashes();
        p.flake_lead = 20.0;
        let ex = p.expand(20, 1e6, &mut StdRng::seed_from_u64(11));
        let downs: Vec<_> = ex
            .events
            .iter()
            .filter(|(_, k)| matches!(k, FaultKind::Down(_)))
            .collect();
        let flakes: Vec<_> = ex
            .events
            .iter()
            .filter(|(_, k)| matches!(k, FaultKind::Flake(_)))
            .collect();
        assert!(!downs.is_empty());
        // At most one flake per crash; back-to-back cycles (next crash at
        // the instant of recovery) get no flake window at all.
        assert!(!flakes.is_empty() && flakes.len() <= downs.len());
        for &&(t, k) in &flakes {
            let FaultKind::Flake(m) = k else {
                unreachable!()
            };
            // Each flake is followed by a crash of the same machine
            // within the lead time.
            assert!(
                ex.events.iter().any(|&(td, kd)| kd == FaultKind::Down(m)
                    && td >= t
                    && td <= t + p.flake_lead + 1e-9),
                "flake at {t} for machine {m} has no matching crash"
            );
        }
    }

    #[test]
    fn pick_machines_distinct_and_minimum_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let picked = pick_machines(0.01, 10, &mut rng);
        assert_eq!(picked.len(), 1);
        let mut all = pick_machines(1.0, 10, &mut rng);
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        assert!(pick_machines(0.0, 10, &mut rng).is_empty());
    }

    #[test]
    fn tracker_modes_assigned() {
        let p = FaultPlan {
            stale_frac: 0.25,
            misreport_frac: 0.25,
            misreport_factor: 0.5,
            ..FaultPlan::default()
        };
        let ex = p.expand(8, 1e6, &mut StdRng::seed_from_u64(4));
        let stale = ex
            .tracker_modes
            .iter()
            .filter(|m| **m == TrackerMode::Stale)
            .count();
        let mis = ex
            .tracker_modes
            .iter()
            .filter(|m| matches!(m, TrackerMode::Misreport(_)))
            .count();
        assert_eq!(stale, 2);
        assert!(mis >= 1, "misreporters must be assigned");
        assert!(ex.events.is_empty(), "tracker modes schedule no events");
    }
}
