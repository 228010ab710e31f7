//! Typed scheduling events.
//!
//! Events are serialized one-per-line (JSON Lines) by
//! [`crate::JsonlRecorder`] as `{"t": <seconds>, "event": {"<Kind>":
//! {...}}}` — the externally-tagged enum encoding, chosen because it is
//! trivially filterable with jq (`select(.event.TaskPlaced)`).
//!
//! Ids are plain `usize` indices (job id, task uid, machine id) rather
//! than the simulator's newtypes: `tetris-obs` sits below `tetris-sim`
//! in the dependency graph, and raw indices keep the trace format
//! self-describing without pulling scheduler types into every consumer.

/// Per-decision score breakdown attached to a placement by scoring
/// schedulers (Tetris fills it; slot baselines leave it `None`).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DecisionScores {
    /// Alignment (packing) score of the chosen ⟨task, machine⟩ pair,
    /// after any remote-placement penalty (paper §3.2).
    pub alignment: f64,
    /// The task's multi-resource SRTF rank — the job's remaining-work
    /// score it inherited (paper §3.3.1).
    pub srtf: f64,
    /// Combined score actually maximized: `alignment + ε·srtf_bonus`
    /// (paper §3.3.2, eqn. around "combined score").
    pub combined: f64,
    /// How many machines the scheduler considered in this pass (the
    /// freed-hint set or the whole cluster).
    pub considered_machines: u32,
}

/// A candidate the scheduler scored for a slot but did not pick — the
/// runner-up detail behind a [`Event::TaskPlaced`] decision. Only
/// recorded when verbose tracing is on.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RejectedCandidate {
    /// Owning job id of the losing candidate.
    pub job: usize,
    /// Task uid of the losing candidate (the stage-head task scored).
    pub task: usize,
    /// Alignment (packing) score, for policies that compute one.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub alignment: Option<f64>,
    /// Multi-resource SRTF rank, for policies that compute one.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub srtf: Option<f64>,
    /// The policy's comparable score for the candidate: Tetris's combined
    /// score, or a slot baseline's queue rank (higher = preferred).
    pub score: f64,
}

/// Why a placement happened: the losing candidates plus the incremental
/// bookkeeping (Tetris's candidate caches; stateless policies report
/// zeros) that produced the decision. Attached
/// to [`Event::TaskPlaced`] only under `--trace-verbose`; default traces
/// omit the field entirely and stay byte-identical.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PlacementProvenance {
    /// Per-job candidate caches served warm in this `schedule()` call.
    pub cache_hits: u32,
    /// Caches built this call: never built before, or stale.
    pub cache_rebuilds: u32,
    /// True when caching is off (non-exact estimation) or the view's
    /// replica epoch moved under an entry this call rebuilt.
    pub cache_flushed: bool,
    /// Entries rebuilt this call because their job's epoch moved.
    pub dirty_jobs: u32,
    /// Candidates scored on the winning machine for this slot.
    pub candidates: u32,
    /// Considered machines the free-capacity index pruned from this
    /// pass's worklist before scoring (0 on warm passes or for policies
    /// that never consult the index). `serde(default)` keeps pre-index
    /// traces readable.
    #[serde(default)]
    pub index_pruned: u32,
    /// Machines on this pass's worklist after index pruning.
    #[serde(default)]
    pub index_considered: u32,
    /// Top-k losing candidates, best first by the policy's own ordering.
    pub rejected: Vec<RejectedCandidate>,
}

/// One observable scheduling occurrence.
///
/// Variants mirror the lifecycle the paper's evaluation reasons about:
/// arrivals, placements (with score breakdowns), retries, heartbeat
/// passes (Table 8) and tracker reports (§4.1).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Event {
    /// A job arrived and its root stages became runnable.
    JobArrived {
        /// Job id.
        job: usize,
        /// Job name from the workload.
        name: String,
        /// Total tasks across all stages.
        tasks: usize,
    },
    /// The engine applied a placement.
    TaskPlaced {
        /// Owning job id.
        job: usize,
        /// Task uid.
        task: usize,
        /// Host machine id.
        machine: usize,
        /// Alignment score, if the policy reported one.
        alignment_score: Option<f64>,
        /// SRTF rank, if reported.
        srtf_score: Option<f64>,
        /// Combined score, if reported.
        combined_score: Option<f64>,
        /// Machines considered in the pass, if reported.
        considered_machines: Option<u32>,
        /// Decision provenance (rejected candidates, cache/dirty-set
        /// bookkeeping). Only present under `--trace-verbose`; skipped
        /// on the wire when absent so default traces are byte-identical
        /// to pre-provenance versions.
        #[serde(skip_serializing_if = "Option::is_none", default)]
        provenance: Option<Box<PlacementProvenance>>,
        /// Priority class of the owning job. Present only when the job
        /// carries a non-default priority, so all-batch traces stay
        /// byte-identical to pre-priority versions.
        #[serde(skip_serializing_if = "Option::is_none", default)]
        priority: Option<u8>,
    },
    /// A task finished for good.
    TaskCompleted {
        /// Owning job id.
        job: usize,
        /// Task uid.
        task: usize,
        /// Host machine id of the final attempt.
        machine: usize,
        /// Attempts used (>1 ⇒ earlier failures).
        attempts: u32,
    },
    /// A running task lost its slot and went back to the pending queue
    /// (in the current engine: the failure model re-queued the attempt).
    TaskPreempted {
        /// Owning job id.
        job: usize,
        /// Task uid.
        task: usize,
        /// Machine the attempt was running on.
        machine: usize,
        /// Why the slot was lost (`"failure_retry"`, `"machine_crash"`,
        /// `"priority_preemption"`). `Cow` so emitters can pass interned
        /// `&'static str` tags without allocating; deserialization
        /// produces the owned form.
        reason: std::borrow::Cow<'static, str>,
        /// Priority class of the *victim's* job. Present only for
        /// priority preemptions; failure/crash kills skip it on the
        /// wire, keeping fault traces byte-identical to earlier versions.
        #[serde(skip_serializing_if = "Option::is_none", default)]
        priority: Option<u8>,
        /// Task uid of the higher-priority task whose placement evicted
        /// this one (priority preemptions only).
        #[serde(skip_serializing_if = "Option::is_none", default)]
        preempted_by: Option<usize>,
    },
    /// One full "resources freed → pick tasks" pass completed — the
    /// continuous version of the paper's Table-8 heartbeat measurement.
    HeartbeatProcessed {
        /// Pending runnable tasks when the pass began.
        pending_tasks: usize,
        /// Placements applied during the pass.
        placements: u64,
        /// Wall-clock time of the pass in nanoseconds.
        wall_ns: u64,
    },
    /// The resource tracker delivered a usage report round (§4.1).
    TrackerReport {
        /// Machines that reported.
        machines: usize,
    },
    /// Fault injection: a machine crashed, killing resident attempts.
    MachineDown {
        /// Machine id.
        machine: usize,
        /// Task attempts killed by the crash.
        killed: usize,
        /// Of those, attempts that will run again.
        requeued: usize,
        /// Of those, tasks permanently abandoned (attempt cap reached).
        abandoned: usize,
        /// Seconds of task progress lost.
        lost_task_seconds: f64,
        /// Blocks re-replicated off the dead machine.
        evacuations: usize,
    },
    /// Fault injection: a crashed machine recovered.
    MachineUp {
        /// Machine id.
        machine: usize,
    },
    /// Fault injection: a straggler window began on a machine.
    SlowdownStart {
        /// Machine id.
        machine: usize,
        /// Effective disk/net bandwidth factor in (0,1).
        factor: f64,
    },
    /// Fault injection: a straggler window ended.
    SlowdownEnd {
        /// Machine id.
        machine: usize,
    },
    /// Fault injection: a machine's tracker went stale ahead of a crash.
    TrackerFlaky {
        /// Machine id.
        machine: usize,
    },
    /// The tracker's suspicion score crossed the suspect threshold.
    MachineSuspected {
        /// Machine id.
        machine: usize,
    },
    /// A previously suspect machine's reports became trustworthy again.
    MachineCleared {
        /// Machine id.
        machine: usize,
    },
    /// A task was permanently abandoned after exhausting its attempts.
    TaskAbandoned {
        /// Owning job id.
        job: usize,
        /// Task uid.
        task: usize,
        /// Attempts used.
        attempts: u32,
    },
}

impl Event {
    /// Short kind tag (the enum variant name as it appears on the wire).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::JobArrived { .. } => "JobArrived",
            Event::TaskPlaced { .. } => "TaskPlaced",
            Event::TaskCompleted { .. } => "TaskCompleted",
            Event::TaskPreempted { .. } => "TaskPreempted",
            Event::HeartbeatProcessed { .. } => "HeartbeatProcessed",
            Event::TrackerReport { .. } => "TrackerReport",
            Event::MachineDown { .. } => "MachineDown",
            Event::MachineUp { .. } => "MachineUp",
            Event::SlowdownStart { .. } => "SlowdownStart",
            Event::SlowdownEnd { .. } => "SlowdownEnd",
            Event::TrackerFlaky { .. } => "TrackerFlaky",
            Event::MachineSuspected { .. } => "MachineSuspected",
            Event::MachineCleared { .. } => "MachineCleared",
            Event::TaskAbandoned { .. } => "TaskAbandoned",
        }
    }
}

/// One trace line: simulated timestamp plus event. This is the JSONL
/// wire format; [`crate::JsonlRecorder`] writes one per line and tests
/// parse lines back into it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceRecord {
    /// Simulated time in seconds.
    pub t: f64,
    /// The event.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_roundtrips_through_json() {
        let e = Event::TaskPlaced {
            job: 3,
            task: 17,
            machine: 2,
            alignment_score: Some(0.75),
            srtf_score: Some(1.25),
            combined_score: Some(0.875),
            considered_machines: Some(20),
            provenance: None,
            priority: None,
        };
        let line = serde_json::to_string(&TraceRecord {
            t: 12.5,
            event: e.clone(),
        })
        .unwrap();
        assert!(line.contains("\"TaskPlaced\""), "{line}");
        let back: TraceRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back.event, e);
        assert_eq!(back.t, 12.5);
    }

    #[test]
    fn baseline_placement_has_null_scores() {
        let e = Event::TaskPlaced {
            job: 0,
            task: 0,
            machine: 0,
            alignment_score: None,
            srtf_score: None,
            combined_score: None,
            considered_machines: None,
            provenance: None,
            priority: None,
        };
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"alignment_score\":null"), "{json}");
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    /// Byte-identity contract for default traces: a `TaskPlaced` without
    /// provenance must serialize to exactly the pre-provenance wire form
    /// (no `provenance` key, explicit `null` score fields). check.sh
    /// additionally greps live traces; this pins the exact bytes.
    #[test]
    fn default_task_placed_wire_bytes_are_unchanged() {
        let e = Event::TaskPlaced {
            job: 3,
            task: 17,
            machine: 2,
            alignment_score: Some(0.75),
            srtf_score: Some(1.25),
            combined_score: Some(0.875),
            considered_machines: Some(20),
            provenance: None,
            priority: None,
        };
        let json = serde_json::to_string(&e).unwrap();
        assert_eq!(
            json,
            "{\"TaskPlaced\":{\"job\":3,\"task\":17,\"machine\":2,\
             \"alignment_score\":0.75,\"srtf_score\":1.25,\
             \"combined_score\":0.875,\"considered_machines\":20}}"
        );
        // Old traces (without the field) still deserialize.
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn verbose_task_placed_roundtrips_with_provenance() {
        let e = Event::TaskPlaced {
            job: 1,
            task: 4,
            machine: 0,
            alignment_score: Some(0.5),
            srtf_score: Some(2.0),
            combined_score: Some(0.6),
            considered_machines: Some(8),
            provenance: Some(Box::new(PlacementProvenance {
                cache_hits: 5,
                cache_rebuilds: 2,
                cache_flushed: false,
                dirty_jobs: 2,
                candidates: 7,
                index_pruned: 3,
                index_considered: 5,
                rejected: vec![RejectedCandidate {
                    job: 2,
                    task: 9,
                    alignment: Some(0.4),
                    srtf: Some(3.0),
                    score: 0.45,
                }],
            })),
            priority: None,
        };
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"provenance\""), "{json}");
        assert!(json.contains("\"rejected\""), "{json}");
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn kind_tags_match_wire_tags() {
        let e = Event::TrackerReport { machines: 5 };
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.starts_with(&format!("{{\"{}\"", e.kind())), "{json}");
    }
}
