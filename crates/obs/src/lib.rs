//! # tetris-obs
//!
//! Runtime observability for the Tetris reproduction — the layer that
//! turns scheduler behaviour from anecdotes into data:
//!
//! * [`event`] — typed scheduling events ([`Event`]) with serde support,
//!   written as JSON Lines by a [`Recorder`];
//! * [`recorder`] — the [`Recorder`] trait plus sinks: [`NoopRecorder`]
//!   (compiles to a dead branch on the hot path), [`JsonlRecorder`]
//!   (buffered file sink), [`VecRecorder`] (in-memory, for tests);
//! * [`registry`] — [`MetricsRegistry`]: counters, gauges, and
//!   fixed-bucket latency [`Histogram`]s keyed by static names,
//!   snapshotable to JSON;
//! * [`histogram`] — power-of-two-bucket histograms with p50/p90/p99/max;
//! * [`timeseries`] — per-heartbeat cluster telemetry samples
//!   ([`TelemetrySample`]: utilization, fragmentation, backlog, suspect
//!   machines, packing efficiency) streamed as JSONL and rendered by
//!   `trace-tool report`;
//! * [`summary`] — small plain-text key/value rendering for CLI summaries.
//!
//! The paper's evaluation leans on exactly this kind of instrumentation:
//! Table 8 (heartbeat processing latency), Figures 5/6 (utilization
//! timelines) and §5.3 ("who got slowed and why") all require seeing
//! *individual decisions*, not just final outcomes.
//!
//! Everything funnels through an [`Obs`] context owned by the caller and
//! passed into the simulator by mutable reference. Observability must
//! never perturb the simulation: events carry no entropy back into the
//! engine, and `SimOutcome`s are byte-identical with or without a
//! recorder attached (enforced by an integration test in `tetris-sim`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod histogram;
pub mod recorder;
pub mod registry;
pub mod summary;
pub mod timeseries;

pub use event::{DecisionScores, Event, PlacementProvenance, RejectedCandidate};
pub use histogram::{Histogram, HistogramSnapshot};
pub use recorder::{JsonlRecorder, NoopRecorder, Recorder, VecRecorder};
pub use registry::{MetricsRegistry, MetricsSnapshot};
pub use timeseries::{TelemetrySample, TimeSeries};

/// Well-known metric names, shared across crates so snapshots stay
/// consistent and greppable.
pub mod names {
    /// Wall time of one full "resources freed → pick tasks" scheduling
    /// pass in the engine (histogram, nanoseconds). The continuous,
    /// per-run version of the paper's Table-8 heartbeat measurement.
    pub const HEARTBEAT_NS: &str = "heartbeat_ns";
    /// Wall time of a single `SchedulerPolicy::schedule` invocation
    /// (histogram, nanoseconds); a heartbeat may invoke several.
    pub const SCHEDULE_NS: &str = "schedule_ns";
    /// Tasks placed (counter).
    pub const PLACEMENTS: &str = "placements";
    /// Assignments the engine rejected as invalid (counter).
    pub const REJECTED_ASSIGNMENTS: &str = "rejected_assignments";
    /// Simulation events processed (counter).
    pub const ENGINE_EVENTS: &str = "engine_events";
    /// `SchedulerEvent`s delivered to the policy's `on_event` hook
    /// (counter) — nonzero proves the incremental path is exercised.
    pub const SCHED_EVENTS: &str = "scheduler_events";
    /// Task attempts re-queued by the failure model (counter).
    pub const TASK_RETRIES: &str = "task_retries";
    /// Running tasks evicted by priority preemption (counter;
    /// zero-gated — preemption-free runs add no name).
    pub const PREEMPTIONS: &str = "sched_preemptions_total";
    /// Tracker report rounds processed (counter).
    pub const TRACKER_REPORTS: &str = "tracker_reports";
    /// Pending runnable tasks observed at each heartbeat (gauge: latest).
    pub const PENDING_TASKS: &str = "pending_tasks";
    /// Cluster-wide tracker-reported usage fraction, worst dimension
    /// (gauge: latest).
    pub const TRACKER_USAGE_FRAC: &str = "tracker_usage_frac";
    /// Calls queued by a token bucket (counter).
    pub const TOKEN_THROTTLED: &str = "token_bucket_throttled";
    /// Queueing delay imposed by token buckets (histogram, simulated
    /// microseconds).
    pub const TOKEN_WAIT_US: &str = "token_wait_us";

    // ---------------- faults family (fault injection) ----------------

    /// Machine crash events injected by the fault plan (counter).
    pub const FAULT_CRASHES: &str = "fault_crashes";
    /// Machine recoveries (counter).
    pub const FAULT_RECOVERIES: &str = "fault_recoveries";
    /// Whole seconds of task progress lost to crashes (counter).
    pub const FAULT_LOST_TASK_SECONDS: &str = "fault_lost_task_seconds";
    /// Task attempts killed by crashes that will retry (counter).
    pub const FAULT_RETRIES: &str = "fault_retries";
    /// Tasks permanently abandoned at the attempt cap (counter).
    pub const FAULT_ABANDONED: &str = "fault_abandoned";
    /// Crash-lost attempts that waited out a restart backoff (counter).
    pub const FAULT_BACKOFF_WAITS: &str = "fault_backoff_waits";
    /// Straggler slowdown windows entered (counter).
    pub const FAULT_SLOWDOWNS: &str = "fault_slowdowns";
    /// Trackers that went stale ahead of an imminent crash.
    pub const FAULT_FLAKES: &str = "fault_flakes";
    /// Machines newly marked suspect by the tracker (counter).
    pub const FAULT_SUSPECTED: &str = "fault_suspected";
    /// Suspect machines cleared after good reports (counter).
    pub const FAULT_CLEARED: &str = "fault_cleared";
    /// Blocks re-replicated off crashed machines (counter).
    pub const FAULT_EVACUATIONS: &str = "fault_evacuations";
    /// Indexed machine queries served by the free-capacity index
    /// (counter; absent when the index never answered a query).
    pub const INDEX_QUERIES: &str = "machine_index_queries";
    /// Considered machines pruned from candidate sets by the index
    /// (counter).
    pub const INDEX_PRUNED: &str = "machine_index_pruned";
    /// Machines returned by indexed queries (counter).
    pub const INDEX_RETURNED: &str = "machine_index_returned";
    /// Availability evaluations performed by indexed envelope descents
    /// (counter; linear envelopes would cost one per considered machine).
    pub const INDEX_ENV_VISITS: &str = "machine_index_env_visits";
    /// Placement plans resolved — every policy feasibility check plus one
    /// per applied placement (counter). Deterministic, so
    /// `placement_plans / placements` is a timer-free read of how much
    /// planning a policy spends per task it places.
    pub const PLACEMENT_PLANS: &str = "placement_plans";
    /// Flows whose rate the engine re-evaluated because a factor on their
    /// path moved, or because they were new (counter). Deterministic.
    pub const RECOMPUTE_VISITS: &str = "recompute_visits";
    /// Visits that found a new rate and re-timed (or cancelled) the flow's
    /// queued completion (counter): `flow_retimes / recompute_visits` is
    /// the share of visits that were needed.
    pub const FLOW_RETIMES: &str = "flow_retimes";

    // ------- omega family (sharded multi-scheduler, sim::sharded) -------

    /// Proposals rejected at the sharded commit stage because a racing
    /// shard already claimed the capacity (counter; absent unless a
    /// sharded scheduler ran with more than one shard and actually
    /// conflicted).
    pub const SCHED_CONFLICTS: &str = "scheduling_conflicts_total";
    /// Intra-heartbeat retry rounds run by losing shards (counter).
    pub const CONFLICT_RETRY_ROUNDS: &str = "conflict_retry_rounds";
    /// Most retry rounds any single heartbeat needed (gauge: peak).
    pub const CONFLICT_RETRY_PEAK: &str = "conflict_retry_rounds_peak";
    /// Wall time of one shard's `schedule()` pass within a sharded
    /// heartbeat (histogram, microseconds; one sample per shard per
    /// fan-out round).
    pub const SHARD_HEARTBEAT_US: &str = "heartbeat_shard_us";

    // ------- recovery family (journal + crash recovery, sim::recovery) -------

    /// Records appended to the write-ahead decision journal (counter;
    /// absent unless the run journaled).
    pub const JOURNAL_RECORDS: &str = "journal_records_total";
    /// Bytes appended to the write-ahead decision journal (counter).
    pub const JOURNAL_BYTES: &str = "journal_bytes_total";
    /// State checkpoints written into the journal, including the genesis
    /// checkpoint (counter).
    pub const CHECKPOINTS: &str = "checkpoints_total";
    /// Scheduling batches re-applied from the journal during crash
    /// recovery (counter; absent unless a recovery ran).
    pub const RECOVERY_REPLAYED_BATCHES: &str = "recovery_replayed_batches";
    /// Journaled placements re-applied during crash recovery (counter).
    pub const RECOVERY_REPLAYED_PLACEMENTS: &str = "recovery_replayed_placements";
    /// Torn/truncated trailing journal records discarded by the lenient
    /// recovery scan (counter; absent when the tail was clean).
    pub const RECOVERY_DISCARDED_RECORDS: &str = "recovery_discarded_records";
    /// Wall time to restore the checkpoint and replay the journal tail
    /// back to the crash frontier (histogram, microseconds).
    pub const RECOVERY_LATENCY_US: &str = "recovery_latency_us";
}

/// The observability context: one recorder plus one metrics registry,
/// owned by the caller and threaded through a run by `&mut`.
pub struct Obs {
    recorder: Box<dyn Recorder>,
    /// Counters, gauges and histograms accumulated during the run.
    pub metrics: MetricsRegistry,
    verbose: bool,
    timeseries: Option<TimeSeries>,
}

impl Obs {
    /// Context with no event sink. Metrics still accumulate; event
    /// construction is skipped entirely (the [`Obs::emit`] closure is
    /// never called).
    pub fn noop() -> Self {
        Obs {
            recorder: Box::new(NoopRecorder),
            metrics: MetricsRegistry::new(),
            verbose: false,
            timeseries: None,
        }
    }

    /// Context recording events into `recorder`.
    pub fn with_recorder(recorder: Box<dyn Recorder>) -> Self {
        Obs {
            recorder,
            metrics: MetricsRegistry::new(),
            verbose: false,
            timeseries: None,
        }
    }

    /// Request verbose traces: emitters attach decision provenance
    /// (rejected candidates, cache bookkeeping) to placements. Has no
    /// effect unless a recorder is attached — default traces stay
    /// byte-identical.
    pub fn set_verbose(&mut self, on: bool) {
        self.verbose = on;
    }

    /// Whether emitters should attach decision provenance: verbose was
    /// requested *and* a recorder is actually consuming events.
    #[inline]
    pub fn verbose(&self) -> bool {
        self.verbose && self.recorder.enabled()
    }

    /// Attach a telemetry time-series collector; the engine samples the
    /// cluster once per heartbeat into it.
    pub fn set_timeseries(&mut self, ts: TimeSeries) {
        self.timeseries = Some(ts);
    }

    /// Whether a time-series collector is attached (hot paths gate the
    /// sample computation on this).
    #[inline]
    pub fn sampling(&self) -> bool {
        self.timeseries.is_some()
    }

    /// Record one telemetry sample (no-op when no collector is attached).
    #[inline]
    pub fn record_sample(&mut self, sample: TelemetrySample) {
        if let Some(ts) = self.timeseries.as_mut() {
            ts.record(sample);
        }
    }

    /// Detach and return the time-series collector, if any.
    pub fn take_timeseries(&mut self) -> Option<TimeSeries> {
        self.timeseries.take()
    }

    /// Whether the attached recorder wants events. Hot paths check this
    /// (or rely on [`Obs::emit`]'s internal check) so event construction
    /// costs nothing when tracing is off.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.recorder.enabled()
    }

    /// Record an event at simulated time `t` (seconds). `build` runs only
    /// if the recorder is enabled.
    #[inline]
    pub fn emit(&mut self, t: f64, build: impl FnOnce() -> Event) {
        if self.recorder.enabled() {
            self.recorder.record(t, &build());
        }
    }

    /// Flush the recorder and the time-series stream (e.g. at end of
    /// run).
    pub fn flush(&mut self) {
        self.recorder.flush();
        if let Some(ts) = self.timeseries.as_mut() {
            ts.flush();
        }
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::noop()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("tracing", &self.tracing())
            .field("metrics", &self.metrics)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_emit_never_builds_event() {
        let mut obs = Obs::noop();
        let mut built = false;
        obs.emit(0.0, || {
            built = true;
            Event::TrackerReport { machines: 0 }
        });
        assert!(!built, "noop recorder must not construct events");
    }

    #[test]
    fn vec_recorder_collects_events() {
        let rec = VecRecorder::shared();
        let mut obs = Obs::with_recorder(Box::new(rec.clone()));
        obs.emit(1.5, || Event::TrackerReport { machines: 4 });
        obs.emit(2.0, || Event::JobArrived {
            job: 0,
            name: "j0".into(),
            tasks: 3,
        });
        let events = rec.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].0, 1.5);
        assert!(matches!(events[0].1, Event::TrackerReport { machines: 4 }));
    }
}
