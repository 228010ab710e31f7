//! Crash recovery: checkpoint restore + deterministic journal replay
//! (DESIGN.md §15).
//!
//! The journal ([`crate::journal`]) records enough to rebuild the engine
//! at any *batch boundary*: a periodic [`CheckpointState`] snapshot of
//! everything event processing reads or writes (ledgers, queue, RNG,
//! stats, samples), plus the per-batch commit decisions. Recovery is then
//! three deterministic steps:
//!
//! 1. **Scan** — walk the journal's frames up to the first bad one (a
//!    torn tail is discarded, not an error), holding every record to the
//!    journal's one [`Grammar`], and derive the *commit frontier*: the
//!    last batch whose `BatchCommit` survived. Records of an uncommitted
//!    trailing batch (the mid-commit crash artifact — e.g. only some of a
//!    `ShardedScheduler`'s merged shard plans made it out) are dropped
//!    with the tail. Decision records decode in full; a checkpoint is
//!    taken at its tag, and only the one step 2 restores is ever decoded.
//! 2. **Restore** — rebuild the engine from the last checkpoint at or
//!    before the frontier, including the policy's persistent state
//!    ([`crate::SchedulerPolicy::import_state`]: §3.5 reservations and
//!    the like — cache state is excluded, it rebuilds from the view).
//! 3. **Replay** — re-run the event loop from the checkpoint. Events are
//!    recomputed (they are a pure function of restored state), and the
//!    scheduling rounds of replayed heartbeats re-invoke the policy —
//!    determinism makes its decisions a pure function of the restored
//!    state — while every applied placement is cross-checked against the
//!    journaled decision stream. Any disagreement is a typed
//!    [`RecoveryError::ReplayDivergence`], never a silent fork. Past the
//!    frontier the run continues live to completion.
//!
//! Because every input to the event loop is restored exactly — queue
//! order *and* sequence counter, RNG state, ledger contents, policy
//! state — the recovered outcome is byte-identical to the uninterrupted
//! run's (pinned by `prop_recovery` and the `recovery` experiment).

use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;

use rand::rngs::StdRng;
use tetris_workload::Workload;

use crate::cluster::{ClusterConfig, MachineId};
use crate::config::{ExternalLoad, SimConfig};
use crate::events::{Event, EventQueue};
use crate::fault::TrackerMode;
use crate::journal::{
    self, Admitted, CommittedBatch, DiscardedTail, Frame, Grammar, Journal, JournalError,
    JournalRecord,
};
use crate::outcome::{EngineStats, Sample, SimOutcome};
use crate::state::{Flow, JobState, MachineState, SimState, TaskState};
use crate::time::SimTime;

/// How a journaled run ended.
#[derive(Debug)]
pub enum RunResult {
    /// The run completed (or hit the hard stop) normally.
    Completed(Box<SimOutcome>),
    /// A configured [`crate::SchedulerCrash`] fired: the scheduler died at
    /// this 1-based heartbeat, leaving the journal as its only trace.
    Crashed {
        /// Heartbeat at which the scheduler died.
        heartbeat: u64,
    },
}

impl RunResult {
    /// The outcome, if the run completed.
    pub fn completed(self) -> Option<SimOutcome> {
        match self {
            RunResult::Completed(o) => Some(*o),
            RunResult::Crashed { .. } => None,
        }
    }
}

/// Why a recovery attempt failed. Never a panic: corrupt journals and
/// divergent replays both surface as values.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// The journal could not be read back to a usable prefix.
    Journal(JournalError),
    /// Replay contradicted the live engine: a journaled decision was
    /// invalid against the reconstructed state, or batches misaligned.
    /// Indicates a journal from a different run slipping past the
    /// fingerprint, or corruption inside a CRC-valid payload.
    ReplayDivergence {
        /// Heartbeat at which replay diverged.
        heartbeat: u64,
        /// What disagreed.
        msg: String,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Journal(e) => write!(f, "journal unusable: {e}"),
            RecoveryError::ReplayDivergence { heartbeat, msg } => {
                write!(f, "replay diverged at heartbeat {heartbeat}: {msg}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<JournalError> for RecoveryError {
    fn from(e: JournalError) -> Self {
        RecoveryError::Journal(e)
    }
}

/// A successful recovery: the reconstructed outcome plus what it took.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered run's outcome — byte-identical to an uninterrupted
    /// run of the same builder.
    pub outcome: SimOutcome,
    /// Recovery diagnostics.
    pub stats: RecoveryStats,
}

/// Diagnostics of one recovery.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryStats {
    /// Heartbeat of the checkpoint restored from.
    pub checkpoint_heartbeat: u64,
    /// Committed batches replayed from the journal (frontier −
    /// checkpoint; ≤ the configured checkpoint interval when the journal
    /// is untruncated).
    pub replayed_batches: u64,
    /// Journaled placements re-derived and cross-checked during replay.
    pub replayed_placements: u64,
    /// Records dropped with the torn tail (0 for a clean journal).
    pub discarded_records: u64,
    /// Byte offset where the torn tail began, if one was discarded.
    pub discarded_offset: Option<u64>,
    /// Wall-clock of restore + replay back to the commit frontier,
    /// microseconds.
    pub recovery_wall_us: u64,
}

/// Everything the engine needs to resume at a batch boundary. Fields not
/// stored are derivable: `task_loc` and `total_capacity` from the
/// builder's cluster/workload, the machine index via `index_rebuild`, and
/// the dirty set is empty at every batch boundary.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) struct CheckpointState {
    pub now_us: u64,
    pub heartbeat: u64,
    pub machines: Vec<MachineState>,
    pub tasks: Vec<TaskState>,
    pub jobs: Vec<JobState>,
    pub blocks: Vec<Vec<MachineId>>,
    pub flows: Vec<Flow>,
    pub jobs_remaining: usize,
    pub rng: [u64; 4],
    pub completions: usize,
    pub tracker_modes: Vec<TrackerMode>,
    pub tracker_modes_baseline: Vec<TrackerMode>,
    pub dynamic_loads: Vec<ExternalLoad>,
    pub external_active: Vec<bool>,
    pub external_cancelled: Vec<bool>,
    pub tasks_abandoned: u64,
    pub freed_hint: Vec<MachineId>,
    pub events: Vec<Event>,
    pub next_seq: u64,
    pub stats: EngineStats,
    pub samples: Vec<Sample>,
    /// The policy's persistent cross-call state
    /// ([`crate::SchedulerPolicy::export_state`]); `None` for policies
    /// whose only cross-call state is rebuildable cache.
    pub policy_state: Option<String>,
}

impl CheckpointState {
    /// Snapshot the engine at a batch boundary.
    pub(crate) fn capture(
        state: &SimState,
        queue: &EventQueue,
        stats: &EngineStats,
        samples: &[Sample],
        heartbeat: u64,
        policy_state: Option<String>,
    ) -> Self {
        let (events, next_seq) = queue.snapshot();
        CheckpointState {
            now_us: state.now.0,
            heartbeat,
            machines: state.machines.clone(),
            tasks: state.tasks.clone(),
            jobs: state.jobs.clone(),
            blocks: state.blocks.clone(),
            flows: state.flows.clone(),
            jobs_remaining: state.jobs_remaining,
            rng: state.rng.state(),
            completions: state.completions,
            tracker_modes: state.tracker_modes.clone(),
            tracker_modes_baseline: state.tracker_modes_baseline.clone(),
            dynamic_loads: state.dynamic_loads.clone(),
            external_active: state.external_active.clone(),
            external_cancelled: state.external_cancelled.clone(),
            tasks_abandoned: state.tasks_abandoned,
            freed_hint: state.freed_hint.clone(),
            events,
            next_seq,
            stats: stats.clone(),
            samples: samples.to_vec(),
            policy_state,
        }
    }

    /// Rebuild engine state from this snapshot. The builder supplies the
    /// static inputs (cluster, workload, config); the snapshot overwrites
    /// every runtime field, so the `SimState::new` RNG draws (block
    /// placement) are discarded along with its fresh block binding.
    pub(crate) fn restore(
        self,
        cluster: ClusterConfig,
        workload: Workload,
        cfg: SimConfig,
    ) -> (SimState, EventQueue, EngineStats, Vec<Sample>, u64) {
        let mut state = SimState::new(cluster, workload, cfg);
        state.now = SimTime(self.now_us);
        state.machines = self.machines;
        state.tasks = self.tasks;
        state.jobs = self.jobs;
        state.blocks = self.blocks;
        state.flows = self.flows;
        state.jobs_remaining = self.jobs_remaining;
        state.rng = StdRng::from_state(self.rng);
        state.completions = self.completions;
        state.tracker_modes = self.tracker_modes;
        state.tracker_modes_baseline = self.tracker_modes_baseline;
        state.dynamic_loads = self.dynamic_loads;
        state.external_active = self.external_active;
        state.external_cancelled = self.external_cancelled;
        state.tasks_abandoned = self.tasks_abandoned;
        state.freed_hint = self.freed_hint;
        state.index_rebuild();
        let queue = EventQueue::restore(self.events, self.next_seq);
        (state, queue, self.stats, self.samples, self.heartbeat)
    }
}

/// The replay half of a recovery: the batches between the restored
/// checkpoint and the commit frontier, plus bookkeeping the engine fills
/// in as it consumes them.
#[derive(Debug)]
pub(crate) struct ReplayPlan {
    pub batches: VecDeque<CommittedBatch>,
    pub stats: RecoveryStats,
    /// Started at restore begin; stops when the last batch is consumed.
    pub started: Instant,
    pub replay_done: bool,
}

/// Scan `journal`, validate it against the builder's `fingerprint`, and
/// derive (checkpoint to restore, batches to replay).
pub(crate) fn plan_recovery(
    journal: &Journal,
    expected_fingerprint: u64,
) -> Result<(CheckpointState, ReplayPlan), RecoveryError> {
    let started = Instant::now();
    let buf = journal.bytes();
    let discard = |offset: u64, reason: String| DiscardedTail {
        offset,
        bytes: buf.len() as u64 - offset,
        reason,
    };
    // The readable prefix ends at the first bad frame — or, found out
    // last, at the checkpoint to restore if its state does not decode:
    // then that is the bad frame and the shorter prefix is walked again.
    // Frame damage is forgiven so; grammar damage inside the prefix never.
    let mut end = buf.len();
    let mut tail: Option<DiscardedTail> = None;
    loop {
        let mut grammar = Grammar::default();
        let mut checkpoint: Option<Frame> = None;
        let mut committed: Vec<CommittedBatch> = Vec::new();
        for frame in journal::frames(&buf[..end])? {
            // A checkpoint is admitted at its tag, its state unread; a
            // frame that is defective or does not decode ends the prefix.
            let admitted = match frame.checkpoint_heartbeat() {
                Some(heartbeat) => grammar.checkpoint(frame.offset, heartbeat)?,
                None => match frame.decode() {
                    Ok(rec) => grammar.step(frame.offset, &rec)?,
                    Err(e) => {
                        tail = Some(discard(frame.offset, e.to_string()));
                        break;
                    }
                },
            };
            match admitted {
                Admitted::Header { fingerprint } if fingerprint != expected_fingerprint => {
                    return Err(JournalError::FingerprintMismatch {
                        expected: expected_fingerprint,
                        found: fingerprint,
                    }
                    .into());
                }
                Admitted::Checkpoint => {
                    checkpoint = Some(frame);
                    // Batches at or before the snapshot are baked into it.
                    committed.clear();
                }
                Admitted::Batch(b) => committed.push(b),
                Admitted::Header { .. } | Admitted::Pending => {}
            }
        }
        let discarded_records = grammar.finish()?;

        let frame = checkpoint.ok_or(JournalError::NoCheckpoint)?;
        let (checkpoint_heartbeat, cp) = match frame.decode() {
            Ok(JournalRecord::Checkpoint { heartbeat, state }) => (heartbeat, *state),
            // Tagged `Checkpoint`, so it decodes as one or not at all.
            undecodable => {
                let why = undecodable.err().map(|e| e.to_string()).unwrap_or_default();
                tail = Some(discard(frame.offset, why));
                end = frame.offset as usize;
                continue;
            }
        };
        // Only batches after the checkpoint remain, chained from it by
        // the grammar.
        let stats = RecoveryStats {
            checkpoint_heartbeat,
            replayed_batches: committed.len() as u64,
            replayed_placements: committed.iter().map(|b| b.expected.len() as u64).sum(),
            discarded_records,
            discarded_offset: tail.map(|t| t.offset),
            recovery_wall_us: 0,
        };
        let plan = ReplayPlan {
            batches: committed.into(),
            stats,
            started,
            replay_done: false,
        };
        return Ok((cp, plan));
    }
}

/// FNV-1a fingerprint binding a journal to its run: cluster shape,
/// workload size, and seed. Deliberately excludes the crash plan and
/// checkpoint cadence so a crash-free builder can recover a crashed
/// run's journal.
pub(crate) fn run_fingerprint(cluster: &ClusterConfig, workload: &Workload, seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let cluster_json = serde_json::to_string(cluster).expect("cluster serializes");
    eat(cluster_json.as_bytes());
    eat(&(workload.jobs.len() as u64).to_le_bytes());
    eat(&(workload.num_tasks() as u64).to_le_bytes());
    eat(&(workload.num_blocks as u64).to_le_bytes());
    eat(&seed.to_le_bytes());
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{crc32, JOURNAL_VERSION};
    use tetris_workload::TaskUid;

    const FINGERPRINT: u64 = 42;

    fn header() -> JournalRecord {
        JournalRecord::RunHeader {
            version: JOURNAL_VERSION,
            seed: 1,
            fingerprint: FINGERPRINT,
            checkpoint_every: 2,
        }
    }

    fn checkpoint(heartbeat: u64) -> JournalRecord {
        JournalRecord::Checkpoint {
            heartbeat,
            state: Box::new(empty_checkpoint(heartbeat)),
        }
    }

    fn start(heartbeat: u64) -> JournalRecord {
        JournalRecord::BatchStart {
            heartbeat,
            now_us: 10 * heartbeat,
        }
    }

    fn placement(task: usize, round: u32) -> JournalRecord {
        JournalRecord::Placement {
            task: TaskUid(task),
            machine: MachineId(0),
            round,
        }
    }

    fn commit(heartbeat: u64, placements: u64) -> JournalRecord {
        JournalRecord::BatchCommit {
            heartbeat,
            placements,
            schedule_calls: 3,
            rejected: 0,
        }
    }

    /// A journal of `records` and the byte offset of each.
    fn journal_of(records: &[JournalRecord]) -> (Journal, Vec<u64>) {
        let mut j = Journal::new();
        let mut offsets = Vec::new();
        for rec in records {
            offsets.push(j.bytes().len() as u64);
            j.append(rec);
        }
        (j, offsets)
    }

    fn mini_journal(tail: &[JournalRecord]) -> Journal {
        let mut records = vec![header(), checkpoint(0)];
        records.extend_from_slice(tail);
        journal_of(&records).0
    }

    fn empty_checkpoint(heartbeat: u64) -> CheckpointState {
        CheckpointState {
            now_us: 0,
            heartbeat,
            machines: Vec::new(),
            tasks: Vec::new(),
            jobs: Vec::new(),
            blocks: Vec::new(),
            flows: Vec::new(),
            jobs_remaining: 0,
            rng: [1, 2, 3, 4],
            completions: 0,
            tracker_modes: Vec::new(),
            tracker_modes_baseline: Vec::new(),
            dynamic_loads: Vec::new(),
            external_active: Vec::new(),
            external_cancelled: Vec::new(),
            tasks_abandoned: 0,
            freed_hint: Vec::new(),
            events: Vec::new(),
            next_seq: 0,
            stats: EngineStats::default(),
            samples: Vec::new(),
            policy_state: None,
        }
    }

    #[test]
    fn plan_requires_matching_fingerprint() {
        let j = mini_journal(&[]);
        match plan_recovery(&j, 7) {
            Err(RecoveryError::Journal(JournalError::FingerprintMismatch { expected, found })) => {
                assert_eq!((expected, found), (7, FINGERPRINT));
            }
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        assert!(plan_recovery(&j, FINGERPRINT).is_ok());
    }

    #[test]
    fn torn_trailing_batch_is_discarded() {
        // No commit: the batch must not be replayed.
        let j = mini_journal(&[start(1), placement(0, 0)]);
        let (cp, plan) = plan_recovery(&j, FINGERPRINT).unwrap();
        assert_eq!(cp.heartbeat, 0);
        assert!(plan.batches.is_empty());
        assert_eq!(plan.stats.discarded_records, 2);
    }

    #[test]
    fn committed_batches_after_checkpoint_are_replayed() {
        let j = mini_journal(&[start(1), placement(0, 0), placement(1, 1), commit(1, 2)]);
        let (_, plan) = plan_recovery(&j, FINGERPRINT).unwrap();
        assert_eq!(plan.batches.len(), 1);
        let b = &plan.batches[0];
        assert_eq!(
            Vec::from(b.expected.clone()),
            vec![(0, TaskUid(0), MachineId(0)), (1, TaskUid(1), MachineId(0))]
        );
        assert_eq!(b.schedule_calls, 3);
        assert_eq!(plan.stats.replayed_placements, 2);
    }

    #[test]
    fn later_checkpoint_supersedes_earlier_batches() {
        let j = mini_journal(&[start(1), commit(1, 0), checkpoint(1)]);
        let (cp, plan) = plan_recovery(&j, FINGERPRINT).unwrap();
        assert_eq!(cp.heartbeat, 1);
        assert!(plan.batches.is_empty());
    }

    #[test]
    fn empty_journal_is_typed_not_a_panic() {
        match plan_recovery(&Journal::new(), 0) {
            Err(RecoveryError::Journal(JournalError::Empty)) => {}
            other => panic!("expected Empty, got {other:?}"),
        }
    }

    /// Grammar parity: every CRC-valid journal that breaks one rule gets
    /// the same typed error, at the offending record's offset, from the
    /// strict reader and from recovery — wherever the damage sits relative
    /// to the last checkpoint.
    #[test]
    fn verify_and_recovery_agree_on_grammar_damage() {
        // (what is broken, records after `RunHeader Checkpoint(0)`, index
        // of the violating record in that tail)
        let table: Vec<(&str, Vec<JournalRecord>, usize)> = vec![
            ("placement outside a batch", vec![placement(0, 0)], 0),
            (
                "commit count differs from journaled placements",
                vec![start(1), placement(0, 0), commit(1, 2)],
                2,
            ),
            ("batch opened inside a batch", vec![start(1), start(2)], 1),
            (
                "heartbeat gap after the last checkpoint",
                vec![start(1), commit(1, 0), start(3), commit(3, 0)],
                2,
            ),
            (
                "heartbeat gap before the last checkpoint",
                vec![
                    start(1),
                    commit(1, 0),
                    start(3),
                    commit(3, 0),
                    checkpoint(3),
                    start(4),
                    commit(4, 0),
                ],
                2,
            ),
            (
                "checkpoint inside an open batch",
                vec![start(1), checkpoint(0)],
                1,
            ),
            (
                "restorable checkpoint not at the last commit's heartbeat",
                vec![start(1), commit(1, 0), checkpoint(2)],
                2,
            ),
            ("second header", vec![start(1), commit(1, 0), header()], 2),
        ];
        for (what, tail, bad) in table {
            let mut records = vec![header(), checkpoint(0)];
            records.extend(tail);
            let (j, offsets) = journal_of(&records);
            let strict = j.verify().expect_err(what);
            match &strict {
                JournalError::OutOfOrder { offset, .. }
                | JournalError::DuplicateHeader { offset } => {
                    assert_eq!(*offset, offsets[2 + bad], "{what}")
                }
                other => panic!("{what}: unexpected {other:?}"),
            }
            assert_eq!(
                plan_recovery(&j, FINGERPRINT).err(),
                Some(RecoveryError::Journal(strict)),
                "{what}"
            );
        }
    }

    // ---- Checkpoint frames recovery does or does not decode, on a real
    // crashed run: checkpoints at heartbeats 0, 2 and 4, killed at 6.

    use crate::{GreedyFifo, SchedulerCrash, Simulation};
    use tetris_resources::{units::GB, units::MB, MachineSpec};
    use tetris_workload::gen::{TaskParams, WorkloadBuilder};

    fn sim(crash: Option<SchedulerCrash>) -> Simulation<'static> {
        let mut b = WorkloadBuilder::new().with_demand_cap(MachineSpec::paper_small().capacity());
        for ji in 0..3 {
            let j = b.begin_job(format!("j{ji}"), None, ji as f64 * 8.0);
            let inputs: Vec<_> = (0..4).map(|_| b.stored_input(32.0 * MB)).collect();
            b.add_stage(j, "map", vec![], 4, |i| TaskParams {
                cores: 1.0,
                mem: 2.0 * GB,
                duration: 10.0,
                cpu_frac: 0.6,
                io_burst: 1.0,
                inputs: vec![inputs[i]],
                output_bytes: 40.0 * MB,
                remote_frac: 1.0,
            });
        }
        let mut cfg = SimConfig::default();
        cfg.seed = 7;
        cfg.checkpoint_every = 2;
        cfg.faults.sched_crash = crash;
        Simulation::build(
            ClusterConfig::uniform(4, MachineSpec::paper_small()),
            b.finish(),
        )
        .scheduler(GreedyFifo::new())
        .config(cfg)
    }

    fn crashed_journal() -> Journal {
        let crash = SchedulerCrash {
            at_heartbeat: 6,
            mid_commit: false,
        };
        let mut journal = Journal::new();
        let res = sim(Some(crash)).run_result(Some(&mut journal));
        assert!(matches!(res, RunResult::Crashed { heartbeat: 6 }));
        journal
    }

    fn wire(o: &SimOutcome) -> String {
        serde_json::to_string(o).unwrap()
    }

    /// `journal` with the payload of every checkpoint frame whose heartbeat
    /// `pick`s rewritten by `edit` and re-framed under a correct length
    /// and CRC, plus the offset of the first frame rewritten.
    fn rewrite_checkpoints(
        journal: &Journal,
        pick: impl Fn(u64) -> bool,
        edit: impl Fn(&str) -> String,
    ) -> (Journal, u64) {
        let mut out = Vec::new();
        let mut first = None;
        for frame in journal::frames(journal.bytes()).unwrap() {
            let text = frame.payload.clone().unwrap();
            let payload = match frame.checkpoint_heartbeat() {
                Some(heartbeat) if pick(heartbeat) => {
                    first.get_or_insert(out.len() as u64);
                    edit(text)
                }
                _ => text.to_string(),
            };
            // Framed by hand: the forged frame owes nothing to `append`.
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
            out.extend_from_slice(payload.as_bytes());
        }
        (
            Journal::from_bytes(out),
            first.expect("a checkpoint was picked"),
        )
    }

    /// Keep the tag and heartbeat, lose the closing half of the state.
    fn mangle(payload: &str) -> String {
        payload[..payload.len() / 2].to_string()
    }

    #[test]
    fn undecodable_restore_checkpoint_ends_the_readable_prefix() {
        let golden = sim(None).run();
        let journal = crashed_journal();
        let (damaged, offset) = rewrite_checkpoints(&journal, |hb| hb == 4, mangle);
        assert!(matches!(
            damaged.verify(),
            Err(JournalError::BadPayload { offset: o, .. }) if o == offset
        ));
        // Recovery falls back to the checkpoint before it, as if the
        // journal ended at the frame it could not read.
        let rec = sim(None).recover(&damaged).expect("recovers from hb 2");
        assert_eq!(rec.stats.checkpoint_heartbeat, 2);
        assert_eq!(rec.stats.replayed_batches, 2);
        assert_eq!(rec.stats.discarded_offset, Some(offset));
        assert_eq!(wire(&rec.outcome), wire(&golden));
    }

    #[test]
    fn superseded_checkpoints_are_never_decoded() {
        let golden = sim(None).run();
        let journal = crashed_journal();
        assert_eq!(journal.verify().unwrap().checkpoints, 3);
        // Every checkpoint but the last is undecodable, so a recovery that
        // succeeds decoded exactly one.
        let (damaged, offset) = rewrite_checkpoints(&journal, |hb| hb < 4, mangle);
        let rec = sim(None).recover(&damaged).expect("recovers from hb 4");
        assert_eq!(rec.stats.checkpoint_heartbeat, 4);
        assert_eq!(rec.stats.discarded_offset, None);
        assert_eq!(wire(&rec.outcome), wire(&golden));
        // The strict reader still decodes, and refuses, every one of them.
        assert!(matches!(
            damaged.verify(),
            Err(JournalError::BadPayload { offset: o, .. }) if o == offset
        ));
    }

    #[test]
    fn checkpoint_the_classifier_cannot_read_takes_the_full_decode() {
        let golden = sim(None).run();
        let journal = crashed_journal();
        // Legal JSON the writer never emits: whitespace before the tag.
        let spaced = |payload: &str| payload.replacen('{', "{ ", 1);
        let (respaced, _) = rewrite_checkpoints(&journal, |_| true, spaced);
        for frame in journal::frames(respaced.bytes()).unwrap() {
            assert_eq!(frame.checkpoint_heartbeat(), None);
        }
        assert_eq!(respaced.verify().unwrap().checkpoints, 3);
        let rec = sim(None).recover(&respaced).expect("recovers");
        assert_eq!(rec.stats.checkpoint_heartbeat, 4);
        assert_eq!(wire(&rec.outcome), wire(&golden));
    }
}
