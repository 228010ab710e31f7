//! Crash recovery: checkpoint restore + deterministic journal replay
//! (DESIGN.md §15).
//!
//! The journal ([`crate::journal`]) records enough to rebuild the engine
//! at any *batch boundary*: a periodic [`CheckpointState`] snapshot of
//! everything event processing can still read or write (ledgers, live
//! flows, queue, RNG, stats), the utilization samples as append-only
//! `Samples` records beside it, plus the per-batch commit decisions.
//! Recovery is then three deterministic steps:
//!
//! 1. **Scan** — walk the journal's frames up to the first bad one (a
//!    torn tail is discarded, not an error), holding every record to the
//!    journal's one [`Grammar`], and derive the *commit frontier*: the
//!    last batch whose `BatchCommit` survived. Records of an uncommitted
//!    trailing batch (the mid-commit crash artifact — e.g. only some of a
//!    `ShardedScheduler`'s merged shard plans made it out) are dropped
//!    with the tail. Decision and `Samples` records decode in full; a
//!    checkpoint is taken at its tag, and only the one step 2 restores is
//!    ever decoded.
//! 2. **Restore** — rebuild the engine from the last checkpoint at or
//!    before the frontier plus the samples journaled up to it (a later
//!    `Samples` record is ignored), including the policy's persistent
//!    state ([`crate::SchedulerPolicy::import_state`]: §3.5 reservations
//!    and the like — cache state is excluded, it rebuilds from the view).
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

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;

use rand::rngs::StdRng;
use tetris_workload::{TaskUid, Workload};

use crate::cluster::{ClusterConfig, MachineId};
use crate::config::{ExternalLoad, SimConfig};
use crate::events::{Event, EventQueue, FlowId};
use crate::fault::TrackerMode;
use crate::journal::{
    self, Admitted, CommittedBatch, DiscardedTail, Frame, Grammar, Journal, JournalError,
    JournalRecord,
};
use crate::outcome::{EngineStats, Sample, SimOutcome};
use crate::state::{Flow, JobState, MachineState, Phase, SimState, StageState, TaskState};
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

/// What the engine needs to resume at a batch boundary and can still
/// change after it: borrowed from the live run when written (`capture`
/// clones only the event queue, to sort it), owned when decoded. Not
/// stored, and why that is safe:
/// * `task_loc`, `total_capacity`, the machine index and every task still
///   `Blocked` (tasks are built so and never return to it): re-derived
///   from the builder's inputs; the dirty set: empty at a batch boundary,
///   so the factor tables are what `rebuild_factors` makes of the ledgers;
/// * the sample history: journaled once, in `Samples` records, and
///   cross-checked by `samples_len`;
/// * finished flows: nothing reads past `done` and the queue holds no
///   event for one (`restore` checks), so only live flows are kept, by
///   id, and `restore` puts tombstones in the other slots.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
#[cfg_attr(test, derive(Default))]
pub(crate) struct CheckpointState<'a> {
    pub now_us: u64,
    pub heartbeat: u64,
    pub machines: Cow<'a, [MachineState]>,
    pub tasks: Vec<(TaskUid, Cow<'a, TaskState>)>,
    pub jobs: Cow<'a, [JobState]>,
    pub blocks: Cow<'a, [Vec<MachineId>]>,
    pub flows: Vec<(FlowId, Cow<'a, Flow>)>,
    pub flows_len: usize,
    pub jobs_remaining: usize,
    pub rng: [u64; 4],
    pub completions: usize,
    pub tracker_modes: Cow<'a, [TrackerMode]>,
    pub tracker_modes_baseline: Cow<'a, [TrackerMode]>,
    pub dynamic_loads: Cow<'a, [ExternalLoad]>,
    pub external_active: Cow<'a, [bool]>,
    pub external_cancelled: Cow<'a, [bool]>,
    pub tasks_abandoned: u64,
    pub freed_hint: Cow<'a, [MachineId]>,
    pub events: Vec<Event>,
    pub next_seq: u64,
    pub stats: Cow<'a, EngineStats>,
    pub samples_len: usize,
    /// The policy's persistent cross-call state
    /// ([`crate::SchedulerPolicy::export_state`]); `None` for policies
    /// whose only cross-call state is rebuildable cache.
    pub policy_state: Option<String>,
}

impl<'a> CheckpointState<'a> {
    /// Snapshot the engine at a batch boundary.
    pub(crate) fn capture(
        state: &'a SimState,
        queue: &EventQueue,
        stats: &'a EngineStats,
        samples_len: usize,
        heartbeat: u64,
        policy_state: Option<String>,
    ) -> Self {
        let (events, next_seq) = queue.snapshot();
        let live = state.flows.iter().enumerate().filter(|(_, f)| !f.done);
        let tasks = state.tasks.iter().enumerate();
        let unblocked = tasks.filter(|(_, t)| !matches!(t.phase, Phase::Blocked));
        CheckpointState {
            now_us: state.now.0,
            heartbeat,
            machines: Cow::Borrowed(&state.machines),
            tasks: unblocked
                .map(|(i, t)| (TaskUid(i), Cow::Borrowed(t)))
                .collect(),
            jobs: Cow::Borrowed(&state.jobs),
            blocks: Cow::Borrowed(&state.blocks),
            flows: live.map(|(i, f)| (FlowId(i), Cow::Borrowed(f))).collect(),
            flows_len: state.flows.len(),
            jobs_remaining: state.jobs_remaining,
            rng: state.rng.state(),
            completions: state.completions,
            tracker_modes: Cow::Borrowed(&state.tracker_modes),
            tracker_modes_baseline: Cow::Borrowed(&state.tracker_modes_baseline),
            dynamic_loads: Cow::Borrowed(&state.dynamic_loads),
            external_active: Cow::Borrowed(&state.external_active),
            external_cancelled: Cow::Borrowed(&state.external_cancelled),
            tasks_abandoned: state.tasks_abandoned,
            freed_hint: Cow::Borrowed(&state.freed_hint),
            events,
            next_seq,
            stats: Cow::Borrowed(stats),
            samples_len,
            policy_state,
        }
    }

    /// Rebuild engine state from this snapshot. The builder supplies the
    /// static inputs (cluster, workload, config); the snapshot overwrites
    /// every runtime field but the still-`Blocked` tasks, so the
    /// `SimState::new` RNG draws (block placement) are discarded along
    /// with its fresh block binding. Refuses, saying why, a snapshot whose
    /// tables and queue contradict each other.
    pub(crate) fn restore(
        self,
        cluster: ClusterConfig,
        workload: Workload,
        cfg: SimConfig,
    ) -> Result<(SimState, EventQueue, EngineStats), &'static str> {
        const OUTSIDE: &str = "checkpoint stores a task or flow outside its table";
        let mut state = SimState::new(cluster, workload, cfg);
        state.now = SimTime(self.now_us);
        state.machines = self.machines.into_owned();
        for (uid, task) in self.tasks {
            *state.tasks.get_mut(uid.index()).ok_or(OUTSIDE)? = task.into_owned();
        }
        state.jobs = self.jobs.into_owned();
        // Its readers binary-search a stage's output list.
        let sorted = |st: &StageState| st.out_by_machine.windows(2).all(|w| w[0].0 < w[1].0);
        if !state.jobs.iter().flat_map(|j| &j.stages).all(sorted) {
            return Err("checkpoint lists a stage's output not in strict machine order");
        }
        state.blocks = self.blocks.into_owned();
        // A length the journal merely states: refused, not aborted on.
        let reserved = state.flows.try_reserve_exact(self.flows_len);
        reserved.map_err(|_| OUTSIDE)?;
        state.flows.resize(self.flows_len, Flow::tombstone());
        for (id, flow) in self.flows {
            *state.flows.get_mut(id.0).ok_or(OUTSIDE)? = flow.into_owned();
        }
        state.jobs_remaining = self.jobs_remaining;
        state.rng = StdRng::from_state(self.rng);
        state.completions = self.completions;
        state.tracker_modes = self.tracker_modes.into_owned();
        state.tracker_modes_baseline = self.tracker_modes_baseline.into_owned();
        state.dynamic_loads = self.dynamic_loads.into_owned();
        state.external_active = self.external_active.into_owned();
        state.external_cancelled = self.external_cancelled.into_owned();
        state.tasks_abandoned = self.tasks_abandoned;
        state.freed_hint = self.freed_hint.into_owned();
        state.index_rebuild();
        state.rebuild_factors();
        // The engine takes a popped `FlowDone` at its word.
        let live = |flow: FlowId| state.flows.get(flow.0).is_some_and(|f| !f.done);
        let queue = EventQueue::restore(self.events, self.next_seq, live)?;
        Ok((state, queue, self.stats.into_owned()))
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
/// derive (checkpoint to restore, samples taken up to it, batches to
/// replay).
pub(crate) fn plan_recovery(
    journal: &Journal,
    expected_fingerprint: u64,
) -> Result<(CheckpointState<'static>, Vec<Sample>, ReplayPlan), RecoveryError> {
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
        // The latest checkpoint and how many samples precede it.
        let mut checkpoint: Option<(Frame, usize)> = None;
        let mut samples: Vec<Sample> = Vec::new();
        let mut committed: Vec<CommittedBatch> = Vec::new();
        for frame in journal::frames(&buf[..end])? {
            // A checkpoint is admitted at its tag, its state unread; a
            // frame that is defective or does not decode ends the prefix.
            let admitted = match frame.checkpoint_heartbeat() {
                Some(heartbeat) => grammar.checkpoint(frame.offset, heartbeat)?,
                None => match frame.decode() {
                    Ok(rec) => {
                        let admitted = grammar.step(frame.offset, &rec)?;
                        if let JournalRecord::Samples { samples: taken } = rec {
                            samples.extend(taken.into_owned());
                        }
                        admitted
                    }
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
                    checkpoint = Some((frame, samples.len()));
                    // Batches at or before the snapshot are baked into it.
                    committed.clear();
                }
                Admitted::Batch(b) => committed.push(b),
                Admitted::Header { .. } | Admitted::Pending => {}
            }
        }
        let discarded_records = grammar.finish()?;

        let (frame, samples_len) = checkpoint.ok_or(JournalError::NoCheckpoint)?;
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
        // Samples journaled after the restored checkpoint are re-taken live.
        journal::samples_agree(frame.offset, cp.samples_len, samples_len)?;
        samples.truncate(samples_len);
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
        return Ok((cp, samples, plan));
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
    use crate::events::EventKind;
    use crate::journal::{crc32, JOURNAL_VERSION};

    const FINGERPRINT: u64 = 42;

    fn header() -> JournalRecord<'static> {
        JournalRecord::RunHeader {
            version: JOURNAL_VERSION,
            seed: 1,
            fingerprint: FINGERPRINT,
            checkpoint_every: 2,
        }
    }

    fn checkpoint(heartbeat: u64) -> JournalRecord<'static> {
        checkpoint_counting(heartbeat, 0)
    }

    /// A checkpoint whose snapshot counts `samples_len` samples before it.
    fn checkpoint_counting(heartbeat: u64, samples_len: usize) -> JournalRecord<'static> {
        JournalRecord::Checkpoint {
            heartbeat,
            state: Box::new(CheckpointState {
                samples_len,
                ..empty_checkpoint(heartbeat)
            }),
        }
    }

    /// A `Samples` record carrying `n` samples.
    fn samples(n: usize) -> JournalRecord<'static> {
        let sample = |i| Sample {
            t: i as f64,
            running_tasks: 0,
            cluster_allocated: tetris_resources::ResourceVec::zero(),
            cluster_usage: tetris_resources::ResourceVec::zero(),
            machines: None,
            per_job_alloc: None,
        };
        JournalRecord::Samples {
            samples: (0..n).map(sample).collect(),
        }
    }

    fn start(heartbeat: u64) -> JournalRecord<'static> {
        JournalRecord::BatchStart {
            heartbeat,
            now_us: 10 * heartbeat,
        }
    }

    fn placement(task: usize, round: u32) -> JournalRecord<'static> {
        JournalRecord::Placement {
            task: TaskUid(task),
            machine: MachineId(0),
            round,
        }
    }

    fn commit(heartbeat: u64, placements: u64) -> JournalRecord<'static> {
        JournalRecord::BatchCommit {
            heartbeat,
            placements,
            schedule_calls: 3,
            rejected: 0,
        }
    }

    /// A journal of `records` and the byte offset of each.
    fn journal_of(records: &[JournalRecord<'_>]) -> (Journal, Vec<u64>) {
        let mut j = Journal::new();
        let mut offsets = Vec::new();
        for rec in records {
            offsets.push(j.bytes().len() as u64);
            j.append(rec);
        }
        (j, offsets)
    }

    fn mini_journal(tail: &[JournalRecord<'static>]) -> Journal {
        let mut records = vec![header(), checkpoint(0)];
        records.extend_from_slice(tail);
        journal_of(&records).0
    }

    fn empty_checkpoint(heartbeat: u64) -> CheckpointState<'static> {
        CheckpointState {
            heartbeat,
            rng: [1, 2, 3, 4],
            ..CheckpointState::default()
        }
    }

    /// Frame `payload` under a correct length and CRC: a forged frame owes
    /// nothing to `append`.
    fn frame_by_hand(out: &mut Vec<u8>, payload: &str) {
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
        out.extend_from_slice(payload.as_bytes());
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
        let (cp, _, plan) = plan_recovery(&j, FINGERPRINT).unwrap();
        assert_eq!(cp.heartbeat, 0);
        assert!(plan.batches.is_empty());
        assert_eq!(plan.stats.discarded_records, 2);
    }

    #[test]
    fn committed_batches_after_checkpoint_are_replayed() {
        let j = mini_journal(&[start(1), placement(0, 0), placement(1, 1), commit(1, 2)]);
        let (_, _, plan) = plan_recovery(&j, FINGERPRINT).unwrap();
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
        let (cp, _, plan) = plan_recovery(&j, FINGERPRINT).unwrap();
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

    /// Nesting no call stack could follow, under a valid CRC — as the whole
    /// record, and under a key no record has — is an undecodable record to
    /// the strict reader and a torn tail to recovery, never an abort.
    #[test]
    fn hostile_nesting_in_a_valid_frame_is_a_bad_payload() {
        let deep = "[".repeat(200_000);
        let under_unknown_key = format!(r#"{{"BatchStart":{{"heartbeat":2,"now_us":20,"x":{deep}"#);
        for payload in [deep.clone(), under_unknown_key] {
            let intact = mini_journal(&[start(1), commit(1, 0)]);
            let offset = intact.bytes().len() as u64;
            let mut bytes = intact.bytes().to_vec();
            frame_by_hand(&mut bytes, &payload);
            let j = Journal::from_bytes(bytes);
            assert!(matches!(
                j.verify(),
                Err(JournalError::BadPayload { offset: o, .. }) if o == offset
            ));
            let (cp, _, plan) = plan_recovery(&j, FINGERPRINT).expect("the prefix recovers");
            assert_eq!((cp.heartbeat, plan.batches.len()), (0, 1));
            assert_eq!(plan.stats.discarded_offset, Some(offset));
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
            (
                "samples_len disagrees with the Samples records read",
                vec![
                    start(1),
                    commit(1, 0),
                    samples(2),
                    checkpoint_counting(1, 3),
                ],
                3,
            ),
            (
                "checkpoint counts samples no record carried",
                vec![start(1), commit(1, 0), checkpoint_counting(1, 1)],
                2,
            ),
            (
                "Samples record inside a batch",
                vec![start(1), samples(1)],
                1,
            ),
            (
                "Samples record with no commit before it",
                vec![samples(1)],
                0,
            ),
            (
                "Samples record after its checkpoint",
                vec![start(1), commit(1, 0), checkpoint(1), samples(1)],
                3,
            ),
            (
                "Samples record not followed by its checkpoint",
                vec![start(1), commit(1, 0), samples(1), start(2), commit(2, 0)],
                3,
            ),
            (
                "two Samples records for one checkpoint",
                vec![
                    start(1),
                    commit(1, 0),
                    samples(1),
                    samples(1),
                    checkpoint_counting(1, 2),
                ],
                3,
            ),
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

        // The slot used as the grammar has it: both readers admit it, and
        // recovery hands back the samples the checkpoint counts.
        let j = mini_journal(&[
            start(1),
            commit(1, 0),
            samples(2),
            checkpoint_counting(1, 2),
            start(2),
            commit(2, 0),
            samples(1),
        ]);
        assert_eq!(j.verify().unwrap().checkpoints, 2);
        let (cp, taken, plan) = plan_recovery(&j, FINGERPRINT).unwrap();
        assert_eq!((cp.heartbeat, taken.len()), (1, 2));
        // The trailing `Samples` record lost its checkpoint: dropped.
        assert_eq!(plan.stats.discarded_records, 1);

        // A journal of the previous wire version is refused by both, by
        // version, before anything else of it is read.
        let v1 = JournalRecord::RunHeader {
            version: 1,
            seed: 1,
            fingerprint: FINGERPRINT,
            checkpoint_every: 2,
        };
        let (j, _) = journal_of(&[v1, checkpoint(0)]);
        let refused = JournalError::BadVersion { found: 1 };
        assert_eq!(j.verify(), Err(refused.clone()));
        assert_eq!(
            plan_recovery(&j, FINGERPRINT).err(),
            Some(RecoveryError::Journal(refused))
        );
    }

    // ---- Checkpoint frames recovery does or does not decode, on a real
    // crashed run: checkpoints at heartbeats 0, 2 and 4, killed at 6.

    use crate::{GreedyFifo, SchedulerCrash, Simulation};
    use tetris_resources::{units::GB, units::MB, MachineSpec};
    use tetris_workload::gen::{TaskParams, WorkloadBuilder};
    use tetris_workload::Workload;

    fn inputs() -> (ClusterConfig, Workload) {
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
        (
            ClusterConfig::uniform(4, MachineSpec::paper_small()),
            b.finish(),
        )
    }

    fn sim(crash: Option<SchedulerCrash>) -> Simulation<'static> {
        let mut cfg = SimConfig::default();
        cfg.seed = 7;
        cfg.checkpoint_every = 2;
        cfg.faults.sched_crash = crash;
        let (cluster, workload) = inputs();
        Simulation::build(cluster, workload)
            .scheduler(GreedyFifo::new())
            .config(cfg)
    }

    /// What `sim(..).recover(journal)` plans before it restores anything.
    fn plan(journal: &Journal) -> (CheckpointState<'static>, Vec<Sample>, ReplayPlan) {
        let (cluster, workload) = inputs();
        plan_recovery(journal, run_fingerprint(&cluster, &workload, 7)).expect("plans")
    }

    fn crashed_journal() -> Journal {
        crashed_journal_at(6)
    }

    /// Checkpoints at every even heartbeat below `at_heartbeat`; from 8 on
    /// they hold finished flows beside live ones, and a sample is taken
    /// (5 s period) between those at 10 and 12.
    fn crashed_journal_at(at_heartbeat: u64) -> Journal {
        let crash = SchedulerCrash {
            at_heartbeat,
            mid_commit: false,
        };
        let mut journal = Journal::new();
        let res = sim(Some(crash)).run_result(Some(&mut journal));
        assert!(matches!(res, RunResult::Crashed { heartbeat } if heartbeat == at_heartbeat));
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
            frame_by_hand(&mut out, &payload);
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
    fn fallback_takes_only_the_samples_before_the_checkpoint_it_restores() {
        let golden = sim(None).run();
        let journal = crashed_journal_at(13);
        let (damaged, _) = rewrite_checkpoints(&journal, |hb| hb == 12, mangle);
        // The `Samples` record ahead of the unreadable checkpoint is
        // dropped with it; those samples are taken again, live.
        let (intact, taken_by_12, _) = plan(&journal);
        let (fallback, taken_by_10, tail) = plan(&damaged);
        assert_eq!((intact.heartbeat, fallback.heartbeat), (12, 10));
        assert_eq!(taken_by_10.len(), fallback.samples_len);
        assert!(taken_by_10.len() < taken_by_12.len());
        assert_eq!(tail.stats.discarded_records, 1);
        let rec = sim(None).recover(&damaged).expect("recovers from hb 10");
        assert_eq!(rec.stats.checkpoint_heartbeat, 10);
        assert_eq!(wire(&rec.outcome), wire(&golden));
    }

    /// The writer borrows, the reader owns, the text is one: every record
    /// of a real journal decodes and re-encodes to the bytes it was read
    /// from — the mid-run snapshots with live and finished flows included.
    #[test]
    fn every_record_reencodes_to_the_bytes_it_decoded_from() {
        let journal = crashed_journal_at(13);
        let (mut sparse, mut sample_records) = (0, 0);
        for frame in journal::frames(journal.bytes()).unwrap() {
            let rec = frame.decode().expect("decodes");
            assert_eq!(serde_json::to_string(&rec).unwrap(), frame.payload.unwrap());
            match rec {
                JournalRecord::Checkpoint { state, .. } => {
                    assert!(state.flows.iter().all(|(_, f)| !f.done));
                    let live = state.flows.len();
                    sparse += (0 < live && live < state.flows_len) as usize;
                }
                JournalRecord::Samples { .. } => sample_records += 1,
                _ => {}
            }
        }
        assert!(sparse >= 1, "no snapshot had both live and finished flows");
        assert!(sample_records >= 1);
    }

    /// A flow table the snapshot's own flows do not fit, or one no machine
    /// could hold, is a typed refusal, not an index panic or an abort.
    #[test]
    fn lying_flow_table_length_is_a_typed_error() {
        let journal = crashed_journal();
        for lie in ["1", "18446744073709551615"] {
            let relength = |payload: &str| {
                let key = "\"flows_len\":";
                let at = payload.find(key).expect("snapshot states flows_len") + key.len();
                let digits = payload[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
                format!("{}{lie}{}", &payload[..at], &payload[at + digits..])
            };
            let (damaged, _) = rewrite_checkpoints(&journal, |hb| hb == 4, relength);
            assert!(
                matches!(
                    sim(None).recover(&damaged),
                    Err(RecoveryError::ReplayDivergence { heartbeat: 4, .. })
                ),
                "flows_len {lie}"
            );
        }
    }

    /// The engine takes a popped `FlowDone` at its word and binary-searches
    /// a stage's output list, so a snapshot whose queue and flow table
    /// disagree, or whose list is unsorted, is refused before it runs.
    #[test]
    fn snapshot_that_contradicts_itself_is_a_typed_error() {
        let journal = crashed_journal_at(13);
        type Damage = fn(&mut CheckpointState<'static>);
        let corpus: [(&str, Damage); 3] = [
            ("two completions for one flow", |cp| {
                let is_done = |e: &&Event| matches!(e.kind, EventKind::FlowDone { .. });
                let dup = cp.events.iter().find(is_done).expect("a live flow").clone();
                cp.events.push(dup);
            }),
            ("a flow that is not live", |cp| {
                // Out of the snapshot, so restored as a tombstone.
                cp.flows.remove(0);
            }),
            ("a stage's output not in strict machine order", |cp| {
                // One machine holds it all here: listed twice, it is as
                // unsearchable as two machines swapped.
                let mut stages = cp.jobs.to_mut().iter_mut().flat_map(|j| &mut j.stages);
                let outs =
                    stages.find_map(|st| Some(&mut st.out_by_machine).filter(|o| !o.is_empty()));
                let outs = outs.expect("a stage with output");
                outs.push(outs[0]);
            }),
        ];
        for (what, damage) in corpus {
            let edit = |payload: &str| match serde_json::from_str(payload).unwrap() {
                JournalRecord::Checkpoint {
                    heartbeat,
                    mut state,
                } => {
                    damage(&mut state);
                    serde_json::to_string(&JournalRecord::Checkpoint { heartbeat, state }).unwrap()
                }
                _ => unreachable!("only checkpoints are rewritten"),
            };
            let (damaged, _) = rewrite_checkpoints(&journal, |hb| hb == 12, edit);
            match sim(None).recover(&damaged) {
                Err(RecoveryError::ReplayDivergence { heartbeat: 12, msg }) => {
                    assert!(msg.contains(what), "{what}: {msg}")
                }
                other => panic!("{what}: {other:?}"),
            }
        }
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
