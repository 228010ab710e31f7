//! Crash recovery by re-execution (DESIGN.md §15).
//!
//! The simulator is a deterministic function of its inputs — cluster,
//! workload, config — and of the policy's decisions, and the policy is a
//! deterministic function of what it has been shown. So the journal
//! ([`crate::journal`]) records decisions only, and recovery is a fresh
//! run of the same inputs that the journal witnesses:
//!
//! 1. **Scan** — walk the journal's frames up to the first bad one (a
//!    torn tail is discarded, not an error), holding every record to the
//!    journal's one [`Grammar`], refusing a journal whose fingerprint is
//!    not the builder's, and derive the *commit frontier*: the last batch
//!    whose `BatchCommit` survived. Records of an uncommitted trailing
//!    batch (the mid-commit crash artifact — e.g. only some of a
//!    `ShardedScheduler`'s merged shard plans made it out) are dropped
//!    with the tail.
//! 2. **Replay** — run the event loop from heartbeat 0 exactly as a fresh
//!    run does, with a freshly built policy. Each heartbeat up to the
//!    frontier re-invokes the policy live and cross-checks every applied
//!    placement, and the batch's tallies, against its journaled batch.
//!    Any disagreement is a typed [`RecoveryError::ReplayDivergence`],
//!    never a silent fork. Past the frontier the run continues live to
//!    completion.
//!
//! Re-execution rebuilds everything a snapshot would carry — queue order
//! and sequence counter, RNG, ledgers, samples, and the policy's private
//! state (§3.5 reservations, learned estimator families, the scorer's
//! running ā, a seeded rng) — so the recovered outcome is byte-identical
//! to the uninterrupted run's (pinned by `prop_recovery`, the policy
//! tests and the `recovery` experiment). Its cost is O(crash point): one
//! bare run up to the frontier.
//!
//! The engine reaches all of this through one [`DecisionLog`], which is
//! also the journal's only writer: the record order the grammar checks is
//! written here and checked here, and nowhere in `engine/`.

use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;

use tetris_obs::{names, MetricsRegistry};
use tetris_workload::{TaskUid, Workload};

use crate::cluster::{ClusterConfig, MachineId};
use crate::journal::{
    self, Admitted, CommittedBatch, Grammar, Journal, JournalError, JournalRecord, JOURNAL_VERSION,
};
use crate::outcome::{EngineStats, SimOutcome};
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
    /// Always 0: recovery replays from heartbeat 0 and restores no
    /// checkpoint. Kept only until the benchmark harness stops reading it.
    pub checkpoint_heartbeat: u64,
    /// Committed batches replayed from the journal: every one before the
    /// commit frontier.
    pub replayed_batches: u64,
    /// Journaled placements re-derived and cross-checked during replay.
    pub replayed_placements: u64,
    /// Records dropped with the torn tail (0 for a clean journal).
    pub discarded_records: u64,
    /// Byte offset where the torn tail began, if one was discarded.
    pub discarded_offset: Option<u64>,
    /// Wall-clock of the scan and the replay back to the commit frontier,
    /// microseconds.
    pub recovery_wall_us: u64,
}

/// The engine's one handle on the journal (DESIGN.md §15), called at four
/// fixed points: batch start, each applied placement, batch commit and
/// run end (a writing log journals the run header when it is opened). The
/// only writer of its records and the only witness a replay is checked
/// against.
pub(crate) enum DecisionLog<'j> {
    /// No journal: every point is a no-op.
    Off,
    /// A live run appending to a journal.
    Write(&'j mut Journal),
    /// A recovery, its journal the witness its heartbeats must reproduce.
    Replay(Box<Replay>),
}

/// A replaying [`DecisionLog`]: the committed batches still to reproduce
/// and the one the running heartbeat must reproduce.
#[derive(Debug)]
pub(crate) struct Replay {
    batches: VecDeque<CommittedBatch>,
    batch: Option<CommittedBatch>,
    stats: RecoveryStats,
    /// Started at the scan; taken when the last batch is consumed.
    started: Option<Instant>,
}

/// `Ok` while a replay agrees with its witness; else the divergence at
/// `heartbeat`, saying how.
fn agree(agrees: bool, heartbeat: u64, how: impl FnOnce() -> String) -> Result<(), RecoveryError> {
    if agrees {
        return Ok(());
    }
    let msg = how();
    Err(RecoveryError::ReplayDivergence { heartbeat, msg })
}

impl<'j> DecisionLog<'j> {
    /// A log appending to `journal`, opened here with the header of the
    /// run that `fingerprint` and `seed` describe.
    pub(crate) fn write(journal: &'j mut Journal, fingerprint: u64, seed: u64) -> Self {
        journal.append(&JournalRecord::RunHeader {
            version: JOURNAL_VERSION,
            seed,
            fingerprint,
        });
        DecisionLog::Write(journal)
    }

    /// A log replaying `journal`, refused here if it is another run's
    /// (by `fingerprint`) or unreadable from its first record.
    pub(crate) fn replay(journal: &Journal, fingerprint: u64) -> Result<Self, RecoveryError> {
        let replay = plan_recovery(journal, fingerprint)?;
        Ok(DecisionLog::Replay(Box::new(replay)))
    }

    /// Batch start, for the heartbeat about to run at `now`: replay takes
    /// the next committed batch as its witness, which must have been
    /// journaled for this heartbeat at this simulated time. (The grammar
    /// chains the batches from 1 and the engine counts its heartbeats
    /// from 1, so only the clock can disagree on a journal that scans.)
    pub(crate) fn batch_start(
        &mut self,
        heartbeat: u64,
        now: SimTime,
    ) -> Result<(), RecoveryError> {
        let now_us = now.0;
        match self {
            DecisionLog::Off => {}
            DecisionLog::Write(journal) => {
                journal.append(&JournalRecord::BatchStart { heartbeat, now_us })
            }
            DecisionLog::Replay(r) => {
                r.batch = r.batches.pop_front();
                if let Some(b) = &r.batch {
                    let (journaled, at) = (b.heartbeat, b.now_us);
                    agree(journaled == heartbeat, heartbeat, || {
                        format!("journal holds batch {journaled} at engine heartbeat {heartbeat}")
                    })?;
                    agree(at == now_us, heartbeat, || {
                        format!("journaled batch time {at}µs, engine at {now_us}µs")
                    })?;
                }
            }
        }
        Ok(())
    }

    /// One applied placement: replay pops the witness's next decision and
    /// compares, so the fresh policy must re-derive the journaled
    /// sequence placement by placement.
    pub(crate) fn placement(
        &mut self,
        round: u32,
        task: TaskUid,
        machine: MachineId,
    ) -> Result<(), RecoveryError> {
        match self {
            DecisionLog::Off => {}
            DecisionLog::Write(journal) => journal.append(&JournalRecord::Placement {
                task,
                machine,
                round,
            }),
            DecisionLog::Replay(r) => {
                let Some(b) = r.batch.as_mut() else {
                    return Ok(());
                };
                let expected = b.expected.pop_front();
                agree(
                    expected == Some((round, task, machine)),
                    b.heartbeat,
                    || {
                        let (t, m) = (task.index(), machine.index());
                        format!(
                        "policy placed task {t} on machine {m} in round {round}, journal expected \
                         {expected:?}"
                    )
                    },
                )?;
            }
        }
        Ok(())
    }

    /// Batch commit, given the engine's stats `before` the heartbeat and
    /// `after` it. Written, the commit makes the batch durable and carries
    /// its tallies; replayed, the witness must be used up and its tallies
    /// met.
    pub(crate) fn commit(
        &mut self,
        heartbeat: u64,
        before: &EngineStats,
        after: &EngineStats,
        metrics: &mut MetricsRegistry,
    ) -> Result<(), RecoveryError> {
        let placements = after.placements - before.placements;
        let schedule_calls = after.schedule_calls - before.schedule_calls;
        let rejected = after.rejected_assignments - before.rejected_assignments;
        match self {
            DecisionLog::Off => {}
            DecisionLog::Write(journal) => journal.append(&JournalRecord::BatchCommit {
                heartbeat,
                placements,
                schedule_calls,
                rejected,
            }),
            DecisionLog::Replay(r) => {
                if let Some(b) = r.batch.take() {
                    let left = b.expected.len();
                    agree(left == 0, heartbeat, || {
                        format!("{left} journaled placements were not re-derived by the policy")
                    })?;
                    let (calls, rejects) = (b.schedule_calls, b.rejected);
                    let met = (schedule_calls, rejected) == (calls, rejects);
                    agree(met, heartbeat, || {
                        format!(
                            "replayed batch made {schedule_calls} schedule calls ({calls} \
                             journaled) and {rejected} rejections ({rejects} journaled)"
                        )
                    })?;
                }
                r.finish(metrics);
            }
        }
        Ok(())
    }

    /// Run end: a writing log's record and byte counts, or the recovery
    /// counters of a replay that had no batch to reproduce. A run without
    /// a journal adds no names to `metrics`.
    pub(crate) fn finish(&mut self, metrics: &mut MetricsRegistry) {
        match self {
            DecisionLog::Off => {}
            DecisionLog::Write(journal) => {
                metrics.counter_add(names::JOURNAL_RECORDS, journal.appended_records());
                metrics.counter_add(names::JOURNAL_BYTES, journal.bytes().len() as u64);
            }
            DecisionLog::Replay(r) => r.finish(metrics),
        }
    }

    /// What the replay took (nothing, if this log did not replay).
    pub(crate) fn recovery_stats(&self) -> RecoveryStats {
        match self {
            DecisionLog::Replay(r) => r.stats,
            _ => RecoveryStats::default(),
        }
    }
}

impl Replay {
    /// Once the batches are used up, stamp the recovery wall clock
    /// (scan begin → frontier) and publish the recovery counters, once.
    fn finish(&mut self, metrics: &mut MetricsRegistry) {
        if !self.batches.is_empty() {
            return;
        }
        let Some(started) = self.started.take() else {
            return;
        };
        self.stats.recovery_wall_us = started.elapsed().as_micros() as u64;
        let stats = &self.stats;
        metrics.counter_add(names::RECOVERY_REPLAYED_BATCHES, stats.replayed_batches);
        let placements = stats.replayed_placements;
        metrics.counter_add(names::RECOVERY_REPLAYED_PLACEMENTS, placements);
        if stats.discarded_records > 0 {
            metrics.counter_add(names::RECOVERY_DISCARDED_RECORDS, stats.discarded_records);
        }
        metrics.observe(names::RECOVERY_LATENCY_US, stats.recovery_wall_us);
    }
}

/// Scan `journal`, validate it against the builder's `fingerprint`, and
/// derive the replay: every committed batch, in order. The readable
/// prefix ends at the first frame that is defective or does not decode;
/// frame damage is forgiven so, grammar damage inside the prefix never.
fn plan_recovery(journal: &Journal, expected_fingerprint: u64) -> Result<Replay, RecoveryError> {
    let started = Instant::now();
    let mut grammar = Grammar::default();
    let mut committed: VecDeque<CommittedBatch> = VecDeque::new();
    let mut discarded_offset = None;
    for frame in journal::frames(journal.bytes())? {
        let Ok(rec) = frame.decode() else {
            discarded_offset = Some(frame.offset);
            break;
        };
        match grammar.step(frame.offset, &rec)? {
            Admitted::Header { fingerprint } if fingerprint != expected_fingerprint => {
                return Err(JournalError::FingerprintMismatch {
                    expected: expected_fingerprint,
                    found: fingerprint,
                }
                .into());
            }
            Admitted::Batch(b) => committed.push_back(b),
            Admitted::Header { .. } | Admitted::Pending => {}
        }
    }
    let torn = grammar.finish()?;
    let stats = RecoveryStats {
        checkpoint_heartbeat: 0,
        replayed_batches: committed.len() as u64,
        replayed_placements: committed.iter().map(|b| b.expected.len() as u64).sum(),
        discarded_records: torn.map_or(0, |b| 1 + b.expected.len() as u64),
        discarded_offset,
        recovery_wall_us: 0,
    };
    Ok(Replay {
        batches: committed,
        batch: None,
        stats,
        started: Some(started),
    })
}

/// FNV-1a fingerprint binding a journal to its run: cluster shape,
/// workload size, and seed. Deliberately excludes the crash plan so a
/// crash-free builder can recover a crashed run's journal.
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
    use crate::journal::crc32;

    const FINGERPRINT: u64 = 42;

    fn header() -> JournalRecord {
        JournalRecord::RunHeader {
            version: JOURNAL_VERSION,
            seed: 1,
            fingerprint: FINGERPRINT,
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
        let mut records = vec![header()];
        records.extend_from_slice(tail);
        journal_of(&records).0
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
        let j = mini_journal(&[start(1), commit(1, 0), start(2), placement(0, 0)]);
        let plan = plan_recovery(&j, FINGERPRINT).unwrap();
        assert_eq!(plan.batches.len(), 1);
        assert_eq!(plan.stats.replayed_batches, 1);
        assert_eq!(plan.stats.discarded_records, 2);
        assert_eq!(plan.stats.discarded_offset, None);
    }

    #[test]
    fn every_committed_batch_is_replayed() {
        let j = mini_journal(&[
            start(1),
            placement(0, 0),
            placement(1, 1),
            commit(1, 2),
            start(2),
            placement(2, 0),
            commit(2, 1),
        ]);
        let plan = plan_recovery(&j, FINGERPRINT).unwrap();
        assert_eq!(plan.batches.len(), 2);
        let b = &plan.batches[0];
        assert_eq!(
            Vec::from(b.expected.clone()),
            vec![(0, TaskUid(0), MachineId(0)), (1, TaskUid(1), MachineId(0))]
        );
        assert_eq!(b.schedule_calls, 3);
        assert_eq!(plan.stats.replayed_batches, 2);
        assert_eq!(plan.stats.replayed_placements, 3);
        assert_eq!(plan.stats.checkpoint_heartbeat, 0);
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
            let plan = plan_recovery(&j, FINGERPRINT).expect("the prefix recovers");
            assert_eq!(plan.batches.len(), 1);
            assert_eq!(plan.stats.discarded_offset, Some(offset));
        }
    }

    /// Grammar parity: every CRC-valid journal that breaks one rule gets
    /// the same typed error, at the offending record's offset, from the
    /// strict reader and from recovery.
    #[test]
    fn verify_and_recovery_agree_on_grammar_damage() {
        // (what is broken, records after `RunHeader`, index of the
        // violating record in that tail)
        let table: Vec<(&str, Vec<JournalRecord>, usize)> = vec![
            ("placement outside a batch", vec![placement(0, 0)], 0),
            (
                "commit count differs from journaled placements",
                vec![start(1), placement(0, 0), commit(1, 2)],
                2,
            ),
            ("batch opened inside a batch", vec![start(1), start(2)], 1),
            ("first batch is not heartbeat 1", vec![start(2)], 0),
            (
                "heartbeat gap",
                vec![start(1), commit(1, 0), start(3), commit(3, 0)],
                2,
            ),
            (
                "commit closes another batch",
                vec![start(1), commit(2, 0)],
                1,
            ),
            ("commit with no open batch", vec![commit(1, 0)], 0),
            ("second header", vec![start(1), commit(1, 0), header()], 2),
        ];
        for (what, tail, bad) in table {
            let mut records = vec![header()];
            records.extend(tail);
            let (j, offsets) = journal_of(&records);
            let strict = j.verify().expect_err(what);
            match &strict {
                JournalError::OutOfOrder { offset, .. }
                | JournalError::DuplicateHeader { offset } => {
                    assert_eq!(*offset, offsets[1 + bad], "{what}")
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

    /// A version-3 journal — a header naming its checkpoint cadence, then
    /// the genesis checkpoint this version cannot decode — is refused by
    /// both readers, by version, before anything past the header is read.
    #[test]
    fn version_3_journal_is_refused_by_both_readers() {
        let mut bytes = Vec::new();
        frame_by_hand(
            &mut bytes,
            &format!(
                r#"{{"RunHeader":{{"version":3,"seed":1,"fingerprint":{FINGERPRINT},"checkpoint_every":32}}}}"#
            ),
        );
        frame_by_hand(&mut bytes, r#"{"Checkpoint":{"heartbeat":0,"state":{}}}"#);
        let j = Journal::from_bytes(bytes);
        let refused = JournalError::BadVersion { found: 3 };
        assert_eq!(j.verify(), Err(refused.clone()));
        assert_eq!(
            plan_recovery(&j, FINGERPRINT).err(),
            Some(RecoveryError::Journal(refused.clone()))
        );
        let (cluster, workload) = inputs();
        let fingerprint = run_fingerprint(&cluster, &workload, 7);
        let mut bytes = Vec::new();
        frame_by_hand(
            &mut bytes,
            &format!(
                r#"{{"RunHeader":{{"version":3,"seed":7,"fingerprint":{fingerprint},"checkpoint_every":32}}}}"#
            ),
        );
        let recovered = sim(None).recover(&Journal::from_bytes(bytes));
        assert_eq!(recovered.err(), Some(RecoveryError::Journal(refused)));
    }

    // ---- On a real crashed run.

    use crate::{GreedyFifo, SchedulerCrash, SimConfig, Simulation};
    use tetris_resources::{units::GB, units::MB, MachineSpec};
    use tetris_workload::{TaskParams, WorkloadBuilder};

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
        cfg.faults.sched_crash = crash;
        let (cluster, workload) = inputs();
        Simulation::build(cluster, workload)
            .scheduler(GreedyFifo::new())
            .config(cfg)
    }

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

    /// Every record of `journal`, decoded, edited by `edit` and re-framed
    /// under a correct length and CRC.
    fn rewrite_records(journal: &Journal, edit: impl Fn(&mut Vec<JournalRecord>)) -> Journal {
        let frames = journal::frames(journal.bytes()).unwrap();
        let mut records: Vec<_> = frames.map(|f| f.decode().unwrap()).collect();
        edit(&mut records);
        let mut out = Vec::new();
        for rec in &records {
            frame_by_hand(&mut out, &serde_json::to_string(rec).unwrap());
        }
        Journal::from_bytes(out)
    }

    /// The text is one: every record of a real journal decodes and
    /// re-encodes to the bytes it was read from, and the journal is a
    /// header plus the decision records of each committed batch.
    #[test]
    fn every_record_reencodes_to_the_bytes_it_decoded_from() {
        let journal = crashed_journal_at(13);
        for frame in journal::frames(journal.bytes()).unwrap() {
            let rec = frame.decode().expect("decodes");
            assert_eq!(serde_json::to_string(&rec).unwrap(), frame.payload.unwrap());
        }
        let stats = journal.verify().unwrap();
        assert_eq!(stats.committed_batches, 12);
        assert_eq!(stats.records, 1 + 2 * 12 + stats.placements);
        assert_eq!(stats.checkpoints, 0);
    }

    /// A frame that passes its CRC but does not decode ends the readable
    /// prefix: recovery replays the batches before it and runs the rest
    /// live, to the same outcome.
    #[test]
    fn undecodable_frame_ends_the_readable_prefix() {
        let golden = sim(None).run();
        let journal = crashed_journal_at(6);
        let mut bytes = Vec::new();
        let mut cut = None;
        for frame in journal::frames(journal.bytes()).unwrap() {
            let text = frame.payload.clone().unwrap();
            let mangled = match frame.decode().unwrap() {
                JournalRecord::BatchStart { heartbeat: 4, .. } => {
                    cut = Some(bytes.len() as u64);
                    &text[..text.len() / 2]
                }
                _ => text,
            };
            frame_by_hand(&mut bytes, mangled);
        }
        let (damaged, offset) = (Journal::from_bytes(bytes), cut.unwrap());
        assert!(matches!(
            damaged.verify(),
            Err(JournalError::BadPayload { offset: o, .. }) if o == offset
        ));
        let rec = sim(None).recover(&damaged).expect("the prefix recovers");
        assert_eq!(rec.stats.replayed_batches, 3);
        assert_eq!(rec.stats.discarded_offset, Some(offset));
        assert_eq!(wire(&rec.outcome), wire(&golden));
    }

    /// The replay witness, one edit a row, on a journal whose batch 9
    /// places several tasks (crash at 10). A decision the fresh policy
    /// does not re-derive is a `ReplayDivergence` at the batch that
    /// disagrees, saying what did. Two edits never reach the witness,
    /// because `Grammar` refuses them first: a batch heartbeat out of the
    /// chain, and a placement dropped under an unchanged commit count.
    /// Those rows expect the grammar's `OutOfOrder`, from recovery and
    /// from the strict reader alike.
    #[test]
    fn replay_witness_refuses_every_decision_edit() {
        use JournalRecord::{BatchCommit, BatchStart, Placement};
        let journal = crashed_journal_at(10);
        let records: Vec<_> = journal::frames(journal.bytes())
            .unwrap()
            .map(|f| f.decode().unwrap())
            .collect();
        let start = records
            .iter()
            .position(|r| matches!(r, BatchStart { heartbeat: 9, .. }))
            .unwrap();
        let commit = (start..records.len())
            .find(|&i| matches!(records[i], BatchCommit { .. }))
            .unwrap();
        assert!(commit - start > 2, "batch 9 places more than one task");

        enum Expect {
            Diverges(&'static str),
            Refused(&'static str),
        }
        type Edit = Box<dyn Fn(&mut Vec<JournalRecord>)>;
        let table: Vec<(&str, Edit, Expect)> = vec![
            (
                "a batch's heartbeat",
                Box::new(move |r| match &mut r[start] {
                    BatchStart { heartbeat, .. } => *heartbeat += 1,
                    _ => unreachable!(),
                }),
                Expect::Refused("batch 10 does not follow batch 8"),
            ),
            (
                "a batch's clock",
                Box::new(move |r| match &mut r[start] {
                    BatchStart { now_us, .. } => *now_us += 1,
                    _ => unreachable!(),
                }),
                Expect::Diverges("journaled batch time"),
            ),
            (
                "a placement's machine",
                Box::new(move |r| match &mut r[start + 1] {
                    Placement { machine, .. } => *machine = MachineId((machine.index() + 1) % 4),
                    _ => unreachable!(),
                }),
                Expect::Diverges("journal expected"),
            ),
            (
                "a dropped placement",
                Box::new(move |r| {
                    r.remove(start + 1);
                }),
                Expect::Refused("but journaled"),
            ),
            (
                "a placement the policy never made, counted by its commit",
                Box::new(move |r| {
                    let extra = r[commit - 1].clone();
                    r.insert(commit, extra);
                    match &mut r[commit + 1] {
                        BatchCommit { placements, .. } => *placements += 1,
                        _ => unreachable!(),
                    }
                }),
                Expect::Diverges("1 journaled placements were not re-derived"),
            ),
            (
                "a commit's schedule calls",
                Box::new(move |r| match &mut r[commit] {
                    BatchCommit { schedule_calls, .. } => *schedule_calls += 1,
                    _ => unreachable!(),
                }),
                Expect::Diverges("schedule calls"),
            ),
            (
                "a commit's rejections",
                Box::new(move |r| match &mut r[commit] {
                    BatchCommit { rejected, .. } => *rejected += 1,
                    _ => unreachable!(),
                }),
                Expect::Diverges("rejections (1 journaled)"),
            ),
        ];
        for (what, edit, expect) in table {
            let edited = rewrite_records(&journal, edit);
            match (sim(None).recover(&edited), expect) {
                (
                    Err(RecoveryError::ReplayDivergence { heartbeat, msg }),
                    Expect::Diverges(phrase),
                ) => {
                    assert_eq!(heartbeat, 9, "{what}: {msg}");
                    assert!(msg.contains(phrase), "{what}: {msg}");
                }
                (Err(RecoveryError::Journal(e)), Expect::Refused(phrase)) => {
                    assert!(
                        matches!(&e, JournalError::OutOfOrder { msg, .. } if msg.contains(phrase)),
                        "{what}: {e:?}"
                    );
                    assert_eq!(edited.verify().err(), Some(e), "{what}");
                }
                (other, _) => panic!("{what}: {other:?}"),
            }
        }
    }
}
