//! Crash-recovery invariants (DESIGN.md §15): a run recovered from its
//! write-ahead journal is **byte-identical** to the uninterrupted run —
//! at every crash heartbeat, between batches and mid-commit, at 1–4
//! scheduler shards, and from journals truncated at arbitrary byte
//! offsets or bit-flipped anywhere. Recovery replays every batch committed
//! before the crash. Damage beyond repair surfaces as a typed
//! [`JournalError`]/[`RecoveryError`], never a panic and never a silently
//! divergent outcome. The fixed-input tests pin exact counts; the
//! properties crash the shared scenario's draws.

use tetris_core::{TetrisConfig, TetrisScheduler};
use tetris_resources::{units::GB, units::MB, MachineSpec};
use tetris_sim::{
    ClusterConfig, GreedyFifo, Journal, RecoveryError, RunResult, SchedulerCrash, ShardedScheduler,
    SimConfig, Simulation,
};
use tetris_testkit::{forall, same_outcome, wire, Scenario};
use tetris_workload::{TaskParams, Workload, WorkloadBuilder};

const N_MACHINES: usize = 4;

/// A fixed two-wave workload with enough heartbeats to crash inside.
fn fixed_workload() -> Workload {
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
    b.finish()
}

fn cfg(seed: u64, crash: Option<SchedulerCrash>) -> SimConfig {
    let mut c = SimConfig::default();
    c.seed = seed;
    c.faults.sched_crash = crash;
    c.validate().expect("valid config");
    c
}

fn cluster() -> ClusterConfig {
    ClusterConfig::uniform(N_MACHINES, MachineSpec::paper_small())
}

fn greedy_sim(w: Workload, c: SimConfig) -> Simulation<'static> {
    Simulation::build(cluster(), w)
        .scheduler(GreedyFifo::new())
        .config(c)
}

fn sharded_sim(w: Workload, c: SimConfig, shards: usize) -> Simulation<'static> {
    Simulation::build(cluster(), w)
        .scheduler(ShardedScheduler::new(shards, c.seed, |_| {
            Box::new(TetrisScheduler::new(TetrisConfig::default()))
        }))
        .config(c)
}

#[test]
fn recovered_run_is_byte_identical_to_uninterrupted() {
    let golden = greedy_sim(fixed_workload(), cfg(7, None)).run();

    let crash = SchedulerCrash {
        at_heartbeat: 5,
        mid_commit: false,
    };
    let mut journal = Journal::new();
    let res = greedy_sim(fixed_workload(), cfg(7, Some(crash))).run_result(Some(&mut journal));
    assert!(matches!(res, RunResult::Crashed { heartbeat: 5 }));
    journal.verify().expect("crashed journal verifies clean");

    let rec = greedy_sim(fixed_workload(), cfg(7, None))
        .recover(&journal)
        .expect("recovery succeeds");
    assert_eq!(wire(&rec.outcome), wire(&golden));
    // Replay starts at heartbeat 0 and witnesses every committed batch.
    assert_eq!(rec.stats.replayed_batches, 4);
    assert_eq!(rec.stats.checkpoint_heartbeat, 0);
}

#[test]
fn mid_commit_sharded_crash_recovers_exactly() {
    let golden = sharded_sim(fixed_workload(), cfg(11, None), 2).run();

    let crash = SchedulerCrash {
        at_heartbeat: 4,
        mid_commit: true,
    };
    let mut journal = Journal::new();
    let res = sharded_sim(fixed_workload(), cfg(11, Some(crash)), 2).run_result(Some(&mut journal));
    assert!(matches!(res, RunResult::Crashed { heartbeat: 4 }));
    // The torn batch (some shard plans journaled, no commit) still
    // verifies clean — it is the documented mid-commit crash artifact.
    journal.verify().expect("torn trailing batch is legal");

    let rec = sharded_sim(fixed_workload(), cfg(11, None), 2)
        .recover(&journal)
        .expect("recovery succeeds");
    assert_eq!(wire(&rec.outcome), wire(&golden));
    // The torn batch was discarded, not replayed: at minimum its
    // BatchStart record is dropped.
    assert!(rec.stats.discarded_records >= 1);
    assert_eq!(rec.stats.replayed_batches, 3);
}

/// Every crash point of the fixed run — each heartbeat, between batches
/// and mid-commit, at 1–4 shards — recovers to the uninterrupted outcome,
/// sample history included (it is part of the wire form), after
/// replaying exactly the batches committed before the crash.
#[test]
fn every_crash_point_recovers_exactly() {
    for shards in 1..=4 {
        let golden = sharded_sim(fixed_workload(), cfg(11, None), shards).run();
        assert!(golden.samples.len() >= 3);
        let mut journal = Journal::new();
        let _ = sharded_sim(fixed_workload(), cfg(11, None), shards).run_result(Some(&mut journal));
        let heartbeats = journal.verify().unwrap().committed_batches;
        for at_heartbeat in 1..=heartbeats {
            for mid_commit in [false, true] {
                let crash = SchedulerCrash {
                    at_heartbeat,
                    mid_commit,
                };
                let mut journal = Journal::new();
                let res = sharded_sim(fixed_workload(), cfg(11, Some(crash)), shards)
                    .run_result(Some(&mut journal));
                let point = format!("shards {shards}, crash at {at_heartbeat} ({mid_commit})");
                assert!(matches!(res, RunResult::Crashed { .. }), "{point}");
                let rec = sharded_sim(fixed_workload(), cfg(11, None), shards)
                    .recover(&journal)
                    .unwrap_or_else(|e| panic!("{point}: {e}"));
                assert_eq!(rec.stats.replayed_batches, at_heartbeat - 1, "{point}");
                assert_eq!(rec.stats.discarded_records > 0, mid_commit, "{point}");
                assert_eq!(wire(&rec.outcome), wire(&golden), "{point}");
            }
        }
    }
}

#[test]
fn journal_of_completed_run_recovers_too() {
    let mut journal = Journal::new();
    let golden = greedy_sim(fixed_workload(), cfg(3, None))
        .run_result(Some(&mut journal))
        .completed()
        .expect("no crash configured");
    let stats = journal.verify().expect("complete journal verifies");
    assert!(stats.committed_batches >= 1);

    let rec = greedy_sim(fixed_workload(), cfg(3, None))
        .recover(&journal)
        .expect("recovery succeeds");
    assert_eq!(wire(&rec.outcome), wire(&golden));
    assert_eq!(rec.stats.replayed_batches, stats.committed_batches);
}

#[test]
fn recovery_refuses_wrong_builder() {
    let mut journal = Journal::new();
    let _ = greedy_sim(fixed_workload(), cfg(3, None)).run_result(Some(&mut journal));
    // Different seed → different fingerprint → typed refusal.
    let err = greedy_sim(fixed_workload(), cfg(4, None))
        .recover(&journal)
        .expect_err("fingerprint must not match");
    assert!(matches!(
        err,
        RecoveryError::Journal(tetris_sim::JournalError::FingerprintMismatch { .. })
    ));
}

// --- corrupt-journal corpus -------------------------------------------------

fn crashed_journal(seed: u64) -> Journal {
    let crash = SchedulerCrash {
        at_heartbeat: 6,
        mid_commit: false,
    };
    let mut journal = Journal::new();
    let res = greedy_sim(fixed_workload(), cfg(seed, Some(crash))).run_result(Some(&mut journal));
    assert!(matches!(res, RunResult::Crashed { .. }));
    journal
}

#[test]
fn empty_journal_is_a_typed_error() {
    let err = greedy_sim(fixed_workload(), cfg(7, None))
        .recover(&Journal::new())
        .expect_err("empty journal cannot recover");
    assert!(matches!(
        err,
        RecoveryError::Journal(tetris_sim::JournalError::Empty)
    ));
}

#[test]
fn bit_flipped_crc_reports_the_failing_offset() {
    let journal = crashed_journal(7);
    let mut bytes = journal.bytes().to_vec();
    // Flip one payload bit of the second frame (the first batch's start):
    // its CRC no longer matches, and strict verification names its offset.
    let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let second = 8 + first_len;
    bytes[second + 8] ^= 0x10;
    let err = Journal::from_bytes(bytes)
        .verify()
        .expect_err("flipped bit must fail CRC");
    match err {
        tetris_sim::JournalError::BadCrc { offset } => assert_eq!(offset, second as u64),
        other => panic!("expected BadCrc, got {other:?}"),
    }
}

#[test]
fn duplicated_record_is_a_typed_structural_error() {
    let journal = crashed_journal(7);
    let bytes = journal.bytes().to_vec();
    // Duplicate the header frame at the end: strict verify rejects the
    // second header at its exact offset.
    let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let mut dup = bytes.clone();
    dup.extend_from_slice(&bytes[0..8 + first_len]);
    let err = Journal::from_bytes(dup)
        .verify()
        .expect_err("duplicate header must be rejected");
    match err {
        tetris_sim::JournalError::DuplicateHeader { offset } => {
            assert_eq!(offset, bytes.len() as u64)
        }
        other => panic!("expected DuplicateHeader, got {other:?}"),
    }
}

// --- properties over the shared scenario ---------------------------------

/// The tentpole invariant: crash at any heartbeat, mid-commit or between
/// batches, under any policy at 1–4 shards — recovery reconstructs the
/// uninterrupted run, outcome and trace, after replaying every batch
/// committed before the crash.
#[test]
fn random_crash_recovery_is_byte_identical() {
    let mut recovered = 0;
    forall("random_crash_recovery_is_byte_identical", 12, |s| {
        let s = s.crashing();
        let golden = s.run();
        let at = s.crash.expect("a crashing draw").at_heartbeat;
        match s.journaled() {
            (RunResult::Crashed { heartbeat }, journal) => {
                assert_eq!(heartbeat, at);
                journal.verify().expect("crashed journal verifies clean");
                let (rec, stats) = s.recover(&journal).expect("recovery succeeds");
                same_outcome(&rec, &golden);
                assert_eq!(stats.replayed_batches, at - 1);
                recovered += 1;
            }
            // The run ended before the crash heartbeat: the journaled run
            // must already match the golden run.
            (RunResult::Completed(o), _) => assert_eq!(wire(&o), wire(&golden.outcome)),
        }
    });
    assert!(recovered > 0, "no draw crashed before it ended");
}

/// Recovery from a damaged journal: exactly the uninterrupted outcome from
/// the surviving prefix, or a typed journal error. No third outcome.
fn recovers_exactly_or_fails_typed(s: &Scenario, golden: &str, damaged: Journal) {
    match s.recover(&damaged) {
        Ok((rec, _)) => assert_eq!(wire(&rec.outcome), golden),
        Err(RecoveryError::Journal(_)) => {}
        Err(e) => panic!("unexpected error: {e}"),
    }
}

/// Truncating the journal at *any* byte offset never panics.
#[test]
fn truncated_journal_recovers_exactly_or_fails_typed() {
    forall(
        "truncated_journal_recovers_exactly_or_fails_typed",
        8,
        |s| {
            let s = s.crashing();
            let golden = wire(&s.run().outcome);
            let bytes = s.journaled().1.bytes().to_vec();
            let cut = (s.draw % 1000) as usize * bytes.len() / 1000;
            recovers_exactly_or_fails_typed(
                &s,
                &golden,
                Journal::from_bytes(bytes[..cut].to_vec()),
            );
        },
    );
}

/// Flipping any single bit never panics: the CRC framing catches the
/// damage, and the lenient scan discards from the damaged frame on.
#[test]
fn bit_flips_never_panic_and_never_diverge() {
    forall("bit_flips_never_panic_and_never_diverge", 8, |s| {
        let s = s.crashing();
        let golden = wire(&s.run().outcome);
        let mut bytes = s.journaled().1.bytes().to_vec();
        let idx = (s.draw / 8 % 1000) as usize * (bytes.len() - 1) / 1000;
        bytes[idx] ^= 1 << (s.draw % 8);
        recovers_exactly_or_fails_typed(&s, &golden, Journal::from_bytes(bytes));
    });
}
