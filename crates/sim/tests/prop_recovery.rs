//! Crash-recovery invariants (DESIGN.md §15): a run recovered from its
//! write-ahead journal is **byte-identical** to the uninterrupted run —
//! at every crash heartbeat, between batches and mid-commit, at 1–4
//! scheduler shards, and from journals truncated at arbitrary byte
//! offsets or bit-flipped anywhere. Recovery replays every batch committed
//! before the crash. Damage beyond repair surfaces as a typed
//! [`JournalError`]/[`RecoveryError`], never a panic and never a silently
//! divergent outcome.

use proptest::prelude::*;
use tetris_core::{TetrisConfig, TetrisScheduler};
use tetris_resources::{units::GB, units::MB, MachineSpec};
use tetris_sim::{
    ClusterConfig, GreedyFifo, Journal, RecoveryError, RunResult, SchedulerCrash, ShardedScheduler,
    SimConfig, SimOutcome, Simulation,
};
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

/// Random small workload whose demands fit the small machine profile.
fn arb_workload() -> impl Strategy<Value = Workload> {
    let job = (
        1usize..=4,    // tasks
        0.25f64..=2.0, // cores
        0.5f64..=3.0,  // mem GB
        2.0f64..=20.0, // duration
        0.0f64..=30.0, // arrival
    );
    proptest::collection::vec(job, 1..=4).prop_map(|jobs| {
        let mut b = WorkloadBuilder::new().with_demand_cap(MachineSpec::paper_small().capacity());
        for (ji, (n, cores, mem_gb, dur, arrival)) in jobs.into_iter().enumerate() {
            let j = b.begin_job(format!("j{ji}"), None, arrival);
            let inputs: Vec<_> = (0..n).map(|_| b.stored_input(16.0 * MB)).collect();
            b.add_stage(j, "map", vec![], n, |i| TaskParams {
                cores,
                mem: mem_gb * GB,
                duration: dur,
                cpu_frac: 0.6,
                io_burst: 1.0,
                inputs: vec![inputs[i]],
                output_bytes: 10.0 * MB,
                remote_frac: 1.0,
            });
        }
        b.finish()
    })
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

/// The byte-identity oracle: outcomes compared on their full wire form.
fn wire(o: &SimOutcome) -> String {
    serde_json::to_string(o).expect("outcome serializes")
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

// --- property tests ---------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: crash at any heartbeat, mid-commit or
    /// between batches, at 1–4 shards — recovery reconstructs the
    /// uninterrupted outcome byte for byte, after replaying every batch
    /// committed before the crash.
    #[test]
    fn random_crash_recovery_is_byte_identical(
        w in arb_workload(),
        seed in 0u64..20,
        at_heartbeat in 1u64..12,
        mid_commit in proptest::bool::ANY,
        shards in 1usize..=4,
    ) {
        let golden = sharded_sim(w.clone(), cfg(seed, None), shards).run();

        let crash = SchedulerCrash { at_heartbeat, mid_commit };
        let mut journal = Journal::new();
        let res = sharded_sim(w.clone(), cfg(seed, Some(crash)), shards)
            .run_result(Some(&mut journal));
        match res {
            RunResult::Crashed { heartbeat } => {
                prop_assert_eq!(heartbeat, at_heartbeat);
                journal.verify().expect("crashed journal verifies clean");
                let rec = sharded_sim(w, cfg(seed, None), shards)
                    .recover(&journal)
                    .expect("recovery succeeds");
                prop_assert_eq!(wire(&rec.outcome), wire(&golden));
                prop_assert_eq!(rec.stats.replayed_batches, at_heartbeat - 1);
            }
            RunResult::Completed(o) => {
                // The run ended before the crash heartbeat: the journaled
                // run must already match the golden run.
                prop_assert_eq!(wire(&o), wire(&golden));
            }
        }
    }

    /// Truncating the journal at *any* byte offset never panics: recovery
    /// either reconstructs the exact uninterrupted outcome from the
    /// surviving prefix, or fails with a typed error. No third outcome.
    #[test]
    fn truncated_journal_recovers_exactly_or_fails_typed(
        seed in 0u64..6,
        frac in 0.0f64..1.0,
    ) {
        let golden = greedy_sim(fixed_workload(), cfg(seed, None)).run();
        let journal = crashed_journal(seed);
        let cut = (journal.bytes().len() as f64 * frac) as usize;
        let truncated = Journal::from_bytes(journal.bytes()[..cut].to_vec());
        match greedy_sim(fixed_workload(), cfg(seed, None)).recover(&truncated) {
            Ok(rec) => prop_assert_eq!(wire(&rec.outcome), wire(&golden)),
            Err(RecoveryError::Journal(_)) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    /// Flipping any single bit never panics: the CRC framing catches the
    /// damage, the lenient scan discards from the damaged frame on, and
    /// recovery from the surviving prefix is still exact — or the journal
    /// is unusable and says so with a typed error.
    #[test]
    fn bit_flips_never_panic_and_never_diverge(
        seed in 0u64..6,
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let golden = greedy_sim(fixed_workload(), cfg(seed, None)).run();
        let journal = crashed_journal(seed);
        let mut bytes = journal.bytes().to_vec();
        let idx = ((bytes.len() - 1) as f64 * byte_frac) as usize;
        bytes[idx] ^= 1 << bit;
        let damaged = Journal::from_bytes(bytes);
        match greedy_sim(fixed_workload(), cfg(seed, None)).recover(&damaged) {
            Ok(rec) => prop_assert_eq!(wire(&rec.outcome), wire(&golden)),
            Err(RecoveryError::Journal(_)) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}
