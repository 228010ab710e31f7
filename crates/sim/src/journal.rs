//! Write-ahead decision journal (DESIGN.md §15).
//!
//! An append-only, CRC-framed record stream that makes the *scheduler*
//! restart-safe: the engine journals every scheduling batch's commit
//! decisions, and [`crate::Simulation::recover`] re-runs the simulation
//! from heartbeat 0 against them, so the recovered run's outcome is
//! byte-identical to an uninterrupted run. The journal holds decisions
//! only: the simulator is a deterministic function of the caller's
//! cluster, workload and config, so re-execution rebuilds every piece of
//! engine and policy state a snapshot would have carried.
//!
//! ## Frame format
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload. The payload is the compact
//! JSON encoding of one [`JournalRecord`] — the same wire idiom as the
//! obs trace stream, framed so a torn tail (the scheduler died mid-write)
//! is detected by length or checksum rather than by a JSON parse panic.
//!
//! ## Record stream grammar
//!
//! ```text
//! RunHeader ( BatchStart Placement* BatchCommit )*
//! ```
//!
//! A batch is *committed* iff its `BatchCommit` made it into the journal;
//! recovery replays only committed batches (the commit frontier) and
//! discards a trailing `BatchStart` whose commit never landed — exactly
//! the torn state a mid-commit crash leaves behind.
//!
//! ## One scanner, one grammar, two policies on a bad frame
//!
//! Both readers walk the journal through `frames` — which checks length
//! cap, truncation, CRC and UTF-8 of *every* frame before anything reads
//! its payload — and hold what they read to `Grammar`, the only copy of
//! the rules above:
//!
//! * [`Journal::verify`], the *strict* reader of tests and tooling: every
//!   frame must fully decode, and a bad frame or a grammar violation is a
//!   typed [`JournalError`] carrying the failing record's byte offset.
//! * `recovery::plan_recovery`, the *lenient* one: the first bad frame
//!   ends the readable prefix and is reported, not raised (a torn tail is
//!   an expected crash artifact); a grammar violation inside the prefix is
//!   the error `verify` gives, at the same offset.

use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use tetris_workload::TaskUid;

use crate::cluster::MachineId;

/// Journal wire-format version; bumped on any frame or record change
/// (2: `Samples` records; sparse tasks and flows in the snapshot. 3: no
/// `gen` on a flow or its `FlowDone`; one queued completion a live flow.
/// 4: decisions only — no `Checkpoint` or `Samples` record, no
/// `checkpoint_every` in the header).
pub(crate) const JOURNAL_VERSION: u32 = 4;

/// Frame header size: `len` + `crc32`.
const FRAME_HEADER: usize = 8;

/// Hard cap on a single record's payload so a corrupt length field can't
/// ask the scanner to allocate the universe (a record is a few dozen
/// bytes; 1 GiB is far beyond any real one).
const MAX_RECORD_LEN: u32 = 1 << 30;

/// The length rule both ends of a frame hold a payload to: the writer
/// never emits a record the scanner would refuse.
fn record_len(len: usize) -> Result<u32, String> {
    let fits = u32::try_from(len).ok().filter(|&len| len <= MAX_RECORD_LEN);
    fits.ok_or_else(|| format!("record length {len} exceeds the {MAX_RECORD_LEN}-byte cap"))
}

/// Slicing-by-8 tables for CRC-32 (IEEE 802.3, reflected polynomial
/// 0xEDB88320): `[k]` is the CRC of each byte followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 8 * 256 {
        let (k, byte) = (i / 256, i % 256);
        let mut crc = byte as u32;
        if k == 0 {
            let mut bit = 0;
            while bit < 8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                bit += 1;
            }
        } else {
            let prev = tables[k - 1][byte];
            crc = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
        }
        tables[k][byte] = crc;
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3) over `bytes`: eight bytes a step, one table lookup
/// each with no dependency between them; a byte loop for the tail.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][(hi >> 8 & 0xff) as usize]
            ^ t[1][(hi >> 16 & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// One journal record.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub(crate) enum JournalRecord {
    /// First record of every journal: identifies the run it belongs to.
    RunHeader {
        /// Wire-format version ([`JOURNAL_VERSION`]).
        version: u32,
        /// Simulator seed of the journaled run.
        seed: u64,
        /// Fingerprint of (cluster, workload, seed) — recovery refuses a
        /// journal whose fingerprint disagrees with the builder's.
        fingerprint: u64,
    },
    /// A scheduling batch began.
    BatchStart {
        /// 1-based scheduling-heartbeat number.
        heartbeat: u64,
        /// Simulated time of the batch, microseconds.
        now_us: u64,
    },
    /// One committed placement decision within the current batch.
    Placement {
        /// Task placed.
        task: TaskUid,
        /// Machine it was placed on.
        machine: MachineId,
        /// Scheduling round within the batch (the policy is called round
        /// after round until one places nothing).
        round: u32,
    },
    /// The scheduling batch committed.
    BatchCommit {
        /// Heartbeat being committed (must match the open `BatchStart`).
        heartbeat: u64,
        /// Placements applied in the batch (cross-check for replay).
        placements: u64,
        /// `schedule()` invocations the batch made: a tally the replayed
        /// batch, which re-invokes the policy, must meet.
        schedule_calls: u64,
        /// Assignments the engine rejected as invalid in the batch.
        rejected: u64,
    },
}

/// A typed journal defect, located by the byte offset of the offending
/// frame.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// The journal has no bytes at all.
    Empty,
    /// The first record is not a `RunHeader` (or a later record is a
    /// second one).
    MissingHeader {
        /// Offset of the record that should have been the header.
        offset: u64,
    },
    /// A second `RunHeader` appeared mid-stream.
    DuplicateHeader {
        /// Offset of the duplicate.
        offset: u64,
    },
    /// The file ends inside a frame (torn tail).
    Truncated {
        /// Offset of the incomplete frame.
        offset: u64,
    },
    /// A frame's checksum does not match its payload.
    BadCrc {
        /// Offset of the corrupt frame.
        offset: u64,
    },
    /// A frame's payload is not a decodable record.
    BadPayload {
        /// Offset of the undecodable frame.
        offset: u64,
        /// Decoder diagnostic.
        msg: String,
    },
    /// A structurally impossible record sequence (duplicate commit,
    /// placement outside a batch, out-of-order heartbeat, …) somewhere
    /// other than a discardable tail.
    OutOfOrder {
        /// Offset of the violating record.
        offset: u64,
        /// What was violated.
        msg: String,
    },
    /// The journal belongs to a different run than the builder describes.
    FingerprintMismatch {
        /// Fingerprint the builder computed.
        expected: u64,
        /// Fingerprint stored in the journal header.
        found: u64,
    },
    /// The journal version is not supported.
    BadVersion {
        /// Version stored in the header.
        found: u32,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Empty => write!(f, "journal is empty"),
            JournalError::MissingHeader { offset } => {
                write!(f, "record at byte {offset} is not the run header")
            }
            JournalError::DuplicateHeader { offset } => {
                write!(f, "duplicate run header at byte {offset}")
            }
            JournalError::Truncated { offset } => {
                write!(f, "journal truncated inside the frame at byte {offset}")
            }
            JournalError::BadCrc { offset } => {
                write!(f, "checksum mismatch in the frame at byte {offset}")
            }
            JournalError::BadPayload { offset, msg } => {
                write!(f, "undecodable record at byte {offset}: {msg}")
            }
            JournalError::OutOfOrder { offset, msg } => {
                write!(f, "impossible record sequence at byte {offset}: {msg}")
            }
            JournalError::FingerprintMismatch { expected, found } => write!(
                f,
                "journal belongs to a different run (fingerprint {found:#x}, expected {expected:#x})"
            ),
            JournalError::BadVersion { found } => {
                write!(f, "unsupported journal version {found} (expected {JOURNAL_VERSION})")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Aggregate counts from a strict scan ([`Journal::verify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalStats {
    /// Records in the journal.
    pub records: u64,
    /// Total bytes.
    pub bytes: u64,
    /// Always 0: the journal holds no checkpoints since version 4. Kept
    /// only until the benchmark harness stops reading it.
    pub checkpoints: u64,
    /// Committed batches.
    pub committed_batches: u64,
    /// Placements journaled inside committed batches.
    pub placements: u64,
}

/// An append-only, CRC-framed journal buffer.
///
/// The engine appends records while running; [`Journal::save`] /
/// [`Journal::load`] move the byte stream to and from disk. All decoding
/// goes through the scanning methods, never through direct indexing, so
/// corrupt input surfaces as [`JournalError`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    buf: Vec<u8>,
    records: u64,
    /// The payload being framed; empty between appends, its capacity kept.
    text: String,
}

impl Journal {
    /// New empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap raw journal bytes (e.g. read from elsewhere, or corrupted on
    /// purpose by a test).
    pub fn from_bytes(buf: Vec<u8>) -> Self {
        Journal {
            buf,
            records: 0,
            text: String::new(),
        }
    }

    /// The raw byte stream.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Records appended through this handle (not counting pre-loaded
    /// bytes).
    pub fn appended_records(&self) -> u64 {
        self.records
    }

    /// Append one framed record, its text written once into a reused buffer.
    pub(crate) fn append(&mut self, rec: &JournalRecord) {
        serde::Serialize::write_json(rec, &mut self.text);
        let payload = self.text.as_bytes();
        let len = record_len(payload.len()).unwrap_or_else(|msg| panic!("unwritable: {msg}"));
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.text.clear();
        self.records += 1;
    }

    /// Write the journal to `path` (atomic enough for the simulator: a
    /// single create+write).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        fs::write(path, &self.buf)
    }

    /// Read a journal byte stream from `path`. No validation happens
    /// here — corrupt content surfaces from the scanning methods.
    pub fn load(path: &Path) -> io::Result<Self> {
        Ok(Journal::from_bytes(fs::read(path)?))
    }

    /// Strict scan: decode every record or fail with the first frame
    /// defect, plus validate the record-stream grammar ([`Grammar`]). A
    /// torn *trailing* batch — `BatchStart` and placements with no
    /// `BatchCommit` at EOF — is legal: that is the documented crash
    /// artifact.
    pub fn verify(&self) -> Result<JournalStats, JournalError> {
        let mut stats = JournalStats {
            bytes: self.buf.len() as u64,
            ..JournalStats::default()
        };
        let mut grammar = Grammar::default();
        for frame in frames(&self.buf)? {
            stats.records += 1;
            if let Admitted::Batch(b) = grammar.step(frame.offset, &frame.decode()?)? {
                stats.committed_batches += 1;
                stats.placements += b.expected.len() as u64;
            }
        }
        grammar.finish()?;
        Ok(stats)
    }
}

/// One frame as the scanner found it: the payload — one record's JSON
/// text — if the frame passed every check, else the defect.
#[derive(Debug)]
pub(crate) struct Frame<'a> {
    /// Byte offset of the frame in the journal.
    pub offset: u64,
    pub payload: Result<&'a str, JournalError>,
}

impl Frame<'_> {
    /// Fully decode the payload.
    pub(crate) fn decode(&self) -> Result<JournalRecord, JournalError> {
        let text = self.payload.clone()?;
        serde_json::from_str(text).map_err(|e| JournalError::BadPayload {
            offset: self.offset,
            msg: e.to_string(),
        })
    }
}

/// The frame scanner: each frame of `buf` in order, the first defective
/// one last (nothing after a bad length or checksum can be framed). An
/// empty journal is a typed error, not an empty scan.
pub(crate) fn frames(buf: &[u8]) -> Result<impl Iterator<Item = Frame<'_>>, JournalError> {
    if buf.is_empty() {
        return Err(JournalError::Empty);
    }
    let mut pos = 0;
    Ok(std::iter::from_fn(move || {
        if pos == buf.len() {
            return None;
        }
        let offset = pos as u64;
        let payload = read_payload(buf, pos);
        pos = payload
            .as_ref()
            .map_or(buf.len(), |text| pos + FRAME_HEADER + text.len());
        Some(Frame { offset, payload })
    }))
}

/// Check the frame at `pos` — length cap, truncation, CRC, UTF-8 — and
/// slice its payload. Error offsets name the frame.
fn read_payload(buf: &[u8], pos: usize) -> Result<&str, JournalError> {
    let offset = pos as u64;
    if buf.len() - pos < FRAME_HEADER {
        return Err(JournalError::Truncated { offset });
    }
    let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().expect("4 bytes"));
    let len = record_len(len as usize).map_err(|msg| JournalError::BadPayload { offset, msg })?;
    let start = pos + FRAME_HEADER;
    let end = start + len as usize;
    if end > buf.len() {
        return Err(JournalError::Truncated { offset });
    }
    let payload = &buf[start..end];
    if crc32(payload) != crc {
        return Err(JournalError::BadCrc { offset });
    }
    std::str::from_utf8(payload).map_err(|e| JournalError::BadPayload {
        offset,
        msg: e.to_string(),
    })
}

/// One committed batch as journaled. Replay re-invokes the policy and
/// pops its applied placements off `expected` one by one — the journal is
/// the witness the live decisions must reproduce, not a substitute.
#[derive(Debug, Default)]
pub(crate) struct CommittedBatch {
    pub heartbeat: u64,
    pub now_us: u64,
    /// `(round, task, machine)` in commit order.
    pub expected: VecDeque<(u32, TaskUid, MachineId)>,
    pub schedule_calls: u64,
    pub rejected: u64,
}

/// What a record the grammar admitted completes.
#[derive(Debug)]
pub(crate) enum Admitted {
    /// The run header, carrying the run's fingerprint.
    Header { fingerprint: u64 },
    /// The open batch, committed.
    Batch(CommittedBatch),
    /// A batch opened or grew; nothing is complete yet.
    Pending,
}

/// The record-stream grammar (module docs) as a state machine: header
/// first and unique, batches open and close in turn, heartbeats chain
/// from 1 without a gap, a commit counts its placements.
/// [`Journal::verify`] and recovery both drive this one copy, so they
/// cannot disagree on what a journal may say or on where it stops saying
/// it.
#[derive(Debug, Default)]
pub(crate) struct Grammar {
    seen_header: bool,
    open: Option<CommittedBatch>,
    /// Heartbeat of the last committed batch (0 before the first).
    last_heartbeat: u64,
}

impl Grammar {
    /// Admit the record at `offset`, or name the rule it breaks.
    pub(crate) fn step(
        &mut self,
        offset: u64,
        rec: &JournalRecord,
    ) -> Result<Admitted, JournalError> {
        let out_of_order = |msg: String| Err(JournalError::OutOfOrder { offset, msg });
        match *rec {
            JournalRecord::RunHeader {
                version,
                fingerprint,
                ..
            } => {
                if self.seen_header {
                    return Err(JournalError::DuplicateHeader { offset });
                }
                if version != JOURNAL_VERSION {
                    return Err(JournalError::BadVersion { found: version });
                }
                self.seen_header = true;
                Ok(Admitted::Header { fingerprint })
            }
            _ if !self.seen_header => Err(JournalError::MissingHeader { offset }),
            JournalRecord::BatchStart { heartbeat, now_us } => {
                if let Some(open) = self.open.as_ref().map(|b| b.heartbeat) {
                    return out_of_order(format!(
                        "batch {heartbeat} opened while batch {open} is open"
                    ));
                }
                let last = self.last_heartbeat;
                if heartbeat != last + 1 {
                    return out_of_order(format!("batch {heartbeat} does not follow batch {last}"));
                }
                self.open = Some(CommittedBatch {
                    heartbeat,
                    now_us,
                    ..CommittedBatch::default()
                });
                Ok(Admitted::Pending)
            }
            JournalRecord::Placement {
                task,
                machine,
                round,
            } => match &mut self.open {
                Some(open) => {
                    open.expected.push_back((round, task, machine));
                    Ok(Admitted::Pending)
                }
                None => out_of_order("placement outside any open batch".into()),
            },
            JournalRecord::BatchCommit {
                heartbeat,
                placements,
                schedule_calls,
                rejected,
            } => match self.open.take() {
                Some(open) if open.heartbeat == heartbeat => {
                    let journaled = open.expected.len() as u64;
                    if placements != journaled {
                        return out_of_order(format!(
                            "batch {heartbeat} commits {placements} placements but journaled \
                             {journaled}"
                        ));
                    }
                    self.last_heartbeat = heartbeat;
                    Ok(Admitted::Batch(CommittedBatch {
                        schedule_calls,
                        rejected,
                        ..open
                    }))
                }
                Some(other) => out_of_order(format!(
                    "commit for batch {heartbeat} closes batch {}",
                    other.heartbeat
                )),
                None => out_of_order(format!("commit for batch {heartbeat} with no open batch")),
            },
        }
    }

    /// The stream ended (or its readable prefix did). It must have begun
    /// with a header; a trailing batch left open — the mid-commit crash
    /// artifact — is legal, and handed back to be discarded.
    pub(crate) fn finish(self) -> Result<Option<CommittedBatch>, JournalError> {
        if !self.seen_header {
            return Err(JournalError::MissingHeader { offset: 0 });
        }
        Ok(self.open)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalRecord {
        JournalRecord::RunHeader {
            version: JOURNAL_VERSION,
            seed: 7,
            fingerprint: 0xfeed,
        }
    }

    fn commit(hb: u64, placements: u64) -> JournalRecord {
        JournalRecord::BatchCommit {
            heartbeat: hb,
            placements,
            schedule_calls: 2,
            rejected: 0,
        }
    }

    fn placement() -> JournalRecord {
        JournalRecord::Placement {
            task: TaskUid(3),
            machine: MachineId(1),
            round: 0,
        }
    }

    fn wire(rec: &JournalRecord) -> String {
        serde_json::to_string(rec).unwrap()
    }

    /// Every frame the scanner yields, decoded; the defect that ended the
    /// scan, if one did.
    fn scan(j: &Journal) -> (Vec<(u64, JournalRecord)>, Option<JournalError>) {
        let mut recs = Vec::new();
        for frame in frames(j.bytes()).unwrap() {
            match frame.decode() {
                Ok(rec) => recs.push((frame.offset, rec)),
                Err(e) => return (recs, Some(e)),
            }
        }
        (recs, None)
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    /// The bit-at-a-time definition the tables are built from.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_sliced_matches_bitwise_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC4C);
        for case in 0..300 {
            let len = if case == 0 { 0 } else { rng.gen_range(0..4096) };
            let buf: Vec<u8> = (0..len).map(|_| rng.gen::<u32>() as u8).collect();
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "case {case}, {len} bytes");
        }
        // Every split between the eight-byte steps and the byte tail, at
        // every alignment of the slice's start.
        let buf: Vec<u8> = (0..8 + 64).map(|_| rng.gen::<u32>() as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "start {start}, {len} bytes"
                );
            }
        }
    }

    #[test]
    fn writer_and_scanner_share_one_length_cap() {
        let cap = MAX_RECORD_LEN as usize;
        assert_eq!(record_len(0), Ok(0));
        assert_eq!(record_len(cap), Ok(MAX_RECORD_LEN));
        // What the writer would refuse to frame (it used to accept anything
        // up to `u32::MAX`) …
        let refused = record_len(cap + 1).unwrap_err();
        assert!(record_len(u32::MAX as usize).is_err());
        assert!(record_len(u32::MAX as usize + 1).is_err());
        // … is what the scanner refuses to read, in the same words.
        let mut bytes = (MAX_RECORD_LEN + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 4]);
        assert_eq!(
            Journal::from_bytes(bytes).verify(),
            Err(JournalError::BadPayload {
                offset: 0,
                msg: refused
            })
        );
    }

    #[test]
    fn append_scan_roundtrip() {
        let mut j = Journal::new();
        j.append(&header());
        j.append(&JournalRecord::BatchStart {
            heartbeat: 1,
            now_us: 1_000_000,
        });
        j.append(&placement());
        j.append(&commit(1, 1));
        let (recs, defect) = scan(&j);
        assert!(defect.is_none());
        assert_eq!(recs.len(), 4);
        assert_eq!(wire(&recs[0].1), wire(&header()));
        assert_eq!(wire(&recs[2].1), wire(&placement()));
        assert_eq!(recs[0].0, 0);
        let stats = j.verify().unwrap();
        assert_eq!(stats.records, 4);
        assert_eq!(stats.committed_batches, 1);
        assert_eq!(stats.placements, 1);
    }

    #[test]
    fn empty_journal_is_typed() {
        assert_eq!(Journal::new().verify(), Err(JournalError::Empty));
    }

    #[test]
    fn bit_flip_is_bad_crc_with_offset() {
        let mut j = Journal::new();
        j.append(&header());
        j.append(&commit(1, 0)); // grammar checked later; CRC first
        let second = {
            // offset of the second frame = first frame's total size
            let len = u32::from_le_bytes(j.buf[0..4].try_into().unwrap());
            FRAME_HEADER + len as usize
        };
        let mut bytes = j.buf.clone();
        *bytes.last_mut().unwrap() ^= 0x40;
        let j2 = Journal::from_bytes(bytes);
        assert_eq!(
            j2.verify(),
            Err(JournalError::BadCrc {
                offset: second as u64
            })
        );
        let (recs, defect) = scan(&j2);
        assert_eq!(recs.len(), 1);
        let defect = defect.unwrap();
        assert_eq!(
            defect,
            JournalError::BadCrc {
                offset: second as u64
            }
        );
        assert!(defect.to_string().contains("checksum"));
    }

    #[test]
    fn truncation_mid_frame_is_typed_and_droppable() {
        let mut j = Journal::new();
        j.append(&header());
        j.append(&placement());
        for cut in 1..j.buf.len() {
            let j2 = Journal::from_bytes(j.buf[..cut].to_vec());
            match j2.verify() {
                // Cuts at a frame boundary after the header verify clean.
                Ok(stats) => assert!(stats.records >= 1),
                Err(
                    JournalError::Truncated { .. }
                    | JournalError::BadCrc { .. }
                    | JournalError::MissingHeader { .. }
                    | JournalError::OutOfOrder { .. },
                ) => {}
                Err(other) => panic!("unexpected error at cut {cut}: {other}"),
            }
            // The scanner never panics and never yields more records
            // than the prefix holds.
            let (recs, _) = scan(&j2);
            assert!(recs.len() <= 2);
        }
    }

    #[test]
    fn duplicated_record_is_out_of_order_with_offset() {
        let mut j = Journal::new();
        j.append(&header());
        j.append(&JournalRecord::BatchStart {
            heartbeat: 1,
            now_us: 5,
        });
        j.append(&commit(1, 0));
        let end = j.buf.len();
        // Duplicate the commit frame verbatim: valid CRC, impossible
        // grammar.
        let len = {
            let hdr_len = u32::from_le_bytes(j.buf[0..4].try_into().unwrap()) as usize;
            let bs_off = FRAME_HEADER + hdr_len;
            let bs_len = u32::from_le_bytes(j.buf[bs_off..bs_off + 4].try_into().unwrap()) as usize;
            let commit_off = bs_off + FRAME_HEADER + bs_len;
            j.buf[commit_off..].to_vec()
        };
        let mut bytes = j.buf.clone();
        bytes.extend_from_slice(&len);
        let j2 = Journal::from_bytes(bytes);
        match j2.verify() {
            Err(JournalError::OutOfOrder { offset, msg }) => {
                assert_eq!(offset, end as u64);
                assert!(msg.contains("no open batch"), "{msg}");
            }
            other => panic!("expected OutOfOrder, got {other:?}"),
        }
    }

    /// The grammar's verdict on `recs`, appended in order.
    fn verdict(recs: &[JournalRecord]) -> Result<JournalStats, JournalError> {
        let mut j = Journal::new();
        for rec in recs {
            j.append(rec);
        }
        j.verify()
    }

    #[test]
    fn a_batch_that_skips_a_heartbeat_is_out_of_order() {
        let start = JournalRecord::BatchStart {
            heartbeat: 2,
            now_us: 5,
        };
        match verdict(&[header(), start]) {
            Err(JournalError::OutOfOrder { msg, .. }) => {
                assert!(msg.contains("does not follow batch 0"), "{msg}");
            }
            other => panic!("expected OutOfOrder, got {other:?}"),
        }
    }

    #[test]
    fn a_commit_must_count_the_placements_journaled() {
        let start = JournalRecord::BatchStart {
            heartbeat: 1,
            now_us: 5,
        };
        match verdict(&[header(), start, placement(), commit(1, 2)]) {
            Err(JournalError::OutOfOrder { msg, .. }) => {
                assert!(
                    msg.contains("commits 2 placements but journaled 1"),
                    "{msg}"
                );
            }
            other => panic!("expected OutOfOrder, got {other:?}"),
        }
    }

    #[test]
    fn a_second_header_is_a_duplicate() {
        let mut first = Journal::new();
        first.append(&header());
        let offset = first.bytes().len() as u64;
        assert_eq!(
            verdict(&[header(), header()]),
            Err(JournalError::DuplicateHeader { offset })
        );
    }

    #[test]
    fn missing_header_is_typed() {
        let mut j = Journal::new();
        j.append(&placement());
        assert_eq!(j.verify(), Err(JournalError::MissingHeader { offset: 0 }));
    }

    #[test]
    fn torn_trailing_batch_verifies_clean() {
        let mut j = Journal::new();
        j.append(&header());
        j.append(&JournalRecord::BatchStart {
            heartbeat: 1,
            now_us: 5,
        });
        j.append(&placement());
        // No commit: the torn mid-commit artifact. Strict scan accepts it
        // (the tail is discardable), counting only committed batches.
        let stats = j.verify().unwrap();
        assert_eq!(stats.committed_batches, 0);
        assert_eq!(stats.placements, 0);
        assert_eq!(stats.records, 3);
    }
}
