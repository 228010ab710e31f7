//! Trace (de)serialization.
//!
//! Workloads round-trip to a versioned JSON envelope. This serves two
//! purposes from the paper: (a) recurring jobs — "Tetris uses task
//! statistics measured in prior runs of the job" (§4.1) — need prior runs
//! stored somewhere, and (b) experiments must be replayable bit-for-bit.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::spec::Workload;

/// Current trace format version.
pub const TRACE_VERSION: u32 = 1;

/// Versioned envelope around a workload.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TraceFile {
    /// Format version (must equal [`TRACE_VERSION`]).
    pub version: u32,
    /// Free-form provenance note (generator name, seed, date).
    pub provenance: String,
    /// The workload itself.
    pub workload: Workload,
}

/// Errors from trace IO.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// Version mismatch.
    Version {
        /// Version found in the file.
        found: u32,
    },
    /// The decoded workload failed validation.
    Invalid(crate::ValidationError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace io error: {e}"),
            TraceError::Json(e) => write!(f, "trace json error: {e}"),
            TraceError::Version { found } => {
                write!(f, "trace version {found}, expected {TRACE_VERSION}")
            }
            TraceError::Invalid(e) => write!(f, "trace contains invalid workload: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<serde_json::Error> for TraceError {
    fn from(e: serde_json::Error) -> Self {
        TraceError::Json(e)
    }
}

/// Serialize a workload (with provenance) to a JSON string.
pub fn to_json(workload: &Workload, provenance: &str) -> Result<String, TraceError> {
    let tf = TraceFile {
        version: TRACE_VERSION,
        provenance: provenance.to_string(),
        workload: workload.clone(),
    };
    Ok(serde_json::to_string(&tf)?)
}

/// Decode a workload from a JSON string, checking version and validity.
pub fn from_json(s: &str) -> Result<TraceFile, TraceError> {
    let tf: TraceFile = serde_json::from_str(s)?;
    if tf.version != TRACE_VERSION {
        return Err(TraceError::Version { found: tf.version });
    }
    tf.workload.validate().map_err(TraceError::Invalid)?;
    Ok(tf)
}

/// Write a workload to a file.
pub fn save(
    path: impl AsRef<Path>,
    workload: &Workload,
    provenance: &str,
) -> Result<(), TraceError> {
    let tf = TraceFile {
        version: TRACE_VERSION,
        provenance: provenance.to_string(),
        workload: workload.clone(),
    };
    let mut w = BufWriter::new(File::create(path)?);
    serde_json::to_writer(&mut w, &tf)?;
    w.flush()?;
    Ok(())
}

/// Load a workload from a file.
pub fn load(path: impl AsRef<Path>) -> Result<TraceFile, TraceError> {
    let mut s = String::new();
    BufReader::new(File::open(path)?).read_to_string(&mut s)?;
    from_json(&s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TaskUid, ValidationError, WorkloadSuiteConfig};

    #[test]
    fn json_roundtrip() {
        let w = WorkloadSuiteConfig::small().generate(3);
        let s = to_json(&w, "suite small seed=3").unwrap();
        let back = from_json(&s).unwrap();
        assert_eq!(back.workload, w);
        assert_eq!(back.provenance, "suite small seed=3");
    }

    #[test]
    fn file_roundtrip() {
        let w = WorkloadSuiteConfig::small().generate(4);
        let dir = std::env::temp_dir().join("tetris-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.json");
        save(&path, &w, "test").unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.workload, w);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_version() {
        let w = WorkloadSuiteConfig::small().generate(5);
        let s = to_json(&w, "x")
            .unwrap()
            .replacen("\"version\":1", "\"version\":999", 1);
        assert!(matches!(
            from_json(&s),
            Err(TraceError::Version { found: 999 })
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(from_json("not json"), Err(TraceError::Json(_))));
    }

    #[test]
    fn rejects_invalid_workload() {
        let mut w = WorkloadSuiteConfig::small().generate(6);
        let s = {
            w.jobs_mut()[0].arrival = -5.0;
            let tf = TraceFile {
                version: TRACE_VERSION,
                provenance: String::new(),
                workload: w,
            };
            serde_json::to_string(&tf).unwrap()
        };
        assert!(matches!(from_json(&s), Err(TraceError::Invalid(_))));
    }

    /// Unique but sparse task uids would index past the simulator's
    /// per-task tables: a trace file carrying them is refused, typed.
    #[test]
    fn rejects_sparse_task_uids() {
        let mut w = WorkloadSuiteConfig::scaled(4, 0.05).generate(42);
        let n = w.num_tasks();
        let last = w.jobs_mut().last_mut().unwrap().stages.last_mut().unwrap();
        last.tasks.last_mut().unwrap().uid = TaskUid(n + 7);
        let tf = TraceFile {
            version: TRACE_VERSION,
            provenance: String::new(),
            workload: w,
        };
        let s = serde_json::to_string(&tf).unwrap();
        assert!(matches!(
            from_json(&s),
            Err(TraceError::Invalid(ValidationError::BadTaskIdentity(uid))) if uid.index() == n + 7
        ));
    }

    #[test]
    fn errors_display() {
        let e = TraceError::Version { found: 2 };
        assert!(e.to_string().contains("version 2"));
    }
}
