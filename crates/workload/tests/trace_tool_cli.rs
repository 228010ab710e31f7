//! `trace-tool` under hostile argv: every value a user can mistype is a
//! usage error on stderr with exit code 2, never a panic.

use std::process::Command;

fn generate(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_trace-tool"))
        .args(["generate", "suite"])
        .args(args)
        .output()
        .expect("trace-tool spawns");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unparsable_generate_values_are_usage_errors() {
    for flag in ["--jobs", "--scale", "--seed"] {
        let (code, stderr) = generate(&[flag, "x", "-o", "/dev/null"]);
        assert_eq!(code, Some(2), "{flag} x: {stderr}");
        assert!(stderr.contains(flag), "{flag} is named: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} x panicked: {stderr}");
    }
}

#[test]
fn unwritable_output_path_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("tetris-no-such-dir-{}", std::process::id()));
    assert!(!dir.exists());
    let path = dir.join("t.json");
    let path = path.to_str().unwrap();
    let (code, stderr) = generate(&["--jobs", "2", "--scale", "0.02", "-o", path]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains(path), "names the path: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A trace file is outside input too: nesting no call stack could follow
/// is a parse error and exit code 1, not a stack overflow (`code()` is
/// `None` when a signal killed the tool).
#[test]
fn hostile_nesting_in_a_trace_file_is_a_json_error() {
    let path = std::env::temp_dir().join(format!("tetris-deep-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(100_000)).expect("temp file writes");
    let out = Command::new(env!("CARGO_BIN_EXE_trace-tool"))
        .arg("info")
        .arg(&path)
        .output()
        .expect("trace-tool spawns");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("trace json error"), "{stderr}");
}

/// A reader that stops early (`trace-tool report ts.jsonl | head`) is no
/// error of the tool's: the write that finds the pipe closed ends the run
/// with exit code 0, not a panic.
#[test]
fn a_reader_that_closes_early_is_a_clean_exit() {
    let sample = tetris_obs::TelemetrySample {
        t: 1.0,
        alloc: Default::default(),
        usage: Default::default(),
        fragmentation: 0.0,
        packing_efficiency: 1.0,
        pending_tasks: 3,
        running_tasks: 2,
        abandoned_tasks: 0,
        suspect_machines: 0,
        down_machines: 0,
    };
    let line = serde_json::to_string(&sample).expect("a sample serializes");
    let path = std::env::temp_dir().join(format!("tetris-ts-{}.jsonl", std::process::id()));
    std::fs::write(&path, format!("{line}\n")).expect("temp file writes");
    // The read end is closed before the tool starts, so its first write
    // finds no reader.
    let (reader, writer) = std::io::pipe().expect("a pipe opens");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_trace-tool"))
        .arg("report")
        .arg(&path)
        .stdout(writer)
        .output()
        .expect("trace-tool runs");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
