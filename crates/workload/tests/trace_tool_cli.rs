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
