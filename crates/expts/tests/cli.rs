//! Behaviour of the `reproduce` binary that the pure argument parser
//! cannot see: what it does with a path before the experiments start.

use std::process::Command;

#[test]
fn unwritable_bench_path_fails_before_any_experiment_runs() {
    let dir = std::env::temp_dir().join(format!("tetris-no-such-dir-{}", std::process::id()));
    assert!(!dir.exists());
    let path = dir.join("b.json");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["fig1", "--bench", path.to_str().unwrap()])
        .output()
        .expect("reproduce spawns");
    assert_eq!(
        out.status.code(),
        Some(2),
        "an argument error, like the parser's"
    );
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(!stdout.contains("[fig1]"), "ran fig1 first:\n{stdout}");
    assert!(
        stderr.contains(path.to_str().unwrap()),
        "names the path: {stderr}"
    );
}

#[test]
fn help_indents_every_option_description_continuation() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("--help")
        .output()
        .expect("reproduce spawns");
    let help = String::from_utf8_lossy(&out.stdout);
    // The options follow the usage block's blank line. Each line there
    // names an option (or the `sweep` command) or continues the one
    // above, indented under its description.
    let options = help.split("\n\n").nth(2).expect("an options block");
    assert!(options.starts_with("--laptop"), "{options}");
    for line in options.lines() {
        assert!(
            line.starts_with("--") || line.starts_with("sweep ") || line.starts_with(' '),
            "unindented continuation {line:?} in:\n{help}"
        );
    }
}
