//! Golden snapshot of `tetris-sim`'s scheduler-facing API surface.
//!
//! The `view` module *is* the contract between the engine and every
//! policy — the `SchedulerPolicy` trait, the `SchedulerEvent` taxonomy,
//! `ClusterView`'s read surface, `Assignment`. Changing any of it must be
//! an explicit, reviewed diff of `tests/snapshots/view_api.txt`, not a
//! silent break discovered by downstream policies. The module's files are
//! read in a fixed order, [`VIEW_FILES`], and each item is snapshotted
//! where it is declared: the `pub use` lines that re-export one file's
//! items from another are plumbing, not surface, and are skipped.
//!
//! On mismatch the test prints the divergence; after an *intentional*
//! API change, regenerate with:
//!
//! ```sh
//! TETRIS_UPDATE_API=1 cargo test -p tetris-sim --test api_snapshot
//! ```

/// Extract the public declarations from a Rust source file: every
/// `pub ...` line (trait/struct/enum/fn/use/const headers and public
/// fields), multi-line `pub fn`/`pub trait` signatures joined to their
/// opening brace, and the full bodies of public enums and traits
/// (variants and required/provided method signatures are API; provided
/// method *bodies* are dropped by skipping nested blocks).
fn extract_api(src: &str) -> String {
    let mut out: Vec<String> = Vec::new();
    let mut depth: usize = 0;
    let mut enum_at: Option<usize> = None;
    let mut trait_at: Option<usize> = None;
    let mut sig_open = false;
    for line in src.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with("//") || t.starts_with("#[") {
            continue;
        }
        if t.starts_with("pub use ") {
            continue;
        }
        let in_enum = enum_at.is_some();
        // Inside a trait, keep only item-level lines (depth == trait
        // body depth) so default-method bodies don't leak into the API.
        let in_trait = trait_at.is_some_and(|d| depth == d + 1);
        if sig_open {
            out.push(format!("    … {t}"));
            if t.ends_with('{') || t.ends_with(';') {
                sig_open = false;
            }
        } else if in_enum || in_trait {
            let closes_self = t.starts_with('}')
                && (enum_at == Some(depth.saturating_sub(1))
                    || trait_at == Some(depth.saturating_sub(1)));
            if !t.starts_with('}') || closes_self {
                out.push(t.to_string());
            }
            if in_trait && t.starts_with("fn ") && !(t.ends_with('{') || t.ends_with(';')) {
                sig_open = true;
            }
        } else if t.starts_with("pub ") || t.starts_with("pub(") {
            out.push(t.to_string());
            let is_item = ["pub fn ", "pub trait ", "pub struct ", "pub enum "]
                .iter()
                .any(|p| t.starts_with(p))
                || t.starts_with("pub(crate) fn ");
            if is_item && !(t.ends_with('{') || t.ends_with(';')) {
                sig_open = true;
            }
            if t.starts_with("pub enum ") && t.ends_with('{') {
                enum_at = Some(depth);
            }
            if t.starts_with("pub trait ") && t.ends_with('{') {
                trait_at = Some(depth);
            }
        }
        for c in t.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if let Some(d) = enum_at {
            if depth == d {
                enum_at = None;
            }
        }
        if let Some(d) = trait_at {
            if depth == d {
                trait_at = None;
            }
        }
    }
    out.join("\n") + "\n"
}

/// The view module's files, in snapshot order.
const VIEW_FILES: [&str; 4] = [
    include_str!("../src/view/policy.rs"),
    include_str!("../src/view/mod.rs"),
    include_str!("../src/view/query.rs"),
    include_str!("../src/view/ledger.rs"),
];

#[test]
fn view_module_public_api_matches_snapshot() {
    let current: String = VIEW_FILES.iter().map(|src| extract_api(src)).collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/snapshots/view_api.txt");
    if std::env::var_os("TETRIS_UPDATE_API").is_some() {
        std::fs::write(path, &current).expect("cannot write snapshot");
        return;
    }
    let golden = std::fs::read_to_string(path).expect(
        "missing tests/snapshots/view_api.txt — run \
         TETRIS_UPDATE_API=1 cargo test -p tetris-sim --test api_snapshot",
    );
    if current != golden {
        let cur: Vec<_> = current.lines().collect();
        let gold: Vec<_> = golden.lines().collect();
        let mut diff = String::new();
        for i in 0..cur.len().max(gold.len()) {
            let (c, g) = (cur.get(i), gold.get(i));
            if c != g {
                if let Some(g) = g {
                    diff.push_str(&format!("-{g}\n"));
                }
                if let Some(c) = c {
                    diff.push_str(&format!("+{c}\n"));
                }
            }
        }
        panic!(
            "tetris-sim view API changed (snapshot diff, -golden +current):\n{diff}\n\
             If intentional, review and regenerate:\n  \
             TETRIS_UPDATE_API=1 cargo test -p tetris-sim --test api_snapshot"
        );
    }
}
