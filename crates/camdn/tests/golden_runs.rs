//! The golden corpus (`tests/golden/run_outputs.txt`) lists exactly
//! the case matrix of `tests/golden/mod.rs`, and every case belongs to
//! a group that `sched_equivalence.rs` compares against it.
//!
//! After an intentional behaviour change, regenerate the corpus with
//! `UPDATE_GOLDEN=1 cargo test --release -p camdn --test golden_runs`
//! and review the diff.

#![forbid(unsafe_code)]

mod golden;

use std::fmt::Write as _;

#[test]
fn corpus_lists_exactly_the_matrix() {
    let cases = golden::cases();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let mut text = String::new();
        for l in golden::run(cases) {
            let _ = writeln!(text, "{l}");
        }
        std::fs::write(golden::corpus_path(), text).unwrap();
        return;
    }
    let want = golden::corpus();
    let mut problems = Vec::new();
    for (name, _) in &cases {
        let group = name.split('/').next().unwrap();
        if !golden::GROUPS.contains(&group) {
            problems.push(format!("case in no compared group: {name}"));
        }
        if !want.contains_key(name) {
            problems.push(format!("extra case (not in the corpus): {name}"));
        }
    }
    for name in want.keys().filter(|n| !cases.iter().any(|(c, _)| c == *n)) {
        problems.push(format!("missing case (in the corpus, not run): {name}"));
    }
    assert!(
        problems.is_empty(),
        "{} corpus mismatches (rerun with UPDATE_GOLDEN=1 after an intentional change):\n{}",
        problems.len(),
        problems.join("\n")
    );
}
