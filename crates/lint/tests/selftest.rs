//! Seeded self-test: runs the full engine over the fixture workspace
//! in `tests/fixtures/miniws`, where every lint has one injected
//! violation and one suppressed instance, and the `bad-directive`
//! machinery has one malformed and one stale directive. The expected
//! finding set is asserted exactly, so a lint that stops firing, a
//! suppression that stops holding, or a scope that silently widens
//! (bins, test regions, non-result-affecting crates) all fail here.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use camdn_lint::{run, Lint, LintConfig};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/miniws")
}

#[test]
fn every_lint_fires_and_every_suppression_holds() {
    let report = run(&LintConfig::new(fixture_root())).unwrap();

    // 5 fixture sources + the two registry docs.
    assert_eq!(report.files_scanned, 7);

    let mut got: Vec<(String, u32, &str, bool)> = report
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.lint.name(), f.suppressed))
        .collect();
    got.sort();

    let mut want: Vec<(String, u32, &str, bool)> = [
        // Docs-side registry drift: documented but gone from source.
        ("README.md", 7, "env-registry", false),
        ("README.md", 10, "env-registry", true),
        ("docs/SCHEMAS.md", 5, "schema-registry", false),
        ("docs/SCHEMAS.md", 8, "schema-registry", true),
        // Legacy crate: all three missing attrs excused by one line-1
        // directive, plus the malformed and stale directives.
        ("crates/legacy/src/lib.rs", 1, "crate-hygiene", true),
        ("crates/legacy/src/lib.rs", 1, "crate-hygiene", true),
        ("crates/legacy/src/lib.rs", 1, "crate-hygiene", true),
        ("crates/legacy/src/lib.rs", 5, "bad-directive", false),
        ("crates/legacy/src/lib.rs", 8, "bad-directive", false),
        // Runtime crate: one firing and one suppressed instance per
        // lint, plus the missing `deny(deprecated)` attribute.
        ("crates/runtime/src/lib.rs", 1, "crate-hygiene", false),
        ("crates/runtime/src/lib.rs", 8, "nondet-iter", false),
        ("crates/runtime/src/lib.rs", 10, "nondet-iter", true),
        ("crates/runtime/src/lib.rs", 13, "wall-clock-in-sim", false),
        ("crates/runtime/src/lib.rs", 15, "wall-clock-in-sim", true),
        ("crates/runtime/src/lib.rs", 19, "panic-in-lib", false),
        ("crates/runtime/src/lib.rs", 21, "panic-in-lib", true),
        ("crates/runtime/src/lib.rs", 26, "schema-registry", false),
        ("crates/runtime/src/lib.rs", 28, "schema-registry", true),
        ("crates/runtime/src/lib.rs", 30, "env-registry", false),
        ("crates/runtime/src/lib.rs", 32, "env-registry", true),
        // Scheduler-component module: the crate-level `runtime` scope
        // covers `sched.rs` with no lint-config change — a `HashMap`
        // inside a component fires, and its tick path's panics fire.
        ("crates/runtime/src/sched.rs", 8, "nondet-iter", false),
        ("crates/runtime/src/sched.rs", 10, "nondet-iter", true),
        ("crates/runtime/src/sched.rs", 15, "panic-in-lib", false),
        ("crates/runtime/src/sched.rs", 17, "panic-in-lib", true),
    ]
    .into_iter()
    .map(|(f, l, n, s)| (f.to_string(), l, n, s))
    .collect();
    want.sort();

    assert_eq!(got, want);
}

#[test]
fn per_lint_counts_and_reasons() {
    let report = run(&LintConfig::new(fixture_root())).unwrap();

    for lint in Lint::ALL {
        let (live, quiet) = report.counts(lint);
        if lint == Lint::BadDirective {
            // Directives are meta: they can be wrong but never excused.
            assert_eq!((live, quiet), (2, 0));
        } else {
            assert!(live >= 1, "{lint} never fired on its injected violation");
            assert!(quiet >= 1, "{lint} suppression was not honored");
        }
    }

    for f in &report.findings {
        if f.suppressed {
            let reason = f.reason.as_deref().unwrap_or("");
            assert!(
                !reason.is_empty(),
                "suppressed finding lost its reason: {f:?}"
            );
        } else {
            assert!(f.reason.is_none());
        }
    }

    assert_eq!(report.unsuppressed().count(), 12);
}

/// Scope proofs: files that contain lintable constructs but sit
/// outside a lint's jurisdiction must stay silent.
#[test]
fn out_of_scope_constructs_stay_silent() {
    let report = run(&LintConfig::new(fixture_root())).unwrap();

    // The bin uses `.unwrap()`/`.expect()`: bins own their exit.
    assert!(!report
        .findings
        .iter()
        .any(|f| f.file.ends_with("bin/tool.rs")));

    // The clean crate uses `HashMap` but is not result-affecting.
    assert!(!report
        .findings
        .iter()
        .any(|f| f.file.contains("crates/clean/")));

    // The `#[cfg(test)]` module in the runtime fixture holds a panic,
    // a HashMap, a wall-clock read, and rogue identifiers — none may
    // surface (every runtime finding sits above the test module).
    assert!(report
        .findings
        .iter()
        .filter(|f| f.file.ends_with("runtime/src/lib.rs"))
        .all(|f| f.line < 36));

    // Same exemption inside the scheduler-component fixture: its test
    // module's HashMap and panic stay silent.
    assert!(report
        .findings
        .iter()
        .filter(|f| f.file.ends_with("runtime/src/sched.rs"))
        .all(|f| f.line < 22));
}
