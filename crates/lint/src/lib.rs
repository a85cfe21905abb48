//! `camdn-lint` — a dependency-free static-analysis pass over the
//! CaMDN workspace.
//!
//! Every result this repository ships rests on invariants nothing in
//! the type system checks: result-affecting code must never iterate an
//! unordered collection, simulation logic must never read the wall
//! clock, library crates must never panic their way out, and the
//! schema / env-var strings scattered through the code must stay in
//! sync with the registry documents. This crate enforces all of that
//! mechanically, at CI time, from a hand-rolled lexer up — no syn, no
//! regex, no proc-macro machinery — so the linter itself can never be
//! the thing that breaks an offline build.
//!
//! The pipeline: [`lexer`] turns each workspace source file into a
//! token stream; [`engine`] classifies files (crate, bin-vs-lib,
//! `#[cfg(test)]` regions), scans suppression directives, and drives
//! the passes in [`lints`]; [`report`] renders the findings as
//! compiler-style text and as a `camdn-lint-report/1` JSON artifact.
//!
//! See `docs/LINTS.md` for what each lint catches, why it matters for
//! this reproduction, and how to suppress a finding with a reason.

#![warn(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod lexer;
pub mod lints;
pub mod report;

pub use engine::{run, Finding, Lint, LintConfig, LintError, LintReport};
