//! The six project lints. Each pass walks the lexed [`Workspace`] and
//! appends [`Finding`]s; suppression is applied afterwards by the
//! engine so every pass stays a pure token-stream scan.

use crate::engine::{
    doc_index, extract_env_vars, extract_schemas, source_literal_index, Finding, Lint, SourceFile,
    Workspace,
};
use crate::lexer::TokKind;

fn finding(lint: Lint, file: &str, line: u32, col: u32, message: String) -> Finding {
    Finding {
        lint,
        file: file.to_string(),
        line,
        col,
        message,
        suppressed: false,
        reason: None,
    }
}

/// `nondet-iter`: `HashMap`/`HashSet` anywhere in a result-affecting
/// crate's non-test code. Presence-based on purpose: proving at the
/// token level that a map is never iterated is impossible, and a
/// `BTreeMap` (or an `allow` with a written-down proof) costs little.
pub fn nondet_iter(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if !ws.config.result_affecting.contains(&file.crate_name) {
            continue;
        }
        for (_, tok) in file.code_tokens() {
            if tok.kind == TokKind::Ident && (tok.text == "HashMap" || tok.text == "HashSet") {
                out.push(finding(
                    Lint::NondetIter,
                    &file.rel_path,
                    tok.line,
                    tok.col,
                    format!(
                        "`{}` in result-affecting crate `{}`: unordered iteration breaks \
                         bit-for-bit determinism; use `BTreeMap`/`BTreeSet` or a sorted `Vec`",
                        tok.text, file.crate_name
                    ),
                ));
            }
        }
    }
}

/// `wall-clock-in-sim`: `Instant::now` / `SystemTime` outside the
/// bench harness. Wall time read inside simulation logic makes runs
/// irreproducible; the few legitimate sites (reported wall seconds)
/// carry explicit `allow` directives.
pub fn wall_clock_in_sim(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if ws.config.wall_clock_exempt.contains(&file.crate_name) {
            continue;
        }
        let toks: Vec<_> = file.code_tokens().collect();
        for (w, (_, tok)) in toks.iter().enumerate() {
            let hit = match tok.text.as_str() {
                "SystemTime" => true,
                "Instant" => {
                    toks.get(w + 1).is_some_and(|(_, t)| t.text == "::")
                        && toks.get(w + 2).is_some_and(|(_, t)| t.text == "now")
                }
                _ => false,
            };
            if hit {
                out.push(finding(
                    Lint::WallClockInSim,
                    &file.rel_path,
                    tok.line,
                    tok.col,
                    format!(
                        "`{}` outside the bench harness: wall-clock reads make simulated \
                         results irreproducible",
                        if tok.text == "SystemTime" {
                            "SystemTime"
                        } else {
                            "Instant::now"
                        }
                    ),
                ));
            }
        }
    }
}

/// `panic-in-lib`: panicking escape hatches in non-test, non-bin
/// library code. Library crates return typed errors; panics belong to
/// bins (which own their exit) and tests.
pub fn panic_in_lib(ws: &Workspace, out: &mut Vec<Finding>) {
    const MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
    for file in &ws.files {
        if file.is_bin {
            continue;
        }
        let toks: Vec<_> = file.code_tokens().collect();
        for (w, (_, tok)) in toks.iter().enumerate() {
            if tok.kind != TokKind::Ident {
                continue;
            }
            let as_method = |name: &str| {
                tok.text == name
                    && w > 0
                    && toks[w - 1].1.text == "."
                    && toks.get(w + 1).is_some_and(|(_, t)| t.text == "(")
            };
            let as_macro = MACROS.contains(&tok.text.as_str())
                && toks.get(w + 1).is_some_and(|(_, t)| t.text == "!");
            if as_method("unwrap") || as_method("expect") {
                out.push(finding(
                    Lint::PanicInLib,
                    &file.rel_path,
                    tok.line,
                    tok.col,
                    format!(
                        "`.{}()` in library code: return a typed error instead, or \
                         document why this cannot fail",
                        tok.text
                    ),
                ));
            } else if as_macro {
                out.push(finding(
                    Lint::PanicInLib,
                    &file.rel_path,
                    tok.line,
                    tok.col,
                    format!(
                        "`{}!` in library code: return a typed error instead, or \
                         document why this cannot be reached",
                        tok.text
                    ),
                ));
            }
        }
    }
}

/// `schema-registry`: every `camdn-*/N` identifier in non-test source
/// string literals must be documented in `docs/SCHEMAS.md`, and every
/// documented identifier must still occur in source.
pub fn schema_registry(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some(doc) = &ws.schemas_doc else { return };
    let in_source = source_literal_index(ws, extract_schemas);
    let in_docs = doc_index(doc, extract_schemas);
    for (schema, (file, line)) in &in_source {
        if !in_docs.contains_key(schema) {
            out.push(finding(
                Lint::SchemaRegistry,
                file,
                *line,
                1,
                format!("schema `{schema}` is not documented in {}", doc.rel_path),
            ));
        }
    }
    for (schema, line) in &in_docs {
        if !in_source.contains_key(schema) {
            out.push(finding(
                Lint::SchemaRegistry,
                &doc.rel_path,
                *line,
                1,
                format!("documented schema `{schema}` no longer occurs in any source literal"),
            ));
        }
    }
}

/// `env-registry`: every `CAMDN_*` env var named in non-test source
/// string literals must be documented in the README, and every
/// README-documented var must still occur in source.
pub fn env_registry(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some(doc) = &ws.readme else { return };
    let in_source = source_literal_index(ws, extract_env_vars);
    let in_docs = doc_index(doc, extract_env_vars);
    for (var, (file, line)) in &in_source {
        if !in_docs.contains_key(var) {
            out.push(finding(
                Lint::EnvRegistry,
                file,
                *line,
                1,
                format!(
                    "env var `{var}` is read here but not documented in {}",
                    doc.rel_path
                ),
            ));
        }
    }
    for (var, line) in &in_docs {
        if !in_source.contains_key(var) {
            out.push(finding(
                Lint::EnvRegistry,
                &doc.rel_path,
                *line,
                1,
                format!("documented env var `{var}` is no longer read by any source"),
            ));
        }
    }
}

/// `crate-hygiene`: every linted crate root must carry
/// `#![warn(missing_docs)]`, `#![deny(deprecated)]` and
/// `#![forbid(unsafe_code)]` so public-API docs and deprecation debt
/// cannot rot silently and no `unsafe` block can come back unseen.
pub fn crate_hygiene(ws: &Workspace, out: &mut Vec<Finding>) {
    const REQUIRED: [(&str, &str); 3] = [
        ("warn", "missing_docs"),
        ("deny", "deprecated"),
        ("forbid", "unsafe_code"),
    ];
    for member in &ws.members {
        let lib_rel = format!("crates/{member}/src/lib.rs");
        let Some(file) = ws.files.iter().find(|f| f.rel_path == lib_rel) else {
            continue;
        };
        for (outer, inner) in REQUIRED {
            if !has_inner_attr(file, outer, inner) {
                out.push(finding(
                    Lint::CrateHygiene,
                    &lib_rel,
                    1,
                    1,
                    format!("crate `{member}` is missing `#![{outer}({inner})]`"),
                ));
            }
        }
    }
}

/// Token-level search for `#![outer(inner)]` anywhere in the file.
fn has_inner_attr(file: &SourceFile, outer: &str, inner: &str) -> bool {
    let toks: Vec<&str> = file
        .tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .map(|t| t.text.as_str())
        .collect();
    toks.windows(8).any(|w| {
        w[0] == "#"
            && w[1] == "!"
            && w[2] == "["
            && w[3] == outer
            && w[4] == "("
            && w[5] == inner
            && w[6] == ")"
            && w[7] == "]"
    })
}
