//! The lint engine: workspace discovery, file classification,
//! `#[cfg(test)]` region tracking, suppression directives, and the
//! driver that runs every lint and assembles a [`LintReport`].

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, TokKind, Token};
use crate::lints;

/// The marker that introduces a suppression directive inside a Rust
/// comment or a Markdown line. Kept out of this crate's own comments
/// so the linter does not trip over its own documentation.
const DIRECTIVE_MARKER: &str = "camdn-lint:";

/// The six project lints plus the engine's own directive check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// `HashMap`/`HashSet` in a result-affecting crate.
    NondetIter,
    /// `Instant::now`/`SystemTime` outside the wall-clock allowlist.
    WallClockInSim,
    /// `unwrap`/`expect`/`panic!`/`unreachable!` in library code.
    PanicInLib,
    /// `camdn-*/N` schema literals out of sync with `docs/SCHEMAS.md`.
    SchemaRegistry,
    /// `CAMDN_*` env vars out of sync with the README.
    EnvRegistry,
    /// Required inner attributes missing from a crate root.
    CrateHygiene,
    /// A malformed or stale suppression directive.
    BadDirective,
}

impl Lint {
    /// Every lint, in report order.
    pub const ALL: [Lint; 7] = [
        Lint::NondetIter,
        Lint::WallClockInSim,
        Lint::PanicInLib,
        Lint::SchemaRegistry,
        Lint::EnvRegistry,
        Lint::CrateHygiene,
        Lint::BadDirective,
    ];

    /// The kebab-case name used in reports and `allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            Lint::NondetIter => "nondet-iter",
            Lint::WallClockInSim => "wall-clock-in-sim",
            Lint::PanicInLib => "panic-in-lib",
            Lint::SchemaRegistry => "schema-registry",
            Lint::EnvRegistry => "env-registry",
            Lint::CrateHygiene => "crate-hygiene",
            Lint::BadDirective => "bad-directive",
        }
    }

    /// One-line description, shown by `camdn-lint --list`.
    pub fn describe(self) -> &'static str {
        match self {
            Lint::NondetIter => {
                "HashMap/HashSet in result-affecting crates (unordered iteration breaks determinism)"
            }
            Lint::WallClockInSim => {
                "Instant::now/SystemTime outside the wall-clock allowlist (bench crate)"
            }
            Lint::PanicInLib => {
                "unwrap/expect/panic!/unreachable!/todo!/unimplemented! in non-test library code"
            }
            Lint::SchemaRegistry => {
                "camdn-*/N schema literals must match docs/SCHEMAS.md, both directions"
            }
            Lint::EnvRegistry => "CAMDN_* env vars must match the README, both directions",
            Lint::CrateHygiene => {
                "crate roots must carry #![warn(missing_docs)], #![deny(deprecated)] and #![forbid(unsafe_code)]"
            }
            Lint::BadDirective => "suppression directives must parse and must suppress something",
        }
    }

    fn from_name(name: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|l| l.name() == name)
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, suppressed or not.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// Whether an `allow` directive covers this finding.
    pub suppressed: bool,
    /// The directive's reason, when suppressed.
    pub reason: Option<String>,
}

/// Everything one run of the engine produced.
#[derive(Debug)]
pub struct LintReport {
    /// All findings (suppressed ones included), sorted by
    /// (file, line, column, lint).
    pub findings: Vec<Finding>,
    /// Number of files read (sources plus registry docs).
    pub files_scanned: usize,
}

impl LintReport {
    /// Findings not covered by a suppression directive.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }

    /// `(unsuppressed, suppressed)` counts for one lint.
    pub fn counts(&self, lint: Lint) -> (usize, usize) {
        let mut live = 0;
        let mut quiet = 0;
        for f in self.findings.iter().filter(|f| f.lint == lint) {
            if f.suppressed {
                quiet += 1;
            } else {
                live += 1;
            }
        }
        (live, quiet)
    }
}

/// Engine failure: the workspace itself could not be read. Findings
/// are never errors; this is strictly for I/O and layout problems.
#[derive(Debug)]
pub enum LintError {
    /// A file or directory could not be read.
    Io {
        /// What the engine was trying to read.
        path: PathBuf,
        /// The underlying error.
        err: std::io::Error,
    },
    /// The root `Cargo.toml` has no parseable `members` list.
    NoMembers(PathBuf),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, err } => write!(f, "cannot read {}: {err}", path.display()),
            LintError::NoMembers(p) => {
                write!(f, "no workspace members found in {}", p.display())
            }
        }
    }
}

impl std::error::Error for LintError {}

/// Configuration for one engine run. [`LintConfig::new`] fills in the
/// repository's invariants; tests point `root` at fixture trees.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root (the directory holding the root `Cargo.toml`).
    pub root: PathBuf,
    /// Short crate names whose results must be bit-for-bit
    /// deterministic; `nondet-iter` fires only in these. The scope is
    /// crate-level and every `.rs` file under a member's `src/` is
    /// walked, so new modules inside a listed crate (e.g. the
    /// `runtime` scheduler core in `sched.rs`) are covered
    /// automatically, with no list update needed.
    pub result_affecting: Vec<String>,
    /// Short crate names allowed to read the wall clock (the bench
    /// harness times real executions by design).
    pub wall_clock_exempt: Vec<String>,
    /// Workspace-relative path of the schema registry document.
    pub schemas_doc: String,
    /// Workspace-relative path of the env-var registry document.
    pub readme: String,
}

impl LintConfig {
    /// The repository defaults, rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let own = |names: &[&str]| names.iter().map(|s| s.to_string()).collect();
        LintConfig {
            root: root.into(),
            result_affecting: own(&[
                "runtime", "core", "cache", "dram", "mapper", "sweep", "trace",
            ]),
            wall_clock_exempt: own(&["bench"]),
            schemas_doc: "docs/SCHEMAS.md".to_string(),
            readme: "README.md".to_string(),
        }
    }
}

/// A lexed workspace source file plus everything the lints need to
/// scope their checks.
pub struct SourceFile {
    /// Workspace-relative path (forward slashes).
    pub rel_path: String,
    /// Short crate name (`runtime`, `bench`, …).
    pub crate_name: String,
    /// Whether this file belongs to a binary target (`src/bin/*` or
    /// `src/main.rs`).
    pub is_bin: bool,
    /// The token stream, comments included.
    pub tokens: Vec<Token>,
    /// Per-token flag: inside a `#[cfg(test)]`/`#[test]`-gated item.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Iterates non-comment tokens outside test-gated regions,
    /// yielding `(index, token)`.
    pub fn code_tokens(&self) -> impl Iterator<Item = (usize, &Token)> {
        self.tokens.iter().enumerate().filter(|(i, t)| {
            !self.in_test[*i] && !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
        })
    }

    /// The next non-comment token at or after `idx`, if any.
    pub fn next_code(&self, idx: usize) -> Option<&Token> {
        self.tokens[idx..]
            .iter()
            .find(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
    }
}

/// A registry document (`docs/SCHEMAS.md` or `README.md`).
pub struct DocFile {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Full text.
    pub text: String,
}

/// The lexed workspace handed to the lint passes.
pub struct Workspace {
    /// Lint configuration for this run.
    pub config: LintConfig,
    /// Short names of all linted member crates, sorted.
    pub members: Vec<String>,
    /// All lexed sources, sorted by path.
    pub files: Vec<SourceFile>,
    /// The schema registry, when present.
    pub schemas_doc: Option<DocFile>,
    /// The env-var registry, when present.
    pub readme: Option<DocFile>,
}

/// One parsed suppression directive.
struct Directive {
    file: String,
    line: u32,
    lint: Lint,
    reason: String,
    /// Lines this directive covers: its own and the next line that
    /// carries code (or content, in Markdown).
    targets: [u32; 2],
    used: bool,
}

/// Runs every lint over the workspace at `cfg.root`.
pub fn run(cfg: &LintConfig) -> Result<LintReport, LintError> {
    let ws = load_workspace(cfg)?;
    let (mut directives, mut findings) = collect_directives(&ws);

    lints::nondet_iter(&ws, &mut findings);
    lints::wall_clock_in_sim(&ws, &mut findings);
    lints::panic_in_lib(&ws, &mut findings);
    lints::schema_registry(&ws, &mut findings);
    lints::env_registry(&ws, &mut findings);
    lints::crate_hygiene(&ws, &mut findings);

    // Apply suppressions: a directive covers findings of its lint on
    // its own line or on the next content-bearing line of the file.
    for f in &mut findings {
        if f.lint == Lint::BadDirective {
            continue;
        }
        for d in directives.iter_mut() {
            if d.lint == f.lint && d.file == f.file && d.targets.contains(&f.line) {
                f.suppressed = true;
                f.reason = Some(d.reason.clone());
                d.used = true;
            }
        }
    }
    // A directive that suppresses nothing is stale — the code it
    // excused has moved or been fixed — and must be removed.
    for d in directives.iter().filter(|d| !d.used) {
        findings.push(Finding {
            lint: Lint::BadDirective,
            file: d.file.clone(),
            line: d.line,
            col: 1,
            message: format!(
                "stale suppression: no `{}` finding on line {} or the line below",
                d.lint, d.line
            ),
            suppressed: false,
            reason: None,
        });
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.lint.name()).cmp(&(&b.file, b.line, b.col, b.lint.name()))
    });
    let files_scanned =
        ws.files.len() + usize::from(ws.schemas_doc.is_some()) + usize::from(ws.readme.is_some());
    Ok(LintReport {
        findings,
        files_scanned,
    })
}

/// Reads and lexes every linted source file plus the registry docs.
pub fn load_workspace(cfg: &LintConfig) -> Result<Workspace, LintError> {
    let manifest = cfg.root.join("Cargo.toml");
    let text = read(&manifest)?;
    let mut members: Vec<String> = parse_members(&text)
        .into_iter()
        // Vendored stand-in crates are third-party API surface, not
        // simulator code; they are outside the lint's jurisdiction.
        .filter_map(|m| m.strip_prefix("crates/").map(str::to_string))
        .collect();
    members.sort();
    if members.is_empty() {
        return Err(LintError::NoMembers(manifest));
    }

    let mut files = Vec::new();
    for member in &members {
        let src_dir = cfg.root.join("crates").join(member).join("src");
        let mut paths = Vec::new();
        walk_rs(&src_dir, &mut paths)?;
        paths.sort();
        for path in paths {
            let text = read(&path)?;
            let tokens = lex(&text);
            let in_test = test_flags(&tokens);
            let rel_path = rel(&cfg.root, &path);
            let is_bin = rel_path.contains("/src/bin/") || rel_path.ends_with("/src/main.rs");
            files.push(SourceFile {
                rel_path,
                crate_name: member.clone(),
                is_bin,
                tokens,
                in_test,
            });
        }
    }

    let doc = |rel_path: &str| -> Result<Option<DocFile>, LintError> {
        let path = cfg.root.join(rel_path);
        if !path.is_file() {
            return Ok(None);
        }
        Ok(Some(DocFile {
            rel_path: rel_path.to_string(),
            text: read(&path)?,
        }))
    };
    Ok(Workspace {
        config: cfg.clone(),
        members,
        files,
        schemas_doc: doc(&cfg.schemas_doc)?,
        readme: doc(&cfg.readme)?,
    })
}

fn read(path: &Path) -> Result<String, LintError> {
    fs::read_to_string(path).map_err(|err| LintError::Io {
        path: path.to_path_buf(),
        err,
    })
}

fn rel(root: &Path, path: &Path) -> String {
    let p = path.strip_prefix(root).unwrap_or(path);
    p.to_string_lossy().replace('\\', "/")
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = fs::read_dir(dir).map_err(|err| LintError::Io {
        path: dir.to_path_buf(),
        err,
    })?;
    for entry in entries {
        let entry = entry.map_err(|err| LintError::Io {
            path: dir.to_path_buf(),
            err,
        })?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Extracts the `members = [...]` entries from a root `Cargo.toml`
/// without a TOML parser: quoted strings between the brackets.
fn parse_members(manifest: &str) -> Vec<String> {
    let Some(start) = manifest.find("members") else {
        return Vec::new();
    };
    let Some(open) = manifest[start..].find('[') else {
        return Vec::new();
    };
    let Some(close) = manifest[start + open..].find(']') else {
        return Vec::new();
    };
    let body = &manifest[start + open + 1..start + open + close];
    let mut out = Vec::new();
    for line in body.lines() {
        let line = line.split('#').next().unwrap_or("");
        let mut rest = line;
        while let Some(q0) = rest.find('"') {
            let Some(q1) = rest[q0 + 1..].find('"') else {
                break;
            };
            out.push(rest[q0 + 1..q0 + 1 + q1].to_string());
            rest = &rest[q0 + 2 + q1..];
        }
    }
    out
}

/// Marks every token inside a `#[cfg(test)]`- or `#[test]`-gated item.
///
/// The walk is structural but token-level: an attribute group is read
/// with bracket matching; if it gates on `test` (and is not a
/// `not(test)` / `cfg_attr` form), the item that follows — through its
/// matching closing brace, or to the first top-level `;` for brace-less
/// items — is marked, `mod tests { … }` bodies included.
pub fn test_flags(tokens: &[Token]) -> Vec<bool> {
    let mut flags = vec![false; tokens.len()];
    let is_comment = |t: &Token| matches!(t.kind, TokKind::LineComment | TokKind::BlockComment);
    let next_code = |mut i: usize| -> Option<usize> {
        while i < tokens.len() {
            if !is_comment(&tokens[i]) {
                return Some(i);
            }
            i += 1;
        }
        None
    };

    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text != "#" {
            i += 1;
            continue;
        }
        let attr_start = i;
        let Some(j) = next_code(i + 1) else { break };
        if tokens[j].text == "!" {
            // Inner attribute `#![…]`: skip its group, gates nothing.
            if let Some(open) = next_code(j + 1) {
                i = skip_bracket_group(tokens, open);
            } else {
                i = j + 1;
            }
            continue;
        }
        if tokens[j].text != "[" {
            i = j;
            continue;
        }
        // Outer attribute chain: fold the gating decision over every
        // consecutive `#[…]` group, then find the guarded item's end.
        let mut gated = false;
        let mut k = attr_start;
        loop {
            let Some(open) = next_code(k + 1) else {
                k += 1;
                break;
            };
            if tokens[k].text != "#" || tokens[open].text != "[" {
                k = if tokens[k].text == "#" { open } else { k };
                break;
            }
            let end = skip_bracket_group(tokens, open);
            gated |= attr_gates_test(&tokens[open..end]);
            let Some(next) = next_code(end) else {
                k = end;
                break;
            };
            if tokens[next].text == "#" {
                k = next;
            } else {
                k = next;
                break;
            }
        }
        if !gated {
            i = k;
            continue;
        }
        // Mark from the first `#` through the end of the gated item.
        let mut depth = 0usize;
        let mut end = k;
        while end < tokens.len() {
            let t = &tokens[end];
            if !is_comment(t) {
                match t.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            end += 1;
        }
        let end = end.min(tokens.len().saturating_sub(1));
        for flag in flags.iter_mut().take(end + 1).skip(attr_start) {
            *flag = true;
        }
        i = end + 1;
    }
    flags
}

/// Advances past a bracket group starting at `open` (which must be a
/// `[` token), returning the index just after the matching `]`.
fn skip_bracket_group(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Does one `[…]` attribute group gate its item on `cfg(test)`?
fn attr_gates_test(group: &[Token]) -> bool {
    let idents: Vec<&str> = group
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    match idents.first() {
        Some(&"test") => idents.len() == 1,
        Some(&"cfg") => {
            // `cfg(test)`, `cfg(all(test, …))` gate; `cfg(not(test))`
            // emphatically does not (that code is the production
            // build). A `not` anywhere makes us conservatively treat
            // the region as production code.
            idents.contains(&"test") && !idents.contains(&"not")
        }
        _ => false,
    }
}

/// Scans Rust comments and Markdown lines for suppression directives.
/// Malformed directives become `bad-directive` findings immediately.
fn collect_directives(ws: &Workspace) -> (Vec<Directive>, Vec<Finding>) {
    let mut dirs = Vec::new();
    let mut findings = Vec::new();
    for file in &ws.files {
        for (i, tok) in tokens_with_marker(file) {
            let target = file.tokens[i + 1..]
                .iter()
                .find(|t| {
                    !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
                        && t.line > tok.line
                })
                .map_or(tok.line, |t| t.line);
            push_directive(
                &file.rel_path,
                tok.line,
                &tok.text,
                target,
                &mut dirs,
                &mut findings,
            );
        }
    }
    for doc in [&ws.schemas_doc, &ws.readme].into_iter().flatten() {
        let lines: Vec<&str> = doc.text.lines().collect();
        for (idx, line) in lines.iter().enumerate() {
            if !line.contains(DIRECTIVE_MARKER) {
                continue;
            }
            let lineno = (idx + 1) as u32;
            let target = lines[idx + 1..]
                .iter()
                .position(|l| !l.trim().is_empty())
                .map_or(lineno, |off| lineno + 1 + off as u32);
            push_directive(
                &doc.rel_path,
                lineno,
                line,
                target,
                &mut dirs,
                &mut findings,
            );
        }
    }
    (dirs, findings)
}

fn tokens_with_marker(file: &SourceFile) -> Vec<(usize, &Token)> {
    file.tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
                && t.text.contains(DIRECTIVE_MARKER)
        })
        .collect()
}

fn push_directive(
    file: &str,
    line: u32,
    text: &str,
    target: u32,
    dirs: &mut Vec<Directive>,
    findings: &mut Vec<Finding>,
) {
    match parse_directive(text) {
        Some((lint, reason)) => dirs.push(Directive {
            file: file.to_string(),
            line,
            lint,
            reason,
            targets: [line, target],
            used: false,
        }),
        None => findings.push(Finding {
            lint: Lint::BadDirective,
            file: file.to_string(),
            line,
            col: 1,
            message: format!(
                "malformed directive; expected `{DIRECTIVE_MARKER} allow(<lint>, reason = \"…\")` \
                 with a known lint name and a non-empty reason"
            ),
            suppressed: false,
            reason: None,
        }),
    }
}

/// Parses `… allow(<lint>, reason = "<why>") …` out of a directive
/// comment. Returns `None` when anything about it is off: unknown lint
/// name, missing or empty reason, wrong shape.
fn parse_directive(text: &str) -> Option<(Lint, String)> {
    let at = text.find(DIRECTIVE_MARKER)?;
    let rest = text[at + DIRECTIVE_MARKER.len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let (name, rest) = rest.split_once(',')?;
    let lint = Lint::from_name(name.trim())?;
    let rest = rest.trim_start().strip_prefix("reason")?.trim_start();
    let rest = rest.strip_prefix('=')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let (reason, tail) = rest.split_once('"')?;
    let tail = tail.trim_start();
    if reason.trim().is_empty() || !tail.starts_with(')') {
        return None;
    }
    Some((lint, reason.trim().to_string()))
}

/// Extracts `camdn-<name>/<version>` schema identifiers from `text`.
/// A match must start at a word boundary (the char before `camdn-`
/// may not be part of an identifier-ish run).
pub fn extract_schemas(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let needle: Vec<char> = "camdn-".chars().collect();
    let mut i = 0;
    while i + needle.len() < chars.len() {
        if chars[i..i + needle.len()] != needle[..]
            || (i > 0 && (chars[i - 1].is_ascii_alphanumeric() || chars[i - 1] == '-'))
        {
            i += 1;
            continue;
        }
        let mut j = i + needle.len();
        while j < chars.len()
            && (chars[j].is_ascii_lowercase() || chars[j].is_ascii_digit() || chars[j] == '-')
        {
            j += 1;
        }
        if j == i + needle.len() || j >= chars.len() || chars[j] != '/' {
            i += 1;
            continue;
        }
        let name_end = j;
        j += 1;
        let ver_start = j;
        while j < chars.len() && chars[j].is_ascii_digit() {
            j += 1;
        }
        if j == ver_start {
            i = name_end;
            continue;
        }
        out.push(chars[i..j].iter().collect());
        i = j;
    }
    out
}

/// Extracts `CAMDN_<NAME>` env-var identifiers from `text`. The name
/// must be non-empty, and the match must start at a word boundary.
pub fn extract_env_vars(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let needle: Vec<char> = "CAMDN_".chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i + needle.len() < chars.len() {
        if chars[i..i + needle.len()] != needle[..]
            || (i > 0 && (chars[i - 1].is_ascii_alphanumeric() || chars[i - 1] == '_'))
        {
            i += 1;
            continue;
        }
        let mut j = i + needle.len();
        while j < chars.len()
            && (chars[j].is_ascii_uppercase() || chars[j].is_ascii_digit() || chars[j] == '_')
        {
            j += 1;
        }
        // Require at least one real character after the prefix so the
        // bare prefix (e.g. in this very function) never matches.
        if chars[i + needle.len()..j]
            .iter()
            .any(|c| c.is_ascii_alphanumeric())
        {
            out.push(chars[i..j].iter().collect());
        }
        i = j.max(i + 1);
    }
    out
}

/// Sorted first occurrence of each extracted identifier across all
/// non-test string literals of the workspace sources.
pub fn source_literal_index(
    ws: &Workspace,
    extract: fn(&str) -> Vec<String>,
) -> BTreeMap<String, (String, u32)> {
    let mut index: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for file in &ws.files {
        for (i, tok) in file.tokens.iter().enumerate() {
            if tok.kind != TokKind::StrLit || file.in_test[i] {
                continue;
            }
            for id in extract(&tok.text) {
                index
                    .entry(id)
                    .or_insert_with(|| (file.rel_path.clone(), tok.line));
            }
        }
    }
    index
}

/// Sorted first occurrence of each extracted identifier per line of a
/// registry document.
pub fn doc_index(doc: &DocFile, extract: fn(&str) -> Vec<String>) -> BTreeMap<String, u32> {
    let mut index = BTreeMap::new();
    for (i, line) in doc.text.lines().enumerate() {
        for id in extract(line) {
            index.entry(id).or_insert((i + 1) as u32);
        }
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_parse() {
        let toml = r#"
[workspace]
members = [
    "crates/runtime", # comment
    "crates/core",
    "vendor/serde",
]
"#;
        assert_eq!(
            parse_members(toml),
            vec!["crates/runtime", "crates/core", "vendor/serde"]
        );
    }

    #[test]
    fn directive_parse_roundtrip() {
        let ok = "// camdn-lint: allow(panic-in-lib, reason = \"lock poisoning only\")";
        let (lint, reason) = parse_directive(ok).unwrap();
        assert_eq!(lint, Lint::PanicInLib);
        assert_eq!(reason, "lock poisoning only");
        // Markdown form.
        let md = "<!-- camdn-lint: allow(schema-registry, reason = \"historical\") -->";
        assert_eq!(parse_directive(md).unwrap().0, Lint::SchemaRegistry);
        // Unknown lint, empty reason, missing close paren: all rejected.
        assert!(parse_directive("// camdn-lint: allow(bogus, reason = \"x\")").is_none());
        assert!(parse_directive("// camdn-lint: allow(panic-in-lib, reason = \"\")").is_none());
        assert!(parse_directive("// camdn-lint: allow(panic-in-lib, reason = \"x\"").is_none());
    }

    #[test]
    fn test_flags_cover_gated_items() {
        let src = r#"
fn live() { work(); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert!(true); }
}
fn also_live() {}
"#;
        let toks = lex(src);
        let flags = test_flags(&toks);
        let flagged: Vec<&str> = toks
            .iter()
            .zip(&flags)
            .filter(|(_, f)| **f)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(flagged.contains(&"tests"));
        assert!(flagged.contains(&"assert"));
        assert!(!flagged.contains(&"live"));
        assert!(!flagged.contains(&"also_live"));
    }

    #[test]
    fn not_test_is_production() {
        let src = "#[cfg(not(test))]\nfn prod() { x.unwrap(); }";
        let toks = lex(src);
        let flags = test_flags(&toks);
        assert!(flags.iter().all(|f| !f));
    }

    #[test]
    fn test_attr_on_fn_gates_it() {
        let src = "#[test]\nfn check() { boom(); }\nfn open() {}";
        let toks = lex(src);
        let flags = test_flags(&toks);
        let gated: Vec<&str> = toks
            .iter()
            .zip(&flags)
            .filter(|(_, f)| **f)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(gated.contains(&"boom"));
        assert!(!gated.contains(&"open"));
    }

    #[test]
    fn should_panic_does_not_gate_alone_but_chains_do() {
        // `#[test] #[should_panic]` chain: still gated via #[test].
        let src = "#[test]\n#[should_panic]\nfn t() { f(); }";
        let flags = test_flags(&lex(src));
        assert!(flags.iter().any(|f| *f));
        // A lone non-test attribute gates nothing.
        let src = "#[inline]\nfn f() { g(); }";
        let flags = test_flags(&lex(src));
        assert!(flags.iter().all(|f| !f));
    }

    #[test]
    fn schema_extraction_boundaries() {
        assert_eq!(
            extract_schemas("\"schema\": \"camdn-bench-engine/1\""),
            vec!["camdn-bench-engine/1"]
        );
        // Marker-like text without a version is not a schema.
        assert!(extract_schemas("camdn-lint: allow(x)").is_empty());
        // Mid-word matches are rejected.
        assert!(extract_schemas("xcamdn-foo/1").is_empty());
        assert_eq!(
            extract_schemas("`camdn-a/1` and camdn-b/23."),
            vec!["camdn-a/1", "camdn-b/23"]
        );
    }

    #[test]
    fn env_extraction_boundaries() {
        assert_eq!(
            extract_env_vars("set CAMDN_QUICK=1 or CAMDN_SCALING_CELLS"),
            vec!["CAMDN_QUICK", "CAMDN_SCALING_CELLS"]
        );
        // The bare prefix and mid-word runs do not match.
        assert!(extract_env_vars("the CAMDN_ prefix").is_empty());
        assert!(extract_env_vars("XCAMDN_FOO").is_empty());
    }
}
