//! Golden-file tests for the lexer: `tests/golden/*.rs` inputs are
//! lexed and compared token-by-token against their `.tokens`
//! companions. Regenerate a companion by running the test with
//! `UPDATE_GOLDEN=1` after an intentional lexer change and reviewing
//! the diff.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::Path;

use camdn_lint::lexer::{lex, TokKind};

fn dump(src: &str) -> String {
    let mut out = String::new();
    for t in lex(src) {
        let kind = match t.kind {
            TokKind::Ident => "ident",
            TokKind::Lifetime => "lifetime",
            TokKind::CharLit => "char",
            TokKind::NumLit => "num",
            TokKind::StrLit => "str",
            TokKind::LineComment => "line-comment",
            TokKind::BlockComment => "block-comment",
            TokKind::Punct => "punct",
        };
        let text = t.text.replace('\\', "\\\\").replace('\n', "\\n");
        let _ = writeln!(out, "{}:{} {kind} {text}", t.line, t.col);
    }
    out
}

fn check(name: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let src = std::fs::read_to_string(dir.join(format!("{name}.rs"))).unwrap();
    let got = dump(&src);
    let golden_path = dir.join(format!("{name}.tokens"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden_path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "token stream diverges at line {} of {name}.tokens",
            i + 1
        );
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "token count differs for {name}"
    );
}

#[test]
fn golden_tricky() {
    check("tricky");
}

/// Spot-checks on the golden stream, independent of the golden file,
/// so the invariants stay asserted even if the file is regenerated.
#[test]
fn golden_tricky_invariants() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let src = std::fs::read_to_string(dir.join("tricky.rs")).unwrap();
    let toks = lex(&src);

    // Exactly one block comment, with the nested comment inside it.
    let blocks: Vec<_> = toks
        .iter()
        .filter(|t| t.kind == TokKind::BlockComment)
        .collect();
    assert_eq!(blocks.len(), 1);
    assert!(blocks[0].text.contains("nested block comment"));
    assert!(blocks[0].text.contains("still in the outer comment"));

    // Lifetimes and chars are told apart.
    let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
    assert_eq!(
        lifetimes, 6,
        "'a, 'b, 'a in the generics plus three in params/return"
    );
    let chars: Vec<_> = toks
        .iter()
        .filter(|t| t.kind == TokKind::CharLit)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(chars, ["'a'", "'\\''", "'\\n'", "'\\u{1F980}'", "'b'"]);

    // Raw strings keep their hash fences and inner quotes.
    let strs: Vec<_> = toks
        .iter()
        .filter(|t| t.kind == TokKind::StrLit)
        .map(|t| t.text.as_str())
        .collect();
    assert!(strs.contains(&r##"r#"contains "quotes" freely"#"##));
    assert!(strs.contains(&r###"r##"even a "# inside"##"###));
    assert!(strs.contains(&r##"br#"raw "bytes""#"##));

    // Raw identifiers are idents, not strings.
    assert!(toks
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == "r#match"));

    // `Instant::now` forms the three-token window the lints scan for.
    let idx = toks
        .iter()
        .position(|t| t.text == "Instant" && t.line > 40)
        .unwrap();
    assert_eq!(toks[idx + 1].text, "::");
    assert_eq!(toks[idx + 2].text, "now");
}
