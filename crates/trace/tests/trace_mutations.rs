//! Seeded mutation smoke pass over the `camdn-trace/1` reader, the
//! workspace's one JSONL input boundary.
//!
//! A valid ~40-record trace written by `TraceWriter` is mutated by
//! truncation, bit flips, splices, duplicated lines and reordered
//! lines, and every mutant goes through `TraceReader` and the window
//! adapter. Each must yield records or a typed `TraceError` other
//! than `Io` (the bytes are in memory), never a panic, and the reader
//! must stop at its first error.

#![forbid(unsafe_code)]

use camdn_common::SimRng;
use camdn_trace::{windows, TraceError, TraceGen, TraceGenConfig, TraceReader, TraceRecord};
use camdn_trace::{SlaClass, TraceWriter};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutants per run: ~0.5 s in a debug build.
const MUTANTS: u64 = 5_000;

fn fixture() -> Vec<u8> {
    let gen_cfg = TraceGenConfig {
        rate_per_s: 400.0,
        horizon_s: 0.1,
        ..TraceGenConfig::default()
    };
    let mut w = TraceWriter::new(Vec::new()).expect("header");
    // One record with characters the writer must escape.
    w.write(&TraceRecord {
        ts_us: 0,
        tenant: "t \"quoted\"\\\n".into(),
        model: "MB".into(),
        class: SlaClass::High,
    })
    .expect("record");
    for rec in TraceGen::new(gen_cfg).expect("gen config").take(39) {
        w.write(&rec).expect("record");
    }
    w.finish().expect("flush")
}

/// Splits `bytes` into lines, each keeping its trailing newline.
fn lines(bytes: &[u8]) -> Vec<Vec<u8>> {
    bytes
        .split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect()
}

/// Applies one to three random mutations to `bytes`.
fn mutate(rng: &mut SimRng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..rng.next_range(1, 3) {
        if out.is_empty() {
            break;
        }
        let len = out.len() as u64;
        match rng.next_below(5) {
            // Truncate anywhere, mid-line included.
            0 => out.truncate(rng.next_below(len) as usize),
            // Flip one bit (may leave invalid UTF-8).
            1 => {
                let at = rng.next_below(len) as usize;
                out[at] ^= 1 << rng.next_below(8);
            }
            // Splice: a random slice of the original at a random spot.
            2 => {
                let a = rng.next_below(bytes.len() as u64) as usize;
                let b = rng.next_range(a as u64, bytes.len() as u64) as usize;
                let at = rng.next_below(len + 1) as usize;
                out.splice(at..at, bytes[a..b].iter().copied());
            }
            // Duplicate one line in place.
            3 => {
                let mut ls = lines(&out);
                let i = rng.next_below(ls.len() as u64) as usize;
                ls.insert(i, ls[i].clone());
                out = ls.concat();
            }
            // Swap two lines.
            _ => {
                let mut ls = lines(&out);
                let i = rng.next_below(ls.len() as u64) as usize;
                let j = rng.next_below(ls.len() as u64) as usize;
                ls.swap(i, j);
                out = ls.concat();
            }
        }
    }
    out
}

/// Reads `bytes` to the end: the records before the first error, and
/// that error. Checks that the reader stops at its first error.
fn read(bytes: &[u8]) -> (Vec<TraceRecord>, Option<TraceError>) {
    let mut reader = match TraceReader::new(bytes) {
        Ok(reader) => reader,
        Err(e) => return (Vec::new(), Some(e)),
    };
    let mut records = Vec::new();
    for item in reader.by_ref() {
        match item {
            Ok(rec) => records.push(rec),
            Err(e) => {
                assert!(reader.next().is_none(), "the reader fuses after {e}");
                return (records, Some(e));
            }
        }
    }
    (records, None)
}

/// Runs `mutants` mutants of the fixture from `seed`: each must yield
/// records or a typed error that is not an I/O failure (the bytes are
/// in memory, so no read can fail), never a panic.
fn mutation_pass(seed: u64, mutants: u64) {
    let original = fixture();
    let (records, err) = read(&original);
    assert_eq!(err, None, "the fixture itself is valid");
    assert_eq!(records.len(), 40);

    let mut rng = SimRng::new(seed);
    let (mut clean, mut failed) = (0u64, 0u64);
    for i in 0..mutants {
        let mutant = mutate(&mut rng, &original);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (records, err) = read(&mutant);
            assert!(
                records.windows(2).all(|p| p[0].ts_us <= p[1].ts_us),
                "accepted records run forwards"
            );
            assert!(records
                .iter()
                .all(|r| !r.tenant.is_empty() && !r.model.is_empty()));
            // The window adapter takes whatever the reader accepted.
            let stream = records.into_iter().map(Ok).chain(err.clone().map(Err));
            let grouped: Result<Vec<_>, TraceError> = windows(stream, 20_000).collect();
            assert_eq!(
                grouped.err(),
                err,
                "windows pass the reader's error through"
            );
            err
        }));
        match outcome {
            Ok(None) => clean += 1,
            Ok(Some(TraceError::Io { detail })) => panic!(
                "mutant {i} read as an I/O failure ({detail}):\n{}",
                String::from_utf8_lossy(&mutant)
            ),
            Ok(Some(_)) => failed += 1,
            Err(_) => panic!("mutant {i} panicked:\n{}", String::from_utf8_lossy(&mutant)),
        }
    }
    // Both outcomes occur, so the mutations reach past the header and
    // also leave some traces readable.
    assert!(clean > 0 && failed > 0, "{clean} clean, {failed} failed");
}

#[test]
fn mutated_traces_give_records_or_typed_errors_never_panics() {
    mutation_pass(0x7EACE5, MUTANTS);
}

/// The longer pass, from a second seed: run it with `cargo test
/// --release -p camdn-trace --test trace_mutations -- --ignored`
/// (~4 s in a release build on two cores).
#[test]
#[ignore = "200,000 mutants; CI runs it in a release build"]
fn many_mutated_traces_give_records_or_typed_errors_never_panics() {
    mutation_pass(0x005E_C04D_5EED, 200_000);
}
