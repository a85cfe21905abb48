//! The `camdn-trace/1` NDJSON request-trace format: records, typed
//! errors, and a streaming reader/writer pair.
//!
//! A trace file is newline-delimited JSON. The first line is a header
//! naming the schema; every following line is one request:
//!
//! ```text
//! {"schema": "camdn-trace/1"}
//! {"ts_us": 0, "tenant": "t000", "model": "MB", "class": "H"}
//! {"ts_us": 412, "tenant": "t003", "model": "RS", "class": "M"}
//! ```
//!
//! Timestamps are microseconds since trace start and must be
//! non-decreasing (ties are fine — two requests can land in the same
//! microsecond). The reader is a plain [`Iterator`] over any
//! [`BufRead`], so a trace is validated and consumed line by line —
//! a billion-arrival file never materializes in memory. Every way a
//! record can be malformed (unknown schema version, negative / NaN /
//! fractional timestamps, timestamps running backwards, missing
//! fields) is a [`TraceError`] variant, never a panic.

use camdn_sweep::jsonl::{esc, field, parse_flat_object, JsonVal};
use std::io::{BufRead, Write};
use std::path::Path;

/// Schema identifier of the trace header line.
pub const TRACE_SCHEMA: &str = "camdn-trace/1";

/// SLA class of a request: which deadline scale over the model's
/// Table I QoS target the request is held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SlaClass {
    /// Tight deadline (QoS-H, 0.8 × target).
    High,
    /// Nominal deadline (QoS-M, 1.0 × target).
    Medium,
    /// Relaxed deadline (QoS-L, 1.2 × target).
    Low,
}

impl SlaClass {
    /// All classes, tightest first.
    pub const ALL: [SlaClass; 3] = [SlaClass::High, SlaClass::Medium, SlaClass::Low];

    /// The deadline scale over the model's QoS target (paper
    /// Section IV-A: 0.8 / 1.0 / 1.2).
    pub fn qos_scale(&self) -> f64 {
        match self {
            SlaClass::High => 0.8,
            SlaClass::Medium => 1.0,
            SlaClass::Low => 1.2,
        }
    }

    /// The single-letter trace encoding (`"H"` / `"M"` / `"L"`).
    pub fn letter(&self) -> &'static str {
        match self {
            SlaClass::High => "H",
            SlaClass::Medium => "M",
            SlaClass::Low => "L",
        }
    }

    /// Parses the trace encoding back.
    pub fn from_letter(s: &str) -> Option<SlaClass> {
        match s {
            "H" => Some(SlaClass::High),
            "M" => Some(SlaClass::Medium),
            "L" => Some(SlaClass::Low),
            _ => None,
        }
    }
}

/// One request of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival time in microseconds since trace start.
    pub ts_us: u64,
    /// Tenant identifier (free-form, e.g. `"t003"`).
    pub tenant: String,
    /// Model requested, by Table I abbreviation (`"MB"`) or full name.
    pub model: String,
    /// SLA class the request is held to.
    pub class: SlaClass,
}

/// Everything that can go wrong reading, writing or replaying a trace.
///
/// `#[non_exhaustive]`: match with a wildcard arm so new failure modes
/// stay additive.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// An underlying I/O operation failed.
    Io {
        /// What failed, including the path.
        detail: String,
    },
    /// The first line is missing or is not a trace header.
    BadHeader {
        /// What was found instead.
        detail: String,
    },
    /// The header names a schema version this build does not read.
    UnknownSchema {
        /// The schema string found in the header.
        found: String,
    },
    /// A record line is structurally broken (torn JSON, missing or
    /// mistyped fields, unknown SLA class).
    Malformed {
        /// 1-based line number in the file (line 1 is the header).
        line: u64,
        /// What is wrong with it.
        detail: String,
    },
    /// A record's timestamp is not a valid microsecond count
    /// (negative, NaN/inf, or fractional).
    BadTimestamp {
        /// 1-based line number in the file.
        line: u64,
        /// Why the timestamp was rejected.
        detail: String,
    },
    /// A record's timestamp runs backwards relative to its
    /// predecessor (timestamps must be non-decreasing).
    NonMonotonic {
        /// 1-based line number of the offending record.
        line: u64,
        /// The predecessor's timestamp.
        prev_us: u64,
        /// The offending timestamp.
        ts_us: u64,
    },
    /// A replayed record names a model the zoo does not know.
    UnknownModel {
        /// 1-based line number of the record (0 for generated traces).
        line: u64,
        /// The unknown model string.
        model: String,
    },
    /// A configuration value is out of range or inconsistent.
    InvalidConfig(String),
    /// The engine failed while replaying a window.
    Engine {
        /// Index of the window whose run failed.
        window: u64,
        /// The engine's error, rendered.
        detail: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io { detail } => write!(f, "trace I/O error: {detail}"),
            TraceError::BadHeader { detail } => {
                write!(f, "not a trace file: {detail}")
            }
            TraceError::UnknownSchema { found } => write!(
                f,
                "unsupported trace schema {found:?} (this build reads {TRACE_SCHEMA:?})"
            ),
            TraceError::Malformed { line, detail } => {
                write!(f, "malformed trace record at line {line}: {detail}")
            }
            TraceError::BadTimestamp { line, detail } => {
                write!(f, "bad timestamp at line {line}: {detail}")
            }
            TraceError::NonMonotonic {
                line,
                prev_us,
                ts_us,
            } => write!(
                f,
                "non-monotonic timestamp at line {line}: {ts_us} µs after {prev_us} µs"
            ),
            TraceError::UnknownModel { line, model } => {
                write!(f, "unknown model {model:?} at line {line}")
            }
            TraceError::InvalidConfig(msg) => write!(f, "invalid trace config: {msg}"),
            TraceError::Engine { window, detail } => {
                write!(f, "engine error replaying window {window}: {detail}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The header line of a trace file (no trailing newline).
pub fn header_line() -> String {
    format!("{{\"schema\": \"{TRACE_SCHEMA}\"}}")
}

/// One record as its NDJSON line (no trailing newline).
pub fn record_line(rec: &TraceRecord) -> String {
    format!(
        "{{\"ts_us\": {}, \"tenant\": \"{}\", \"model\": \"{}\", \"class\": \"{}\"}}",
        rec.ts_us,
        esc(&rec.tenant),
        esc(&rec.model),
        rec.class.letter(),
    )
}

// ------------------------------------------------------------------
// Writer
// ------------------------------------------------------------------

/// Streaming trace writer: header first, then one validated record
/// per [`TraceWriter::write`] call.
///
/// The writer enforces the same invariants the reader checks, so a
/// written trace always reads back clean: timestamps must be
/// non-decreasing and tenant/model must be non-empty.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    last_us: Option<u64>,
    records: u64,
}

impl TraceWriter<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncates) a trace file at `path` and writes the
    /// header.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let file = std::fs::File::create(path).map_err(|e| TraceError::Io {
            detail: format!("creating {}: {e}", path.display()),
        })?;
        TraceWriter::new(std::io::BufWriter::new(file))
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wraps any writer and emits the header line.
    pub fn new(mut w: W) -> Result<Self, TraceError> {
        writeln!(w, "{}", header_line()).map_err(|e| TraceError::Io {
            detail: format!("writing trace header: {e}"),
        })?;
        Ok(TraceWriter {
            w,
            last_us: None,
            records: 0,
        })
    }

    /// Appends one record, enforcing monotonicity and non-empty ids.
    pub fn write(&mut self, rec: &TraceRecord) -> Result<(), TraceError> {
        let line = self.records + 2; // header is line 1
        if let Some(prev) = self.last_us {
            if rec.ts_us < prev {
                return Err(TraceError::NonMonotonic {
                    line,
                    prev_us: prev,
                    ts_us: rec.ts_us,
                });
            }
        }
        if rec.tenant.is_empty() || rec.model.is_empty() {
            return Err(TraceError::Malformed {
                line,
                detail: "tenant and model must be non-empty".into(),
            });
        }
        writeln!(self.w, "{}", record_line(rec)).map_err(|e| TraceError::Io {
            detail: format!("writing trace record: {e}"),
        })?;
        self.last_us = Some(rec.ts_us);
        self.records += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.w.flush().map_err(|e| TraceError::Io {
            detail: format!("flushing trace: {e}"),
        })?;
        Ok(self.w)
    }
}

// ------------------------------------------------------------------
// Reader
// ------------------------------------------------------------------

/// Streaming trace reader: validates the header on construction, then
/// yields one `Result<TraceRecord, TraceError>` per line.
///
/// The iterator fuses on the first error — a broken trace yields its
/// error once and then ends, so `collect::<Result<Vec<_>, _>>()`
/// behaves as expected.
#[derive(Debug)]
pub struct TraceReader<R: BufRead> {
    r: R,
    line: u64,
    last_us: Option<u64>,
    failed: bool,
}

impl TraceReader<std::io::BufReader<std::fs::File>> {
    /// Opens a trace file and validates its header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let file = std::fs::File::open(path).map_err(|e| TraceError::Io {
            detail: format!("opening {}: {e}", path.display()),
        })?;
        TraceReader::new(std::io::BufReader::new(file))
    }
}

impl<R: BufRead> TraceReader<R> {
    /// Wraps any buffered reader and validates the header line.
    pub fn new(mut r: R) -> Result<Self, TraceError> {
        let mut header = Vec::new();
        r.read_until(b'\n', &mut header)
            .map_err(|e| TraceError::Io {
                detail: format!("reading trace header: {e}"),
            })?;
        let header = String::from_utf8(header).map_err(|e| TraceError::BadHeader {
            detail: format!("first line is not UTF-8: {e}"),
        })?;
        let fields = parse_flat_object(&header).ok_or_else(|| TraceError::BadHeader {
            detail: format!("first line is not a JSON object: {:?}", header.trim()),
        })?;
        let schema = field(&fields, "schema")
            .and_then(JsonVal::as_str)
            .ok_or_else(|| TraceError::BadHeader {
                detail: "header has no \"schema\" field".into(),
            })?;
        if schema != TRACE_SCHEMA {
            return Err(TraceError::UnknownSchema {
                found: schema.to_string(),
            });
        }
        Ok(TraceReader {
            r,
            line: 1,
            last_us: None,
            failed: false,
        })
    }
}

/// Parses and validates the timestamp token of one record.
fn parse_ts(fields: &[(String, JsonVal)], line: u64) -> Result<u64, TraceError> {
    let tok = match field(fields, "ts_us") {
        Some(JsonVal::Num(s)) => s,
        Some(_) => {
            return Err(TraceError::BadTimestamp {
                line,
                detail: "\"ts_us\" is not a number".into(),
            })
        }
        None => {
            return Err(TraceError::Malformed {
                line,
                detail: "missing \"ts_us\"".into(),
            })
        }
    };
    if let Ok(us) = tok.parse::<u64>() {
        return Ok(us);
    }
    // Not a u64: classify the rejection precisely.
    let detail = match tok.parse::<f64>() {
        Ok(v) if v.is_nan() => "NaN is not a timestamp".to_string(),
        Ok(v) if v.is_infinite() => "infinite timestamp".to_string(),
        Ok(v) if v < 0.0 => format!("negative timestamp {tok}"),
        Ok(_) => format!("timestamp {tok} is not an integral µs count"),
        Err(_) => format!("timestamp {tok:?} is not a number"),
    };
    Err(TraceError::BadTimestamp { line, detail })
}

/// Parses one record line (shared by the reader and tests).
fn parse_record(text: &str, line: u64) -> Result<TraceRecord, TraceError> {
    let fields = parse_flat_object(text).ok_or_else(|| TraceError::Malformed {
        line,
        detail: "not a flat JSON object (torn line?)".into(),
    })?;
    let ts_us = parse_ts(&fields, line)?;
    let need_str = |key: &str| -> Result<String, TraceError> {
        field(&fields, key)
            .and_then(JsonVal::as_str)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .ok_or_else(|| TraceError::Malformed {
                line,
                detail: format!("missing or empty \"{key}\""),
            })
    };
    let tenant = need_str("tenant")?;
    let model = need_str("model")?;
    let class_s = need_str("class")?;
    let class = SlaClass::from_letter(&class_s).ok_or_else(|| TraceError::Malformed {
        line,
        detail: format!("unknown SLA class {class_s:?} (expected H/M/L)"),
    })?;
    Ok(TraceRecord {
        ts_us,
        tenant,
        model,
        class,
    })
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        // Lines are read as bytes, so a line that is not UTF-8 is a
        // malformed record, not a failed read.
        let mut bytes = Vec::new();
        let text = loop {
            bytes.clear();
            match self.r.read_until(b'\n', &mut bytes) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    self.failed = true;
                    return Some(Err(TraceError::Io {
                        detail: format!("reading trace line {}: {e}", self.line + 1),
                    }));
                }
            }
            self.line += 1;
            match std::str::from_utf8(&bytes) {
                Ok(text) if text.trim().is_empty() => {}
                Ok(text) => break text,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(TraceError::Malformed {
                        line: self.line,
                        detail: format!("not UTF-8: {e}"),
                    }));
                }
            }
        };
        let rec = match parse_record(text, self.line) {
            Ok(rec) => rec,
            Err(e) => {
                self.failed = true;
                return Some(Err(e));
            }
        };
        if let Some(prev) = self.last_us {
            if rec.ts_us < prev {
                self.failed = true;
                return Some(Err(TraceError::NonMonotonic {
                    line: self.line,
                    prev_us: prev,
                    ts_us: rec.ts_us,
                }));
            }
        }
        self.last_us = Some(rec.ts_us);
        Some(Ok(rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(text: &str) -> Result<Vec<TraceRecord>, TraceError> {
        TraceReader::new(text.as_bytes())?.collect()
    }

    fn rec(ts_us: u64) -> TraceRecord {
        TraceRecord {
            ts_us,
            tenant: "t0".into(),
            model: "MB".into(),
            class: SlaClass::Medium,
        }
    }

    #[test]
    fn roundtrips_records_bit_for_bit() {
        let records = vec![
            rec(0),
            TraceRecord {
                ts_us: 5,
                tenant: "weird \"tenant\"\n".into(),
                model: "ResNet50".into(),
                class: SlaClass::High,
            },
            rec(5), // ties are legal
            rec(1_000_000),
        ];
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        for r in &records {
            w.write(r).unwrap();
        }
        let bytes = w.finish().unwrap();
        let back: Vec<TraceRecord> = TraceReader::new(bytes.as_slice())
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn header_is_required_and_versioned() {
        assert!(matches!(read_all(""), Err(TraceError::BadHeader { .. })));
        assert!(matches!(
            TraceReader::new("not json\n".as_bytes()).err(),
            Some(TraceError::BadHeader { .. })
        ));
        // A header that is not UTF-8 is a bad header, not an I/O failure.
        let header = b"{\"schema\": \"camdn-trace/\xff\"}\n";
        assert!(matches!(
            TraceReader::new(header.as_slice()).err(),
            Some(TraceError::BadHeader { .. })
        ));
        assert_eq!(
            TraceReader::new("{\"schema\": \"camdn-trace/9\"}\n".as_bytes()).err(),
            Some(TraceError::UnknownSchema {
                found: "camdn-trace/9".into()
            })
        );
    }

    #[test]
    fn non_monotonic_timestamps_are_rejected_with_context() {
        let text = format!(
            "{}\n{}\n{}\n",
            header_line(),
            record_line(&rec(100)),
            record_line(&rec(99)),
        );
        assert_eq!(
            read_all(&text),
            Err(TraceError::NonMonotonic {
                line: 3,
                prev_us: 100,
                ts_us: 99
            })
        );
        // The writer refuses to produce such a trace in the first place.
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        w.write(&rec(100)).unwrap();
        assert!(matches!(
            w.write(&rec(99)),
            Err(TraceError::NonMonotonic { line: 3, .. })
        ));
    }

    #[test]
    fn bad_timestamps_are_typed_not_panics() {
        let line = |ts: &str| {
            format!(
                "{}\n{{\"ts_us\": {ts}, \"tenant\": \"t0\", \"model\": \"MB\", \"class\": \"M\"}}\n",
                header_line()
            )
        };
        for (ts, needle) in [
            ("-5", "negative"),
            ("NaN", "NaN"),
            ("inf", "infinite"),
            ("1.5", "integral"),
            ("\"soon\"", "not a number"),
        ] {
            match read_all(&line(ts)) {
                Err(TraceError::BadTimestamp { line: 2, detail }) => {
                    assert!(detail.contains(needle), "{ts}: {detail}")
                }
                other => panic!("{ts}: expected BadTimestamp, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_records_are_typed_not_panics() {
        let with_body = |body: &str| format!("{}\n{body}\n", header_line());
        // Torn line (kill mid-write).
        assert!(matches!(
            read_all(&with_body("{\"ts_us\": 3, \"tena")),
            Err(TraceError::Malformed { line: 2, .. })
        ));
        // Missing fields.
        assert!(matches!(
            read_all(&with_body("{\"ts_us\": 3}")),
            Err(TraceError::Malformed { line: 2, .. })
        ));
        // Unknown SLA class.
        match read_all(&with_body(
            "{\"ts_us\": 3, \"tenant\": \"t0\", \"model\": \"MB\", \"class\": \"X\"}",
        )) {
            Err(TraceError::Malformed { line: 2, detail }) => {
                assert!(detail.contains("SLA class"), "{detail}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        // A record that is not UTF-8 is malformed, not an I/O failure.
        let mut bytes = format!("{}\n", header_line()).into_bytes();
        bytes.extend_from_slice(
            b"{\"ts_us\": 3, \"tenant\": \"t\xff\", \"model\": \"MB\", \"class\": \"M\"}\n",
        );
        let got: Result<Vec<TraceRecord>, _> =
            TraceReader::new(bytes.as_slice()).unwrap().collect();
        match got {
            Err(TraceError::Malformed { line: 2, detail }) => {
                assert!(detail.contains("UTF-8"), "{detail}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        // The iterator fuses after the error.
        let text = with_body("{\"ts_us\": 3}") + &record_line(&rec(4));
        let mut reader = TraceReader::new(text.as_bytes()).unwrap();
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none());
    }

    #[test]
    fn sla_classes_roundtrip() {
        for c in SlaClass::ALL {
            assert_eq!(SlaClass::from_letter(c.letter()), Some(c));
        }
        assert_eq!(SlaClass::from_letter("X"), None);
        assert_eq!(SlaClass::High.qos_scale(), 0.8);
        assert_eq!(SlaClass::Medium.qos_scale(), 1.0);
        assert_eq!(SlaClass::Low.qos_scale(), 1.2);
    }
}
