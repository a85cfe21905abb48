//! Minimal flat-JSON building blocks: string escaping for the
//! workspace's hand-rolled JSON writers (the sweep report and the
//! `camdn-trace/1` writer), and the flat-object parser behind the
//! `camdn-trace/1` reader.
//!
//! Nothing here is a general JSON parser. [`parse_flat_object`] accepts
//! one object of strings, numbers, booleans and flat arrays, and
//! returns `None` for anything else, including a torn line; the trace
//! reader reports that `None` as `TraceError::Malformed`.

/// One parsed value of a flat JSONL object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// An unparsed number token (callers choose `f64` or exact `u64`).
    Num(String),
    /// `true` / `false`.
    Bool(bool),
    /// A string, unescaped.
    Str(String),
    /// A flat array of number tokens or strings (e.g.
    /// latency-histogram counts, tenant ids). String items are stored
    /// unescaped; callers know which kind a key holds.
    Arr(Vec<String>),
}

impl JsonVal {
    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Escapes a string for inclusion in a JSON document.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Looks a key up in a parsed line.
pub fn field<'a>(fields: &'a [(String, JsonVal)], key: &str) -> Option<&'a JsonVal> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parses a one-level JSON object of string/number/boolean values and
/// flat arrays of numbers or strings. `None` for anything else —
/// including a torn line.
pub fn parse_flat_object(line: &str) -> Option<Vec<(String, JsonVal)>> {
    let s = line.trim();
    let mut chars = s.char_indices().peekable();
    if !s.starts_with('{') || !s.ends_with('}') {
        return None;
    }
    chars.next(); // consume '{'
    let mut fields = Vec::new();
    loop {
        // Skip whitespace and separators up to the next key or the end.
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace() || *c == ',') {
            chars.next();
        }
        match chars.peek() {
            Some((_, '}')) | None => break,
            Some((_, '"')) => {}
            _ => return None,
        }
        let key = parse_string(&mut chars)?;
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
        if !matches!(chars.next(), Some((_, ':'))) {
            return None;
        }
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
        let val = match chars.peek()? {
            (_, '"') => JsonVal::Str(parse_string(&mut chars)?),
            (_, '[') => {
                chars.next(); // consume '['
                let mut items = Vec::new();
                loop {
                    while matches!(chars.peek(), Some((_, c)) if c.is_whitespace() || *c == ',') {
                        chars.next();
                    }
                    if matches!(chars.peek(), Some((_, ']'))) {
                        chars.next();
                        break;
                    }
                    if matches!(chars.peek(), Some((_, '"'))) {
                        items.push(parse_string(&mut chars)?);
                        continue;
                    }
                    let num: String = std::iter::from_fn(|| {
                        matches!(chars.peek(), Some((_, c))
                            if !c.is_whitespace() && *c != ',' && *c != ']')
                        .then(|| chars.next().map(|(_, c)| c))
                        .flatten()
                    })
                    .collect();
                    if num.is_empty() {
                        return None;
                    }
                    items.push(num);
                }
                JsonVal::Arr(items)
            }
            (_, 't' | 'f') => {
                let word: String = std::iter::from_fn(|| {
                    matches!(chars.peek(), Some((_, c)) if c.is_ascii_alphabetic())
                        .then(|| chars.next().map(|(_, c)| c))
                        .flatten()
                })
                .collect();
                match word.as_str() {
                    "true" => JsonVal::Bool(true),
                    "false" => JsonVal::Bool(false),
                    _ => return None,
                }
            }
            _ => {
                let num: String = std::iter::from_fn(|| {
                    matches!(chars.peek(), Some((_, c)) if !c.is_whitespace() && *c != ',' && *c != '}')
                        .then(|| chars.next().map(|(_, c)| c))
                        .flatten()
                })
                .collect();
                if num.is_empty() {
                    return None;
                }
                JsonVal::Num(num)
            }
        };
        fields.push((key, val));
    }
    Some(fields)
}

/// Parses a double-quoted JSON string (cursor on the opening quote),
/// un-escaping what [`esc`] produced.
fn parse_string(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) -> Option<String> {
    if !matches!(chars.next(), Some((_, '"'))) {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            (_, '"') => return Some(out),
            (_, '\\') => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.1.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            (_, c) => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_escaped_strings() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let line = format!("{{\"k\": \"{}\"}}", esc(nasty));
        let fields = parse_flat_object(&line).unwrap();
        assert_eq!(field(&fields, "k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn torn_lines_parse_as_none() {
        assert!(parse_flat_object("{\"k\": 1").is_none());
        assert!(parse_flat_object("{\"k\": }").is_none());
        assert!(parse_flat_object("not json").is_none());
        assert!(parse_flat_object("{\"k\": tr").is_none());
    }

    #[test]
    fn numbers_booleans_and_arrays() {
        let fields =
            parse_flat_object("{\"a\": 18446744073709551615, \"b\": true, \"c\": [1, 2, 3]}")
                .unwrap();
        assert_eq!(
            field(&fields, "a"),
            Some(&JsonVal::Num("18446744073709551615".into()))
        );
        assert_eq!(field(&fields, "b"), Some(&JsonVal::Bool(true)));
        assert_eq!(
            field(&fields, "c"),
            Some(&JsonVal::Arr(vec!["1".into(), "2".into(), "3".into()]))
        );
    }

    #[test]
    fn string_array_items_are_unescaped() {
        let fields = parse_flat_object("{\"t\": [\"a\\\"x\", \"b\", 3]}").unwrap();
        assert_eq!(
            field(&fields, "t"),
            Some(&JsonVal::Arr(vec!["a\"x".into(), "b".into(), "3".into()]))
        );
    }
}
