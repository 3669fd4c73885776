//! Dependency-free JSON tree, writer, and parser.
//!
//! The run ledger and reports here — and the scenario catalog and
//! scorecard one crate up (which re-exports this module as
//! `scenario_fleet::json` for source compatibility) — need
//! (de)serialization, and this build environment cannot fetch `serde`
//! (see `vendor/README.md`), so the workspace carries its own ~minimal
//! JSON layer. Two properties matter here beyond correctness:
//!
//! * **Deterministic output** — objects preserve insertion order and
//!   numbers render via Rust's shortest-round-trip float formatting, so
//!   the same value tree always produces byte-identical text (the fleet
//!   determinism tests assert this across thread counts).
//! * **Round-trip fidelity** — `parse(render(v)) == v` for every value
//!   the crate produces (property-tested in the catalog).

use std::fmt::Write as _;

/// A parse failure with the byte offset where parsing stopped.
///
/// Artifact loaders (scorecard shards, run reports, harness envelopes)
/// wrap this into their own typed errors so a truncated or bit-flipped
/// file is reported as "`<artifact>: <what> at byte <where>`" instead of
/// an anonymous string — or worse, a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed. For truncation
    /// ("unexpected end of input") this is the input length.
    pub offset: usize,
    /// What went wrong, without the offset (Display appends it).
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// A JSON value. Objects are ordered vectors, not maps: order in ==
/// order out.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with preserved key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Required-field helpers for deserialization error messages.
    pub fn req(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// Required numeric field.
    pub fn req_num(&self, key: &str) -> Result<f64, String> {
        self.req(key)?
            .as_num()
            .ok_or_else(|| format!("field {key:?} must be a number"))
    }

    /// Required non-negative integer field: rejects negative and
    /// fractional numbers instead of silently truncating them, so a
    /// scenario runs with exactly the parameters its author wrote.
    pub fn req_index(&self, key: &str) -> Result<u64, String> {
        let value = self.req_num(key)?;
        // Strict `< 2^64`: `u64::MAX as f64` rounds *up* to 2^64, so a
        // `<=` bound would admit exactly 2^64 and saturate.
        if !(value.is_finite()
            && value >= 0.0
            && value.fract() == 0.0
            && value < 18_446_744_073_709_551_616.0)
        {
            return Err(format!(
                "field {key:?} must be a non-negative integer, got {value}"
            ));
        }
        Ok(value as u64)
    }

    /// Required string field.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.req(key)?
            .as_str()
            .ok_or_else(|| format!("field {key:?} must be a string"))
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders human-readable JSON indented by two spaces.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_str(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        Self::parse_located(text).map_err(|e| e.to_string())
    }

    /// Parses a JSON document, reporting failures as a structured
    /// [`JsonError`] carrying the byte offset.
    pub fn parse_located(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at(pos, "trailing input"));
        }
        Ok(value)
    }
}

fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no inf/nan; scorecard metrics are all finite, but a
        // total function keeps the writer panic-free.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Reads four hex digits starting at `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, JsonError> {
    let hex = bytes
        .get(at..at + 4)
        .ok_or_else(|| JsonError::at(bytes.len(), "truncated \\u escape"))?;
    let text =
        std::str::from_utf8(hex).map_err(|e| JsonError::at(at, format!("bad \\u escape: {e}")))?;
    u32::from_str_radix(text, 16)
        .map_err(|_| JsonError::at(at, format!("bad \\u escape digits {text:?}")))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: u8) -> Result<(), JsonError> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == token {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::at(*pos, format!("expected {:?}", token as char)))
    }
}

/// Nesting ceiling for the recursive parser: scenario/scorecard
/// documents are a few levels deep; a malformed or hostile file must
/// return `Err`, not blow the stack.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError::at(
            *pos,
            format!("nesting deeper than {MAX_DEPTH} levels"),
        ));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::at(bytes.len(), "unexpected end of input")),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key_at = *pos;
                let key = match parse_value(bytes, pos, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err(JsonError::at(key_at, "object key must be a string")),
                };
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(JsonError::at(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError::at(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|e| JsonError::at(start, format!("invalid UTF-8: {e}")))?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| JsonError::at(start, format!("invalid number {text:?}")))
        }
    }
}

/// Parses a string body; `*pos` is at the opening quote.
///
/// Each run of plain bytes up to the next `"` or `\` is appended in one
/// piece, so decoding is linear in the string's length. Both delimiters
/// are ASCII, so a run always ends on a character boundary and the
/// per-run UTF-8 check only re-reads the run itself. Raw control
/// characters are accepted.
fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    *pos += 1;
    let mut s = String::new();
    loop {
        let run_start = *pos;
        *pos += bytes[run_start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(bytes.len() - run_start);
        let run = std::str::from_utf8(&bytes[run_start..*pos]).map_err(|e| {
            JsonError::at(run_start + e.valid_up_to(), format!("invalid UTF-8: {e}"))
        })?;
        s.push_str(run);
        match bytes.get(*pos) {
            None => return Err(JsonError::at(bytes.len(), "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            // The run stopped at a backslash.
            Some(_) => parse_escape(bytes, pos, &mut s)?,
        }
    }
}

/// Decodes one escape sequence into `s`; `*pos` is at the backslash and
/// ends just past the sequence.
fn parse_escape(bytes: &[u8], pos: &mut usize, s: &mut String) -> Result<(), JsonError> {
    *pos += 1;
    match bytes.get(*pos) {
        Some(b'"') => s.push('"'),
        Some(b'\\') => s.push('\\'),
        Some(b'/') => s.push('/'),
        Some(b'n') => s.push('\n'),
        Some(b'r') => s.push('\r'),
        Some(b't') => s.push('\t'),
        Some(b'b') => s.push('\u{8}'),
        Some(b'f') => s.push('\u{c}'),
        Some(b'u') => {
            let code = parse_hex4(bytes, *pos + 1)?;
            *pos += 4;
            let scalar = match code {
                // High surrogate: standard JSON encodes non-BMP
                // characters as a \uD8xx\uDCxx pair (serde_json and
                // Python's ensure_ascii both emit these) — combine it.
                0xD800..=0xDBFF => {
                    if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                        return Err(JsonError::at(
                            *pos,
                            format!("lone high surrogate \\u{code:04x}"),
                        ));
                    }
                    let low = parse_hex4(bytes, *pos + 3)?;
                    if !(0xDC00..=0xDFFF).contains(&low) {
                        return Err(JsonError::at(
                            *pos,
                            format!("invalid low surrogate \\u{low:04x}"),
                        ));
                    }
                    *pos += 6;
                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                }
                0xDC00..=0xDFFF => {
                    return Err(JsonError::at(
                        *pos,
                        format!("lone low surrogate \\u{code:04x}"),
                    ))
                }
                code => code,
            };
            s.push(
                char::from_u32(scalar)
                    .ok_or_else(|| JsonError::at(*pos, format!("invalid \\u{scalar:04x}")))?,
            );
        }
        other => return Err(JsonError::at(*pos, format!("bad escape {other:?}"))),
    }
    *pos += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::obj([
            ("name", Json::Str("désert \"dry\"\n".to_string())),
            ("days", Json::Num(40.0)),
            ("mape", Json::Num(0.1234567890123)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::Num(1.0), Json::Num(-2.5), Json::Str("x".into())]),
            ),
        ]);
        let compact = doc.render();
        let pretty = doc.render_pretty();
        assert_eq!(Json::parse(&compact).unwrap(), doc);
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(40.0).render(), "40");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::Num(0.5).render(), "0.5");
    }

    #[test]
    fn output_is_deterministic() {
        let doc = Json::obj([("b", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        assert_eq!(doc.render(), doc.render());
        assert_eq!(doc.render(), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "nul", "1 2", "{1: 2}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn located_errors_carry_byte_offsets() {
        // Truncation points at the end of input.
        let err = Json::parse_located("{\"a\": 1").unwrap_err();
        assert_eq!(err.offset, 7, "{err}");
        // A mid-document syntax error points at the offending byte.
        let err = Json::parse_located(r#"{"a": 1 "b": 2}"#).unwrap_err();
        assert_eq!(err.offset, 8, "{err}");
        // Display appends the offset so string-typed surfaces keep it.
        assert!(err.to_string().contains("at byte 8"), "{err}");
        // Trailing garbage after a complete value.
        let err = Json::parse_located("1 2").unwrap_err();
        assert_eq!(err.offset, 2, "{err}");
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        let hostile = "[".repeat(200_000) + &"]".repeat(200_000);
        let err = Json::parse(&hostile).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // A document at reasonable depth still parses.
        let fine = "[".repeat(100) + "1" + &"]".repeat(100);
        assert!(Json::parse(&fine).is_ok());
    }

    #[test]
    fn req_index_rejects_negative_and_fractional() {
        let doc =
            Json::parse(r#"{"a": -5, "b": 2.9, "c": 40, "d": 1e20, "e": 18446744073709551616}"#)
                .unwrap();
        assert!(doc.req_index("a").is_err());
        assert!(doc.req_index("b").is_err());
        assert_eq!(doc.req_index("c").unwrap(), 40);
        assert!(doc.req_index("d").is_err());
        // Exactly 2^64: would saturate through `as u64` if admitted.
        assert!(doc.req_index("e").is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_non_bmp_characters() {
        // A sun-with-face emoji (U+1F31E), escaped the way serde_json /
        // Python's ensure_ascii emit non-BMP characters.
        let doc = Json::parse(r#""\ud83c\udf1e clear""#).unwrap();
        assert_eq!(doc, Json::Str("\u{1F31E} clear".to_string()));
        // BMP escapes still work.
        assert_eq!(
            Json::parse(r#""\u00e9""#).unwrap(),
            Json::Str("\u{e9}".to_string())
        );
        // Lone or malformed surrogates are rejected.
        for bad in [
            r#""\ud83c""#,
            r#""\ud83cAB""#,
            r#""\ud83cA""#,
            r#""\udf1e""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = Json::parse(r#"{"site": {"preset": "PFCI"}, "days": 40}"#).unwrap();
        assert_eq!(doc.req_num("days").unwrap(), 40.0);
        assert_eq!(doc.req("site").unwrap().req_str("preset").unwrap(), "PFCI");
        assert!(doc.req_str("days").is_err());
        assert!(doc.req("missing").is_err());
    }

    #[test]
    fn multibyte_runs_meet_escapes_intact() {
        for text in ["é", "日本", "\u{1F600}"] {
            for (escape, decoded) in [("\\n", "\n"), ("\\\"", "\""), ("\\ud83d\\ude00", "😀")] {
                let doc = format!("\"{text}{escape}{text}{escape}{escape}{text}\"");
                assert_eq!(
                    Json::parse(&doc).unwrap(),
                    Json::Str(format!("{text}{decoded}{text}{decoded}{decoded}{text}")),
                    "{doc:?}"
                );
            }
        }
    }

    #[test]
    fn escape_only_and_empty_strings_decode() {
        assert_eq!(Json::parse(r#""""#).unwrap(), Json::Str(String::new()));
        assert_eq!(
            Json::parse(r#""\n\t\\\"\/\b\f\r\u0041\ud83d\ude00""#).unwrap(),
            Json::Str("\n\t\\\"/\u{8}\u{c}\rA😀".to_string())
        );
        // Raw control characters inside a string are accepted verbatim.
        assert_eq!(
            Json::parse("\"a\u{1}b\tc\nd\"").unwrap(),
            Json::Str("a\u{1}b\tc\nd".to_string())
        );
    }

    #[test]
    fn string_errors_keep_their_byte_offsets() {
        for (doc, offset, what) in [
            ("\"abc", 4, "unterminated string"),
            ("\"日本", 7, "unterminated string"),
            ("[\"ok\", \"é", 10, "unterminated string"),
            ("\"a\\", 3, "bad escape None"),
            ("\"a\\x\"", 3, "bad escape Some(120)"),
            ("\"é\\q\"", 4, "bad escape Some(113)"),
            ("{\"日\\q\": 1}", 6, "bad escape Some(113)"),
            ("\"\\u12\"", 6, "truncated \\u escape"),
            ("\"\\uZZZZ\"", 3, "bad \\u escape digits"),
            ("\"é\\ud83c\"", 8, "lone high surrogate"),
            ("\"\\ud83c\\u0041\"", 6, "invalid low surrogate"),
            ("\"\\udf1e\"", 6, "lone low surrogate"),
        ] {
            let err = Json::parse_located(doc).unwrap_err();
            assert_eq!(err.offset, offset, "{doc:?}: {err}");
            assert!(err.message.contains(what), "{doc:?}: {err}");
        }
    }

    /// Reference string decoder: one character per step, with the
    /// same escape handling. The run scanner must agree with it on
    /// every input, errors and end positions included.
    fn parse_string_per_char(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
        *pos += 1;
        let mut s = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err(JsonError::at(bytes.len(), "unterminated string")),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => parse_escape(bytes, pos, &mut s)?,
                Some(_) => {
                    let rest = std::str::from_utf8(&bytes[*pos..]).unwrap();
                    let c = rest.chars().next().unwrap();
                    s.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    /// Unicode scalars from every UTF-8 width, surrogates excluded.
    fn any_char() -> impl Strategy<Value = char> {
        prop_oneof![
            0u32..0x80,
            0x80u32..0x800,
            0x800u32..0xD800,
            0xE000u32..0x1_0000,
            0x1_0000u32..0x11_0000,
        ]
        .prop_map(|code| char::from_u32(code).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_strings_round_trip(chars in proptest::collection::vec(any_char(), 0..64)) {
            let text: String = chars.into_iter().collect();
            let rendered = Json::Str(text.clone()).render();
            let back = Json::parse(&rendered).unwrap();
            prop_assert_eq!(&back, &Json::Str(text));
            prop_assert_eq!(back.render(), rendered);
        }

        #[test]
        fn run_scanner_matches_the_per_char_decoder(
            picks in proptest::collection::vec(0usize..17, 0..24)
        ) {
            const PIECES: [&str; 17] = [
                "a", "é", "日本", "😀", " ", "\u{1}", "\"", "\\", "\\n", "\\\"",
                "\\/", "\\u00e9", "\\ud83d\\ude00", "\\ud83d", "\\ude00", "\\u12", "\\q",
            ];
            let doc: String = std::iter::once("\"")
                .chain(picks.iter().map(|&i| PIECES[i]))
                .collect();
            let (mut run_pos, mut char_pos) = (0, 0);
            let runs = parse_string(doc.as_bytes(), &mut run_pos);
            let chars = parse_string_per_char(doc.as_bytes(), &mut char_pos);
            prop_assert_eq!(&runs, &chars, "{:?}", doc);
            if runs.is_ok() {
                prop_assert_eq!(run_pos, char_pos, "{:?}", doc);
            }
        }
    }

    #[test]
    fn string_decode_time_is_linear_in_length() {
        // Min of three timings per size. Linear decoding gives a ratio
        // near 8 for 8x the bytes; a scan that re-validates the rest of
        // the document at every character gives about 64.
        fn best_of_three(len: usize) -> f64 {
            let doc = format!("\"{}\"", "x".repeat(len));
            (0..3)
                .map(|_| {
                    let start = std::time::Instant::now();
                    std::hint::black_box(Json::parse(&doc).unwrap());
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        }
        let small = best_of_three(64 << 10);
        let large = best_of_three(512 << 10);
        let ratio = large / small.max(1e-9);
        assert!(
            ratio < 24.0,
            "512 KiB took {large:.6} s against {small:.6} s for 64 KiB (ratio {ratio:.1})"
        );
    }
}
