//! Minimal offline JSON reader **and writer** shared across the workspace.
//!
//! The workspace is offline (no serde), yet several components speak JSON:
//! the bench artifacts (`BENCH_*.json`) must be validated in CI, and the
//! `pv_server` placement service reads request bodies and writes response
//! bodies. This crate is their shared home — originally the private
//! `pv_bench::json` module, extracted once a second consumer appeared.
//!
//! The reader is a small recursive-descent parser covering exactly the
//! JSON grammar — enough to load an artifact or a request body and assert
//! its schema, and small enough to audit at a glance. Not a
//! general-purpose library: numbers are read through `f64`, and object
//! keys keep their last occurrence.
//!
//! The writer is the dual: [`JsonValue::to_json_string`] serializes any
//! value compactly with correct string escaping, [`ObjectBuilder`] builds
//! objects with a fixed field order, and [`render_record_array`] renders
//! the one-record-per-line array shape every `BENCH_*.json` artifact uses.
//!
//! ```
//! use pv_json::{parse, ObjectBuilder};
//! let doc = ObjectBuilder::new()
//!     .field("name", "smoke \"run\"")
//!     .field("count", 3.0)
//!     .build()
//!     .to_json_string();
//! assert_eq!(doc, r#"{"name": "smoke \"run\"", "count": 3}"#);
//! assert_eq!(parse(&doc).unwrap().get("count").unwrap().as_number(), Some(3.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Number(f64),
    /// A string (escape sequences decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The elements when this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up `key` when this is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => {
                fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The numeric value when this is a number.
    #[must_use]
    pub fn as_number(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes this value as compact JSON (single line, one space after
    /// `:` and `,` for readability).
    ///
    /// Numbers print in Rust's shortest-round-trip form; callers wanting
    /// fixed decimal places should pre-round with [`rounded`]. Non-finite
    /// numbers render verbatim (`NaN`/`inf`), which is **not** valid JSON —
    /// deliberately, so a broken measurement makes a downstream schema
    /// check fail instead of being laundered into a plausible number.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(x) => {
                // `{}` on f64 is shortest-round-trip; integral values print
                // without a trailing ".0", which is still a JSON number.
                out.push_str(&format!("{x}"));
            }
            JsonValue::String(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str("\": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}
impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Number(x)
    }
}
impl From<usize> for JsonValue {
    fn from(x: usize) -> Self {
        JsonValue::Number(x as f64)
    }
}
impl From<u32> for JsonValue {
    fn from(x: u32) -> Self {
        JsonValue::Number(f64::from(x))
    }
}
impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}
impl From<Vec<JsonValue>> for JsonValue {
    fn from(items: Vec<JsonValue>) -> Self {
        JsonValue::Array(items)
    }
}

/// Builds a [`JsonValue::Object`] with a fixed, caller-controlled field
/// order — the writer-side idiom for artifact records and service
/// responses, replacing hand-assembled `format!` JSON.
#[derive(Clone, Debug, Default)]
pub struct ObjectBuilder {
    fields: Vec<(String, JsonValue)>,
}

impl ObjectBuilder {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `key: value`.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Appends `key: value` when `value` is `Some`, nothing otherwise —
    /// for optional record fields that are omitted rather than nulled.
    #[must_use]
    pub fn maybe(self, key: &str, value: Option<impl Into<JsonValue>>) -> Self {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// Finishes the object.
    #[must_use]
    pub fn build(self) -> JsonValue {
        JsonValue::Object(self.fields)
    }
}

/// Renders a record array in the shared `BENCH_*.json` artifact shape:
/// one compact record per line, two-space indent, trailing newline.
#[must_use]
pub fn render_record_array(records: &[JsonValue]) -> String {
    let mut doc = String::from("[\n");
    for (i, record) in records.iter().enumerate() {
        doc.push_str("  ");
        doc.push_str(&record.to_json_string());
        doc.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    doc.push_str("]\n");
    doc
}

/// Rounds `x` to `decimals` decimal places, so the shortest-round-trip
/// writer emits at most that many — the writer-side replacement for the
/// `{:.3}`-style precision of the old `format!` artifact writers.
#[must_use]
pub fn rounded(x: f64, decimals: u32) -> f64 {
    let scale = 10f64.powi(decimals as i32);
    (x * scale).round() / scale
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a human-readable message (with byte offset) on malformed input
/// or trailing garbage.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", JsonValue::Null),
            Some(b't') => self.eat_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| core::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the bench
                            // artifact; map them to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(format!("invalid escape '\\{}'", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are trustworthy).
                    let rest = &self.bytes[self.pos..];
                    let s = core::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let ch = s.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

/// Escapes a string for embedding in a JSON document.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_artifact_shape() {
        let doc = r#"[
            {"bench": "evaluator_throughput", "scale": "30 days @ 60 min, N=32",
             "name": "proposal_cold", "ns_per_eval": 1.25e6, "speedup_vs_cold": 1.0},
            {"bench": "evaluator_throughput", "scale": "30 days @ 60 min, N=32",
             "name": "proposal_incremental", "ns_per_eval": 2.0e5, "speedup_vs_cold": 6.25}
        ]"#;
        let v = parse(doc).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(
            items[0].get("name").unwrap().as_str(),
            Some("proposal_cold")
        );
        assert_eq!(
            items[1].get("speedup_vs_cold").unwrap().as_number(),
            Some(6.25)
        );
    }

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-3.5e2").unwrap(), JsonValue::Number(-350.0));
        assert_eq!(
            parse(r#""a\n\"b\" é""#).unwrap(),
            JsonValue::String("a\n\"b\" é".into())
        );
        assert_eq!(
            parse("[1, [2, {}], {\"k\": []}]")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            3
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "[] []",
            "\"unterminated",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line\nbreak \"quoted\" back\\slash\ttab";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap(), JsonValue::String(nasty.into()));
    }

    #[test]
    fn writer_round_trips_every_value_kind() {
        let value = ObjectBuilder::new()
            .field("null-ish", JsonValue::Null)
            .field("flag", true)
            .field("n", -2.5)
            .field("s", "quote \" slash \\ tab\t")
            .field(
                "arr",
                vec![JsonValue::Number(1.0), JsonValue::String("x".into())],
            )
            .field("nested", ObjectBuilder::new().field("k", 7usize).build())
            .build();
        let doc = value.to_json_string();
        assert_eq!(parse(&doc).unwrap(), value);
    }

    #[test]
    fn writer_emits_integral_numbers_without_fraction() {
        assert_eq!(JsonValue::Number(3.0).to_json_string(), "3");
        assert_eq!(JsonValue::Number(3.25).to_json_string(), "3.25");
    }

    #[test]
    fn maybe_omits_absent_fields() {
        let with = ObjectBuilder::new().maybe("k", Some(1.0)).build();
        let without = ObjectBuilder::new().maybe("k", None::<f64>).build();
        assert!(with.get("k").is_some());
        assert_eq!(without, JsonValue::Object(vec![]));
    }

    #[test]
    fn record_array_renders_one_record_per_line() {
        let records = [
            ObjectBuilder::new().field("a", 1.0).build(),
            ObjectBuilder::new().field("b", "x").build(),
        ];
        let doc = render_record_array(&records);
        assert_eq!(doc, "[\n  {\"a\": 1},\n  {\"b\": \"x\"}\n]\n");
        assert_eq!(parse(&doc).unwrap().as_array().unwrap().len(), 2);
        assert_eq!(render_record_array(&[]), "[\n]\n");
    }

    #[test]
    fn rounded_truncates_to_requested_decimals() {
        assert_eq!(rounded(1.23456, 3), 1.235);
        assert_eq!(rounded(-0.0004, 3), -0.0);
        assert_eq!(rounded(17.0, 2), 17.0);
    }

    #[test]
    fn non_finite_numbers_render_invalid_on_purpose() {
        assert!(parse(&JsonValue::Number(f64::NAN).to_json_string()).is_err());
        assert!(parse(&JsonValue::Number(f64::INFINITY).to_json_string()).is_err());
    }
}
