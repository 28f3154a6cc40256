//! A minimal, dependency-free JSON value with a writer and a parser.
//!
//! The workspace deliberately carries no `serde_json`; the telemetry
//! consumers (JSONL event logs, Chrome `trace_event` exports, `--stats-out`
//! run artifacts) need only a small, predictable subset of JSON, and the
//! parser exists so tooling (tests, `cloudburst check-json`) can verify
//! that every artifact the framework emits is well-formed without shelling
//! out to an external interpreter.

use std::fmt;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts: far
/// above any artifact the framework writes, and far below what recursing on
/// the stack can take, so a document from the network cannot overflow it.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
///
/// Numbers are split into unsigned integers (ids, byte counts, nanosecond
/// timestamps — kept exact) and floats (seconds, rates). Object keys keep
/// insertion order so emitted artifacts are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, serialized without a decimal point.
    U64(u64),
    /// A float; non-finite values serialize as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object builder.
    #[must_use]
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append `key: value` to an object (panics on non-objects — a misuse,
    /// not a data error).
    #[must_use]
    pub fn field(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_owned(), value)),
            _ => panic!("Json::field on a non-object"),
        }
        self
    }

    /// Look up a key in an object (`None` for non-objects/missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` for non-arrays).
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload (`None` for non-strings).
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (`None` for non-numbers).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// Serialize into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                use fmt::Write as _;
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                use fmt::Write as _;
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serialize to a fresh string.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parse a complete JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    ///
    /// # Errors
    /// Returns a message with the byte offset of the first syntax error, or
    /// of the bracket that nests deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Write `s` as a quoted JSON string with the mandatory escapes.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// A value inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth)?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are not recombined: telemetry never
                            // emits them, and a replacement char keeps the
                            // parser total for validation purposes.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_reparses_nested_values() {
        let v = Json::obj()
            .field("name", Json::Str("env-50/50".into()))
            .field("jobs", Json::U64(96))
            .field("sync", Json::F64(0.125))
            .field("sites", Json::Arr(vec![Json::Str("local".into()), Json::Str("cloud".into())]))
            .field("chaos", Json::Null)
            .field("ok", Json::Bool(true));
        let text = v.to_text();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn escapes_control_and_quote_characters() {
        let v = Json::Str("a\"b\\c\nd\u{1}".into());
        let text = v.to_text();
        assert_eq!(text, r#""a\"b\\c\nd\u0001""#);
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn large_u64_survives_exactly() {
        let v = Json::U64(u64::MAX);
        assert_eq!(Json::parse(&v.to_text()).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).to_text(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_text(), "null");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"abc", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_is_bounded_and_the_bound_itself_round_trips() {
        let deep = "[".repeat(1_000_000);
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"));
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(Json::parse(&at_bound).unwrap().to_text(), at_bound);
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert_eq!(Json::parse(&objects).unwrap().to_text(), objects);
        assert!(Json::parse(&format!("[{at_bound}]")).is_err());
    }

    #[test]
    fn accepts_whitespace_and_unicode_escapes() {
        let v = Json::parse(" { \"k\" : [ 1 , -2.5e3 , \"\\u00e9\" ] } ").unwrap();
        let arr = v.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0], Json::U64(1));
        assert_eq!(arr[1], Json::F64(-2500.0));
        assert_eq!(arr[2], Json::Str("é".into()));
    }

    #[test]
    fn get_and_accessors_cover_misses() {
        let v = Json::obj().field("x", Json::U64(3));
        assert!(v.get("y").is_none());
        assert_eq!(v.get("x").unwrap().as_f64(), Some(3.0));
        assert!(Json::Null.get("x").is_none());
        assert!(Json::U64(1).as_str().is_none());
        assert!(Json::Str("s".into()).as_arr().is_none());
    }
}
