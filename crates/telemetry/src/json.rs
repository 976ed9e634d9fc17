//! The workspace's one JSON codec: a small strict parser plus the string
//! escaper every JSON writer uses.
//!
//! Hand-rolled because the workspace is hermetic (no external crates, see
//! CHANGES.md PR 1). Strictness beats completeness here: the parser
//! rejects trailing garbage, unquoted keys, and malformed escapes, so a
//! broken exporter fails tier-1 instead of producing a file Perfetto
//! quietly mis-renders.
//!
//! The parser is also reached from sockets and files (`sas-serve` request
//! bodies, journal and manifest replay), so it is bounded on any input:
//! nesting deeper than [`MAX_DEPTH`] is an error rather than a stack
//! overflow, and strings decode in time linear in their length.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. Every document the
/// workspace writes is at most a few levels deep.
pub const MAX_DEPTH: usize = 128;

/// Largest integer an `f64` holds exactly (2^53); [`Json::as_u64`] refuses
/// anything above it.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64, like browsers do).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted keys; duplicate keys rejected at parse time).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value at `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string payload if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an integer, if it is an exact non-negative integer no
    /// larger than 2^53 (beyond that an `f64` no longer holds every integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && *n <= MAX_EXACT_INT && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The payload if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Escapes `s` for embedding between the quotes of a JSON string: `"`,
/// `\`, newline, carriage return and tab get their short escapes, every
/// other char below U+0020 becomes `\u00XX`, and everything else is copied
/// verbatim.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to recurse
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("bad literal (expected {word})")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            if map.insert(key.clone(), val).is_some() {
                return Err(self.err(&format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // as one slice. Those stop bytes are ASCII, so both ends of the
            // run are char boundaries of the (already valid UTF-8) input.
            let start = self.pos;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            s.push_str(&self.src[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .ok_or_else(|| self.err("\\u escape needs four hex digits"))?;
                            let cp = hex
                                .iter()
                                .fold(0, |cp, &h| cp * 16 + (h as char).to_digit(16).unwrap_or(0));
                            // Surrogates are rejected (the exporters never
                            // emit astral-plane text).
                            let c = char::from_u32(cp)
                                .ok_or_else(|| self.err("surrogate \\u escape"))?;
                            s.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control char in string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
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
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Parses `input` as a single JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { src: input, bytes: input.as_bytes(), pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Validates a Chrome `trace_event` document: a top-level object with a
/// `traceEvents` array in which every event carries the required fields
/// (`name`, `ph`, `pid`, `tid`, and `ts` for non-metadata phases; complete
/// events additionally need `dur`). Returns the event count.
pub fn validate_chrome_trace(input: &str) -> Result<usize, String> {
    let doc = parse(input)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    for (i, e) in events.iter().enumerate() {
        let at = |k: &str| e.get(k).ok_or(format!("event {i}: missing {k:?}"));
        let ph = at("ph")?.as_str().ok_or(format!("event {i}: ph not a string"))?;
        at("name")?.as_str().ok_or(format!("event {i}: name not a string"))?;
        at("pid")?.as_num().ok_or(format!("event {i}: pid not a number"))?;
        at("tid")?.as_num().ok_or(format!("event {i}: tid not a number"))?;
        match ph {
            "M" => {} // metadata events carry no timestamp
            "X" => {
                at("ts")?.as_num().ok_or(format!("event {i}: ts not a number"))?;
                at("dur")?.as_num().ok_or(format!("event {i}: dur not a number"))?;
            }
            "C" | "i" | "B" | "E" => {
                at("ts")?.as_num().ok_or(format!("event {i}: ts not a number"))?;
            }
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny"},"d":null,"e":true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "{'a':1}",
            "{\"a\":1,}",
            "{\"a\":1}x",
            "[1 2]",
            "\"\\q\"",
            "{\"a\":1,\"a\":2}",
            "nul",
            "\"\\u+041\"",
            "\"\\u04\"",
            "\"\\u004g\"",
            "\"a\u{1}b\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(parse("\"\\u0041\\u00e9\""), Ok(Json::Str("A\u{e9}".into())));
    }

    #[test]
    fn as_u64_takes_only_exact_non_negative_integers() {
        for (text, want) in [
            ("0", Some(0)),
            ("123456", Some(123_456)),
            ("1e3", Some(1000)),
            ("9007199254740992", Some(1 << 53)),
            ("9007199254740994", None),
            ("1.5", None),
            ("-1", None),
            ("\"7\"", None),
            ("true", None),
        ] {
            assert_eq!(parse(text).unwrap().as_u64(), want, "{text}");
        }
    }

    #[test]
    fn escape_uses_short_forms_and_hex_for_other_controls() {
        assert_eq!(escape("a\"b\\c\nd\re\tf\u{1}\u{1f} é"), "a\\\"b\\\\c\\nd\\re\\tf\\u0001\\u001f é");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A spawned thread has a small stack; without the depth cap this
        // input overflows it and aborts the whole process.
        let deep = "[".repeat(100_000);
        let err = std::thread::spawn(move || parse(&deep)).join().expect("no abort");
        assert!(err.unwrap_err().contains("nesting too deep"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        let body: String = "abc\\n\u{e9}\u{1F600}".repeat((1 << 20) / 12);
        let doc = format!("\"{body}\"");
        let start = std::time::Instant::now();
        let s = parse(&doc).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(5), "{:?}", start.elapsed());
        assert_eq!(s.as_str().map(str::len), Some(body.len() - body.matches("\\n").count()));
    }

    #[test]
    fn validates_a_minimal_chrome_trace() {
        let ok = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"core0"}},
            {"name":"ldr","ph":"X","pid":0,"tid":2,"ts":10,"dur":4},
            {"name":"rob","ph":"C","pid":0,"tid":9,"ts":0,"args":{"value":3}}
        ]}"#;
        assert_eq!(validate_chrome_trace(ok), Ok(3));
        assert!(validate_chrome_trace(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
        assert!(validate_chrome_trace(r#"{"events":[]}"#).is_err());
    }
}
