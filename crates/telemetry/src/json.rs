//! Minimal JSON support: string escaping for the writers, and the one
//! reader — a recursive-descent parser into a [`Value`] tree — used by the
//! trace validator and by `stellaris-obs` to read our own artifacts back
//! (`runs/*.json` reports, flight-recorder JSONL lines).
//!
//! The grammar is strict JSON: no `1.`, no empty exponent, no raw control
//! characters in strings, no trailing data. Nesting is capped at
//! `MAX_DEPTH`, and every path returns `Result` (lint rule L1: no panics).

use std::collections::BTreeMap;

/// Appends `s` to `out` with JSON string escaping applied (quotes are *not*
/// added by this function).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let b = c as u32;
                let hex = b"0123456789abcdef";
                out.push(hex[(b as usize >> 4) & 0xf] as char);
                out.push(hex[b as usize & 0xf] as char);
            }
            c => out.push(c),
        }
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (f64 loses no precision our writers use beyond
    /// u64 > 2^53 counters, which never carry semantic meaning that large).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; key order is normalised (sorted) by the map.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object member lookup; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric value truncated to u64 (negative → 0).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| if n <= 0.0 { 0 } else { n as u64 })
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parses one complete JSON document (surrounding whitespace allowed).
/// Errors name the byte offset.
pub fn parse(s: &str) -> Result<Value, String> {
    document(s, true)
}

/// Validates that `s` is a single well-formed JSON value with no trailing
/// garbage. Returns a human-readable error (with byte offset) otherwise.
/// Same grammar as [`parse`], but builds no tree: a trace file at sink
/// capacity validates in about its own size of memory.
pub fn validate_json(s: &str) -> Result<(), String> {
    document(s, false).map(drop)
}

fn document(s: &str, keep: bool) -> Result<Value, String> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
        keep,
    };
    let v = p.value(0)?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

/// Maximum nesting depth accepted; our artifacts nest ~5 deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Build the tree; `false` only checks the grammar (containers and
    /// strings come back empty).
    keep: bool,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    /// Consumes `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.i += usize::from(hit);
        hit
    }

    /// Consumes `c`, or fails with `what`.
    fn require(&mut self, c: u8, what: &str) -> Result<(), String> {
        self.eat(c).then_some(()).ok_or_else(|| self.err(what))
    }

    /// Consumes a non-empty run of ASCII digits, or fails with `what`.
    fn digits(&mut self, what: &str) -> Result<(), String> {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        (self.i > start).then_some(()).ok_or_else(|| self.err(what))
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// The comma-separated members of an array or object, from its opening
    /// bracket through `close`; `member` parses one member.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.i += 1; // consume the opening bracket
        self.ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            member(self)?;
            self.ws();
            if self.eat(close) {
                return Ok(());
            }
            self.require(b',', "expected ',' or a closing bracket")?;
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        let mut out = Vec::new();
        self.members(b']', |p| {
            let v = p.value(depth + 1)?;
            if p.keep {
                out.push(v);
            }
            Ok(())
        })?;
        Ok(Value::Arr(out))
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        let mut out = BTreeMap::new();
        self.members(b'}', |p| {
            p.ws();
            let key = p.string()?;
            p.ws();
            p.require(b':', "expected ':'")?;
            let v = p.value(depth + 1)?;
            if p.keep {
                out.insert(key, v);
            }
            Ok(())
        })?;
        Ok(Value::Obj(out))
    }

    fn string(&mut self) -> Result<String, String> {
        self.require(b'"', "expected a string")?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote, escape or
            // control byte. Both ends sit next to ASCII bytes of a `&str`,
            // so the run is valid UTF-8.
            let start = self.i;
            while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                self.i += 1;
            }
            let run = std::str::from_utf8(&self.b[start..self.i]);
            let run = run.map_err(|_| self.err("invalid UTF-8"))?;
            if self.keep {
                out.push_str(run);
            }
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let c = match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/')) => char::from(c),
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let code = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.i += 4;
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    if self.keep {
                        out.push(c);
                    }
                    self.i += 1;
                }
                Some(_) => return Err(self.err("raw control char in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        self.eat(b'-');
        self.digits("expected digits")?;
        if self.eat(b'.') {
            self.digits("expected fraction digits")?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits("expected exponent digits")?;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn accepts_wellformed_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-1.5e-3",
            r#"{"a":[1,2,{"b":"c\n"}],"d":null}"#,
            r#"  { "x" : 0.25 }  "#,
        ] {
            assert!(validate_json(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "\"unterminated",
            "01x",
            "1.",
            "nul",
            "{} {}",
            "{'a':1}",
        ] {
            assert!(validate_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parses_scalars_arrays_objects() {
        assert_eq!(parse("null"), Ok(Value::Null));
        assert_eq!(parse("true"), Ok(Value::Bool(true)));
        assert_eq!(parse(" -2.5e1 "), Ok(Value::Num(-25.0)));
        assert_eq!(parse("\"a\\nb\""), Ok(Value::Str("a\nb".to_owned())));
        let v = parse("{\"k\":[1,2,{\"x\":\"y\"}]}").unwrap_or(Value::Null);
        let arr = v.get("k").and_then(Value::as_array).unwrap_or(&[]);
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("x").and_then(Value::as_str), Some("y"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "1 2", "\"open", "nul", "{a:1}"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn strict_grammar_rejects_loose_numbers_and_raw_controls() {
        for bad in [
            "1.",
            "1e",
            "1e+",
            "-",
            "2.e3",
            "\"tab\there\"",
            "\"nl\n\"",
            "\"\\u+fff\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn depth_cap_rejects_bombs() {
        let bomb = "[".repeat(400) + &"]".repeat(400);
        assert!(parse(&bomb).is_err());
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse("\"\\u00e9\\u2713\""), Ok(Value::Str("é✓".to_owned())));
        assert_eq!(parse("\"µs\""), Ok(Value::Str("µs".to_owned())));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // The reader is exposed to artifacts on disk, which a crashed
            // writer can truncate or interleave arbitrarily: any byte
            // input must come back as `Err`, never a panic or a stack
            // overflow (the depth cap guards the recursive descent).
            #[test]
            fn arbitrary_strings_never_panic(s in ".{0,256}") {
                let _ = parse(&s);
            }

            #[test]
            fn arbitrary_bytes_never_panic(b in proptest::collection::vec(any::<u8>(), 0..512)) {
                let s = String::from_utf8_lossy(&b);
                let _ = parse(&s);
            }

            #[test]
            fn structural_soup_never_panics(s in "[\\[\\]{}\",:0-9eE.+-]{0,600}") {
                // Heavy on JSON structure bytes so deep nesting and dangling
                // delimiters actually get exercised, not just rejected at
                // the first byte.
                let _ = parse(&s);
            }

            #[test]
            fn validation_agrees_with_parse(b in proptest::collection::vec(any::<u8>(), 0..300)) {
                // Bytes mapped onto JSON's structural alphabet, so most
                // inputs get past the first byte. The tree-less validator
                // walks the same grammar: same verdict, same error.
                let alphabet = b"[]{}\",:0123456789eE.+-\\ntu ";
                let s: String = b
                    .iter()
                    .map(|&x| char::from(alphabet[x as usize % alphabet.len()]))
                    .collect();
                prop_assert_eq!(validate_json(&s), parse(&s).map(drop));
            }

            #[test]
            fn valid_scalars_always_parse(n in -1e9f64..1e9) {
                let v = parse(&format!("{n}"));
                prop_assert!(v.is_ok(), "{n} must parse: {v:?}");
            }
        }
    }

    #[test]
    fn roundtrips_a_telemetry_jsonl_line() {
        let line = "{\"type\":\"span\",\"name\":\"core.round\",\"id\":7,\"parent\":0,\"tid\":3,\"ts_us\":12,\"dur_us\":900,\"fields\":{\"round\":2,\"degraded\":true}}";
        let v = parse(line).unwrap_or(Value::Null);
        assert_eq!(v.get("name").and_then(Value::as_str), Some("core.round"));
        assert_eq!(v.get("dur_us").and_then(Value::as_u64), Some(900));
        let fields = v.get("fields").cloned().unwrap_or(Value::Null);
        assert_eq!(fields.get("round").and_then(Value::as_u64), Some(2));
        assert_eq!(fields.get("degraded"), Some(&Value::Bool(true)));
    }
}
