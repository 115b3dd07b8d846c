//! The workspace's one JSON codec: a value, a parser and a string
//! escaper, shared by the campaign journal, the corpus store and fsck,
//! the daemon's `spec.json`/`status.json`, the telemetry validators and
//! `jtelemetry-trace`.
//!
//! The workspace has no serde dependency, so this is a small hand-rolled
//! reader for the JSON its writers emit: objects, arrays, strings, bools,
//! null, and numbers. Numbers keep their source text, so reading one is
//! exact: [`Json::as_u64`] parses the digits themselves (a seed such as
//! 2^53 + 1 never passes through `f64`), and [`Json::as_f64`] reads back
//! the `{:?}` spelling writers use for floats bit for bit, including the
//! non-finite `inf`, `-inf` and `NaN` a degenerate value prints as.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number's source text; the parser checked that it reads as `f64`.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The JSON type's name, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.get(key)
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// An integer written as plain digits. `1.0`, `1e3`, `-1` and
    /// anything above `u64::MAX` are `None`: an integer field never
    /// reads through `f64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) if raw.bytes().all(|b| b.is_ascii_digit()) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Any number, non-finite spellings included; callers that need a
    /// finite value check for it.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Parses one complete JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing bytes after the value"));
    }
    Ok(value)
}

/// Appends `s` to `out` as a quoted JSON string: the one escaper every
/// writer in the workspace uses.
pub fn push_quoted(out: &mut String, s: &str) {
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

/// `s` as a quoted JSON string (see [`push_quoted`]).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("json parse error at byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
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
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            // `N` and `i` start the `NaN` and `inf` that `{:?}` prints.
            Some(b'-' | b'0'..=b'9' | b'N' | b'i') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E' | b'N' | b'a' | b'i' | b'n' | b'f')
        ) {
            self.pos += 1;
        }
        let raw = &self.text[start..self.pos];
        // Every number must at least read as f64, so corruption surfaces
        // here rather than in whichever accessor reads it later.
        if raw.parse::<f64>().is_err() {
            return Err(self.err(&format!("bad number '{raw}'")));
        }
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // `from_str_radix` alone would take a sign.
                            let code = u32::from_str_radix(hex, 16)
                                .ok()
                                .filter(|_| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or_else(|| self.err(&format!("bad \\u escape '{hex}'")))?;
                            self.pos += 4;
                            // Writers only escape control characters, so a
                            // surrogate (half of a pair) is corruption.
                            char::from_u32(code)
                                .ok_or_else(|| self.err(&format!("invalid code point {code:#x}")))?
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one go.
                    let rest = &self.text[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
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
            let value = self.value()?;
            map.insert(key, value);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_and_parse_back() {
        // (text, its escaped form) for everything the escaper rewrites.
        for (text, escaped) in [
            ("plain", "\"plain\""),
            ("", "\"\""),
            ("a\"b\\c\nd", "\"a\\\"b\\\\c\\nd\""),
            (
                "with \"quotes\" and \\backslashes\\",
                "\"with \\\"quotes\\\" and \\\\backslashes\\\\\"",
            ),
            ("tab\tand\rreturn", "\"tab\\tand\\rreturn\""),
            ("control \u{1} char", "\"control \\u0001 char\""),
            ("bs \u{8} ff \u{c}", "\"bs \\u0008 ff \\u000c\""),
            ("unicode \u{fffd} é 日本", "\"unicode \u{fffd} é 日本\""),
        ] {
            assert_eq!(quote(text), escaped, "{text:?}");
            assert_eq!(parse(escaped).unwrap().as_str(), Some(text), "{text:?}");
        }
        // Escapes the writer never emits still read back.
        assert_eq!(
            parse(r#""\b\f\/\u0001\u00e9""#).unwrap().as_str(),
            Some("\u{8}\u{c}/\u{1}é")
        );
        for bad in [
            r#""\ud800""#,
            r#""\u12""#,
            r#""\uzzzz""#,
            r#""\u+123""#,
            r#""\q""#,
            "\"open",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn integers_read_exactly_and_only_as_integers() {
        for n in [0, (1u64 << 53) + 1, u64::MAX] {
            assert_eq!(parse(&n.to_string()).unwrap().as_u64(), Some(n));
        }
        for not_u64 in ["1.0", "1e3", "-1", "1e300", "18446744073709551616", "1.5"] {
            let v = parse(not_u64).unwrap();
            assert_eq!(v.as_u64(), None, "{not_u64}");
            assert!(v.as_f64().is_some(), "{not_u64}");
        }
        assert_eq!(parse("\"7\"").unwrap().as_u64(), None);
    }

    #[test]
    fn floats_read_back_bit_exact_including_non_finite() {
        for x in [0.1, -2.5e-300, 13.625, f64::INFINITY, f64::NEG_INFINITY] {
            let v = parse(&format!("{x:?}")).unwrap();
            assert_eq!(v.as_f64().map(f64::to_bits), Some(x.to_bits()), "{x:?}");
        }
        assert!(parse("NaN").unwrap().as_f64().unwrap().is_nan());
        assert_eq!(parse("inf").unwrap().as_u64(), None);
        assert!(parse("nan").is_err(), "only `{{:?}}`'s spelling");
        assert!(parse("1.2.3").is_err());
    }

    #[test]
    fn documents_parse_and_garbage_is_rejected() {
        let v = parse(r#" {"a":[1,2.5,-3],"b":"x\"y","c":true,"d":null,"e":{}} "#).unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\"y"));
        assert_eq!(v.get("c").and_then(Json::as_bool), Some(true));
        assert!(v.get("d").is_some_and(Json::is_null));
        assert_eq!(
            v.get("e").and_then(Json::as_obj).map(BTreeMap::len),
            Some(0)
        );
        assert_eq!(v.get("missing"), None);
        for bad in ["", "{", "[1,]", "{}extra", "tru", "{\"a\" 1}", "+1", ".5"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
