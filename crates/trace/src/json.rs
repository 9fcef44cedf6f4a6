//! The workspace's one JSON implementation: a small value model, a
//! recursive-descent parser that follows the JSON grammar (RFC 8259),
//! and a compact writer.
//!
//! Every JSON reader and writer in the workspace goes through here:
//! [`crate::chrome::validate`] walks a parsed [`Json`] tree,
//! [`crate::chrome::ChromeWriter`] escapes strings with [`write_str`],
//! `lbmf-bench` renders its JSONL rows as [`Json`] values, and
//! `lbmf-obs` reads and writes `BENCH_<n>.json`, `lbmf-pmu/1`,
//! `lbmf-doctor/1` and `lbmf-calib/1` documents with it. No registry
//! dependencies, by the repo's offline rule.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Objects keep a sorted map — every document the
/// workspace writes is machine-written and key order carries no meaning.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as f64; BENCH files stay well inside the
    /// 2^53 exact-integer range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number value as u64, if this is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Serialize back to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Integers print exactly, other finite values in shortest round-trip
/// form; NaN and infinities have no JSON spelling and print as `null`.
fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Append `s` to `out` as a quoted JSON string: `"` and `\` are
/// backslash-escaped and every control character is escaped, so the
/// result never spans lines.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Arrays and objects nested deeper than this are rejected, so a hostile
/// document fails with an error instead of overflowing the stack.
const MAX_DEPTH: usize = 256;

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        s: text.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Parse JSONL: one JSON value per non-empty line (the
/// `LBMF_BENCH_JSON` collection format).
pub fn parse_lines(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .enumerate()
        .map(|(i, l)| parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Convenience constructor for object literals in writer code.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

struct Parser<'a> {
    text: &'a str,
    s: &'a [u8],
    i: usize,
    /// Open arrays and objects around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.i)
    }

    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(self.err("nested too deeply")),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|_| Json::Bool(false)),
            Some(b'n') => self.literal("null").map(|_| Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// Skip a run of ASCII digits; returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.i;
        while self.s.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        self.i - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` — no
    /// leading `+`, no leading zeros, digits on both sides of the point.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.s.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        match self.s.get(self.i) {
            Some(b'0') => self.i += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("expected number")),
        }
        if self.s.get(self.i) == Some(&b'.') {
            self.i += 1;
            if self.digits() == 0 {
                return Err(self.err("expected digit after '.'"));
            }
        }
        if matches!(self.s.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.s.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        self.text[start..self.i]
            .parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("number out of range"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        // Unescaped runs are copied as slices of the (already valid
        // UTF-8) input; they start and end at ASCII bytes.
        let mut run = self.i;
        loop {
            match self.s.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.i]);
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.i]);
                    self.i += 1;
                    let c = self.escape()?;
                    out.push(c);
                    run = self.i;
                }
                Some(0..=0x1f) => return Err(self.err("raw control character in string")),
                Some(_) => self.i += 1,
            }
        }
    }

    /// Decode the escape after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        let Some(&e) = self.s.get(self.i) else {
            return Err(self.err("dangling escape"));
        };
        self.i += 1;
        Ok(match e {
            b'"' | b'\\' | b'/' => e as char,
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let code = self
                    .text
                    .get(self.i..self.i + 4)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .ok_or_else(|| self.err("bad \\u escape"))?;
                self.i += 4;
                // Surrogates degrade to the replacement char; every
                // document the workspace writes is BMP text.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(self.err("bad escape")),
        })
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.eat(b':')?;
            let v = self.value()?;
            map.insert(k, v);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
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
    fn roundtrips_scalars_and_nesting() {
        let text = r#"{"a":1,"b":-2.5,"c":"x\"y\n","d":[true,false,null],"e":{"f":[]}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(-2.5));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\"y\n"));
        assert_eq!(v.get("d").unwrap().as_arr().unwrap().len(), 3);
        // render → parse is a fixpoint.
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "1 2", "{\"a\":1}x", "nul", "\"\\q\"",
            // Numbers outside the JSON grammar.
            "+1", "01", ".5", "1.", "1.2.3", "1-2",
            // Short or non-hex \u escapes, raw control characters.
            "\"\\uzzzz\"", "\"\\u12\"", "\"\\u+fff\"", "\"a\nb\"", "\"\t\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // Deep nesting is an error, not a stack overflow.
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        assert!(parse(&deep).unwrap_err().contains("nested too deeply"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn accepts_the_json_number_grammar() {
        for (text, want) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("10", 10.0),
            ("-2.5", -2.5),
            ("0.125", 0.125),
            ("1e3", 1000.0),
            ("1E+2", 100.0),
            ("25e-1", 2.5),
        ] {
            assert_eq!(parse(text).unwrap().as_f64(), Some(want), "{text}");
        }
    }

    #[test]
    fn parses_bench_jsonl() {
        let text = "\n{\"name\":\"a\",\"mean_ns\":1.5}\n\n{\"name\":\"b\",\"mean_ns\":2}\n";
        let rows = parse_lines(text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("name").unwrap().as_str(), Some("b"));
        assert!(parse_lines("{\"a\":1}\nnot json").is_err());
    }

    #[test]
    fn number_writer_keeps_integers_exact() {
        assert_eq!(Json::Num(31536000.0).render(), "31536000");
        assert_eq!(Json::Num(0.125).render(), "0.125");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let v = parse(r#""caf\u00e9 ☕""#).unwrap();
        assert_eq!(v.as_str(), Some("café ☕"));
        let round = parse(&v.render()).unwrap();
        assert_eq!(round, v);
        // Every control character the writer emits stays on one line
        // and reads back unchanged.
        let ctl = Json::Str("a\nb\r\t\u{1}\u{8}\"\\".into());
        let text = ctl.render();
        assert!(!text.contains('\n') && !text.contains('\u{1}'), "{text}");
        assert_eq!(parse(&text).unwrap(), ctl);
    }
}
