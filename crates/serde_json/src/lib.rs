//! Offline stand-in for the `serde_json` crate: renders the serde shim's
//! [`Value`] data model as JSON text and parses JSON text back into it.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize, Value};
use std::fmt::Write as _;

pub use serde::Error;

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serialize `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Deserialize a `T` from JSON text.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse(text)?;
    T::from_value(&value)
}

fn render(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    let pad = |out: &mut String, d: usize| {
        if let Some(n) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(n * d));
        }
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => render_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, depth + 1);
                render(item, out, indent, depth + 1);
            }
            pad(out, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, depth + 1);
                render_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(val, out, indent, depth + 1);
            }
            pad(out, depth);
            out.push('}');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
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

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so without a bound a long enough line of `[` overflows the
/// stack; the deepest document this workspace writes, the npar-serve spill,
/// nests at most 10 levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Parse JSON text into a [`Value`] in one pass, linear in the length of
/// `text`. Arrays and objects nested more than 128 levels deep are an error.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error("unexpected end of JSON".into()))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => self.nested(Self::array),
            b'{' => self.nested(Self::object),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(Error(format!(
                "unexpected character '{}' at byte {}",
                c as char, self.pos
            ))),
        }
    }

    /// Parse one array or object one level deeper, failing past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.peek()?;
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Take everything up to the next `"` or `\` as one run. A run
            // ends at an ASCII byte, which is always a char boundary, so it is
            // validated once and appended whole: the scan stays linear in the
            // string's length.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error("unterminated string".into()))?;
            self.pos += run;
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("invalid UTF-8 in string".into()))?,
            );
            let b = self.bytes[self.pos];
            self.pos += 1;
            if b == b'"' {
                return Ok(s);
            }
            let esc = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error("unterminated escape".into()))?;
            self.pos += 1;
            match esc {
                b'"' => s.push('"'),
                b'\\' => s.push('\\'),
                b'/' => s.push('/'),
                b'n' => s.push('\n'),
                b'r' => s.push('\r'),
                b't' => s.push('\t'),
                b'b' => s.push('\u{8}'),
                b'f' => s.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| Error("truncated \\u escape".into()))?;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|_| Error("bad \\u escape".into()))?,
                        16,
                    )
                    .map_err(|_| Error("bad \\u escape".into()))?;
                    self.pos += 4;
                    s.push(
                        char::from_u32(code)
                            .ok_or_else(|| Error("invalid \\u code point".into()))?,
                    );
                }
                other => return Err(Error(format!("unknown escape '\\{}'", other as char))),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_value() {
        let v = Value::Object(vec![
            ("a".into(), Value::Int(-3)),
            ("b".into(), Value::Float(1.5)),
            (
                "c".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("d".into(), Value::Str("x \"y\"\n".into())),
            ("e".into(), Value::UInt(u64::MAX)),
        ]);
        let text = {
            let mut s = String::new();
            render(&v, &mut s, None, 0);
            s
        };
        assert_eq!(parse(&text).unwrap(), v);

        // Multibyte scalars directly against every kind of escape, so each
        // run boundary falls next to a 2-, 3- or 4-byte UTF-8 sequence.
        for s in [
            "é\"∑\\😀\né",
            "\"é\\∑\n😀\u{e9}",
            "😀\u{1}∑\u{1f}é",
            "∑\t\r/",
        ] {
            let mut text = String::new();
            render_string(s, &mut text);
            assert_eq!(parse(&text).unwrap(), Value::Str(s.into()), "{text}");
        }
        assert_eq!(
            parse(r#""é\"∑\\😀\n\u00e9é∑\u00e9😀""#).unwrap(),
            Value::Str("é\"∑\\😀\néé∑é😀".into())
        );
        let long: String = "ab∑😀\"".chars().cycle().take(64 * 1024).collect();
        let mut text = String::new();
        render_string(&long, &mut text);
        assert_eq!(parse(&text).unwrap(), Value::Str(long));
        // Unterminated mid-run, mid-escape and right after an escape.
        for bad in [r#""abc∑"#, r#"["é😀"#, r#""a\"#, r#""a\u00"#, r#""a\n"#] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        // Far past the bound fails without touching the stack limit.
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn pretty_parses_back() {
        let v = Value::Array(vec![
            Value::Object(vec![("k".into(), Value::Int(1))]),
            Value::Array(vec![]),
        ]);
        let mut s = String::new();
        render(&v, &mut s, Some(2), 0);
        assert!(s.contains('\n'));
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn whole_float_keeps_decimal_point() {
        let mut s = String::new();
        render(&Value::Float(2.0), &mut s, None, 0);
        assert_eq!(s, "2.0");
    }

    #[test]
    fn typed_roundtrip() {
        let xs = vec![1u32, 2, 3];
        let text = to_string(&xs).unwrap();
        assert_eq!(text, "[1,2,3]");
        let back: Vec<u32> = from_str(&text).unwrap();
        assert_eq!(back, xs);
    }
}
