//! The workspace's one JSON value, writer and parser.
//!
//! Repros, `loadgen` reports and `hyperq run --json` summaries are
//! written with [`Json::pretty`]: containers at depth 0 and 1 put one
//! entry per line (two-space indent), deeper ones stay inline with
//! `", "` and `": "`, and the document ends with a newline. Chrome
//! traces use [`Json::compact`]: `,` and `:`, no whitespace. A
//! non-finite float is written as `null`. Strings escape `\`, `"` and
//! every control character; [`parse_json`] reads back every escape the
//! writer emits and is total: malformed input is an `Err`, never a
//! panic.

/// A JSON value. Objects keep their insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer.
    Num(u64),
    /// Float, written shortest round-trip (`{}`). The parser yields it
    /// for any number that is not an unsigned integer.
    F64(f64),
    /// Float written with a fixed number of decimals (`{:.N}`); never
    /// produced by the parser.
    Fixed(f64, usize),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (insertion-ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

macro_rules! json_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::$variant(v.into())
            }
        }
    )*};
}
json_from!(
    u16 => Num, u32 => Num, u64 => Num, bool => Bool,
    f64 => F64, &str => Str, String => Str
);

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Layout {
    Pretty,
    Compact,
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The pretty layout (see the module docs), newline-terminated.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, Layout::Pretty);
        out.push('\n');
        out
    }

    /// The compact layout: no whitespace, no trailing newline.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, Layout::Compact);
        out
    }

    fn write(&self, out: &mut String, depth: usize, layout: Layout) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::F64(x) if x.is_finite() => out.push_str(&x.to_string()),
            Json::Fixed(x, decimals) if x.is_finite() => out.push_str(&format!("{x:.decimals$}")),
            Json::F64(_) | Json::Fixed(..) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(
                out,
                ['[', ']'],
                items.iter().map(|v| (None, v)),
                depth,
                layout,
            ),
            Json::Obj(fields) => write_seq(
                out,
                ['{', '}'],
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
                depth,
                layout,
            ),
        }
    }

    /// Object field lookup.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required unsigned integer field.
    pub fn num(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            Some(Json::Num(n)) => Ok(*n),
            _ => Err(format!("missing or non-numeric field '{key}'")),
        }
    }

    /// Required unsigned integer field that must fit `T`: an
    /// out-of-range value is an error, never a silent truncation.
    pub fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let v = self.num(key)?;
        T::try_from(v).map_err(|_| format!("field '{key}' out of range: {v}"))
    }

    /// This value as a float: an integer or a float (`null` is not).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n as f64),
            Json::F64(x) | Json::Fixed(x, _) => Some(*x),
            _ => None,
        }
    }

    /// Required boolean field.
    pub fn boolean(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("missing or non-boolean field '{key}'")),
        }
    }

    /// Required array field.
    pub fn arr<'a>(&'a self, key: &str) -> Result<&'a [Json], String> {
        match self.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(format!("missing or non-array field '{key}'")),
        }
    }

    /// Required string field.
    pub fn str_field<'a>(&'a self, key: &str) -> Result<&'a str, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            _ => Err(format!("missing or non-string field '{key}'")),
        }
    }
}

/// An array or object: one entry per line at pretty depth 0–1, inline
/// otherwise.
fn write_seq<'a>(
    out: &mut String,
    [open, close]: [char; 2],
    entries: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    depth: usize,
    layout: Layout,
) {
    let lines = layout == Layout::Pretty && depth < 2;
    let (sep, colon) = match layout {
        Layout::Pretty if lines => (",", ": "),
        Layout::Pretty => (", ", ": "),
        Layout::Compact => (",", ":"),
    };
    let newline = |out: &mut String, indent: usize| {
        if lines {
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
        }
    };
    out.push(open);
    for (i, (key, value)) in entries.enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        newline(out, depth + 1);
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(colon);
        }
        value.write(out, depth + 1, layout);
    }
    newline(out, depth);
    out.push(close);
}

/// A JSON string literal: `\`, `"` and control characters escaped.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a JSON document into a [`Json`] value. The whole input must be
/// one value plus optional trailing whitespace. Errors are structured
/// strings ("expected '}' at byte 7"), never panics — truncating the
/// input at any byte yields `Err`.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value()?;
    match p.peek() {
        None => Ok(v),
        Some(c) => Err(format!("trailing '{}' at byte {}", c as char, p.pos)),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn peek(&mut self) -> Option<u8> {
        while self.byte().is_some_and(|c| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
        self.byte()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self
                .seq(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            Some(b'[') => self.seq(b']', Parser::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.text[self.pos..].starts_with(word) {
                        self.pos += word.len();
                        return Ok(v);
                    }
                }
                Err(format!("unexpected token at byte {}", self.pos))
            }
        }
    }

    /// The entries of an array or object, after its opening bracket.
    fn seq<T>(
        &mut self,
        close: u8,
        mut entry: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(entry(self)?);
            if self.peek() != Some(b',') {
                self.expect(close)?;
                return Ok(items);
            }
            self.pos += 1;
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole: both
            // are ASCII, so the run ends on a char boundary.
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let esc = self.byte().ok_or("unterminated escape")?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    // Only `\u0000`–`\uffff` outside the surrogates: the
                    // writer escapes nothing but control characters.
                    let hex = self.text.get(self.pos..self.pos + 4).unwrap_or("");
                    self.pos += 4;
                    u32::from_str_radix(hex, 16)
                        .ok()
                        .filter(|_| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(char::from_u32)
                        .ok_or_else(|| format!("bad escape '\\u{hex}'"))?
                }
                other => return Err(format!("unsupported escape '\\{}'", other as char)),
            });
        }
    }

    /// An unsigned integer as [`Json::Num`]; any other number (sign,
    /// fraction, exponent, or too big for `u64`) as [`Json::F64`].
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .byte()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Num(n));
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_puts_depth_0_and_1_entries_on_lines() {
        let doc = Json::obj([
            ("n", 1u64.into()),
            ("empty", Json::Arr(vec![])),
            (
                "rows",
                Json::Arr(vec![Json::obj([
                    ("k", Json::Arr(vec![1u64.into(), 2u64.into()])),
                    ("s", "x".into()),
                ])]),
            ),
        ]);
        assert_eq!(
            doc.pretty(),
            "{\n  \"n\": 1,\n  \"empty\": [\n  ],\n  \"rows\": [\n    {\"k\": [1, 2], \"s\": \"x\"}\n  ]\n}\n"
        );
        assert_eq!(
            doc.compact(),
            "{\"n\":1,\"empty\":[],\"rows\":[{\"k\":[1,2],\"s\":\"x\"}]}"
        );
    }

    #[test]
    fn numbers_write_and_parse() {
        let doc = Json::Arr(vec![
            Json::F64(2.5),
            Json::F64(1.0),
            Json::Fixed(2.0 / 3.0, 3),
            Json::F64(f64::NAN),
            Json::Fixed(f64::INFINITY, 2),
            Json::Null,
        ]);
        assert_eq!(doc.compact(), "[2.5,1,0.667,null,null,null]");
        let back = parse_json("[1.5, -3, 18446744073709551616, 7, 2e3]").unwrap();
        assert_eq!(
            back,
            Json::Arr(vec![
                Json::F64(1.5),
                Json::F64(-3.0),
                Json::F64(18446744073709551616.0),
                Json::Num(7),
                Json::F64(2000.0),
            ])
        );
    }

    #[test]
    fn strings_escape_and_decode() {
        let s = "é \"q\" \\ \n\t\r\u{1}\u{7f} 𝄞";
        let text = Json::Str(s.into()).compact();
        assert_eq!(text, "\"é \\\"q\\\" \\\\ \\n\\t\\r\\u0001\u{7f} 𝄞\"");
        assert_eq!(parse_json(&text), Ok(Json::Str(s.into())));
        assert_eq!(
            parse_json("\"\\u00e9\\/\\b\\f\""),
            Ok(Json::Str("é/\u{8}\u{c}".into()))
        );
        for bad in ["\"\\ud834\"", "\"\\u12\"", "\"\\u+12a\"", "\"\\x\""] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_parses_and_rejects() {
        let v = parse_json("{\"a\": 1, \"b\": [true, \"x\", null], \"c\": {\"d\": 2}}").unwrap();
        assert_eq!(v.num("a"), Ok(1));
        assert_eq!(v.arr("b").unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().num("d"), Ok(2));
        for bad in ["", "{\"a\": }", "[1, 2", "[1] x", "nul", "{1: 2}"] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_prefix_is_a_clean_error() {
        let doc = "{\"k\": [1, {\"s\": \"a\\\"b\\u00e9é\", \"t\": true}], \"n\": -4.5e1}";
        for cut in 0..doc.len() {
            if doc.is_char_boundary(cut) {
                assert!(parse_json(&doc[..cut]).is_err(), "prefix {cut} parsed");
            }
        }
        assert!(parse_json(doc).is_ok());
    }
}
