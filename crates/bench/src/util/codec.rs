//! Shared hand-rolled codec helpers.
//!
//! The vendored `serde_json` shim cannot round-trip nested structures,
//! so every persistent artifact in this crate is written with a small
//! hand-rolled encoding. Before this module existed the same three
//! building blocks were re-implemented in each call site; they now live
//! here once and are shared by:
//!
//! * the scenario-cache entries ([`crate::scenario`]) — percent
//!   escaping + the tag-checked line [`Cursor`],
//! * the soak repro files ([`crate::soak`]) — the minimal [`Json`]
//!   value and [`parse_json`] parser plus [`esc_json`],
//! * the perf baseline (`perf_baseline` binary) — the flat
//!   [`json_f64`] field extractor,
//! * the service write-ahead journal ([`crate::service`]) — escaping,
//!   the line [`Cursor`] and [`fnv1a`] line checksums.
//!
//! Everything here is total: malformed input decodes to `None`/`Err`,
//! never a panic, because every consumer treats a failed decode as
//! "entry absent" (cache miss, torn journal tail, unusable repro).

/// 64-bit FNV-1a over raw bytes — the crate's standard content hash
/// (scenario keys, journal line checksums).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Escape a string onto one whitespace-free token (`%`, space, tab, CR
/// and LF are percent-encoded). Inverse of [`unesc`].
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\r' => out.push_str("%0D"),
            '\n' => out.push_str("%0A"),
            _ => out.push(c),
        }
    }
    out
}

/// Undo [`esc`]. `None` on a malformed escape sequence.
pub fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hi = chars.next()?;
        let lo = chars.next()?;
        let byte = (hi.to_digit(16)? * 16 + lo.to_digit(16)?) as u8;
        out.push(byte as char);
    }
    Some(out)
}

/// Line cursor with tag-checked field parsing; every accessor returns
/// `Option` so a malformed (truncated, stale, corrupt) document decodes
/// to `None` — i.e. "entry absent" — never a panic or a wrong result.
pub struct Cursor<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> Cursor<'a> {
    /// Cursor over the lines of `text`.
    pub fn new(text: &'a str) -> Self {
        Cursor { lines: text.lines() }
    }

    /// Next raw line, if any.
    pub fn line(&mut self) -> Option<&'a str> {
        self.lines.next()
    }

    /// Next line, which must start with `tag`; returns the remaining
    /// whitespace-separated tokens.
    pub fn tagged(&mut self, tag: &str) -> Option<Vec<&'a str>> {
        let line = self.line()?;
        let mut toks = line.split(' ');
        if toks.next()? != tag {
            return None;
        }
        Some(toks.collect())
    }

    /// A `tag N` line holding exactly one integer.
    pub fn tagged_u64(&mut self, tag: &str) -> Option<u64> {
        let toks = self.tagged(tag)?;
        if toks.len() != 1 {
            return None;
        }
        toks[0].parse().ok()
    }
}

// ---------------------------------------------------------------------
// Minimal JSON (writer escape + value + parser), shared by the chaos
// repro format and any other hand-rolled JSON artifact.
// ---------------------------------------------------------------------

/// Escape a string for embedding inside a hand-rolled JSON string
/// literal (backslash and double quote).
pub fn esc_json(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Minimal JSON value: unsigned integers, booleans, strings, arrays and
/// objects — exactly the subset the hand-rolled writers emit.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// Unsigned integer.
    Num(u64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (insertion-ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required numeric field.
    pub fn num(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            Some(Json::Num(n)) => Ok(*n),
            _ => Err(format!("missing or non-numeric field '{key}'")),
        }
    }

    /// Required numeric field that must fit `T`: an out-of-range value
    /// is an error, never a silent truncation.
    pub fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let v = self.num(key)?;
        T::try_from(v).map_err(|_| format!("field '{key}' out of range: {v}"))
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

/// Parse a JSON document into a [`Json`] value. The whole input must be
/// one value plus optional trailing whitespace. Errors are structured
/// strings ("expected ',' or '}' ..."), never panics — truncating the
/// input at any byte yields `Err`, not undefined behaviour.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    if let Some(c) = p.peek() {
        return Err(format!(
            "trailing garbage '{}' at byte {} after JSON value",
            c as char, p.pos
        ));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {} of JSON input",
                c as char, self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') | Some(b'f') => self.boolean(),
            Some(c) if c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected token {other:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        while let Some(&c) = self.bytes.get(self.pos) {
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or("unterminated escape")?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'n' => '\n',
                        other => return Err(format!("unsupported escape '\\{}'", other as char)),
                    });
                }
                other => out.push(other as char),
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit())
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<u64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }

    fn boolean(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let rest = &self.bytes[self.pos..];
        if rest.starts_with(b"true") {
            self.pos += 4;
            Ok(Json::Bool(true))
        } else if rest.starts_with(b"false") {
            self.pos += 5;
            Ok(Json::Bool(false))
        } else {
            Err(format!("expected boolean at byte {}", self.pos))
        }
    }
}

/// Extract `"key": <number>` from a flat JSON text (keys must be unique
/// across the whole document). The perf-baseline check reads its saved
/// measurement files with this instead of a full parse.
pub fn json_f64(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips() {
        for s in ["", "plain", "with space", "a%b", "tab\tnl\ncr\r end", "100% done"] {
            let e = esc(s);
            assert!(!e.contains(' ') && !e.contains('\n'), "not a token: {e:?}");
            assert_eq!(unesc(&e).as_deref(), Some(s));
        }
    }

    #[test]
    fn unesc_rejects_malformed() {
        assert!(unesc("%").is_none());
        assert!(unesc("%2").is_none());
        assert!(unesc("%zz").is_none());
    }

    #[test]
    fn cursor_tags_and_numbers() {
        let mut c = Cursor::new("head v1\ncount 3\npair a b\n");
        assert_eq!(c.tagged("head"), Some(vec!["v1"]));
        assert_eq!(c.tagged_u64("count"), Some(3));
        assert_eq!(c.tagged("pair"), Some(vec!["a", "b"]));
        assert!(c.line().is_none());
        let mut c = Cursor::new("wrong 1\n");
        assert!(c.tagged_u64("count").is_none());
    }

    #[test]
    fn json_parses_and_rejects() {
        let v = parse_json("{\"a\": 1, \"b\": [true, \"x\"], \"c\": {\"d\": 2}}").unwrap();
        assert_eq!(v.num("a"), Ok(1));
        assert_eq!(v.arr("b").unwrap().len(), 2);
        assert_eq!(v.get("c").unwrap().num("d"), Ok(2));
        assert!(parse_json("").is_err());
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
    }

    #[test]
    fn json_every_prefix_is_a_clean_error() {
        let doc = "{\"k\": [1, {\"s\": \"a\\\"b\", \"t\": true}], \"n\": 42}";
        for cut in 0..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            // Must return (Ok for the full doc, Err for prefixes), never panic.
            let _ = parse_json(&doc[..cut]);
        }
        assert!(parse_json(doc).is_ok());
    }

    #[test]
    fn json_f64_extracts_flat_fields() {
        let text = "{\n  \"a\": 12.5,\n  \"nested\": { \"b\": -3 }\n}";
        assert_eq!(json_f64(text, "a"), Some(12.5));
        assert_eq!(json_f64(text, "b"), Some(-3.0));
        assert_eq!(json_f64(text, "missing"), None);
    }

    #[test]
    fn fnv1a_is_stable() {
        // Pinned: journal checksums and scenario keys must never drift.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
