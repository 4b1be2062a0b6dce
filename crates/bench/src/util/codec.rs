//! Line-format codec helpers: the content hash, token escaping and the
//! tag-checked line cursor.
//!
//! The scenario cache, the service journal and the wire protocol are
//! line formats, not JSON: their bytes are pinned by wire compatibility
//! with deployed peers and by golden digests, so they keep their own
//! small encoding. The building blocks live here once and are shared
//! by:
//!
//! * the scenario-cache entries ([`crate::scenario`]) — percent
//!   escaping + the tag-checked line [`Cursor`],
//! * the service write-ahead journal and wire protocol
//!   ([`crate::service`]) — escaping, the line [`Cursor`] and [`fnv1a`]
//!   line checksums.
//!
//! JSON documents are written and parsed by [`hq_des::json`].
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
    fn fnv1a_is_stable() {
        // Pinned: journal checksums and scenario keys must never drift.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
