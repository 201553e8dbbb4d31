//! A small JSON value with a writer and a reader — no serde is vendored in
//! this workspace. Objects keep insertion order so result files diff well.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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

    pub fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// One-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering, for files people read.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN or infinity; a metric that could not be
            // computed reads as null, never as a made-up number
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                // arrays of scalars stay on one line even when indenting
                let flat = items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if flat && indent.is_some() { ", " } else { "," });
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    item.write(out, indent, depth + 1);
                }
                if !flat && !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
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

/// Parse one JSON document; the error names the byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

/// Deeper nesting than any result file has; bounds the reader's recursion
/// on a file that is not one.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end")),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(self.err("expected `,` or `]`"));
                    }
                    items.push(self.value(depth + 1)?);
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(pairs));
                    }
                    if !pairs.is_empty() && !self.eat(",") {
                        return Err(self.err("expected `,` or `}`"));
                    }
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("expected `:`"));
                    }
                    pairs.push((key, self.value(depth + 1)?));
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected string"));
        }
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            // the run ends at an ASCII byte, so it is whole UTF-8 characters
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("bad utf-8"))?,
            );
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let escape = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // lone surrogates cannot be a char; the writer
                            // never emits them
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_reader_round_trip() {
        let doc = Json::obj([
            ("name", Json::Str("join \"ship\"\n\ttab \\ é漢".into())),
            ("value", Json::Num(1.2034)),
            ("neg", Json::Num(-3e-7)),
            ("whole", Json::Num(1000.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("rounds", Json::nums(&[1.0, 2.5, 3.25])),
            (
                "nested",
                Json::Arr(vec![Json::obj([("k", Json::Arr(vec![]))])]),
            ),
            ("empty", Json::obj::<String>([])),
        ]);
        assert_eq!(parse(&doc.render()).unwrap(), doc);
        assert_eq!(parse(&doc.render_pretty()).unwrap(), doc);
        assert!(!doc.render().contains('\n'));
    }

    #[test]
    fn non_finite_numbers_read_back_as_null() {
        let doc = Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::INFINITY)]);
        assert_eq!(
            parse(&doc.render()).unwrap(),
            Json::Arr(vec![Json::Null, Json::Null])
        );
    }

    #[test]
    fn reader_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]x",
            "{\"a\" 1}",
            "\"open",
            "[1 2]",
            "nul",
            "1 2",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn lookups_are_typed() {
        let doc = parse(r#"{"a": {"b": [1, "x", false]}, "u": "\u00e9"}"#).unwrap();
        let b = doc.get("a").and_then(|a| a.get("b")).unwrap().as_arr();
        assert_eq!(b[0].as_f64(), Some(1.0));
        assert_eq!(b[1].as_str(), Some("x"));
        assert_eq!(b[2].as_bool(), Some(false));
        assert_eq!(doc.get("u").unwrap().as_str(), Some("é"));
        assert_eq!(doc.get("missing"), None);
    }
}
