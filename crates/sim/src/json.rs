//! A minimal, dependency-free JSON codec.
//!
//! The build environment has no registry access, so instead of `serde` /
//! `serde_json` the workspace ships this small value-tree codec. It exists
//! for the *reproducer artifacts* of the synthesis subsystem: shrunk
//! (program, schedule, seed) triples are serialized to JSON files in
//! `corpus/` and replayed by `cargo test`, so the encoding must be
//! self-contained, stable, and round-trip **exactly** — in particular for
//! full-range `u64` seeds and memory words, which is why integers get their
//! own variant instead of being squeezed through `f64` (where values above
//! 2⁵³ would silently lose bits).
//!
//! Supported surface: objects, arrays, strings (with the standard escapes),
//! `u64` integers, finite floats, booleans, and `null`. That is exactly the
//! shape of the artifacts this workspace writes; it is not a
//! general-purpose JSON library (no arbitrary-precision numbers, no
//! surrogate-pair escapes).

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    UInt(u64),
    /// Any other number (negative, fractional, or exponent form).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on render.
    Obj(Vec<(String, Json)>),
}

/// A parse or access error, with the byte offset where parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input (0 for access errors).
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>, at: usize) -> Result<T, JsonError> {
    Err(JsonError {
        msg: msg.into(),
        at,
    })
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser is
/// recursive, so without a cap one hostile file of `[[[[…` overflows the
/// stack and aborts the process (an abort, not a panic: no
/// `catch_unwind` contains it). The deepest legal document in the
/// workspace, a record embedding a maximal adversary tree, nests a few
/// dozen levels; 128 leaves ample headroom.
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed).
    /// Documents nesting deeper than [`MAX_DEPTH`] are rejected.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let b = s.as_bytes();
        let mut pos = 0;
        let v = parse_value(b, &mut pos, 0)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return err("trailing characters after document", pos);
        }
        Ok(v)
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Render with two-space indentation (committed artifacts are diffed by
    /// humans).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) => render_f64(*x, out),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    fn render_pretty_into(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| {
            for _ in 0..d {
                out.push_str("  ");
            }
        };
        match self {
            Json::Arr(items) if !items.is_empty() => {
                // Arrays of scalars stay on one line; arrays of containers
                // get one element per line.
                let nested = items
                    .iter()
                    .any(|i| matches!(i, Json::Arr(_) | Json::Obj(_)));
                if !nested {
                    self.render_into(out);
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    item.render_pretty_into(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, depth + 1);
                    render_string(k, out);
                    out.push_str(": ");
                    v.render_pretty_into(out, depth + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, depth);
                out.push('}');
            }
            _ => self.render_into(out),
        }
    }

    /// The value as `u64` (accepts `UInt`, and integral non-negative `Num`
    /// below 2⁵³).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::UInt(u) => Ok(*u),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < (1u64 << 53) as f64 => {
                Ok(*x as u64)
            }
            other => err(format!("expected unsigned integer, got {other:?}"), 0),
        }
    }

    /// The value as `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let u = self.as_u64()?;
        usize::try_from(u).map_err(|_| JsonError {
            msg: format!("{u} does not fit usize"),
            at: 0,
        })
    }

    /// The value as `f64` (accepts `Num` and `UInt`).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(x) => Ok(*x),
            Json::UInt(u) => Ok(*u as f64),
            other => err(format!("expected number, got {other:?}"), 0),
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected string, got {other:?}"), 0),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(a) => Ok(a),
            other => err(format!("expected array, got {other:?}"), 0),
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(fields) => {
                fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .ok_or(JsonError {
                        msg: format!("missing field {key:?}"),
                        at: 0,
                    })
            }
            other => err(format!("expected object with {key:?}, got {other:?}"), 0),
        }
    }

    /// Object field lookup that tolerates absence.
    pub fn get_opt(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

fn render_f64(x: f64, out: &mut String) {
    assert!(x.is_finite(), "JSON cannot represent {x}");
    if x == x.trunc() && x.abs() < 1e15 {
        // Keep a fractional marker so the value re-parses as Num when
        // negative; non-negative integral floats legitimately collapse to
        // UInt on re-parse (as_f64 accepts both).
        let _ = write!(out, "{x:.1}");
    } else {
        // 17 significant digits round-trip every finite f64.
        let mut s = format!("{x:.17e}");
        if let Ok(back) = s.parse::<f64>() {
            if back == x {
                let short = format!("{x}");
                if short.parse::<f64>() == Ok(x) {
                    s = short;
                }
            }
        }
        let _ = write!(out, "{s}");
    }
}

fn render_string(s: &str, out: &mut String) {
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

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse one value whose enclosing containers are `depth` levels deep.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return err("unexpected end of input", *pos);
    };
    if matches!(c, b'{' | b'[') && depth >= MAX_DEPTH {
        return err(format!("nesting deeper than {MAX_DEPTH} levels"), *pos);
    }
    match c {
        b'{' => parse_obj(b, pos, depth + 1),
        b'[' => parse_arr(b, pos, depth + 1),
        b'"' => Ok(Json::Str(parse_string(b, pos)?)),
        b't' => parse_lit(b, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(b, pos, "null", Json::Null),
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        _ => err(format!("unexpected character {:?}", c as char), *pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        err(format!("expected {lit}"), *pos)
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(b.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    let mut integral = true;
    if b.get(*pos) == Some(&b'.') {
        integral = false;
        *pos += 1;
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        integral = false;
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii digits");
    if integral && !text.starts_with('-') {
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Json::UInt(u));
        }
    }
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Json::Num(x)),
        _ => err(format!("invalid number {text:?}"), start),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return err("unterminated string", *pos);
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&e) = b.get(*pos) else {
                    return err("unterminated escape", *pos);
                };
                *pos += 1;
                match e {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        if *pos + 4 > b.len() {
                            return err("truncated \\u escape", *pos);
                        }
                        let hex = std::str::from_utf8(&b[*pos..*pos + 4])
                            .map_err(|_| JsonError {
                                msg: "non-ascii \\u escape".into(),
                                at: *pos,
                            })?
                            .to_string();
                        let code = u32::from_str_radix(&hex, 16).map_err(|_| JsonError {
                            msg: format!("bad \\u escape {hex:?}"),
                            at: *pos,
                        })?;
                        *pos += 4;
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return err("surrogate \\u escape unsupported", *pos),
                        }
                    }
                    _ => return err(format!("unknown escape \\{}", e as char), *pos),
                }
            }
            _ => {
                // Re-sync to a char boundary for multi-byte UTF-8.
                let s = &b[*pos - 1..];
                let ch_len = utf8_len(c);
                if s.len() < ch_len {
                    return err("truncated utf-8", *pos);
                }
                let ch = std::str::from_utf8(&s[..ch_len]).map_err(|_| JsonError {
                    msg: "invalid utf-8 in string".into(),
                    at: *pos,
                })?;
                out.push_str(ch);
                *pos += ch_len - 1;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    debug_assert_eq!(b[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return err("expected ',' or ']'", *pos),
        }
    }
}

/// A key `fields` holds twice, if any. Duplicate keys are rejected rather
/// than resolved: keeping either one would let a document say two things
/// and run one of them. Sorting keeps one hostile object with a huge key
/// count at O(n log n).
fn repeated_key(fields: &[(String, Json)]) -> Option<&str> {
    let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    debug_assert_eq!(b[*pos], b'{');
    let start = *pos;
    *pos += 1;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return err("expected object key", *pos);
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return err("expected ':'", *pos);
        }
        *pos += 1;
        let value = parse_value(b, pos, depth)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                if let Some(key) = repeated_key(&fields) {
                    return err(format!("duplicate object key {key:?}"), start);
                }
                return Ok(Json::Obj(fields));
            }
            _ => return err("expected ',' or '}'", *pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for (text, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::UInt(0)),
            ("18446744073709551615", Json::UInt(u64::MAX)),
            ("\"hi\\n\\\"there\\\"\"", Json::Str("hi\n\"there\"".into())),
        ] {
            let parsed = Json::parse(text).unwrap();
            assert_eq!(parsed, v, "{text}");
            assert_eq!(Json::parse(&parsed.render()).unwrap(), v);
        }
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        // The whole reason UInt exists: 2^53+1 is not representable in f64.
        let big = (1u64 << 53) + 1;
        let j = Json::UInt(big);
        let back = Json::parse(&j.render()).unwrap();
        assert_eq!(back.as_u64().unwrap(), big);
    }

    #[test]
    fn floats_round_trip() {
        for x in [0.25, -1.5, 16.75, 1e-9, 123456.789] {
            let j = Json::Num(x);
            let back = Json::parse(&j.render()).unwrap();
            assert_eq!(back.as_f64().unwrap(), x, "{x}");
        }
        // Integral non-negative floats may re-parse as UInt; as_f64 accepts.
        let j = Json::parse(&Json::Num(16.0).render()).unwrap();
        assert_eq!(j.as_f64().unwrap(), 16.0);
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("p".into())),
            (
                "steps".into(),
                Json::Arr(vec![
                    Json::Arr(vec![Json::Null, Json::UInt(3)]),
                    Json::Arr(vec![]),
                ]),
            ),
            ("frac".into(), Json::Num(0.125)),
        ]);
        let compact = Json::parse(&v.render()).unwrap();
        let pretty = Json::parse(&v.render_pretty()).unwrap();
        assert_eq!(compact, v);
        assert_eq!(pretty, v);
        assert_eq!(v.get("name").unwrap().as_str().unwrap(), "p");
        assert_eq!(v.get("steps").unwrap().as_arr().unwrap().len(), 2);
        assert!(v.get("missing").is_err());
        assert!(v.get_opt("frac").is_some());
    }

    #[test]
    fn unicode_and_whitespace() {
        let v = Json::parse(" { \"k\" : \"héllo ∑\" , \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_str().unwrap(), "héllo ∑");
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn errors_carry_positions() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        let e = Json::parse("[1, x]").unwrap_err();
        assert!(e.at > 0);
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn repeated_keys_are_rejected_by_name() {
        let e = Json::parse(r#"{"a":1,"b":{"x":1,"x":2}}"#).unwrap_err();
        assert_eq!(e.msg, r#"duplicate object key "x""#);
        assert_eq!(e.at, 11);
        // Equal after unescaping is equal.
        assert!(Json::parse(r#"{"a":1,"\u0061":2}"#).is_err());
        // A large object is checked the same way.
        let mut many: Vec<String> = (0..24).map(|i| format!("\"k{i}\":{i}")).collect();
        assert!(Json::parse(&format!("{{{}}}", many.join(","))).is_ok());
        many.push("\"k3\":0".into());
        let e = Json::parse(&format!("{{{}}}", many.join(","))).unwrap_err();
        assert_eq!(e.msg, r#"duplicate object key "k3""#);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |d: usize| "[".repeat(d) + &"]".repeat(d);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let e = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.msg.contains("nesting"), "{e}");
        assert_eq!(e.at, MAX_DEPTH);
        // Far past the cap, including mixed containers, is the same typed
        // error, never a stack overflow.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"k\":[".repeat(100_000)).is_err());
    }
}
