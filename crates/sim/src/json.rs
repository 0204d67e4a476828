//! Minimal JSON value, renderer and parser.
//!
//! The workspace's `serde`/`serde_json` are offline no-op shims, so anything
//! that must actually move structured data through text — streamed
//! [`RunReport`](crate::report::RunReport) progress lines, checkpoint
//! headers, job specs — goes through this hand-rolled module instead. It is
//! deliberately small: objects preserve insertion order, numbers distinguish
//! integers from floats, and floats render with Rust's shortest-roundtrip
//! `Display`, which parses back to the identical bit pattern.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. Every document the
/// workspace writes nests a handful of levels; the cap only stops hostile
/// input from recursing the parser off the stack.
pub(crate) const MAX_NESTING: usize = 128;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fraction or exponent, kept exact.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on render.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` (accepting `Int` losslessly for small magnitudes).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as `i64` if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed, trailing
    /// garbage rejected). Arrays and objects nested more than 128 levels
    /// deep are rejected, so hostile input cannot overflow the stack.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Object value from `(key, value)` pairs, in order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// String value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact rendering (the [`Display`](fmt::Display) form).
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// Rendering with 2-space indentation and a trailing newline, for
    /// stable, diff-friendly artifacts. Empty containers stay `[]`/`{}`.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0))
            .expect("writing to a String cannot fail");
        out.push('\n');
        out
    }

    /// Render compactly (`depth` `None`) or indented at nesting `depth`.
    fn write(&self, out: &mut impl fmt::Write, depth: Option<usize>) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => write!(out, "{b}"),
            Json::Int(i) => write!(out, "{i}"),
            Json::Num(x) => {
                if x.is_finite() {
                    // Shortest-roundtrip Display; force a marker so the
                    // value re-parses as Num, not Int.
                    let s = format!("{x}");
                    if s.contains(['.', 'e', 'E']) {
                        out.write_str(&s)
                    } else {
                        write!(out, "{s}.0")
                    }
                } else {
                    // JSON has no Inf/NaN; null is the conventional stand-in.
                    out.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, depth, ['[', ']'], items, |out, v, d| v.write(out, d))
            }
            Json::Obj(members) => write_seq(out, depth, ['{', '}'], members, |out, (k, v), d| {
                write_escaped(out, k)?;
                out.write_str(if d.is_some() { ": " } else { ":" })?;
                v.write(out, d)
            }),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, None)
    }
}

/// Render a container: `item` writes each element at the inner depth;
/// indented output puts every element on its own line.
fn write_seq<W: fmt::Write, T>(
    out: &mut W,
    depth: Option<usize>,
    [open, close]: [char; 2],
    items: &[T],
    mut item: impl FnMut(&mut W, &T, Option<usize>) -> fmt::Result,
) -> fmt::Result {
    out.write_char(open)?;
    let inner = depth.map(|d| d + 1);
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        if let Some(d) = inner {
            write!(out, "\n{:w$}", "", w = 2 * d)?;
        }
        item(out, v, inner)?;
    }
    if let Some(d) = depth.filter(|_| !items.is_empty()) {
        write!(out, "\n{:w$}", "", w = 2 * d)?;
    }
    out.write_char(close)
}

fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_str("\"")
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {}", *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == MAX_NESTING {
        return Err(format!(
            "nesting deeper than {MAX_NESTING} at byte {}",
            *pos
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let start = *pos;
        while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
            *pos += 1;
        }
        out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid utf-8 in string")?);
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        *pos += 4;
                        // Surrogate pairs are not produced by our renderer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("unknown escape `\\{}`", esc as char)),
                }
            }
            Some(_) => unreachable!("scan stops only at quote or backslash"),
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
    if text.is_empty() || text == "-" {
        return Err(format!("expected value at byte {start}"));
    }
    if !is_float {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "42", "-7", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn floats_round_trip_bitwise() {
        for x in [0.1, -1e-310, 2.0 / 3.0, 6.02e23, f64::MIN_POSITIVE] {
            let rendered = Json::Num(x).to_string();
            let back = Json::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{rendered}");
        }
    }

    #[test]
    fn int_float_distinction_survives() {
        assert_eq!(Json::parse("3").unwrap(), Json::Int(3));
        assert_eq!(Json::parse("3.0").unwrap(), Json::Num(3.0));
        assert_eq!(Json::Num(3.0).to_string(), "3.0");
    }

    #[test]
    fn nested_structure_round_trips() {
        let text = r#"{"a":[1,2.5,{"b":"x\ny"}],"c":null,"d":{"e":true}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x\ny")
        );
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::parse(r#""tab\t quote\" ué""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\t quote\" u\u{e9}"));
        let s = Json::Str("a\"b\\c\nd\u{1}".into()).to_string();
        assert_eq!(Json::parse(&s).unwrap().as_str(), Some("a\"b\\c\nd\u{1}"));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn renders_scalars_and_nesting() {
        let v = Json::obj(vec![
            ("name", Json::str("D3Q19")),
            ("mflups", Json::Num(12.5)),
            ("steps", Json::Int(8)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("arr", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"name":"D3Q19","mflups":12.5,"steps":8,"ok":true,"none":null,"arr":[1,2]}"#
        );
    }

    #[test]
    fn escapes_strings_and_maps_nonfinite_to_null() {
        let v = Json::Arr(vec![
            Json::str("a\"b\\c\nd"),
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
        ]);
        assert_eq!(v.render(), r#"["a\"b\\c\nd",null,null]"#);
        assert_eq!(
            Json::Num(f64::NEG_INFINITY).render_pretty(),
            "null\n",
            "pretty rendering maps non-finite numbers the same way"
        );
    }

    #[test]
    fn pretty_output_is_indented_and_reparsable_shape() {
        let v = Json::obj(vec![("k", Json::Arr(vec![Json::Int(1)]))]);
        let s = v.render_pretty();
        assert!(s.contains("\"k\": [\n"));
        assert!(s.ends_with("}\n"));
        // Float roundtrip formatting keeps full precision.
        let f = Json::Num(0.1 + 0.2);
        assert_eq!(f.render(), format!("{:?}", 0.1f64 + 0.2f64));
        // The exact layout: two spaces per level, one element per line.
        let v = Json::obj(vec![
            ("k", Json::Arr(vec![Json::Int(1), Json::str("x")])),
            ("o", Json::obj(vec![("n", Json::Num(0.5))])),
        ]);
        assert_eq!(
            v.render_pretty(),
            "{\n  \"k\": [\n    1,\n    \"x\"\n  ],\n  \"o\": {\n    \"n\": 0.5\n  }\n}\n"
        );
    }

    #[test]
    fn empty_containers_stay_compact() {
        assert_eq!(Json::Arr(vec![]).render_pretty(), "[]\n");
        assert_eq!(Json::Obj(vec![]).render(), "{}");
        let nested = Json::obj(vec![("a", Json::Arr(vec![])), ("o", Json::Obj(vec![]))]);
        assert_eq!(nested.render_pretty(), "{\n  \"a\": [],\n  \"o\": {}\n}\n");
    }

    #[test]
    fn parse_roundtrips_rendered_artifacts() {
        let doc = Json::obj(vec![
            ("schema", Json::str("lbm-bench/kernels-mflups/v5")),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("n", Json::Int(-42)),
            ("x", Json::Num(0.7118)),
            (
                "summary",
                Json::obj(vec![(
                    "D3Q19",
                    Json::obj(vec![("aa_over_two_grid", Json::Num(0.86))]),
                )]),
            ),
            ("arr", Json::Arr(vec![Json::Int(1), Json::Num(2.5)])),
        ]);
        for rendered in [doc.render(), doc.render_pretty()] {
            let back = Json::parse(&rendered).unwrap();
            assert_eq!(back.render(), doc.render());
        }
    }

    #[test]
    fn parse_accessors_walk_nested_objects() {
        let v =
            Json::parse(r#"{"summary":{"D3Q19":{"aa_over_two_grid":0.86,"name":"aa"}}}"#).unwrap();
        let entry = v.get("summary").and_then(|s| s.get("D3Q19")).unwrap();
        assert_eq!(
            entry.get("aa_over_two_grid").and_then(Json::as_f64),
            Some(0.86)
        );
        assert_eq!(entry.get("name").and_then(Json::as_str), Some("aa"));
        assert_eq!(v.get("missing").map(|_| ()), None);
    }

    #[test]
    fn parse_handles_escapes_and_rejects_garbage() {
        let v = Json::parse(r#"["a\"b\\c\nd", "A"]"#).unwrap();
        match v {
            Json::Arr(items) => {
                assert_eq!(items[0].as_str(), Some("a\"b\\c\nd"));
                assert_eq!(items[1].as_str(), Some("A"));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert!(Json::parse("{\"k\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("true false").is_err());
    }

    #[test]
    fn parse_distinguishes_ints_from_floats() {
        assert!(matches!(Json::parse("7").unwrap(), Json::Int(7)));
        assert!(matches!(Json::parse("-7").unwrap(), Json::Int(-7)));
        assert!(matches!(Json::parse("7.0").unwrap(), Json::Num(_)));
        assert!(matches!(Json::parse("1e3").unwrap(), Json::Num(_)));
        // i64-overflowing integers degrade to floats instead of failing.
        assert!(matches!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Num(_)
        ));
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!(
            "{}{}",
            "[".repeat(MAX_NESTING + 1),
            "]".repeat(MAX_NESTING + 1)
        );
        assert!(Json::parse(&deep).unwrap_err().contains("nesting"));
        let objs = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_NESTING + 1),
            "}".repeat(MAX_NESTING + 1)
        );
        assert!(Json::parse(&objs).unwrap_err().contains("nesting"));
    }

    /// A megabyte of `[` must come back as an error from every parser
    /// entry point — not a stack overflow, which no `catch_unwind` (the
    /// ensemble's panic containment) can contain.
    #[test]
    fn a_megabyte_of_brackets_is_a_typed_error_everywhere() {
        use crate::runtime::{EventRecord, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
        use crate::simulation::Simulation;
        use lbm_core::Error;

        let hostile = "[".repeat(1 << 20);
        assert!(Json::parse(&hostile).unwrap_err().contains("nesting"));
        assert!(EventRecord::from_json_line(&hostile)
            .unwrap_err()
            .contains("nesting"));

        // A checkpoint whose header passes every framing check, checksum
        // included, so the bytes reach the header parser.
        let mut ckpt = CHECKPOINT_MAGIC.to_vec();
        ckpt.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        ckpt.extend_from_slice(&(hostile.len() as u64).to_le_bytes());
        ckpt.extend_from_slice(hostile.as_bytes());
        ckpt.extend_from_slice(&lbm_core::snapshot::fnv1a(hostile.as_bytes()).to_le_bytes());
        match Simulation::resume_bytes(&ckpt) {
            Err(Error::Corrupt(msg)) => assert!(msg.contains("nesting"), "{msg}"),
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("a hostile header must not resume"),
        }
    }
}
