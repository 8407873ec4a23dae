//! Minimal deterministic JSON document builder **and parser**.
//!
//! The workspace has no serialization crate, so machine-readable reports
//! are built through this hand-rolled value tree. Two properties matter
//! more than generality:
//!
//! * **Determinism** — object members keep insertion order, floats render
//!   with Rust's shortest round-trip formatting, and nothing consults
//!   locale, hashing, or the host clock. Identical values serialize to
//!   byte-identical text, which the determinism regression tests rely on.
//! * **Self-containment** — no dependency beyond `std`, so every crate in
//!   the workspace (and the sweep harness in particular) can emit reports.
//!
//! Non-finite floats have no JSON representation and render as `null`,
//! matching what `serde_json` does with `arbitrary_precision` disabled.
//!
//! [`Json::parse`] is the inverse, added for the sweep's incremental cell
//! cache: cached cells are stored as JSON text and must reconstruct to
//! values that re-serialize **byte-identically**. The round-trip contract
//! is `parse(v.to_compact())?.to_compact() == v.to_compact()` for every
//! value this builder can produce, which hinges on two details: unsigned
//! integer literals parse to [`Json::UInt`] (not a lossy `f64`) so `u64`
//! counters above 2^53 survive, and fractional/exponent literals parse
//! through Rust's correctly-rounded `str::parse::<f64>`, whose result
//! re-renders to the same shortest form.
//!
//! The parser also reads untrusted bytes (a cache entry's checksum is not
//! cryptographic), so bad input is an `Err`, never a panic: nesting is
//! capped at 128 levels so a hostile document cannot overflow the stack
//! of the recursive descent.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level; committed reports nest 6 levels deep.
const MAX_DEPTH: usize = 128;

/// A JSON value. Objects preserve insertion order (no hashing) so the
/// serialized form is a pure function of construction order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Unsigned integers (counters, byte sizes) keep full u64 precision.
    UInt(u64),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object, to be filled with [`Json::push`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a member to an object. Panics on non-objects: that is a
    /// construction bug, not a data error.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(members) => members.push((key.to_string(), value.into())),
            other => panic!("Json::push on non-object {other:?}"),
        }
        self
    }

    /// Member lookup (first match), for tests and report post-processing.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as f64, when it is any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(u) => Some(*u as f64),
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a lossless u64 (integer variants only, no float
    /// rounding) — counters and byte sizes above 2^53 survive.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line serialization.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0)
            .expect("fmt to String cannot fail");
        out
    }

    /// Pretty serialization with two-space indentation and a trailing
    /// newline (the on-disk `BENCH_*.json` format).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0)
            .expect("fmt to String cannot fail");
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) -> fmt::Result {
        use fmt::Write;
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => write!(out, "{u}"),
            Json::Int(i) => write!(out, "{i}"),
            Json::Num(n) => {
                if n.is_finite() {
                    // Shortest round-trip form; deterministic across runs
                    // and hosts for identical bit patterns.
                    write!(out, "{n}")
                } else {
                    out.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, items.len(), '[', ']', |o, i| {
                items[i].write(o, indent, depth + 1)
            }),
            Json::Obj(members) => write_seq(out, indent, depth, members.len(), '{', '}', |o, i| {
                let (k, v) = &members[i];
                write_escaped(o, k)?;
                o.write_str(if indent.is_some() { ": " } else { ":" })?;
                v.write(o, indent, depth + 1)
            }),
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize) -> fmt::Result,
) -> fmt::Result {
    out.push(open);
    if len == 0 {
        out.push(close);
        return Ok(());
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i)?;
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
    Ok(())
}

fn write_escaped(out: &mut String, s: &str) -> fmt::Result {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.push(c),
        }
    }
    out.push('"');
    Ok(())
}

impl Json {
    /// Parse JSON text into a value tree.
    ///
    /// Accepts exactly standard JSON (as produced by [`Json::to_compact`]
    /// / [`Json::to_pretty`], but any conforming writer works). Number
    /// literals map back onto the numeric variants losslessly: unsigned
    /// integers to [`Json::UInt`], negative integers to [`Json::Int`],
    /// everything with a fraction or exponent (or beyond integer range)
    /// to [`Json::Num`]. Errors carry the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }
}

/// Recursive-descent JSON parser over raw bytes (`at` is a byte offset;
/// string decoding is the only place multi-byte UTF-8 appears, and it is
/// copied through verbatim).
struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Arrays and objects currently open around `at`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("json parse error at byte {}: {what}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    /// Open one array or object level: the depth check runs once per
    /// container, not once per value, so scalars pay nothing for it.
    fn descend(&mut self) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() != Some(b']') {
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.at += 1,
                    Some(b']') => break,
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
            }
        }
        self.at += 1;
        self.depth -= 1;
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        self.descend()?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() != Some(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                self.skip_ws();
                let value = self.value()?;
                members.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.at += 1,
                    Some(b'}') => break,
                    _ => return Err(self.err("expected ',' or '}' in object")),
                }
            }
        }
        self.at += 1;
        self.depth -= 1;
        Ok(Json::Obj(members))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.at;
            // Copy unescaped runs through verbatim (multi-byte UTF-8
            // included — no byte in a multi-byte sequence can equal '"'
            // or '\\', both < 0x80).
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.at += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.at])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.at += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: the writer never emits
                                // one, but a conforming reader decodes it.
                                if !self.bytes[self.at..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.at += 2;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            // hex4 leaves `at` one past the last digit.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.at += 1;
                }
                None => return Err(self.err("unterminated string")),
                _ => unreachable!("loop above stops only on '\"', '\\\\', or EOF"),
            }
        }
    }

    /// Exactly four ASCII hex digits (`u32::from_str_radix` would also
    /// take a leading `+`, reading `\u+041` as `A`).
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.at..self.at + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            let v = char::from(d)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + v;
        }
        self.at += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.at += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.at += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII digits");
        if integral {
            // Integer literal: keep full 64-bit precision (a u64 counter
            // above 2^53 must not round through f64).
            if text.starts_with('-') {
                match text.parse::<i64>() {
                    // Only a negative-zero float renders as "-0" (integers
                    // print zero unsigned): keep the sign so the text
                    // round-trips.
                    Ok(0) => return Ok(Json::Num(-0.0)),
                    Ok(i) => return Ok(Json::Int(i)),
                    // Magnitude beyond i64: fall through to f64 like serde_json.
                    Err(_) => {}
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("json parse error: invalid number {text:?}"))
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::UInt(u)
    }
}

impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::UInt(u as u64)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

/// Absent optional values serialize as `null` (e.g. "% overlap" on a run
/// that never migrated a byte).
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map(Into::into).unwrap_or(Json::Null)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl From<crate::units::Bytes> for Json {
    fn from(b: crate::units::Bytes) -> Json {
        Json::UInt(b.get())
    }
}

impl From<crate::time::VDur> for Json {
    fn from(d: crate::time::VDur) -> Json {
        Json::Num(d.secs())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        let mut o = Json::obj();
        o.push("name", "CG.C")
            .push("time", 1.5)
            .push("count", 42u64)
            .push("ok", true)
            .push("none", Json::Null)
            .push("tags", Json::Arr(vec![Json::from("a"), Json::from("b")]));
        o
    }

    #[test]
    fn compact_form_is_exact() {
        assert_eq!(
            sample().to_compact(),
            r#"{"name":"CG.C","time":1.5,"count":42,"ok":true,"none":null,"tags":["a","b"]}"#
        );
    }

    #[test]
    fn pretty_round_trips_member_order() {
        let p = sample().to_pretty();
        assert!(p.starts_with("{\n  \"name\": \"CG.C\",\n  \"time\": 1.5"));
        assert!(p.ends_with("}\n"));
        let name_at = p.find("\"name\"").unwrap();
        let count_at = p.find("\"count\"").unwrap();
        assert!(name_at < count_at, "insertion order preserved");
    }

    #[test]
    fn escaping() {
        let j = Json::from("a\"b\\c\nd\u{1}");
        assert_eq!(j.to_compact(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_are_null() {
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample().to_compact(), sample().to_compact());
        assert_eq!(sample().to_pretty(), sample().to_pretty());
    }

    #[test]
    fn accessors() {
        let s = sample();
        assert_eq!(s.get("count").and_then(Json::as_f64), Some(42.0));
        assert_eq!(s.get("name").and_then(Json::as_str), Some("CG.C"));
        assert_eq!(
            s.get("tags").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert!(s.get("missing").is_none());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::obj().to_compact(), "{}");
        assert_eq!(Json::Arr(vec![]).to_pretty(), "[]\n");
    }

    #[test]
    fn parse_round_trips_compact_and_pretty() {
        let v = sample();
        let compact = v.to_compact();
        assert_eq!(Json::parse(&compact).unwrap(), v);
        assert_eq!(Json::parse(&compact).unwrap().to_compact(), compact);
        // Pretty text parses to the same tree (whitespace is not part of
        // the value) and re-serializes to the same bytes.
        let p = Json::parse(&v.to_pretty()).unwrap();
        assert_eq!(p, v);
        assert_eq!(p.to_pretty(), v.to_pretty());
    }

    #[test]
    fn parse_preserves_numeric_variants() {
        // Unsigned counters above 2^53 must not round through f64.
        let big = u64::MAX - 1;
        let j = Json::parse(&format!("{big}")).unwrap();
        assert_eq!(j, Json::UInt(big));
        assert_eq!(j.to_compact(), format!("{big}"));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Num(1.5));
        assert_eq!(Json::parse("2e-7").unwrap(), Json::Num(2e-7));
        // Integral floats render without a fraction, parse as UInt, and
        // re-render to the same text — the byte-identity contract cares
        // about the text, not the variant.
        assert_eq!(
            Json::parse(&Json::Num(42.0).to_compact()).unwrap(),
            Json::UInt(42)
        );
        // A negative-zero float renders as "-0" and keeps its sign.
        let neg_zero = Json::parse(&Json::Num(-0.0).to_compact()).unwrap();
        assert_eq!(
            neg_zero.as_f64().map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(neg_zero.to_compact(), "-0");
    }

    #[test]
    fn parse_decodes_escapes() {
        let original = Json::from("a\"b\\c\nd\u{1}é");
        let text = original.to_compact();
        assert_eq!(Json::parse(&text).unwrap(), original);
        // Surrogate pair (writer never emits one, reader must accept).
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::from("\u{1f600}")
        );
    }

    #[test]
    fn parse_float_round_trip_is_byte_exact() {
        // Shortest-form rendering followed by correctly-rounded parsing
        // recovers the exact bit pattern — the property the cache's
        // byte-identity guarantee stands on.
        for bits in [
            0x3fb999999999999au64, // 0.1
            0x400921fb54442d18,    // pi
            0x7fe1ccf385ebc8a0,    // ~1.6e308
            0x0000000000000001,    // smallest subnormal
        ] {
            let x = f64::from_bits(bits);
            let text = Json::Num(x).to_compact();
            let back = Json::parse(&text).unwrap();
            assert_eq!(back.as_f64().map(f64::to_bits), Some(bits), "{text}");
            assert_eq!(back.to_compact(), text);
        }
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "01x",
            "1 2",
            "{\"a\":1}garbage",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\u+041\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parse_nested_structures() {
        let text = r#"{"a":[{"b":null},{"c":[1,-2,3.5]}],"d":{"e":true}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_compact(), text);
        assert!(v.get("d").and_then(|d| d.get("e")).is_some());
    }

    #[test]
    fn parse_rejects_nesting_past_the_depth_limit() {
        // Without the limit, either document overflows the stack and
        // aborts the process.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());

        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let deepest = Json::parse(&arrays(MAX_DEPTH)).expect("MAX_DEPTH levels parse");
        assert_eq!(deepest.to_compact(), arrays(MAX_DEPTH));
        assert!(Json::parse(&arrays(MAX_DEPTH + 1)).is_err());
        let objects = |n: usize| format!("{}null{}", "{\"a\":".repeat(n), "}".repeat(n));
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH + 1)).is_err());
        // The limit is on depth, not on the number of containers.
        let siblings = format!("[{}]", vec![arrays(MAX_DEPTH - 1); 3].join(","));
        assert!(Json::parse(&siblings).is_ok());
    }

    /// A seeded string drawn from the characters an emitter must escape
    /// or pass through: quotes, backslashes, control characters (named
    /// and `\u` escapes), DEL, a line separator and non-BMP characters.
    fn hostile_string(rng: &mut crate::DetRng) -> String {
        const CHARS: [char; 16] = [
            'a',
            'Z',
            ' ',
            '/',
            '"',
            '\\',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{1f}',
            '\u{7f}',
            'é',
            '\u{2028}',
            '\u{1F600}',
            '\u{10FFFF}',
        ];
        (0..rng.index(8))
            .map(|_| CHARS[rng.index(CHARS.len())])
            .collect()
    }

    fn arbitrary_scalar(rng: &mut crate::DetRng) -> Json {
        match rng.index(6) {
            0 => Json::Null,
            1 => Json::Bool(rng.index(2) == 0),
            2 => Json::UInt([0, 1, 1 << 53, (1 << 53) + 1, u64::MAX, rng.u64()][rng.index(6)]),
            3 => {
                Json::Int([i64::MIN, i64::MIN + 1, -1, 0, i64::MAX, rng.u64() as i64][rng.index(6)])
            }
            4 => Json::Num(
                [
                    -0.0,
                    0.0,
                    f64::from_bits(1), // smallest subnormal
                    f64::MIN_POSITIVE / 3.0,
                    1e300,
                    -1e300,
                    f64::MAX,
                    0.1,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::from_bits(rng.u64()),
                ][rng.index(12)],
            ),
            _ => Json::Str(hostile_string(rng)),
        }
    }

    /// A tree whose deepest path nests exactly `levels` arrays and
    /// objects (a scalar at 0); the other children stay shallow.
    fn arbitrary_tree(rng: &mut crate::DetRng, levels: usize) -> Json {
        if levels == 0 {
            return arbitrary_scalar(rng);
        }
        let n = 1 + rng.index(4);
        let deep = rng.index(n);
        let kids: Vec<Json> = (0..n)
            .map(|i| match i {
                _ if i == deep => arbitrary_tree(rng, levels - 1),
                _ if levels >= 2 && rng.index(5) == 0 => Json::Arr(Vec::new()),
                _ => {
                    let shallow = rng.index(levels.min(3));
                    arbitrary_tree(rng, shallow)
                }
            })
            .collect();
        if rng.index(2) == 0 {
            Json::Arr(kids)
        } else {
            Json::Obj(kids.into_iter().map(|k| (hostile_string(rng), k)).collect())
        }
    }

    /// Emit → parse → emit is the identity on text for arbitrary trees
    /// of every variant up to the parser's depth limit, in both forms,
    /// and a tree one level deeper is an error rather than a panic.
    #[test]
    fn arbitrary_trees_round_trip_through_both_forms() {
        for seed in 0..64 {
            let mut rng = crate::DetRng::seed(seed);
            let levels = match seed % 4 {
                0 => MAX_DEPTH,
                _ => rng.index(MAX_DEPTH + 1),
            };
            let tree = arbitrary_tree(&mut rng, levels);
            let compact = tree.to_compact();
            let parsed = Json::parse(&compact).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(parsed.to_compact(), compact, "seed {seed}");
            let pretty = tree.to_pretty();
            let parsed = Json::parse(&pretty).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(parsed.to_pretty(), pretty, "seed {seed}");
        }
        let too_deep = arbitrary_tree(&mut crate::DetRng::seed(1), MAX_DEPTH + 1);
        assert!(Json::parse(&too_deep.to_compact()).is_err());
        assert!(Json::parse(&too_deep.to_pretty()).is_err());
    }
}
