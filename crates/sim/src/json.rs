//! Minimal deterministic JSON document builder, and the pull reader that
//! reads it back.
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
//! Object keys are `Cow<'static, str>`. A writer whose member names are
//! literals builds each object with [`Json::obj_with_capacity`] at its
//! final member count and appends with [`Json::field`], which stores the
//! name borrowed: a report tree then allocates no key, and each object's
//! member vector once. [`Json::push`] copies a name known only at run
//! time. Equality, [`Json::get`] and both emitters read a key by its
//! content, so the two kinds of key are interchangeable.
//!
//! Non-finite floats have no JSON representation and render as `null`,
//! matching what `serde_json` does with `arbitrary_precision` disabled.
//! The emitter writes in runs: indentation comes from a static run of
//! spaces, a string with nothing to escape is pushed whole, and integers
//! are formatted without `fmt`.
//!
//! [`Reader`] is the one tokenizer. It pulls a document apart one token
//! or value at a time (object and array begin and end, `member(name)`,
//! strings, numbers, `null`) without building a tree, so a decoder that
//! knows its document's shape — the sweep's cell cache — reads it in one
//! pass. It accepts exactly RFC 8259 JSON:
//!
//! * numbers match `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, so
//!   `01`, `1.`, `-.5` and `+1` are errors;
//! * strings hold no unescaped control character, a `\u` escape has
//!   exactly four hex digits, and a high surrogate must be followed by a
//!   low one;
//! * arrays and objects nest at most 128 levels deep, so a hostile
//!   document cannot overflow the stack of a recursive consumer;
//! * the input is a `&str`, so UTF-8 is checked once, before reading.
//!
//! Every error is an `Err`, never a panic (a cache entry's checksum is not
//! cryptographic, so the reader sees untrusted bytes), and carries the
//! byte offset of the problem.
//!
//! [`Json::parse`] builds a tree on that reader. The round-trip contract
//! is `parse(v.to_compact())?.to_compact() == v.to_compact()` for every
//! value this builder can produce, which hinges on two details: unsigned
//! integer literals parse to [`Json::UInt`] (not a lossy `f64`) so `u64`
//! counters above 2^53 survive, and fractional/exponent literals parse
//! through Rust's correctly-rounded `str::parse::<f64>`, whose result
//! re-renders to the same shortest form.

use std::borrow::Cow;
use std::fmt;

/// Deepest array/object nesting [`Reader`] accepts. [`Json::parse`]
/// recurses once per level; committed reports nest 6 levels deep.
const MAX_DEPTH: usize = 128;

/// Starting capacity of the serialized text. A power of two keeps the
/// buffer's growth on powers of two; a first growth sized by one odd
/// push would leave an 8 MB report in a 9 MiB buffer, which glibc maps
/// separately from the heap and which raises the peak resident set.
const INITIAL_CAPACITY: usize = 256;

/// A run of spaces that indentation is cut from.
const SPACES: &str = "                                                                ";

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
    /// Members in insertion order. A key is borrowed when its writer
    /// named it with a literal ([`Json::field`]) and owned otherwise.
    Obj(Vec<(Cow<'static, str>, Json)>),
}

impl Json {
    /// Empty object, to be filled with [`Json::push`] or [`Json::field`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Empty object with room for exactly `members` members, so that a
    /// writer that knows its member count allocates the vector once.
    pub fn obj_with_capacity(members: usize) -> Json {
        Json::Obj(Vec::with_capacity(members))
    }

    /// Append a member whose name is known only at run time; the name is
    /// copied. Panics on non-objects: that is a construction bug, not a
    /// data error.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        self.member(Cow::Owned(key.to_owned()), value.into())
    }

    /// Append a member whose name is a literal; the name is borrowed, not
    /// copied. The member is the one [`Json::push`] would append.
    ///
    /// ```
    /// use unimem_sim::Json;
    /// let mut o = Json::obj_with_capacity(2);
    /// o.field("name", "CG.C").field("iters", 50u64);
    /// assert_eq!(o.to_compact(), r#"{"name":"CG.C","iters":50}"#);
    /// let mut copied = Json::obj();
    /// copied.push("name", "CG.C").push("iters", 50u64);
    /// assert_eq!(o, copied);
    /// ```
    pub fn field(&mut self, key: &'static str, value: impl Into<Json>) -> &mut Json {
        self.member(Cow::Borrowed(key), value.into())
    }

    fn member(&mut self, key: Cow<'static, str>, value: Json) -> &mut Json {
        match self {
            Json::Obj(members) => members.push((key, value)),
            other => panic!("a member appended to non-object {other:?}"),
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
        let mut out = String::with_capacity(INITIAL_CAPACITY);
        self.write(&mut out, None, 0)
            .expect("fmt to String cannot fail");
        out
    }

    /// Pretty serialization with two-space indentation and a trailing
    /// newline (the on-disk `BENCH_*.json` format).
    pub fn to_pretty(&self) -> String {
        let mut out = String::with_capacity(INITIAL_CAPACITY);
        self.write(&mut out, Some(2), 0)
            .expect("fmt to String cannot fail");
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) -> fmt::Result {
        use fmt::Write;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => write_u64(out, *u),
            Json::Int(i) => {
                if *i < 0 {
                    out.push('-');
                }
                write_u64(out, i.unsigned_abs());
            }
            Json::Num(n) => {
                if n.is_finite() {
                    // Shortest round-trip form; deterministic across runs
                    // and hosts for identical bit patterns.
                    write!(out, "{n}")?;
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, items.len(), '[', ']', |o, i| {
                items[i].write(o, indent, depth + 1)
            })?,
            Json::Obj(members) => {
                write_seq(out, indent, depth, members.len(), '{', '}', |o, i| {
                    let (k, v) = &members[i];
                    write_escaped(o, k);
                    o.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(o, indent, depth + 1)
                })?
            }
        }
        Ok(())
    }
}

/// Decimal digits of `u`, written back to front into a stack buffer.
fn write_u64(out: &mut String, mut u: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// A line break and `width` spaces, cut from [`SPACES`].
fn newline_indent(out: &mut String, width: usize) {
    out.push('\n');
    let mut left = width;
    while left > 0 {
        let run = left.min(SPACES.len());
        out.push_str(&SPACES[..run]);
        left -= run;
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
            newline_indent(out, w * (depth + 1));
        }
        item(out, i)?;
    }
    if let Some(w) = indent {
        newline_indent(out, w * depth);
    }
    out.push(close);
    Ok(())
}

/// `s` as a quoted string literal: the runs between bytes that need an
/// escape are pushed whole. Every such byte is ASCII, so the runs end on
/// char boundaries.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (at, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..at]);
        if named.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(named);
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl Json {
    /// Parse JSON text into a value tree, with a [`Reader`].
    ///
    /// Accepts exactly standard JSON (as produced by [`Json::to_compact`]
    /// / [`Json::to_pretty`], but any conforming writer works). Number
    /// literals map back onto the numeric variants losslessly: unsigned
    /// integers to [`Json::UInt`], negative integers to [`Json::Int`],
    /// everything with a fraction or exponent (or beyond integer range)
    /// to [`Json::Num`]. Errors carry the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut reader = Reader::new(text);
        let value = reader.value()?;
        reader.finish()?;
        Ok(value)
    }
}

/// A pull reader over JSON text: the one tokenizer behind
/// [`Json::parse`] and the sweep cache's typed decoders.
///
/// Each call skips whitespace, then consumes one token or value. When the
/// text does not hold what the caller asks for, the call returns an error
/// with the byte offset; it never panics.
///
/// ```
/// use unimem_sim::json::Reader;
/// let mut r = Reader::new(r#"{"name": "CG.C", "iters": [50, 51]}"#);
/// r.begin_object()?;
/// r.member("name")?;
/// assert_eq!(r.str()?, "CG.C");
/// r.member("iters")?;
/// r.begin_array()?;
/// let mut iters = Vec::new();
/// while r.item()? {
///     iters.push(r.u64()?);
/// }
/// r.end_array()?;
/// r.end_object()?;
/// r.finish()?;
/// assert_eq!(iters, [50, 51]);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    /// Byte offset of the next unread byte.
    at: usize,
    /// Arrays and objects currently open around `at`.
    depth: usize,
    /// Nothing has been read yet in the innermost open container.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            at: 0,
            depth: 0,
            first: true,
        }
    }

    fn err_at(&self, at: usize, what: &str) -> String {
        format!("json parse error at byte {at}: {what}")
    }

    fn err(&self, what: &str) -> String {
        self.err_at(self.at, what)
    }

    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.at..]
    }

    /// The next byte after whitespace, not consumed, so that a caller can
    /// branch on the kind of the next value (`b'n'` for `null`, `b'"'`
    /// for a string, ...); `None` at the end of the text.
    pub fn peek(&mut self) -> Option<u8> {
        let rest = self.rest();
        self.at += rest
            .iter()
            .position(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .unwrap_or(rest.len());
        self.rest().first().copied()
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
    fn open(&mut self, bracket: u8) -> Result<(), String> {
        self.eat(bracket)?;
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    fn close(&mut self, bracket: u8) -> Result<(), String> {
        self.eat(bracket)?;
        self.depth = self.depth.saturating_sub(1);
        // The closed container was a value of the one around it.
        self.first = false;
        Ok(())
    }

    /// Consume `{`.
    pub fn begin_object(&mut self) -> Result<(), String> {
        self.open(b'{')
    }

    /// Consume `}`: an error while members are left.
    pub fn end_object(&mut self) -> Result<(), String> {
        self.close(b'}')
    }

    /// Consume `[`.
    pub fn begin_array(&mut self) -> Result<(), String> {
        self.open(b'[')
    }

    /// Consume `]`: an error while elements are left.
    pub fn end_array(&mut self) -> Result<(), String> {
        self.close(b']')
    }

    /// Step to the next element of the open array: `true` when one
    /// follows (read it next), `false` at the closing bracket, which
    /// [`Reader::end_array`] consumes.
    pub fn item(&mut self) -> Result<bool, String> {
        if self.peek() == Some(b']') {
            return Ok(false);
        }
        self.separator("expected ',' or ']' in array")?;
        Ok(true)
    }

    /// Read the next member's name, which must be `name`, and its colon;
    /// the member's value is read next. Members are read in the order
    /// the caller asks for them, so a missing, extra or reordered member
    /// is an error.
    pub fn member(&mut self, name: &str) -> Result<(), String> {
        self.peek();
        let at = self.at;
        match self.key()? {
            Some(key) if key == name => Ok(()),
            _ => Err(self.err_at(at, &format!("expected member {name:?}"))),
        }
    }

    /// The next member's name and its colon, or `None` at the closing
    /// brace, which [`Reader::end_object`] consumes.
    fn key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if self.peek() == Some(b'}') {
            return Ok(None);
        }
        self.separator("expected ',' or '}' in object")?;
        let key = self.str()?;
        self.eat(b':')?;
        Ok(Some(key))
    }

    /// The comma before every member or element but a container's first.
    fn separator(&mut self, what: &str) -> Result<(), String> {
        if std::mem::replace(&mut self.first, false) {
            return Ok(());
        }
        if self.peek() != Some(b',') {
            return Err(self.err(what));
        }
        self.at += 1;
        Ok(())
    }

    /// A string, borrowed from the text when it holds no escape.
    pub fn str(&mut self) -> Result<Cow<'a, str>, String> {
        self.eat(b'"')?;
        let start = self.at;
        self.skip_plain();
        if self.rest().first() == Some(&b'"') {
            self.at += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.at - 1]));
        }
        let mut out = String::from(&self.text[start..self.at]);
        loop {
            match self.rest().first() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.at += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
            let run = self.at;
            self.skip_plain();
            out.push_str(&self.text[run..self.at]);
        }
    }

    /// Advance over the bytes a string holds verbatim: all but `"`, `\`
    /// and control characters. Every byte of a multi-byte UTF-8 sequence
    /// is at least 0x80, so the run ends on a char boundary.
    fn skip_plain(&mut self) {
        let rest = self.rest();
        self.at += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
    }

    /// Decode the escape after a backslash into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let c = match self.rest().first() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.at += 1;
                let hi = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&hi) {
                    // Surrogate pair: the writer never emits one, but a
                    // conforming reader decodes it.
                    if !self.rest().starts_with(b"\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.at += 2;
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))?);
                return Ok(());
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.at += 1;
        out.push(c);
        Ok(())
    }

    /// Exactly four ASCII hex digits (`u32::from_str_radix` would also
    /// take a leading `+`, reading `\u+041` as `A`).
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .rest()
            .get(..4)
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

    fn literal(&mut self, word: &str) -> Result<(), String> {
        self.peek();
        if self.rest().starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    /// Consume `null`.
    pub fn null(&mut self) -> Result<(), String> {
        self.literal("null")
    }

    /// A `true` or `false`.
    fn bool(&mut self) -> Result<bool, String> {
        if self.peek() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// The next number's text, checked against RFC 8259's grammar, and
    /// whether it is an integer (no fraction and no exponent).
    fn number(&mut self) -> Result<(&'a str, bool), String> {
        self.peek();
        let rest = self.rest();
        let len = rest
            .iter()
            .position(|b| !matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            .unwrap_or(rest.len());
        let text = &self.text[self.at..self.at + len];
        let integral = number_shape(text.as_bytes())
            .ok_or_else(|| self.err(&format!("invalid number {text:?}")))?;
        self.at += len;
        Ok((text, integral))
    }

    /// An unsigned integer: digits only, at most `u64::MAX`.
    pub fn u64(&mut self) -> Result<u64, String> {
        let (text, _) = self.number()?;
        text.parse().map_err(|_| {
            self.err_at(
                self.at - text.len(),
                &format!("{text:?} is not an unsigned 64-bit integer"),
            )
        })
    }

    /// Any number, as the nearest `f64`. Parsing rounds correctly, so a
    /// float's shortest rendering reads back to the same bits; a number
    /// beyond the `f64` range is an error.
    pub fn f64(&mut self) -> Result<f64, String> {
        let (text, _) = self.number()?;
        self.finite(text)
    }

    /// `text` (a number just read) as a finite `f64`.
    fn finite(&self, text: &str) -> Result<f64, String> {
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .ok_or_else(|| {
                self.err_at(
                    self.at - text.len(),
                    &format!("number {text:?} is out of range"),
                )
            })
    }

    /// Consume `text` when the input continues with exactly its bytes
    /// (after whitespace), and tell whether it did: a value compared with
    /// its canonical form without being decoded. `text` must be one
    /// complete JSON value; the reader takes it on trust.
    pub fn verbatim(&mut self, text: &str) -> bool {
        self.peek();
        let hit = self.rest().starts_with(text.as_bytes());
        if hit {
            self.at += text.len();
        }
        hit
    }

    /// Check that nothing but whitespace follows what has been read.
    pub fn finish(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing characters after the document")),
        }
    }

    /// One value of any kind, as a tree. The recursion is bounded: only
    /// `open` descends, and it stops at [`MAX_DEPTH`].
    fn value(&mut self) -> Result<Json, String> {
        Ok(match self.peek() {
            Some(b'n') => {
                self.null()?;
                Json::Null
            }
            Some(b't' | b'f') => Json::Bool(self.bool()?),
            Some(b'"') => Json::Str(self.str()?.into_owned()),
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.item()? {
                    items.push(self.value()?);
                }
                self.end_array()?;
                Json::Arr(items)
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut members = Vec::new();
                while let Some(key) = self.key()? {
                    members.push((Cow::Owned(key.into_owned()), self.value()?));
                }
                self.end_object()?;
                Json::Obj(members)
            }
            Some(b'-' | b'0'..=b'9') => {
                let (text, integral) = self.number()?;
                match integral.then(|| exact_integer(text)).flatten() {
                    Some(v) => v,
                    None => Json::Num(self.finite(text)?),
                }
            }
            Some(c) => return Err(self.err(&format!("unexpected character {:?}", c as char))),
            None => return Err(self.err("unexpected end of input")),
        })
    }
}

/// Whether `s` is a number by RFC 8259's grammar,
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`: `Some(true)` for an
/// integer, `Some(false)` with a fraction or an exponent, `None` if not.
fn number_shape(s: &[u8]) -> Option<bool> {
    let digits = |s: &[u8]| s.iter().take_while(|b| b.is_ascii_digit()).count();
    let s = s.strip_prefix(b"-").unwrap_or(s);
    let int = match s.first()? {
        b'0' => 1,
        b'1'..=b'9' => digits(s),
        _ => return None,
    };
    let mut rest = &s[int..];
    let mut integral = true;
    if let Some(frac) = rest.strip_prefix(b".") {
        let n = digits(frac);
        if n == 0 {
            return None;
        }
        rest = &frac[n..];
        integral = false;
    }
    if let Some(exp) = rest.strip_prefix(b"e").or_else(|| rest.strip_prefix(b"E")) {
        let exp = exp
            .strip_prefix(b"+")
            .or_else(|| exp.strip_prefix(b"-"))
            .unwrap_or(exp);
        let n = digits(exp);
        if n == 0 {
            return None;
        }
        rest = &exp[n..];
        integral = false;
    }
    rest.is_empty().then_some(integral)
}

/// An integer literal's exact value, keeping full 64-bit precision (a
/// u64 counter above 2^53 must not round through f64): unsigned to
/// [`Json::UInt`], negative to [`Json::Int`]. `None` beyond 64 bits,
/// where it is a float like in `serde_json`.
fn exact_integer(text: &str) -> Option<Json> {
    if text.starts_with('-') {
        // Only a negative-zero float renders as "-0" (integers print zero
        // unsigned): keep the sign so the text round-trips.
        match text.parse::<i64>().ok()? {
            0 => Some(Json::Num(-0.0)),
            i => Some(Json::Int(i)),
        }
    } else {
        text.parse().ok().map(Json::UInt)
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

    /// [`sample`] with every key borrowed, in an object of exact size.
    fn sample_borrowed() -> Json {
        let mut o = Json::obj_with_capacity(6);
        o.field("name", "CG.C")
            .field("time", 1.5)
            .field("count", 42u64)
            .field("ok", true)
            .field("none", Json::Null)
            .field("tags", Json::Arr(vec![Json::from("a"), Json::from("b")]));
        o
    }

    /// A borrowed key and a copied key make the same member: the trees
    /// compare equal, look members up alike and emit the same bytes.
    #[test]
    fn borrowed_and_copied_keys_make_the_same_members() {
        let (copied, borrowed) = (sample(), sample_borrowed());
        let keys = |v: &Json, borrowed: bool| match v {
            Json::Obj(ms) => ms
                .iter()
                .all(|(k, _)| matches!(k, Cow::Borrowed(_)) == borrowed),
            _ => false,
        };
        assert!(keys(&copied, false) && keys(&borrowed, true));
        assert!(matches!(&borrowed, Json::Obj(ms) if ms.capacity() == ms.len()));
        assert_eq!(borrowed, copied);
        assert_eq!(borrowed.to_compact(), copied.to_compact());
        assert_eq!(borrowed.to_pretty(), copied.to_pretty());
        assert_eq!(borrowed.get("count"), Some(&Json::UInt(42)));
        assert_eq!(Json::parse(&borrowed.to_compact()).unwrap(), borrowed);
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
            "\"a\nb\"",
            "\"\u{1f}\"",
            "01",
            "-01",
            "00",
            "1.",
            "0.",
            "-.5",
            "1.e5",
            "1.5.2",
            "+1",
            "-",
            "1e",
            "1e+",
            "[01]",
            "{\"a\":1.}",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    /// RFC 8259's number forms that a strict grammar might wrongly turn
    /// away, and integers beyond 64 bits, which become floats.
    #[test]
    fn parse_accepts_every_standard_number_form() {
        for (text, value) in [
            ("-0", Json::Num(-0.0)),
            ("0", Json::UInt(0)),
            ("1E5", Json::Num(1e5)),
            ("2.50", Json::Num(2.5)),
            ("1.5e-0", Json::Num(1.5)),
            ("1e+2", Json::Num(100.0)),
            ("-0.0", Json::Num(-0.0)),
            ("18446744073709551616", Json::Num(18446744073709551616.0)),
            ("-9223372036854775809", Json::Num(-9223372036854775809.0)),
        ] {
            let parsed = Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, value, "{text}");
            let bits = |v: &Json| v.as_f64().map(f64::to_bits);
            assert_eq!(bits(&parsed), bits(&value), "{text} keeps its sign");
        }
    }

    /// Errors name the byte offset where the bad token starts.
    #[test]
    fn parse_errors_carry_the_byte_offset() {
        for (text, at) in [
            ("1.5.2", 0),
            ("[1, 01]", 4),
            ("{\"a\": 1.}", 6),
            ("[1e999]", 1),
            ("\"ab\u{7}\"", 3),
            ("[true, nul]", 7),
            ("{\"a\":1,}", 7),
        ] {
            let err = Json::parse(text).expect_err(text);
            assert!(
                err.starts_with(&format!("json parse error at byte {at}:")),
                "{text:?}: {err}"
            );
        }
        let err = Json::parse("1.5.2").expect_err("1.5.2");
        assert!(err.contains("invalid number \"1.5.2\""), "{err}");
    }

    /// The reader pulls a document in the order the caller names its
    /// members, borrows strings without escapes, and reports any other
    /// shape as an error.
    #[test]
    fn reader_reads_members_in_order() {
        let text = r#"{"name":"CG.C","esc":"a\"b","n":18446744073709551615,"x":-2.5e-3,"none":null,"runs":[1,2,3],"tail":{}}"#;
        let mut r = Reader::new(text);
        r.begin_object().unwrap();
        r.member("name").unwrap();
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("CG.C")));
        r.member("esc").unwrap();
        assert!(matches!(r.str().unwrap(), Cow::Owned(s) if s == "a\"b"));
        r.member("n").unwrap();
        assert_eq!(r.u64().unwrap(), u64::MAX);
        r.member("x").unwrap();
        assert_eq!(r.f64().unwrap().to_bits(), (-2.5e-3f64).to_bits());
        r.member("none").unwrap();
        assert_eq!(r.peek(), Some(b'n'));
        r.null().unwrap();
        r.member("runs").unwrap();
        r.begin_array().unwrap();
        let mut runs = Vec::new();
        while r.item().unwrap() {
            runs.push(r.u64().unwrap());
        }
        r.end_array().unwrap();
        assert_eq!(runs, [1, 2, 3]);
        r.member("tail").unwrap();
        assert!(r.verbatim("{}"));
        r.end_object().unwrap();
        r.finish().unwrap();

        let shape = |text: &str| {
            let mut r = Reader::new(text);
            r.begin_object()?;
            r.member("a")?;
            let a = r.u64()?;
            r.member("b")?;
            let b = r.f64()?;
            r.end_object()?;
            r.finish().map(|()| (a, b))
        };
        assert_eq!(shape(r#" { "a" : 1 , "b" : 2 } "#), Ok((1, 2.0)));
        for bad in [
            r#"{"b":2,"a":1}"#,
            r#"{"a":1}"#,
            r#"{"a":1,"b":2,"c":3}"#,
            r#"{"a":1,"a":1,"b":2}"#,
            r#"{"a":-1,"b":2}"#,
            r#"{"a":1.0,"b":2}"#,
            r#"{"a":18446744073709551616,"b":2}"#,
            r#"{"a":1,"b":"2"}"#,
            r#"{"a":1,"b":2}x"#,
            r#"{"a":1 "b":2}"#,
        ] {
            assert!(shape(bad).is_err(), "{bad}");
        }
    }

    /// `verbatim` consumes only an exact match and leaves the reader
    /// where it was otherwise.
    #[test]
    fn verbatim_matches_bytes_exactly() {
        let mut r = Reader::new(r#"{"key":{"a":1},"v":2}"#);
        r.begin_object().unwrap();
        r.member("key").unwrap();
        assert!(!r.verbatim(r#"{"a":2}"#));
        assert!(!r.verbatim(r#"{"a": 1}"#));
        assert!(r.verbatim(r#"{"a":1}"#));
        r.member("v").unwrap();
        assert_eq!(r.u64().unwrap(), 2);
        r.end_object().unwrap();
        r.finish().unwrap();
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

    /// A key for an arbitrary object: copied from a [`hostile_string`],
    /// or borrowed from literals that hold the same kinds of character.
    fn arbitrary_key(rng: &mut crate::DetRng) -> Cow<'static, str> {
        const LITERALS: [&str; 6] = [
            "",
            "a",
            "q\"b\\s",
            "\n\t\u{0}\u{1f}",
            "é\u{2028}",
            "\u{1F600}",
        ];
        match rng.index(2) {
            0 => Cow::Owned(hostile_string(rng)),
            _ => Cow::Borrowed(LITERALS[rng.index(LITERALS.len())]),
        }
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
            Json::Obj(kids.into_iter().map(|k| (arbitrary_key(rng), k)).collect())
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
