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
//!
//! **One writer, three targets.** Every document goes out through one
//! structured writer, [`JsonWriter`]: objects, arrays, keys and scalars,
//! in document order. A type serializes itself once, in
//! [`WriteJson::write_json`], and the writer decides what that becomes:
//! compact text or pretty text into any [`Sink`], or a [`Json`] tree.
//! `Json` writes itself through the same writer, so there is one compact
//! layout and one pretty layout, and every type's `to_json` is its
//! serializer run into the tree target ([`WriteJson::to_tree`]).
//!
//! A pretty array of scalars stays on one line, and an array holding an
//! object or an array puts one element per line. A streaming writer
//! cannot look ahead, so whoever opens an array says which it is
//! ([`Items`]): a typed `Vec<u64>` knows statically, a `Json` array
//! checks its elements.
//!
//! The store's identities are all functions of a rendering — a
//! scenario's content address is FNV-1a over its compact document, a
//! manifest's self-checksum FNV-1a over its core, and a stored record or
//! manifest is trusted only if its bytes *are* its canonical pretty
//! rendering — and none of them needs the rendered text or a tree. So a
//! digest writes into an [`Fnv1a`] ([`WriteJson::fnv1a64`]), a canonical
//! check into a comparator that matches each piece against the stored
//! bytes as it is produced and hashes what matched
//! ([`WriteJson::pretty_checksum`]), and only a document that is written
//! out is materialised. Because every sink sees the same pieces in the
//! same order, a hash or a comparison is exactly what it would be over
//! the rendered text (tests pin this).

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
        self.render_to(&mut out);
        out
    }

    /// Render with two-space indentation (committed artifacts are diffed by
    /// humans).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_pretty_to(&mut out);
        out
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
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError {
                    msg: format!("missing field {key:?}"),
                    at: 0,
                }),
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

/// How a pretty layout sets out an array, which a streaming writer
/// must be told when the array opens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Items {
    /// Scalars only: the whole array on one line.
    Scalars,
    /// At least one object or array among the elements: one element
    /// per line. (An empty array is `[]` either way.)
    Containers,
}

/// The one structured JSON writer: a document is a sequence of these
/// calls in document order, each object member a [`JsonWriter::key`]
/// followed by its value. Its three targets are the compact and pretty
/// layouts over any [`Sink`] and the [`Json`] tree builder; a type
/// drives it from [`WriteJson::write_json`]. Serializers take it as a
/// trait object, so each is compiled once and serves every target: one
/// copy per target made the binary 12% larger and the short-suite
/// workload's resident set 5% higher, for a few percent of digest time.
pub trait JsonWriter {
    /// Open an object.
    fn begin_obj(&mut self);
    /// Name the next member of the open object.
    fn key(&mut self, key: &str);
    /// Close the open object.
    fn end_obj(&mut self);
    /// Open an array whose elements are `items`.
    fn begin_arr(&mut self, items: Items);
    /// Close the open array.
    fn end_arr(&mut self);
    /// `null`.
    fn null(&mut self);
    /// `true` / `false`.
    fn bool(&mut self, b: bool);
    /// An exact unsigned integer.
    fn uint(&mut self, u: u64);
    /// A finite float.
    fn num(&mut self, x: f64);
    /// A string.
    fn str(&mut self, s: &str);
}

impl dyn JsonWriter + '_ {
    /// An object whose members `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut Self)) {
        self.begin_obj();
        body(self);
        self.end_obj();
    }

    /// An array of `items` whose elements `body` writes.
    pub fn arr(&mut self, items: Items, body: impl FnOnce(&mut Self)) {
        self.begin_arr(items);
        body(self);
        self.end_arr();
    }

    /// One object member: `key`, then `value`.
    pub fn field(&mut self, key: &str, value: impl WriteJson) {
        self.key(key);
        value.write_json(self);
    }
}

/// A value with one serializer. Everything else — the compact and
/// pretty text, their digests, the canonical check and the [`Json`]
/// tree — is that serializer run into another target.
pub trait WriteJson {
    /// Write the value through `w`.
    fn write_json(&self, w: &mut dyn JsonWriter);

    /// Whether the value writes as a scalar (sets the pretty layout of
    /// an array holding it; see [`Items`]).
    fn is_scalar(&self) -> bool {
        false
    }

    /// The value as a [`Json`] tree.
    fn to_tree(&self) -> Json {
        let mut tree = TreeBuilder::default();
        self.write_json(&mut tree);
        tree.finish()
    }

    /// Write the compact rendering into `out`.
    fn render_to(&self, out: &mut impl Sink) {
        self.write_json(&mut Compact { out, comma: false });
    }

    /// Write the pretty rendering — two-space indentation and a trailing
    /// newline — into `out`.
    fn render_pretty_to(&self, out: &mut impl Sink) {
        self.write_json(&mut Pretty {
            out: &mut *out,
            depth: 0,
            inline: 0,
            comma: false,
            after_key: false,
        });
        out.put("\n");
    }

    /// FNV-1a over the compact rendering, hashed as it is written: the
    /// content address of a canonical compact document, with no `String`
    /// built to hold it.
    fn fnv1a64(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.render_to(&mut h);
        h.finish()
    }

    /// The FNV-1a of `text` (`fnv1a64(text)`) when `text` is exactly the
    /// pretty rendering, `None` otherwise: compared byte by byte as it is
    /// written, and hashed on the way, so one pass gives a stored
    /// document's verdict and its checksum with no second copy built.
    fn pretty_checksum(&self, text: &str) -> Option<u64> {
        let mut expect = Expect::new(text);
        self.render_pretty_to(&mut expect);
        expect.matched()
    }

    /// Whether `text` is exactly the pretty rendering
    /// ([`WriteJson::pretty_checksum`] without the checksum).
    fn renders_pretty_as(&self, text: &str) -> bool {
        self.pretty_checksum(text).is_some()
    }
}

impl WriteJson for Json {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::UInt(u) => w.uint(*u),
            Json::Num(x) => w.num(*x),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => items.write_json(w),
            Json::Obj(fields) => w.obj(|w| {
                for (k, v) in fields {
                    w.field(k, v);
                }
            }),
        }
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }
}

impl<T: WriteJson + ?Sized> WriteJson for &T {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        (**self).write_json(w);
    }

    fn is_scalar(&self) -> bool {
        (**self).is_scalar()
    }
}

/// `None` is `null`.
impl<T: WriteJson> WriteJson for Option<T> {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        match self {
            None => w.null(),
            Some(v) => v.write_json(w),
        }
    }

    fn is_scalar(&self) -> bool {
        self.as_ref().is_none_or(T::is_scalar)
    }
}

/// An array, laid out by its elements: for a slice of scalars the
/// check is a constant.
impl<T: WriteJson> WriteJson for [T] {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        let items = if self.iter().all(T::is_scalar) {
            Items::Scalars
        } else {
            Items::Containers
        };
        w.arr(items, |w| {
            for item in self {
                item.write_json(w);
            }
        });
    }
}

impl<T: WriteJson> WriteJson for Vec<T> {
    fn write_json(&self, w: &mut dyn JsonWriter) {
        self.as_slice().write_json(w);
    }
}

macro_rules! scalar {
    ($($t:ty => |$w:ident, $v:ident| $body:expr;)*) => {$(
        impl WriteJson for $t {
            fn write_json(&self, $w: &mut dyn JsonWriter) {
                let $v = self;
                $body
            }

            fn is_scalar(&self) -> bool {
                true
            }
        }
    )*};
}

scalar! {
    bool => |w, v| w.bool(*v);
    u64 => |w, v| w.uint(*v);
    usize => |w, v| w.uint(*v as u64);
    f64 => |w, v| w.num(*v);
    str => |w, v| w.str(v);
    String => |w, v| w.str(v);
}

/// The compact layout: no whitespace.
struct Compact<'s, S> {
    out: &'s mut S,
    /// The open container already has a member, so the next one is
    /// preceded by a comma.
    comma: bool,
}

impl<S: Sink> Compact<'_, S> {
    /// Begin a value or a key: a comma if the open container already
    /// has a member.
    fn sep(&mut self) {
        if self.comma {
            self.out.put(",");
        }
        self.comma = true;
    }

    fn open(&mut self, bracket: &str) {
        self.sep();
        self.out.put(bracket);
        self.comma = false;
    }

    fn close(&mut self, bracket: &str) {
        self.out.put(bracket);
        self.comma = true;
    }
}

impl<S: Sink> JsonWriter for Compact<'_, S> {
    fn begin_obj(&mut self) {
        self.open("{");
    }

    fn key(&mut self, key: &str) {
        self.sep();
        render_string(key, self.out);
        self.out.put(":");
        self.comma = false;
    }

    fn end_obj(&mut self) {
        self.close("}");
    }

    fn begin_arr(&mut self, _: Items) {
        self.open("[");
    }

    fn end_arr(&mut self) {
        self.close("]");
    }

    fn null(&mut self) {
        self.sep();
        self.out.put("null");
    }

    fn bool(&mut self, b: bool) {
        self.sep();
        self.out.put(if b { "true" } else { "false" });
    }

    fn uint(&mut self, u: u64) {
        self.sep();
        render_u64(u, self.out);
    }

    fn num(&mut self, x: f64) {
        self.sep();
        render_f64(x, self.out);
    }

    fn str(&mut self, s: &str) {
        self.sep();
        render_string(s, self.out);
    }
}

/// The pretty layout: two-space indentation, one member per line, and
/// arrays of scalars on one line (compact inside). Open containers
/// nest as some laid out line by line, then, from the first one-line
/// array in, some laid out inline — so two counts stand for the stack.
struct Pretty<'s, S> {
    out: &'s mut S,
    /// Open containers laid out one member per line.
    depth: usize,
    /// Open containers inside (and including) a one-line array.
    inline: usize,
    /// The open container already has a member.
    comma: bool,
    /// The next value follows its key on the key's line.
    after_key: bool,
}

impl<S: Sink> Pretty<'_, S> {
    /// What precedes the next value: a comma inside a one-line array,
    /// nothing after a key or at the root, and a line break and indent
    /// before an array element on its own line.
    fn lead(&mut self) {
        if self.inline > 0 {
            if self.comma {
                self.out.put(",");
            }
        } else if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            self.out.put(if self.comma { ",\n" } else { "\n" });
            pad(self.out, self.depth);
        }
    }

    fn open(&mut self, bracket: &str, one_line: bool) {
        self.lead();
        self.out.put(bracket);
        self.comma = false;
        if self.inline > 0 || one_line {
            self.inline += 1;
        } else {
            self.depth += 1;
        }
    }

    fn close(&mut self, bracket: &str) {
        if self.inline > 0 {
            self.inline -= 1;
        } else {
            self.depth -= 1;
            if self.comma {
                self.out.put("\n");
                pad(self.out, self.depth);
            }
        }
        self.out.put(bracket);
        self.comma = true;
    }

    fn scalar(&mut self) {
        self.lead();
        self.comma = true;
    }
}

impl<S: Sink> JsonWriter for Pretty<'_, S> {
    fn begin_obj(&mut self) {
        self.open("{", false);
    }

    fn key(&mut self, key: &str) {
        if self.inline > 0 {
            if self.comma {
                self.out.put(",");
            }
            render_string(key, self.out);
            self.out.put(":");
        } else {
            self.out.put(if self.comma { ",\n" } else { "\n" });
            pad(self.out, self.depth);
            render_string(key, self.out);
            self.out.put(": ");
            self.after_key = true;
        }
        self.comma = false;
    }

    fn end_obj(&mut self) {
        self.close("}");
    }

    fn begin_arr(&mut self, items: Items) {
        self.open("[", items == Items::Scalars);
    }

    fn end_arr(&mut self) {
        self.close("]");
    }

    fn null(&mut self) {
        self.scalar();
        self.out.put("null");
    }

    fn bool(&mut self, b: bool) {
        self.scalar();
        self.out.put(if b { "true" } else { "false" });
    }

    fn uint(&mut self, u: u64) {
        self.scalar();
        render_u64(u, self.out);
    }

    fn num(&mut self, x: f64) {
        self.scalar();
        render_f64(x, self.out);
    }

    fn str(&mut self, s: &str) {
        self.scalar();
        render_string(s, self.out);
    }
}

/// The tree target: builds the [`Json`] a serializer describes.
#[derive(Default)]
struct TreeBuilder {
    open: Vec<Open>,
    done: Option<Json>,
}

/// A container the tree builder has open.
enum Open {
    Arr(Vec<Json>, Items),
    /// The members so far, and the key awaiting its value.
    Obj(Vec<(String, Json)>, Option<String>),
}

impl TreeBuilder {
    fn value(&mut self, v: Json) {
        match self.open.last_mut() {
            None => self.done = Some(v),
            Some(Open::Arr(items, _)) => items.push(v),
            Some(Open::Obj(fields, key)) => {
                let key = key.take().expect("an object member needs a key");
                fields.push((key, v));
            }
        }
    }

    fn finish(self) -> Json {
        debug_assert!(self.open.is_empty(), "a container was left open");
        self.done.expect("nothing was written")
    }
}

impl JsonWriter for TreeBuilder {
    fn begin_obj(&mut self) {
        self.open.push(Open::Obj(Vec::new(), None));
    }

    fn key(&mut self, key: &str) {
        match self.open.last_mut() {
            Some(Open::Obj(_, slot)) => *slot = Some(key.to_string()),
            _ => panic!("a key outside an object"),
        }
    }

    fn end_obj(&mut self) {
        match self.open.pop() {
            Some(Open::Obj(fields, None)) => self.value(Json::Obj(fields)),
            _ => panic!("end_obj does not close an object"),
        }
    }

    fn begin_arr(&mut self, items: Items) {
        self.open.push(Open::Arr(Vec::new(), items));
    }

    fn end_arr(&mut self) {
        match self.open.pop() {
            Some(Open::Arr(elements, items)) => {
                // The declared layout must be the one the elements imply,
                // or the pretty text would differ from the tree's.
                debug_assert!(
                    elements.is_empty()
                        || (items == Items::Scalars) == elements.iter().all(Json::is_scalar),
                    "array declared {items:?} holds {elements:?}"
                );
                self.value(Json::Arr(elements));
            }
            _ => panic!("end_arr does not close an array"),
        }
    }

    fn null(&mut self) {
        self.value(Json::Null);
    }

    fn bool(&mut self, b: bool) {
        self.value(Json::Bool(b));
    }

    fn uint(&mut self, u: u64) {
        self.value(Json::UInt(u));
    }

    fn num(&mut self, x: f64) {
        self.value(Json::Num(x));
    }

    fn str(&mut self, s: &str) {
        self.value(Json::Str(s.to_string()));
    }
}

/// Where a text layout puts its output, piece by piece, in document
/// order. The same writer serves every use: a `String` materialises
/// the document, an [`Fnv1a`] hashes it, and a comparator checks it
/// against text already in hand ([`WriteJson::pretty_checksum`]).
pub trait Sink {
    /// Take the next piece of the rendering.
    fn put(&mut self, s: &str);
}

impl Sink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

/// 64-bit FNV-1a, fed incrementally — the workspace's content-address
/// hash (dependency-free, stable across platforms and versions). As a
/// [`Sink`] it hashes a rendering without building it.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of no bytes.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Hash `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The hash of every byte fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Sink for Fnv1a {
    fn put(&mut self, s: &str) {
        self.update(s.as_bytes());
    }
}

/// 64-bit FNV-1a over `bytes` ([`Fnv1a`] in one call).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// A [`Sink`] that checks a rendering against expected text as it is
/// produced, hashing the matched bytes: each piece must be the next
/// bytes of the text. After the first mismatch it ignores the rest.
struct Expect<'t> {
    rest: &'t [u8],
    ok: bool,
    hash: Fnv1a,
}

impl<'t> Expect<'t> {
    fn new(text: &'t str) -> Self {
        Expect {
            rest: text.as_bytes(),
            ok: true,
            hash: Fnv1a::new(),
        }
    }

    /// The hash of the text, if everything rendered so far matched and
    /// the text is used up.
    fn matched(&self) -> Option<u64> {
        (self.ok && self.rest.is_empty()).then(|| self.hash.finish())
    }
}

impl Sink for Expect<'_> {
    fn put(&mut self, s: &str) {
        if !self.ok {
            return;
        }
        match self.rest.strip_prefix(s.as_bytes()) {
            Some(rest) => {
                self.hash.update(s.as_bytes());
                self.rest = rest;
            }
            None => self.ok = false,
        }
    }
}

/// `fmt` output routed into a [`Sink`], for the few values whose
/// rendering is `std`'s (floats, `\u` escapes).
struct Fmt<'s, S>(&'s mut S);

impl<S: Sink> std::fmt::Write for Fmt<'_, S> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.put(s);
        Ok(())
    }
}

fn pad(out: &mut impl Sink, depth: usize) {
    for _ in 0..depth {
        out.put("  ");
    }
}

/// Decimal digits of `u`, written right to left into a stack buffer.
fn render_u64(mut u: u64, out: &mut impl Sink) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.put(std::str::from_utf8(&buf[at..]).expect("ascii digits"));
}

/// Integral values below 10¹⁵ keep a fractional marker (`{x:.1}`) so a
/// negative one re-parses as `Num`; non-negative integral floats
/// legitimately collapse to `UInt` on re-parse (`as_f64` accepts both).
/// Everything else is `Display`, which prints the shortest string that
/// round-trips.
fn render_f64(x: f64, out: &mut impl Sink) {
    assert!(x.is_finite(), "JSON cannot represent {x}");
    let _ = if x == x.trunc() && x.abs() < 1e15 {
        write!(Fmt(out), "{x:.1}")
    } else {
        write!(Fmt(out), "{x}")
    };
}

/// Render `s` as a JSON string literal: `"`, `\\` and control bytes below
/// 0x20 are escaped, everything else (DEL and multi-byte UTF-8 included)
/// is copied as is. Each run of bytes that needs no escaping goes out
/// in one piece; the bytes that do are all ASCII, so every run boundary
/// is a char boundary.
fn render_string(s: &str, out: &mut impl Sink) {
    out.put("\"");
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.put(&s[run..i]);
        match b {
            b'"' => out.put("\\\""),
            b'\\' => out.put("\\\\"),
            b'\n' => out.put("\\n"),
            b'\t' => out.put("\\t"),
            b'\r' => out.put("\\r"),
            _ => {
                let _ = write!(Fmt(out), "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.put(&s[run..]);
    out.put("\"");
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
            // A run of plain ASCII is valid UTF-8 as it stands: copy it
            // whole, up to the next quote, escape or non-ASCII byte.
            0x00..=0x7f => {
                let start = *pos - 1;
                let run = b[*pos..]
                    .iter()
                    .take_while(|&&c| c < 0x80 && c != b'"' && c != b'\\')
                    .count();
                *pos += run;
                out.push_str(std::str::from_utf8(&b[start..*pos]).expect("ascii run"));
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

/// Objects with at most this many keys are checked for a repeated key
/// pair by pair, allocating nothing; larger ones are sorted.
const PAIRWISE_KEYS: usize = 16;

/// The least key `fields` holds twice, if any. Duplicate keys are
/// rejected rather than resolved: keeping either one would let a
/// document say two things and run one of them. Small objects — nearly
/// every object the workspace writes — compare their keys pairwise;
/// sorting keeps one hostile object with a huge key count at
/// O(n log n). Both report the same key.
fn repeated_key(fields: &[(String, Json)]) -> Option<&str> {
    if fields.len() <= PAIRWISE_KEYS {
        let mut least: Option<&str> = None;
        for (i, (key, _)) in fields.iter().enumerate() {
            if least.is_some_and(|l| l <= key.as_str()) {
                continue;
            }
            if fields[i + 1..].iter().any(|(other, _)| other == key) {
                least = Some(key);
            }
        }
        return least;
    }
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

    /// The sort-based duplicate-key search every object used before the
    /// pairwise path: the oracle for which key is reported.
    fn sorted_repeated_key(fields: &[(String, Json)]) -> Option<&str> {
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
    }

    #[test]
    fn duplicate_keys_are_caught_at_every_size_and_position() {
        // Nested one level in, so the reported offset is the inner
        // object's: byte 9, after `{"outer":`.
        let doc = |keys: &[String]| {
            let fields: Vec<String> = keys
                .iter()
                .enumerate()
                .map(|(v, k)| format!("\"{k}\":{v}"))
                .collect();
            format!("{{\"outer\":{{{}}}}}", fields.join(","))
        };
        for n in 2..=40usize {
            let distinct: Vec<String> = (0..n).map(|i| format!("k{i:02}")).collect();
            assert!(Json::parse(&doc(&distinct)).is_ok(), "n={n}");
            for i in 0..n {
                for j in i + 1..n {
                    let mut keys = distinct.clone();
                    keys[j] = keys[i].clone();
                    let e = Json::parse(&doc(&keys)).unwrap_err();
                    assert_eq!(e.msg, format!("duplicate object key {:?}", keys[i]));
                    assert_eq!(e.at, 9, "n={n} i={i} j={j}");
                }
            }
        }
        // Keys equal only after unescaping, below and above the pairwise
        // threshold.
        for n in [2, PAIRWISE_KEYS, PAIRWISE_KEYS + 1, 40] {
            let mut fields: Vec<String> = (0..n - 2).map(|i| format!("\"k{i}\":0")).collect();
            fields.push("\"a\":1".into());
            fields.push("\"\\u0061\":2".into());
            let e = Json::parse(&format!("{{{}}}", fields.join(","))).unwrap_err();
            assert_eq!(e.msg, r#"duplicate object key "a""#, "n={n}");
            assert_eq!(e.at, 0);
        }
    }

    /// The `{:.17e}` → parse → `{}` → parse sequence the non-integral
    /// branch of `render_f64` used: the oracle for plain `Display`.
    fn render_f64_by_round_trip(x: f64) -> String {
        if x == x.trunc() && x.abs() < 1e15 {
            return format!("{x:.1}");
        }
        let mut s = format!("{x:.17e}");
        if let Ok(back) = s.parse::<f64>() {
            if back == x {
                let short = format!("{x}");
                if short.parse::<f64>() == Ok(x) {
                    s = short;
                }
            }
        }
        s
    }

    /// Arbitrary documents: every variant, strings over the codec's
    /// char classes, floats from raw bit patterns, containers nested up
    /// to `depth` levels.
    struct Trees {
        depth: usize,
    }

    impl proptest::Strategy for Trees {
        type Value = Json;

        fn generate(&self, rng: &mut proptest::TestRng) -> Json {
            tree(rng, self.depth)
        }
    }

    fn tree(rng: &mut proptest::TestRng, depth: usize) -> Json {
        let pool = string_chars();
        let string = |rng: &mut proptest::TestRng| -> String {
            let len = rng.below(8);
            (0..len)
                .map(|_| pool[rng.below(pool.len() as u64) as usize])
                .collect()
        };
        let leaf_kinds = 5;
        match rng.below(if depth == 0 {
            leaf_kinds
        } else {
            leaf_kinds + 2
        }) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64() & 1 == 1),
            2 => Json::UInt(rng.next_u64() >> rng.below(64)),
            3 => {
                let x = f64::from_bits(rng.next_u64());
                Json::Num(if x.is_finite() { x } else { -0.5 })
            }
            4 => Json::Str(string(rng)),
            5 => Json::Arr((0..rng.below(5)).map(|_| tree(rng, depth - 1)).collect()),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (string(rng), tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// `text` with one ASCII byte changed, dropped, or one appended — the
    /// edits that keep it UTF-8, so it could reach a canonical check.
    /// `pick` chooses among the ASCII bytes.
    fn one_byte_edits(text: &str, pick: usize) -> [String; 3] {
        let ascii: Vec<usize> = (0..text.len())
            .filter(|&i| text.as_bytes()[i].is_ascii())
            .collect();
        let at = ascii[pick % ascii.len()];
        let mut flipped = text.as_bytes().to_vec();
        flipped[at] ^= 1 << (pick % 7);
        let mut dropped = text.to_string();
        dropped.remove(at);
        [
            String::from_utf8(flipped).expect("an ASCII flip keeps UTF-8"),
            dropped,
            format!("{text} "),
        ]
    }

    #[test]
    fn render_f64_is_display_past_the_integral_branch() {
        for x in [0.1, -2.5e-300, 1e15, -1e15, 1.7976931348623157e308, 5e-324] {
            let mut out = String::new();
            render_f64(x, &mut out);
            assert_eq!(out, render_f64_by_round_trip(x), "{x:e}");
        }
    }

    /// The char-at-a-time string codec (one `from_utf8` call per
    /// character): the oracle the run-at-a-time fast paths must match.
    mod reference {
        use super::super::{err, utf8_len, JsonError};
        use std::fmt::Write as _;

        pub fn render_string(s: &str, out: &mut String) {
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

        pub fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
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
                                let code =
                                    u32::from_str_radix(&hex, 16).map_err(|_| JsonError {
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
    }

    /// The recursive tree renderers the writer replaced: the oracle for
    /// both text layouts.
    mod tree_render {
        use super::super::{render_f64, render_string, Json};

        pub fn compact(v: &Json, out: &mut String) {
            match v {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::UInt(u) => out.push_str(&u.to_string()),
                Json::Num(x) => render_f64(*x, out),
                Json::Str(s) => render_string(s, out),
                Json::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        compact(item, out);
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
                        compact(v, out);
                    }
                    out.push('}');
                }
            }
        }

        pub fn pretty(v: &Json, out: &mut String, depth: usize) {
            let pad = |out: &mut String, d: usize| out.push_str(&"  ".repeat(d));
            match v {
                Json::Arr(items)
                    if items
                        .iter()
                        .any(|i| matches!(i, Json::Arr(_) | Json::Obj(_))) =>
                {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        pad(out, depth + 1);
                        pretty(item, out, depth + 1);
                        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
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
                        pretty(v, out, depth + 1);
                        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                    }
                    pad(out, depth);
                    out.push('}');
                }
                _ => compact(v, out),
            }
        }
    }

    /// Every char class the string codec treats differently: plain
    /// ASCII, the two escaped printables, every control byte, DEL, and
    /// two-, three- and four-byte UTF-8.
    fn string_chars() -> Vec<char> {
        let mut pool: Vec<char> = "aZ0 /'".chars().collect();
        pool.extend(['"', '\\', '\u{7f}', 'é', '∑', '😀']);
        pool.extend((0u8..0x20).map(char::from));
        pool
    }

    /// Byte pieces of a string literal's body, valid or not: plain and
    /// escaped ASCII, good and bad `\u` escapes, whole, truncated and
    /// invalid UTF-8.
    const BODY_PIECES: &[&[u8]] = &[
        b"abc",
        b" ",
        b"\x7f",
        b"\\n",
        b"\\\"",
        b"\\/",
        b"\\b",
        b"\\u0041",
        b"\\u00e9",
        b"\\u001f",
        b"\\ud800",
        b"\\u12",
        b"\\uzz00",
        b"\\u\xc3\xa9zz",
        b"\\q",
        b"\\",
        "é∑😀".as_bytes(),
        b"\xe2\x88",
        b"\xf0\x9f\x98",
        b"\x80",
        b"\xff",
        b"\xc0\xaf",
        b"\x01\x1f",
    ];

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn render_f64_matches_the_round_trip_sequence(
            patterns in collection::vec(any::<u64>(), 256..257),
        ) {
            for x in patterns.into_iter().map(f64::from_bits).filter(|x| x.is_finite()) {
                let mut out = String::new();
                render_f64(x, &mut out);
                prop_assert_eq!(out, render_f64_by_round_trip(x), "{:e}", x);
            }
        }

        #[test]
        fn sinks_agree_with_the_rendered_text(
            doc in Trees { depth: 4 },
            pick in 0usize..1 << 20,
        ) {
            let compact = doc.render();
            let pretty = doc.render_pretty();
            prop_assert_eq!(doc.fnv1a64(), fnv1a64(compact.as_bytes()));
            let mut h = Fnv1a::new();
            doc.render_pretty_to(&mut h);
            prop_assert_eq!(h.finish(), fnv1a64(pretty.as_bytes()));
            prop_assert!(doc.renders_pretty_as(&pretty));
            for edited in one_byte_edits(&pretty, pick) {
                prop_assert!(!doc.renders_pretty_as(&edited), "{:?}", edited);
            }
            prop_assert!(!doc.renders_pretty_as(pretty.trim_end_matches('\n')));
        }

        #[test]
        fn the_writer_lays_out_what_the_tree_renderers_did(doc in Trees { depth: 5 }) {
            let (mut compact, mut pretty) = (String::new(), String::new());
            tree_render::compact(&doc, &mut compact);
            tree_render::pretty(&doc, &mut pretty, 0);
            pretty.push('\n');
            prop_assert_eq!(doc.render(), compact);
            prop_assert_eq!(doc.render_pretty(), pretty);
            prop_assert_eq!(doc.to_tree(), doc);
        }

        #[test]
        fn pairwise_and_sorted_key_searches_report_the_same_key(
            picks in collection::vec(0u64..48, 0..40),
        ) {
            // Keys from a small alphabet, so most objects repeat several.
            let fields: Vec<(String, Json)> = picks
                .iter()
                .map(|&p| (format!("k{p}"), Json::Null))
                .collect();
            prop_assert_eq!(repeated_key(&fields), sorted_repeated_key(&fields));
        }

        #[test]
        fn string_fast_paths_match_the_char_at_a_time_codec(
            picks in collection::vec(0usize..string_chars().len(), 0..48),
            pieces in collection::vec(0usize..BODY_PIECES.len(), 0..12),
            closed in any::<bool>(),
        ) {
            let pool = string_chars();
            let s: String = picks.iter().map(|&i| pool[i]).collect();
            let (mut fast, mut slow) = (String::new(), String::new());
            render_string(&s, &mut fast);
            reference::render_string(&s, &mut slow);
            prop_assert_eq!(&fast, &slow);
            prop_assert_eq!(Json::parse(&fast), Ok(Json::Str(s)));

            let mut literal = b"\"".to_vec();
            for &i in &pieces {
                literal.extend_from_slice(BODY_PIECES[i]);
            }
            if closed {
                literal.push(b'"');
            }
            let (mut at_fast, mut at_slow) = (0, 0);
            let got = parse_string(&literal, &mut at_fast);
            let want = reference::parse_string(&literal, &mut at_slow);
            prop_assert_eq!(&got, &want, "{:?}", String::from_utf8_lossy(&literal));
            if want.is_ok() {
                prop_assert_eq!(at_fast, at_slow);
            }
        }
    }
}
