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
//!
//! **One parser, one view.** The reader mirrors the writer: a document
//! is parsed once into a flat [`JsonDoc`] — one `Vec` of nodes, each
//! container recording where its own nodes end so a sibling is skipped
//! in O(1), escape-free strings borrowed from the input, escaped ones
//! unescaped once into a side buffer — and every type's decoder reads it
//! through one view, [`JsonVal`]. A stored record, a manifest, a suite
//! or a journal line is checked and decoded with no tree built; a
//! [`Json`] tree is what [`JsonDoc`] materialises ([`Json::parse`]) for
//! the few callers that edit or diff documents, and a tree in hand is
//! decoded by viewing it as a document ([`Json::decode`]). The parser
//! keeps every check with its message and byte offset: nesting deeper
//! than [`MAX_DEPTH`], a key repeated in one object (compared after
//! unescaping), malformed numbers and escapes, trailing bytes. An access
//! error prints the offending value as its tree, built only on that
//! error path.

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

/// Deepest array/object nesting [`JsonDoc::parse`] accepts. The parser
/// keeps its open containers on a heap stack, but materialising,
/// comparing and dropping a [`Json`] tree recurse, so without a cap one
/// hostile file of `[[[[…` would overflow the stack and abort the process
/// (an abort, not a panic: no `catch_unwind` contains it). The deepest
/// legal document in the workspace, a record embedding a maximal
/// adversary tree, nests a few dozen levels; 128 leaves ample headroom.
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed).
    /// Documents nesting deeper than [`MAX_DEPTH`] are rejected.
    /// This is [`JsonDoc::parse`], materialised.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        Ok(JsonDoc::parse(s)?.root().to_json())
    }

    /// Decode the tree with `decode`, a decoder over [`JsonVal`]: the
    /// entry for callers that already hold a tree.
    pub fn decode<T>(
        &self,
        decode: impl FnOnce(JsonVal<'_>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        decode(JsonDoc::of(self).root())
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

    /// The value as `u64`: [`JsonVal::as_u64`] of the tree.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        self.decode(|v| v.as_u64())
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

/// A parsed document, flat: every value is one node in document
/// order, a container's members following it, so a document of any
/// shape is one `Vec`. Strings without escapes are byte ranges of the
/// input; a string with escapes is unescaped once, into a side buffer.
/// Decoders read it through [`JsonVal`] ([`JsonDoc::root`]); nothing is
/// allocated per value.
#[derive(Clone, Debug)]
pub struct JsonDoc<'t> {
    text: &'t str,
    /// The strings that held escapes, unescaped, end to end.
    unescaped: String,
    nodes: Vec<Node>,
}

/// One value of a [`JsonDoc`].
#[derive(Clone, Copy, Debug)]
enum Node {
    Null,
    Bool(bool),
    UInt(u64),
    Num(f64),
    /// Bytes `start..end` of the input, or of the unescaped buffer when
    /// the literal held an escape.
    Str {
        start: usize,
        end: usize,
        escaped: bool,
    },
    /// `len` elements; the nodes up to `end` (exclusive) are its own.
    Arr {
        len: usize,
        end: usize,
    },
    /// `len` members, each a key (a `Str` node) and then its value; the
    /// nodes up to `end` (exclusive) are its own.
    Obj {
        len: usize,
        end: usize,
    },
}

impl<'t> JsonDoc<'t> {
    /// Parse a complete JSON document (trailing whitespace allowed).
    /// Documents nesting deeper than [`MAX_DEPTH`] are rejected, and so
    /// are objects holding one key twice (compared after unescaping).
    pub fn parse(text: &'t str) -> Result<Self, JsonError> {
        let mut parser = Parser {
            b: text.as_bytes(),
            pos: 0,
            doc: JsonDoc {
                text,
                unescaped: String::new(),
                nodes: Vec::with_capacity(text.len() / 8),
            },
            open: Vec::new(),
            keys: KeyBits::default(),
        };
        parser.document()?;
        Ok(parser.doc)
    }

    /// Parse `text` and decode its root with `decode`.
    pub fn decode<T>(
        text: &str,
        decode: impl FnOnce(JsonVal<'_>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        decode(JsonDoc::parse(text)?.root())
    }

    /// The document of a tree already in hand: every string lives in the
    /// side buffer.
    pub fn of(tree: &Json) -> JsonDoc<'static> {
        let mut doc = JsonDoc {
            text: "",
            unescaped: String::new(),
            nodes: Vec::new(),
        };
        doc.push_tree(tree);
        doc
    }

    fn push_tree(&mut self, tree: &Json) {
        match tree {
            Json::Null => self.nodes.push(Node::Null),
            Json::Bool(b) => self.nodes.push(Node::Bool(*b)),
            Json::UInt(u) => self.nodes.push(Node::UInt(*u)),
            Json::Num(x) => self.nodes.push(Node::Num(*x)),
            Json::Str(s) => self.push_str(s),
            Json::Arr(items) => {
                let at = self.nodes.len();
                self.nodes.push(Node::Null);
                items.iter().for_each(|item| self.push_tree(item));
                self.nodes[at] = Node::Arr {
                    len: items.len(),
                    end: self.nodes.len(),
                };
            }
            Json::Obj(fields) => {
                let at = self.nodes.len();
                self.nodes.push(Node::Null);
                for (key, value) in fields {
                    self.push_str(key);
                    self.push_tree(value);
                }
                self.nodes[at] = Node::Obj {
                    len: fields.len(),
                    end: self.nodes.len(),
                };
            }
        }
    }

    fn push_str(&mut self, s: &str) {
        let start = self.unescaped.len();
        self.unescaped.push_str(s);
        self.nodes.push(Node::Str {
            start,
            end: self.unescaped.len(),
            escaped: true,
        });
    }

    /// The whole document.
    pub fn root(&self) -> JsonVal<'_> {
        JsonVal { doc: self, at: 0 }
    }

    /// The string node `at`.
    fn str_at(&self, at: usize) -> &str {
        match self.nodes[at] {
            Node::Str {
                start,
                end,
                escaped: false,
            } => &self.text[start..end],
            Node::Str { start, end, .. } => &self.unescaped[start..end],
            _ => unreachable!("node {at} is not a string"),
        }
    }

    /// The bytes of the string node `at`.
    fn str_bytes(&self, at: usize) -> &[u8] {
        match self.nodes[at] {
            Node::Str {
                start,
                end,
                escaped: false,
            } => &self.text.as_bytes()[start..end],
            Node::Str { start, end, .. } => &self.unescaped.as_bytes()[start..end],
            _ => unreachable!("node {at} is not a string"),
        }
    }

    /// The node after value `at` and everything it holds.
    fn skip(&self, at: usize) -> usize {
        match self.nodes[at] {
            Node::Arr { end, .. } | Node::Obj { end, .. } => end,
            _ => at + 1,
        }
    }
}

/// One value of a [`JsonDoc`]: what every decoder reads. Access errors
/// carry the messages of [`Json`]'s accessors, and print the offending
/// value as its [`Json`] tree, which is built only on that error path
/// (`{:?}` of a `JsonVal` is the tree's).
#[derive(Clone, Copy)]
pub struct JsonVal<'d> {
    doc: &'d JsonDoc<'d>,
    at: usize,
}

impl std::fmt::Debug for JsonVal<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.to_json().fmt(f)
    }
}

impl<'d> JsonVal<'d> {
    fn node(self) -> Node {
        self.doc.nodes[self.at]
    }

    /// Whether the value is `null`.
    pub fn is_null(self) -> bool {
        matches!(self.node(), Node::Null)
    }

    /// The value, unless it is `null`: with [`JsonVal::get_opt`], an
    /// optional field that may also be written as `null`.
    pub fn non_null(self) -> Option<Self> {
        (!self.is_null()).then_some(self)
    }

    /// The value, if it is `true` or `false`.
    pub fn as_bool(self) -> Option<bool> {
        match self.node() {
            Node::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as `u64` (accepts an integer, and an integral
    /// non-negative float below 2⁵³).
    pub fn as_u64(self) -> Result<u64, JsonError> {
        match self.node() {
            Node::UInt(u) => Ok(u),
            Node::Num(x) if x >= 0.0 && x.fract() == 0.0 && x < (1u64 << 53) as f64 => Ok(x as u64),
            _ => err(format!("expected unsigned integer, got {self:?}"), 0),
        }
    }

    /// The value as `usize`.
    pub fn as_usize(self) -> Result<usize, JsonError> {
        let u = self.as_u64()?;
        usize::try_from(u).map_err(|_| JsonError {
            msg: format!("{u} does not fit usize"),
            at: 0,
        })
    }

    /// The value as `f64` (accepts any number).
    pub fn as_f64(self) -> Result<f64, JsonError> {
        match self.node() {
            Node::Num(x) => Ok(x),
            Node::UInt(u) => Ok(u as f64),
            _ => err(format!("expected number, got {self:?}"), 0),
        }
    }

    /// The value as `&str`.
    pub fn as_str(self) -> Result<&'d str, JsonError> {
        match self.node() {
            Node::Str { .. } => Ok(self.doc.str_at(self.at)),
            _ => err(format!("expected string, got {self:?}"), 0),
        }
    }

    /// The elements of an array, in order.
    pub fn as_arr(self) -> Result<Elements<'d>, JsonError> {
        match self.node() {
            Node::Arr { len, .. } => Ok(Elements {
                doc: self.doc,
                at: self.at + 1,
                left: len,
            }),
            _ => err(format!("expected array, got {self:?}"), 0),
        }
    }

    /// The members of an object, in order, if it is one.
    pub fn members(self) -> Option<Members<'d>> {
        match self.node() {
            Node::Obj { len, .. } => Some(Members {
                doc: self.doc,
                at: self.at + 1,
                left: len,
            }),
            _ => None,
        }
    }

    /// Object field lookup.
    pub fn get(self, key: &str) -> Result<JsonVal<'d>, JsonError> {
        match self.get_opt(key) {
            Some(v) => Ok(v),
            None if matches!(self.node(), Node::Obj { .. }) => {
                err(format!("missing field {key:?}"), 0)
            }
            None => err(format!("expected object with {key:?}, got {self:?}"), 0),
        }
    }

    /// Object field lookup that tolerates absence.
    pub fn get_opt(self, key: &str) -> Option<JsonVal<'d>> {
        let Node::Obj { len, .. } = self.node() else {
            return None;
        };
        let mut at = self.at + 1;
        for _ in 0..len {
            if self.doc.str_bytes(at) == key.as_bytes() {
                return Some(JsonVal {
                    doc: self.doc,
                    at: at + 1,
                });
            }
            at = self.doc.skip(at + 1);
        }
        None
    }

    /// The value as a [`Json`] tree.
    pub fn to_json(self) -> Json {
        match self.node() {
            Node::Null => Json::Null,
            Node::Bool(b) => Json::Bool(b),
            Node::UInt(u) => Json::UInt(u),
            Node::Num(x) => Json::Num(x),
            Node::Str { .. } => Json::Str(self.doc.str_at(self.at).to_string()),
            Node::Arr { .. } => Json::Arr(
                self.as_arr()
                    .into_iter()
                    .flatten()
                    .map(Self::to_json)
                    .collect(),
            ),
            Node::Obj { .. } => Json::Obj(
                self.members()
                    .into_iter()
                    .flatten()
                    .map(|(k, v)| (k.to_string(), v.to_json()))
                    .collect(),
            ),
        }
    }
}

/// The elements of an array ([`JsonVal::as_arr`]).
#[derive(Clone)]
pub struct Elements<'d> {
    doc: &'d JsonDoc<'d>,
    /// The next element's node.
    at: usize,
    left: usize,
}

impl<'d> Iterator for Elements<'d> {
    type Item = JsonVal<'d>;

    fn next(&mut self) -> Option<JsonVal<'d>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let item = JsonVal {
            doc: self.doc,
            at: self.at,
        };
        self.at = self.doc.skip(self.at);
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Elements<'_> {}

/// The members of an object, key and value ([`JsonVal::members`]).
#[derive(Clone)]
pub struct Members<'d> {
    doc: &'d JsonDoc<'d>,
    /// The next member's key node.
    at: usize,
    left: usize,
}

impl<'d> Iterator for Members<'d> {
    type Item = (&'d str, JsonVal<'d>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let key = self.doc.str_at(self.at);
        let value = JsonVal {
            doc: self.doc,
            at: self.at + 1,
        };
        self.at = self.doc.skip(self.at + 1);
        Some((key, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Members<'_> {}

/// The parser: one pass over the bytes, containers tracked on an
/// explicit stack (so nesting costs no call stack), each value pushed
/// as one node.
struct Parser<'t> {
    b: &'t [u8],
    pos: usize,
    doc: JsonDoc<'t>,
    /// The containers open around the next value, innermost last.
    open: Vec<Frame>,
    /// The keys of the innermost open container, if it is an object.
    keys: KeyBits,
}

/// A container the parser has open.
struct Frame {
    /// Its node.
    node: usize,
    /// The byte offset of its opening bracket.
    at: usize,
    /// Members or elements read so far.
    len: usize,
    obj: bool,
    /// The enclosing container's [`Parser::keys`], restored when this
    /// one closes.
    outer: KeyBits,
}

/// The keys an object has read, in brief: one bit per key, chosen by a
/// hash of its length and its first and last bytes. A key read twice
/// finds its bit already set, so an object whose bits never clashed
/// holds no key twice and is not searched for one.
#[derive(Clone, Copy, Default)]
struct KeyBits {
    seen: u64,
    clash: bool,
}

impl KeyBits {
    fn add(&mut self, key: &[u8]) {
        let mix = (key.len() as u64) << 16
            | u64::from(key.first().copied().unwrap_or(0)) << 8
            | u64::from(key.last().copied().unwrap_or(0));
        let bit = 1 << (mix.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58);
        self.clash |= self.seen & bit != 0;
        self.seen |= bit;
    }
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The whole document: values in order, each either complete in
    /// one step or a container left open for the values that follow.
    fn document(&mut self) -> Result<(), JsonError> {
        loop {
            self.skip_ws();
            let Some(&c) = self.b.get(self.pos) else {
                return err("unexpected end of input", self.pos);
            };
            let node = match c {
                b'{' | b'[' if self.open.len() >= MAX_DEPTH => {
                    return err(format!("nesting deeper than {MAX_DEPTH} levels"), self.pos);
                }
                b'{' | b'[' => {
                    if self.begin(c == b'{')? {
                        continue;
                    }
                    None
                }
                b'"' => Some(scan_string(self.b, &mut self.pos, &mut self.doc.unescaped)?),
                b't' => Some(self.literal("true", Node::Bool(true))?),
                b'f' => Some(self.literal("false", Node::Bool(false))?),
                b'n' => Some(self.literal("null", Node::Null)?),
                b'-' | b'0'..=b'9' => Some(parse_number(self.b, &mut self.pos)?),
                _ => return err(format!("unexpected character {:?}", c as char), self.pos),
            };
            if let Some(node) = node {
                self.doc.nodes.push(node);
            }
            if !self.after_value()? {
                break;
            }
        }
        self.skip_ws();
        if self.pos != self.b.len() {
            return err("trailing characters after document", self.pos);
        }
        Ok(())
    }

    fn literal(&mut self, lit: &str, node: Node) -> Result<Node, JsonError> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(node)
        } else {
            err(format!("expected {lit}"), self.pos)
        }
    }

    /// Open the container at the cursor. `true` when a member or an
    /// element follows; `false` when it was empty, and so is already
    /// complete.
    fn begin(&mut self, obj: bool) -> Result<bool, JsonError> {
        self.open.push(Frame {
            node: self.doc.nodes.len(),
            at: self.pos,
            len: 0,
            obj,
            outer: std::mem::take(&mut self.keys),
        });
        // Its node is written when it closes.
        self.doc.nodes.push(Node::Null);
        self.pos += 1;
        self.skip_ws();
        if self.b.get(self.pos) == Some(if obj { &b'}' } else { &b']' }) {
            self.pos += 1;
            self.close()?;
            return Ok(false);
        }
        if obj {
            self.key()?;
        }
        Ok(true)
    }

    /// A member's key and its colon.
    fn key(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.b.get(self.pos) != Some(&b'"') {
            return err("expected object key", self.pos);
        }
        let key = scan_string(self.b, &mut self.pos, &mut self.doc.unescaped)?;
        self.doc.nodes.push(key);
        let Node::Str {
            start,
            end,
            escaped,
        } = key
        else {
            unreachable!("a key scanned as {key:?}")
        };
        // Sliced from the scanned node rather than re-read through
        // `JsonDoc::str_bytes`: this runs once per key, and the
        // re-read cost a seventh of the parse in a measurement.
        let bytes = if escaped {
            self.doc.unescaped.as_bytes()
        } else {
            self.b
        };
        self.keys.add(&bytes[start..end]);
        self.skip_ws();
        if self.b.get(self.pos) != Some(&b':') {
            return err("expected ':'", self.pos);
        }
        self.pos += 1;
        Ok(())
    }

    /// A value just ended: close every container it completes. `true`
    /// when another value follows, `false` when the document's root is
    /// complete.
    fn after_value(&mut self) -> Result<bool, JsonError> {
        while let Some(top) = self.open.last_mut() {
            top.len += 1;
            let obj = top.obj;
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => {
                    self.pos += 1;
                    if obj {
                        self.key()?;
                    }
                    return Ok(true);
                }
                Some(b'}') if obj => {
                    self.pos += 1;
                    self.close()?;
                }
                Some(b']') if !obj => {
                    self.pos += 1;
                    self.close()?;
                }
                _ if obj => return err("expected ',' or '}'", self.pos),
                _ => return err("expected ',' or ']'", self.pos),
            }
        }
        Ok(false)
    }

    /// Close the innermost container, rejecting an object that holds a
    /// key twice.
    fn close(&mut self) -> Result<(), JsonError> {
        let open = self.open.pop().expect("a container is open");
        let keys = std::mem::replace(&mut self.keys, open.outer);
        let (len, end) = (open.len, self.doc.nodes.len());
        if !open.obj {
            self.doc.nodes[open.node] = Node::Arr { len, end };
            return Ok(());
        }
        self.doc.nodes[open.node] = Node::Obj { len, end };
        if keys.clash {
            let obj = JsonVal {
                doc: &self.doc,
                at: open.node,
            };
            let keys = obj.members().expect("an object").map(|(k, _)| k);
            if let Some(key) = repeated_key(keys) {
                return err(format!("duplicate object key {key:?}"), open.at);
            }
        }
        Ok(())
    }
}

/// Scan the number at `pos`. A non-negative integer that fits `u64` is
/// exact; anything else must be a finite float.
fn parse_number(b: &[u8], pos: &mut usize) -> Result<Node, JsonError> {
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
    let digits = &b[start..*pos];
    if integral && digits.first() != Some(&b'-') {
        // What `str::parse::<u64>` accepts here: one or more digits,
        // leading zeros allowed, no overflow.
        let exact = digits.iter().try_fold(0u64, |u, d| {
            u.checked_mul(10)?.checked_add(u64::from(d - b'0'))
        });
        if let Some(u) = exact {
            return Ok(Node::UInt(u));
        }
    }
    let text = std::str::from_utf8(digits).expect("ascii digits");
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Node::Num(x)),
        _ => err(format!("invalid number {text:?}"), start),
    }
}

/// Scan the string literal whose opening quote is at `pos`. A literal
/// without escapes is its body's byte range of `b`; one with escapes is
/// unescaped onto the end of `unescaped`, and is that range.
fn scan_string(b: &[u8], pos: &mut usize, unescaped: &mut String) -> Result<Node, JsonError> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let start = *pos;
    // Once an escape is seen: where the string begins in `unescaped`.
    let mut copied: Option<usize> = None;
    // The first byte not yet copied to `unescaped`.
    let mut run = start;
    let flush = |out: &mut String, bytes: &[u8]| {
        out.push_str(std::str::from_utf8(bytes).expect("checked utf-8"));
    };
    loop {
        let Some(&c) = b.get(*pos) else {
            return err("unterminated string", *pos);
        };
        *pos += 1;
        match c {
            b'"' => {
                return Ok(match copied {
                    None => Node::Str {
                        start,
                        end: *pos - 1,
                        escaped: false,
                    },
                    Some(from) => {
                        flush(unescaped, &b[run..*pos - 1]);
                        Node::Str {
                            start: from,
                            end: unescaped.len(),
                            escaped: true,
                        }
                    }
                });
            }
            b'\\' => {
                copied.get_or_insert(unescaped.len());
                flush(unescaped, &b[run..*pos - 1]);
                unescaped.push(unescape(b, pos)?);
                run = *pos;
            }
            // A run of plain ASCII: up to the next quote, escape or
            // non-ASCII byte.
            0x00..=0x7f => {
                *pos += b[*pos..]
                    .iter()
                    .take_while(|&&c| c < 0x80 && c != b'"' && c != b'\\')
                    .count();
            }
            _ => {
                // One multi-byte UTF-8 character, checked whole.
                let s = &b[*pos - 1..];
                let ch_len = utf8_len(c);
                if s.len() < ch_len {
                    return err("truncated utf-8", *pos);
                }
                if std::str::from_utf8(&s[..ch_len]).is_err() {
                    return err("invalid utf-8 in string", *pos);
                }
                *pos += ch_len - 1;
            }
        }
    }
}

/// The character an escape stands for; `pos` is just past its
/// backslash.
fn unescape(b: &[u8], pos: &mut usize) -> Result<char, JsonError> {
    let Some(&e) = b.get(*pos) else {
        return err("unterminated escape", *pos);
    };
    *pos += 1;
    Ok(match e {
        b'"' => '"',
        b'\\' => '\\',
        b'/' => '/',
        b'n' => '\n',
        b't' => '\t',
        b'r' => '\r',
        b'b' => '\u{8}',
        b'f' => '\u{c}',
        b'u' => {
            if *pos + 4 > b.len() {
                return err("truncated \\u escape", *pos);
            }
            let hex = std::str::from_utf8(&b[*pos..*pos + 4]).map_err(|_| JsonError {
                msg: "non-ascii \\u escape".into(),
                at: *pos,
            })?;
            let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                msg: format!("bad \\u escape {hex:?}"),
                at: *pos,
            })?;
            *pos += 4;
            match char::from_u32(code) {
                Some(c) => c,
                None => return err("surrogate \\u escape unsupported", *pos),
            }
        }
        _ => return err(format!("unknown escape \\{}", e as char), *pos),
    })
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Objects with at most this many keys are checked for a repeated key
/// pair by pair, allocating nothing; larger ones are sorted.
const PAIRWISE_KEYS: usize = 16;

/// The least key `keys` holds twice, if any. Duplicate keys are
/// rejected rather than resolved: keeping either one would let a
/// document say two things and run one of them. Small objects — nearly
/// every object the workspace writes — compare their keys pairwise;
/// sorting keeps one hostile object with a huge key count at
/// O(n log n). Both report the same key.
fn repeated_key<'k>(keys: impl ExactSizeIterator<Item = &'k str> + Clone) -> Option<&'k str> {
    if keys.len() <= PAIRWISE_KEYS {
        let mut least: Option<&str> = None;
        for (i, key) in keys.clone().enumerate() {
            if least.is_some_and(|l| l <= key) {
                continue;
            }
            if keys.clone().skip(i + 1).any(|other| other == key) {
                least = Some(key);
            }
        }
        return least;
    }
    let mut keys: Vec<&str> = keys.collect();
    keys.sort_unstable();
    keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
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
            let back = JsonDoc::decode(&j.render(), |v| v.as_f64()).unwrap();
            assert_eq!(back, x, "{x}");
        }
        // Integral non-negative floats may re-parse as UInt; as_f64 accepts.
        let text = Json::Num(16.0).render();
        assert_eq!(JsonDoc::decode(&text, |v| v.as_f64()).unwrap(), 16.0);
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
        // Each object's keys are its own: containers nested between two
        // uses of a key neither hide nor fake a repeat.
        let e = Json::parse(r#"{"k":[{"k":1,"j":{"k":2}}],"j":0,"k":3}"#).unwrap_err();
        assert_eq!((e.msg.as_str(), e.at), (r#"duplicate object key "k""#, 0));
        assert!(Json::parse(r#"[{"k":1},{"k":2}]"#).is_ok());
        assert!(Json::parse(r#"{"k":{"k":{"k":[{"k":0}]}}}"#).is_ok());
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
    /// And the recursive-descent tree parser the flat [`JsonDoc`]
    /// parser replaced: the oracle for its values and its errors.
    mod reference {
        use super::super::{
            err, parse_number, repeated_key, utf8_len, Json, JsonError, Node, MAX_DEPTH,
        };
        use std::fmt::Write as _;

        /// Parse a complete document into a tree.
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

        fn skip_ws(b: &[u8], pos: &mut usize) {
            while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
                *pos += 1;
            }
        }

        /// Parse one value whose enclosing containers are `depth` levels
        /// deep.
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
                b'-' | b'0'..=b'9' => match parse_number(b, pos)? {
                    Node::UInt(u) => Ok(Json::UInt(u)),
                    Node::Num(x) => Ok(Json::Num(x)),
                    other => unreachable!("a number scanned as {other:?}"),
                },
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

        fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
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

        fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
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
                        let keys = fields.iter().map(|(k, _)| k.as_str());
                        if let Some(key) = repeated_key(keys) {
                            return err(format!("duplicate object key {key:?}"), start);
                        }
                        return Ok(Json::Obj(fields));
                    }
                    _ => return err("expected ',' or '}'", *pos),
                }
            }
        }

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
            prop_assert_eq!(JsonDoc::of(&doc).root().to_json(), doc);
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
            let keys = fields.iter().map(|(k, _)| k.as_str());
            prop_assert_eq!(repeated_key(keys), sorted_repeated_key(&fields));
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
            let mut unescaped = String::new();
            let got = scan_string(&literal, &mut at_fast, &mut unescaped).map(|node| {
                let Node::Str { start, end, escaped } = node else {
                    unreachable!("a string scanned as {node:?}");
                };
                if escaped {
                    unescaped[start..end].to_string()
                } else {
                    String::from_utf8(literal[start..end].to_vec()).expect("checked utf-8")
                }
            });
            let want = reference::parse_string(&literal, &mut at_slow);
            prop_assert_eq!(&got, &want, "{:?}", String::from_utf8_lossy(&literal));
            if want.is_ok() {
                prop_assert_eq!(at_fast, at_slow);
            }
        }

        #[test]
        fn the_flat_parser_matches_the_recursive_reference(
            doc in Trees { depth: 4 },
            pick in 0usize..1 << 20,
        ) {
            for text in [doc.render(), doc.render_pretty()] {
                prop_assert_eq!(Json::parse(&text), reference::parse(&text));
                for edited in one_byte_edits(&text, pick) {
                    prop_assert_eq!(Json::parse(&edited), reference::parse(&edited), "{:?}", edited);
                }
                for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                    let torn = &text[..cut];
                    prop_assert_eq!(Json::parse(torn), reference::parse(torn), "{:?}", torn);
                }
            }
        }
    }
}
