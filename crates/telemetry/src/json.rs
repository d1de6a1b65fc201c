//! The workspace's only JSON code: one writer every document leaves
//! through ([`object`], [`Object`], [`Array`]) and one bounded reader
//! it comes back through ([`Json::parse`]).
//!
//! The writer owns commas, quoting and escaping; a call site names a
//! key and its value side by side. One float policy on both sides:
//! non-finite numbers are written as `null` and rejected when read, so
//! a [`Json::Num`] is always finite. The reader covers the full JSON
//! grammar, is strict about trailing garbage (a malformed request line
//! cannot be half accepted), works in time linear in its input and
//! nests at most [`MAX_DEPTH`] deep — it takes bytes from the network.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A value the writer can render. Integers, booleans, floats (`null`
/// when non-finite), strings, [`Field`]s, and slices of those.
pub trait ToJson {
    /// Append this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! to_json_by_display {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
to_json_by_display!(u32, u64, usize, i64, bool);

macro_rules! to_json_float {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                if self.is_finite() {
                    let _ = write!(out, "{self}");
                } else {
                    out.push_str("null");
                }
            }
        }
    )*};
}
to_json_float!(f32, f64);

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
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
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        array_into(out, COMPACT, |a| {
            for v in self {
                v.write_json(a.next());
            }
        });
    }
}

fn render(v: &(impl ToJson + ?Sized)) -> String {
    let mut out = String::new();
    v.write_json(&mut out);
    out
}

/// Quote and escape a string as a complete JSON string literal.
pub fn string(s: &str) -> String {
    render(s)
}

/// Format an `f64` as a JSON number (`inf`/`NaN` degrade to `null`).
pub fn num_f64(v: f64) -> String {
    render(&v)
}

/// One value of a report row. A report lists its `(name, value)`
/// columns once; the CSV header, the CSV cells ([`csv_line`]) and the
/// JSON members ([`Object::put`]) all render from that list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Field<'a> {
    /// A count.
    U64(u64),
    /// A measurement (non-finite renders as `null` in both formats).
    F64(f64),
    /// A flag.
    Bool(bool),
    /// A name.
    Str(&'a str),
}

impl ToJson for Field<'_> {
    fn write_json(&self, out: &mut String) {
        match self {
            Field::U64(v) => v.write_json(out),
            Field::F64(v) => v.write_json(out),
            Field::Bool(v) => v.write_json(out),
            Field::Str(v) => v.write_json(out),
        }
    }
}

/// Render one CSV line (newline included) of bare cells: numbers and
/// flags as in JSON, names bare. Columns are positional (CI cuts on
/// commas), so a separator or quote inside a name is flattened to `_`
/// rather than quoted.
pub fn csv_line<'a>(cells: impl IntoIterator<Item = Field<'a>>) -> String {
    let mut out = String::new();
    for (i, cell) in cells.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match cell {
            Field::Str(s) => out.extend(s.chars().map(|c| match c {
                ',' | '"' | '\n' | '\r' => '_',
                c => c,
            })),
            number_or_flag => number_or_flag.write_json(&mut out),
        }
    }
    out.push('\n');
    out
}

/// Render one JSON object: `fill` adds the members.
pub fn object(fill: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    object_into(&mut out, fill);
    out
}

fn object_into(out: &mut String, fill: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    fill(&mut Object { out, empty: true });
    out.push('}');
}

/// An array's opening, separator and closing text.
const COMPACT: [&str; 3] = ["[", ",", "]"];

fn array_into(
    out: &mut String,
    [open, sep, close]: [&'static str; 3],
    fill: impl FnOnce(&mut Array<'_>),
) {
    out.push_str(open);
    fill(&mut Array {
        out,
        sep,
        empty: true,
    });
    out.push_str(close);
}

/// Writer for the members of one JSON object, in call order.
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Object<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        key.write_json(self.out);
        self.out.push(':');
        self.out
    }

    /// A member.
    pub fn put(&mut self, key: &str, v: impl ToJson) -> &mut Self {
        v.write_json(self.key(key));
        self
    }

    /// A member whose value is already rendered JSON (a nested
    /// document from another `to_json`).
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key).push_str(json);
        self
    }

    /// A nested object member.
    pub fn object(&mut self, key: &str, fill: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        object_into(self.key(key), fill);
        self
    }

    /// A nested array member.
    pub fn array(&mut self, key: &str, fill: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        array_into(self.key(key), COMPACT, fill);
        self
    }

    /// A nested array member laid out one element per line, so a long
    /// event list diffs line by line.
    pub fn array_lines(&mut self, key: &str, fill: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        array_into(self.key(key), ["[\n", ",\n", "\n]"], fill);
        self
    }
}

/// Writer for the elements of one JSON array, in call order.
pub struct Array<'a> {
    out: &'a mut String,
    sep: &'static str,
    empty: bool,
}

impl Array<'_> {
    fn next(&mut self) -> &mut String {
        if !self.empty {
            self.out.push_str(self.sep);
        }
        self.empty = false;
        self.out
    }

    /// An element that is already rendered JSON.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.next().push_str(json);
        self
    }

    /// An object element.
    pub fn object(&mut self, fill: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        object_into(self.next(), fill);
        self
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; always finite).
    Num(f64),
    /// A string literal (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not preserved (fields are accessed by
    /// name, never by position).
    Obj(BTreeMap<String, Json>),
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so this bounds its stack; every document
/// this workspace writes nests at most 5 deep.
pub const MAX_DEPTH: usize = 64;

impl Json {
    /// Parse a complete JSON document; trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if this is a
    /// number with an exact integral value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, the first value
            // that does not fit.
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// JSON syntax error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.members(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    map.insert(key, p.value()?);
                    Ok(())
                })?;
                Ok(Json::Obj(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.members(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => {
                let c = self.text[self.pos..].chars().next().expect("peeked");
                Err(self.err(format!("unexpected character '{c}'")))
            }
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The comma-separated members of the array or object whose
    /// opening bracket is next, up to and including `close`. Every
    /// level of nesting passes through here once, so this is where
    /// [`MAX_DEPTH`] is enforced.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                member(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => return Err(self.err(format!("expected ',' or '{}'", close as char))),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    /// Four hex digits of a `\u` escape, as a UTF-16 code unit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }

    /// The character of a `\u` escape (the `\u` is consumed). A high
    /// surrogate followed by an escaped low one is the pair's scalar;
    /// a lone surrogate reads as U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let unit = self.hex4()?;
        if (0xD800..0xDC00).contains(&unit) && self.text[self.pos..].starts_with("\\u") {
            let after_high = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                let scalar = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(scalar).expect("a surrogate pair is a scalar"));
            }
            // Not a pair: the second escape is read again on its own.
            self.pos = after_high;
        }
        Ok(char::from_u32(unit).unwrap_or('\u{fffd}'))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so the run before the next one
            // ends on a character boundary and is copied in one piece.
            let rest = &self.text[self.pos..];
            let run = rest
                .find(['"', '\\'])
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let escape = self.peek();
            self.pos += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.unicode_escape()?,
                _ => {
                    self.pos -= 1;
                    return Err(self.err("invalid escape"));
                }
            });
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        // The longest run over the number alphabet; `f64`'s parser is
        // the judge of its shape. The digits are not echoed: they can
        // be as long as the input.
        let run = self.text[self.pos..]
            .bytes()
            .take_while(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
            .count();
        match self.text[self.pos..self.pos + run].parse::<f64>() {
            Ok(n) if n.is_finite() => {
                self.pos += run;
                Ok(Json::Num(n))
            }
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_quoted_and_escaped() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("x\"y"), "\"x\\\"y\"");
        assert_eq!(string("a\\b"), "\"a\\\\b\"");
        assert_eq!(string("a\nb\tc\r"), "\"a\\nb\\tc\\r\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("ünïcode"), "\"ünïcode\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(num_f64(1.5), "1.5");
        assert_eq!(num_f64(f64::NAN), "null");
        assert_eq!(num_f64(f64::INFINITY), "null");
    }

    #[test]
    fn the_writer_owns_commas_quotes_and_the_float_policy() {
        let doc = object(|o| {
            o.put("n", 7u64)
                .put("neg", -3i64)
                .put("x", 0.5)
                .put("bad", f64::NAN)
                .put("ok", true)
                .put("s", "a\"b")
                .put("owned", String::from("é"))
                .put("f", Field::U64(9))
                .put("f32s", &[0.1f32, f32::INFINITY][..])
                .put("names", &["a", "b"][..])
                .put("none", &[0usize; 0][..])
                .raw("nested", "{\"k\":1}")
                .object("o", |o| {
                    o.put("a", 1u32);
                })
                .object("empty", |_| {})
                .array("list", |a| {
                    a.raw("[]").object(|o| {
                        o.put("b", false);
                    });
                });
        });
        assert_eq!(
            doc,
            "{\"n\":7,\"neg\":-3,\"x\":0.5,\"bad\":null,\"ok\":true,\"s\":\"a\\\"b\",\
             \"owned\":\"é\",\"f\":9,\"f32s\":[0.1,null],\"names\":[\"a\",\"b\"],\"none\":[],\
             \"nested\":{\"k\":1},\"o\":{\"a\":1},\"empty\":{},\"list\":[[],{\"b\":false}]}"
        );
        assert!(Json::parse(&doc).is_ok());
        assert_eq!(object(|_| {}), "{}");
    }

    #[test]
    fn line_arrays_put_one_element_per_line() {
        let doc = object(|o| {
            o.array_lines("events", |a| {
                a.raw("1").raw("2");
            })
            .array_lines("none", |_| {});
        });
        assert_eq!(doc, "{\"events\":[\n1,\n2\n],\"none\":[\n\n]}");
        assert!(Json::parse(&doc).is_ok());
    }

    #[test]
    fn csv_cells_follow_the_json_value_rules_and_flatten_separators() {
        let line = csv_line([
            Field::Str("a,b\"c\nd"),
            Field::U64(3),
            Field::F64(0.25),
            Field::F64(f64::NAN),
            Field::Bool(true),
        ]);
        assert_eq!(line, "a_b_c_d,3,0.25,null,true\n");
    }

    #[test]
    fn parses_the_protocol_shapes() {
        let v = Json::parse(r#"{"id":7,"cmd":"classify","rows":[0,1,2],"bits":2}"#).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("cmd").unwrap().as_str(), Some("classify"));
        let rows: Vec<u64> = v
            .get("rows")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|r| r.as_u64().unwrap())
            .collect();
        assert_eq!(rows, [0, 1, 2]);
        assert_eq!(v.get("bits").unwrap().as_u64(), Some(2));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_scalars_nesting_and_escapes() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(
            Json::parse(r#""a\"b\\c\ndA\/\b\f\r\t""#).unwrap(),
            Json::Str("a\"b\\c\ndA/\u{8}\u{c}\r\t".to_string())
        );
        assert_eq!(
            Json::parse("\"né — 😀\"").unwrap(),
            Json::Str("né — 😀".to_string())
        );
        let v = Json::parse(r#"[{"a":[1,2]},{"b":{}}]"#).unwrap();
        assert_eq!(v.as_arr().unwrap().len(), 2);
        assert_eq!(Json::parse("  [ ]  ").unwrap(), Json::Arr(vec![]));
    }

    #[test]
    fn unicode_escapes_combine_surrogate_pairs() {
        let s = |text: &str| Json::parse(text).unwrap().as_str().unwrap().to_string();
        assert_eq!(s(r#""\u0041\u00e9""#), "Aé");
        // What Python's `json.dumps` sends for U+1F600.
        assert_eq!(s(r#""\ud83d\ude00""#), "😀");
        assert_eq!(s(r#""\uD83D\uDE00!""#), "😀!");
        // Lone halves, in either order, degrade to U+FFFD each.
        assert_eq!(s(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(s(r#""\ude00x""#), "\u{fffd}x");
        assert_eq!(s(r#""\ud83dA""#), "\u{fffd}A");
        assert_eq!(s(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert_eq!(s(r#""\ud83d\ud83d\ude00""#), "\u{fffd}😀");
        for bad in [r#""\u12""#, r#""\u12g4""#, r#""\ud83d\u12""#, r#""\u+123""#] {
            assert!(Json::parse(bad).is_err(), "{bad} must fail");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\" 1}",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"ends in a backslash\\",
            "é",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must fail");
        }
        let e = Json::parse("[1,2,]").unwrap_err();
        assert!(e.to_string().contains("byte"), "{e}");
    }

    #[test]
    fn numbers_that_overflow_f64_are_rejected_not_read_as_infinity() {
        for bad in ["1e999", "-1e999", "[1e400]"] {
            let e = Json::parse(bad).unwrap_err();
            assert!(e.message.contains("out of range"), "{bad}: {e}");
        }
        assert_eq!(Json::parse("1e308").unwrap(), Json::Num(1e308));
        assert_eq!(Json::parse("1e-999").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Json::parse("3.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(
            Json::parse("18446744073709549568").unwrap().as_u64(),
            Some(u64::MAX - 2047)
        );
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(Json::parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest("{\"a\":", "}", MAX_DEPTH).replace(":}", ":1}")).is_ok());
        for text in [
            nest("[", "]", MAX_DEPTH + 1),
            nest("[{\"a\":", "}]", MAX_DEPTH / 2 + 1).replace(":}", ":1}"),
            "[".repeat(200_000),
            "{\"a\":".repeat(200_000),
        ] {
            let e = Json::parse(&text).unwrap_err();
            assert_eq!(e.message, format!("nesting deeper than {MAX_DEPTH}"));
            assert!(e.offset <= text.len());
        }
        // Depth counts open containers, not containers seen.
        let wide = format!("[{}]", vec!["[[]]"; 1000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn a_megabyte_string_parses_in_linear_time() {
        let body = "x".repeat(1 << 20);
        let line = format!("{{\"id\":1,\"cmd\":\"{body}\"}}");
        let start = std::time::Instant::now();
        let v = Json::parse(&line).unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "took {:?}",
            start.elapsed()
        );
        assert_eq!(v.get("cmd").unwrap().as_str(), Some(body.as_str()));
        // So does a megabyte of digits, on either side of the point.
        let zeros = "0".repeat(1 << 20);
        assert_eq!(Json::parse(&format!("0.{zeros}")).unwrap(), Json::Num(0.0));
        let e = Json::parse(&format!("1{zeros}")).unwrap_err();
        assert_eq!(e.message, "number out of range");
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
    }
}
