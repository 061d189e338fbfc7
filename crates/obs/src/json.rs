//! A minimal JSON value and renderer.
//!
//! The workspace builds with zero external dependencies (see
//! `vendor/README.md`), so there is no serde; reports are assembled as
//! explicit [`Json`] trees and rendered with a small pretty-printer. Object
//! keys keep insertion order — reports read top-to-bottom the way they were
//! built.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (kept exact; byte counts exceed f64 precision).
    U64(u64),
    /// A float. Non-finite values render as `null` (JSON has no NaN).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Render as pretty-printed JSON (2-space indent, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(x) => out.push_str(&x.to_string()),
            Json::F64(x) => {
                if x.is_finite() {
                    // `{:?}` is the shortest round-trip form ("0.1", "1.5e30").
                    out.push_str(&format!("{x:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                newline_indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::U64(u64::MAX).render(), format!("{}\n", u64::MAX));
        assert_eq!(Json::F64(0.1).render(), "0.1\n");
        assert_eq!(Json::F64(f64::NAN).render(), "null\n");
        assert_eq!(Json::str("a\"b\nc").render(), "\"a\\\"b\\nc\"\n");
    }

    #[test]
    fn nested_structure_renders_stably() {
        let j = Json::obj([
            ("name", Json::str("t1")),
            ("xs", Json::arr([Json::U64(1), Json::U64(2)])),
            ("empty", Json::obj::<String>([])),
        ]);
        assert_eq!(
            j.render(),
            "{\n  \"name\": \"t1\",\n  \"xs\": [\n    1,\n    2\n  ],\n  \"empty\": {}\n}\n"
        );
    }

    #[test]
    fn control_chars_escape_as_unicode() {
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"\n");
    }
}
