//! Minimal deterministic JSON document builder for machine-readable
//! benchmark artifacts (`BENCH_*.json`).
//!
//! The workspace is offline (no serde); this module hand-rolls the tiny
//! subset benchmark emitters need: ordered objects, arrays, strings,
//! integers, floats, bools. Rendering is deterministic — object keys keep
//! insertion order and floats render via Rust's shortest-roundtrip
//! formatting — so "same run ⇒ byte-identical artifact" holds for JSON
//! output exactly as it does for traces.

use simkit::escape_json;
use std::fmt::Write as _;

/// One JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (rendered without a decimal point).
    Int(i64),
    /// A float (non-finite values render as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(i64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An empty object, to be filled with [`Json::set`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert (or replace) `key` in an object, builder style. Panics when
    /// called on a non-object.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        let Json::Obj(fields) = &mut self else {
            panic!("Json::set on non-object");
        };
        let value = value.into();
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => fields.push((key.to_string(), value)),
        }
        self
    }

    /// Fetch a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Render compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render with two-space indentation, trailing newline included —
    /// the `BENCH_*.json` artifact format.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let pad = |out: &mut String, d: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * d));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(f) if f.is_finite() => {
                let _ = write!(out, "{f}");
            }
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                escape_json(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    pad(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    pad(out, depth + 1);
                    out.push('"');
                    escape_json(out, k);
                    out.push_str("\":");
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    pad(out, depth);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_ordered() {
        let doc = Json::obj()
            .set("name", "fleet")
            .set("jobs", 8u64)
            .set("work_lost_s", 12.5)
            .set("ok", true)
            .set("tags", vec!["a", "b"]);
        assert_eq!(
            doc.render(),
            r#"{"name":"fleet","jobs":8,"work_lost_s":12.5,"ok":true,"tags":["a","b"]}"#
        );
    }

    #[test]
    fn set_replaces_in_place() {
        let doc = Json::obj().set("a", 1i64).set("b", 2i64).set("a", 3i64);
        assert_eq!(doc.render(), r#"{"a":3,"b":2}"#);
        assert_eq!(doc.get("b"), Some(&Json::Int(2)));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn pretty_rendering_is_stable() {
        let doc = Json::obj()
            .set("arr", vec![1i64, 2])
            .set("empty", Json::Arr(Vec::new()))
            .set("nested", Json::obj().set("x", Json::Null));
        let a = doc.render_pretty();
        assert_eq!(a, doc.render_pretty(), "byte-deterministic");
        assert!(a.contains("\"arr\": [\n    1,\n    2\n  ]"));
        assert!(a.contains("\"empty\": []"));
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn escapes_and_nonfinite() {
        let doc = Json::obj()
            .set("s", "a\"b\\c\nd")
            .set("nan", f64::NAN)
            .set("inf", f64::INFINITY);
        assert_eq!(doc.render(), r#"{"s":"a\"b\\c\nd","nan":null,"inf":null}"#);
    }
}
