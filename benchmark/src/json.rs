//! A JSON value over the vendored serde `Content` tree: read accessors and
//! an indented writer (the vendored `serde_json` only writes compact text).

pub use serde::Content as Json;

pub fn parse(text: &str) -> Result<Json, String> {
    serde_json::parse_content(text).map_err(|e| e.to_string())
}

pub fn read_file(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn obj(entries: Vec<(&str, Json)>) -> Json {
    Json::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn str(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

pub fn get<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn items(value: &Json) -> &[Json] {
    match value {
        Json::Seq(items) => items,
        _ => &[],
    }
}

pub fn as_str(value: &Json) -> Option<&str> {
    match value {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_f64(value: &Json) -> Option<f64> {
    match value {
        Json::I64(v) => Some(*v as f64),
        Json::U64(v) => Some(*v as f64),
        Json::F64(v) => Some(*v),
        _ => None,
    }
}

struct Raw<'a>(&'a Json);

impl serde::Serialize for Raw<'_> {
    fn serialize_content(&self) -> Json {
        self.0.clone()
    }
}

/// One line, no spaces: the form of the result line the driver reads.
pub fn compact(value: &Json) -> String {
    serde_json::to_string(&Raw(value)).expect("a Content tree always serializes")
}

/// Two-space indented text; a map or list of scalars stays on one line, so
/// each metric is one line of `results.json`.
pub fn pretty(value: &Json) -> String {
    let mut out = String::new();
    write_pretty(value, 0, &mut out);
    out.push('\n');
    out
}

fn is_scalar(value: &Json) -> bool {
    !matches!(value, Json::Map(_) | Json::Seq(_))
}

fn write_pretty(value: &Json, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth + 1);
    match value {
        Json::Map(entries) if !entries.iter().all(|(_, v)| is_scalar(v)) => {
            out.push_str("{\n");
            for (i, (k, v)) in entries.iter().enumerate() {
                out.push_str(&pad);
                out.push_str(&compact(&Json::Str(k.clone())));
                out.push_str(": ");
                write_pretty(v, depth + 1, out);
                out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
            }
            out.push_str(&"  ".repeat(depth));
            out.push('}');
        }
        Json::Seq(items) if !items.iter().all(is_scalar) => {
            out.push_str("[\n");
            for (i, v) in items.iter().enumerate() {
                out.push_str(&pad);
                write_pretty(v, depth + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&"  ".repeat(depth));
            out.push(']');
        }
        flat => out.push_str(&compact(flat)),
    }
}
