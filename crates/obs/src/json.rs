//! Hand-rolled JSON: a small writer and a strict recursive-descent
//! parser. The workspace is deliberately dependency-free, so exporters
//! build strings directly; the parser (and [`validate`], which is the
//! parser with the value dropped) backs the differential and CI schema
//! tests without pulling in a parser crate.

use crate::report::ClusterObs;

/// Escapes a string for embedding inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats an `f64` as a JSON number. JSON has no NaN/Infinity, so
/// non-finite values degrade to `0` rather than emitting invalid output.
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    // `{:?}` for f64 is the shortest representation that round-trips and
    // always contains a '.' or exponent, which keeps it a valid number.
    format!("{v:?}")
}

/// A parsed JSON value. Object members keep document order (the writer
/// emits sorted registries, so order is meaningful for diffing).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON has one numeric type).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered `(key, value)` members.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` on other variants or a missing
    /// key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value (`None` on non-numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value (`None` on non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a single JSON document into a [`Json`] value. Strict: trailing
/// garbage, trailing commas, unquoted keys and non-finite numbers all fail,
/// with a byte-offset error message.
pub fn parse(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    let value = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

/// Validates that `s` is a single well-formed JSON value (see [`parse`]).
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}", pos = *pos)),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}", pos = *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

/// Parses the string at `pos` (which holds its opening quote), decoding
/// escapes. `b` is the bytes of a `str`, and every run copied verbatim
/// ends at an ASCII byte, so each run is valid UTF-8.
fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let c = match b.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => {
                        let code = b
                            .get(*pos + 1..*pos + 5)
                            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|hex| std::str::from_utf8(hex).ok())
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}", pos = *pos))?;
                        *pos += 4;
                        char::from_u32(code).unwrap_or('\u{fffd}')
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                };
                out.push(c);
                *pos += 1;
            }
            c if c < 0x20 => {
                return Err(format!("raw control byte in string at {pos}", pos = *pos))
            }
            _ => {
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\' | 0..=0x1f) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).expect("runs of a str"));
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_digits = eat_digits(b, pos);
    if int_digits == 0 {
        return Err(format!("number missing digits at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(b, pos) == 0 {
            return Err(format!("number missing fraction digits at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if eat_digits(b, pos) == 0 {
            return Err(format!("number missing exponent digits at byte {start}"));
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
    text.parse()
        .map(Json::Num)
        .map_err(|_| format!("bad number at byte {start}"))
}

fn eat_digits(b: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
    }
    *pos - start
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
                skip_ws(b, pos);
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        members.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn snapshot_json(m: &crate::metrics::MetricsSnapshot, out: &mut String) {
    out.push_str("{\"counters\":{");
    for (i, (k, v)) in m.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", escape(k), v));
    }
    out.push_str("},\"gauges\":{");
    for (i, (k, v)) in m.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", escape(k), num(*v)));
    }
    out.push_str("},\"histograms\":{");
    for (i, (k, h)) in m.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"buckets\":[",
            escape(k),
            h.count,
            h.sum,
            h.min,
            h.max,
            num(h.mean()),
        ));
        for (j, (le, c)) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"le\":{le},\"count\":{c}}}"));
        }
        out.push_str("]}");
    }
    out.push_str("}}");
}

/// Serialises a [`ClusterObs`] as the `hetsort-metrics-v1` document:
/// per-node counters/gauges/histograms and phase durations plus the
/// cluster-level registry (skew gauges). Validated in CI against
/// `schemas/validate_metrics.py`.
pub fn metrics_json(obs: &ClusterObs) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":\"hetsort-metrics-v1\",\"nodes\":[");
    for (i, node) in obs.nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"node\":{},\"label\":\"{}\",\"phases\":[",
            node.node,
            escape(&node.label)
        ));
        for (j, p) in node.phases().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"virt_secs\":{},\"wall_secs\":{}}}",
                escape(p.name),
                num(p.virt_secs()),
                num(p.wall_secs()),
            ));
        }
        out.push_str("],\"metrics\":");
        snapshot_json(&node.metrics, &mut out);
        out.push('}');
    }
    out.push_str("],\"cluster\":");
    snapshot_json(&obs.cluster, &mut out);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::NodeObs;
    use crate::span::Obs;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn num_is_always_valid_json() {
        for v in [0.0, -1.5, 1e30, 123456.789, f64::NAN, f64::INFINITY] {
            let n = num(v);
            assert!(validate(&n).is_ok(), "{n}");
        }
    }

    #[test]
    fn validator_accepts_and_rejects() {
        assert!(validate(r#"{"a":[1,2.5,-3e2],"b":"x\n","c":null,"d":true}"#).is_ok());
        assert!(validate("").is_err());
        assert!(validate("{").is_err());
        assert!(validate("[1,]").is_err());
        assert!(validate("{'a':1}").is_err());
        assert!(validate("{\"a\":1} extra").is_err());
        assert!(validate("1 2").is_err());
    }

    #[test]
    fn parse_builds_values() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": "x\nA", "c": null, "d": true}"#;
        let v = parse(doc).expect("parses");
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\nA"));
        assert_eq!(v.get("c").unwrap(), &Json::Null);
        assert_eq!(v.get("d").unwrap(), &Json::Bool(true));
        assert_eq!(v.get("a").unwrap().as_f64(), None);
        assert!(v.get("missing").is_none());
        assert!(parse("{bad}").is_err());
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn parse_round_trips_metrics_doc() {
        let obs = Obs::enabled();
        obs.phase_mark("local-sort", 1.0);
        obs.counter_add("c", 3);
        obs.hist_record("h", 7);
        let cluster = ClusterObs {
            nodes: vec![obs.finish(0, "n0".to_string())],
            cluster: Default::default(),
        };
        let v = parse(&metrics_json(&cluster)).expect("parses");
        assert_eq!(
            v.get("schema").unwrap().as_str(),
            Some("hetsort-metrics-v1")
        );
        let nodes = match v.get("nodes").unwrap() {
            Json::Arr(items) => items,
            other => panic!("nodes must be an array, got {other:?}"),
        };
        assert_eq!(nodes.len(), 1);
    }

    #[test]
    fn metrics_json_key_order_is_insertion_independent() {
        // Regression: --metrics-out output must diff cleanly across runs,
        // so registry iteration (and therefore the serialized key order)
        // must be sorted regardless of the order metrics were recorded in.
        let forward = Obs::enabled();
        for name in ["alpha", "mid", "zeta"] {
            forward.counter_add(name, 1);
            forward.gauge_set(name, 2.0);
            forward.hist_record(name, 3);
        }
        let backward = Obs::enabled();
        for name in ["zeta", "mid", "alpha"] {
            backward.counter_add(name, 1);
            backward.gauge_set(name, 2.0);
            backward.hist_record(name, 3);
        }
        let doc_f = metrics_json(&ClusterObs {
            nodes: vec![forward.finish(0, "n0".to_string())],
            cluster: Default::default(),
        });
        let doc_b = metrics_json(&ClusterObs {
            nodes: vec![backward.finish(0, "n0".to_string())],
            cluster: Default::default(),
        });
        assert_eq!(doc_f, doc_b, "serialized metrics depend on insertion order");
        let alpha = doc_f.find("\"alpha\"").unwrap();
        let zeta = doc_f.find("\"zeta\"").unwrap();
        assert!(alpha < zeta, "keys must serialize in sorted order");
    }

    #[test]
    fn metrics_json_round_trips_through_validator() {
        let obs = Obs::enabled();
        obs.phase_mark("local-sort", 2.0);
        obs.phase_mark("merge", 5.0);
        obs.counter_add("io.blocks_read", 12);
        obs.gauge_set("time.cpu_secs", 1.5);
        obs.hist_record("net.msg_bytes", 4096);
        let node = obs.finish(0, "node0 (perf 1)".to_string());
        let cluster = ClusterObs {
            nodes: vec![node, NodeObs::default()],
            cluster: {
                let mut m = crate::metrics::MetricsSnapshot::default();
                m.gauge_set("skew.expansion", 1.1);
                m
            },
        };
        let doc = metrics_json(&cluster);
        validate(&doc).expect("metrics doc must be valid JSON");
        assert!(doc.contains("\"schema\":\"hetsort-metrics-v1\""));
        assert!(doc.contains("\"name\":\"local-sort\""));
        assert!(doc.contains("\"skew.expansion\":1.1"));
        assert!(doc.contains("\"io.blocks_read\":12"));
    }
}
