//! Chrome trace-event JSON exporter and structural validator.
//!
//! The export is the "JSON Object Format" understood by `about://tracing`
//! and Perfetto: `{"traceEvents": [...]}` where each element is a complete
//! span (`"ph": "X"`, microsecond `ts`/`dur`), an instant (`"ph": "i"`), a
//! counter sample (`"ph": "C"`, used for power traces), or thread metadata
//! (`"ph": "M"`). All events live in one process (`pid` 0) with one thread
//! per [`Track`].
//!
//! [`validate_chrome_trace`] re-parses an export with a small in-crate JSON
//! parser (no external dependencies are available offline) and checks the
//! structural contract the CI `trace-smoke` lane relies on: valid JSON,
//! non-negative finite timestamps, and parent/child span containment.

use crate::recorder::{EventKind, SpanRecord, Telemetry, Track};
use powermon::PowerTrace;
use std::collections::HashMap;
use std::fmt::Write as _;

const US_PER_S: f64 = 1e6;

/// Appends `s` to `out` with JSON string escaping (no surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

fn push_span_event(out: &mut String, s: &SpanRecord) {
    let ph = match s.kind {
        EventKind::Span => "X",
        EventKind::Instant => "i",
    };
    out.push_str("{\"name\":\"");
    escape_into(out, s.name);
    let _ = write!(
        out,
        "\",\"ph\":\"{}\",\"pid\":0,\"tid\":{},\"ts\":{:.3}",
        ph,
        s.track.index(),
        s.start_s * US_PER_S
    );
    if s.kind == EventKind::Span {
        let _ = write!(out, ",\"dur\":{:.3}", s.dur_s * US_PER_S);
    } else {
        out.push_str(",\"s\":\"t\"");
    }
    let parent = s.parent.map(|p| p as i64).unwrap_or(-1);
    let _ = write!(
        out,
        ",\"args\":{{\"id\":{},\"parent\":{},\"depth\":{}}}}}",
        s.id, parent, s.depth
    );
}

fn push_meta_event(out: &mut String, tid: usize, label: &str) {
    out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,");
    let _ = write!(out, "\"tid\":{tid},\"args\":{{\"name\":\"");
    escape_into(out, label);
    out.push_str("\"}}");
}

fn push_counter_event(out: &mut String, tid: usize, name: &str, ts_us: f64, watts: f64) {
    out.push_str("{\"name\":\"");
    escape_into(out, name);
    let _ = write!(
        out,
        "\",\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\"ts\":{ts_us:.3},\"args\":{{\"watts\":{watts:.3}}}}}"
    );
}

/// Exports `tel` as Chrome trace-event JSON (spans + instants + thread
/// metadata, no power lanes).
pub fn chrome_trace(tel: &Telemetry) -> String {
    chrome_trace_with_power(tel, &[])
}

/// Exports `tel` as Chrome trace-event JSON with the window of each given
/// power trace rendered as a counter lane (one `"C"` sample per segment
/// edge, so the stepwise power model renders exactly).
pub fn chrome_trace_with_power(tel: &Telemetry, power: &[(Track, &PowerTrace)]) -> String {
    let spans = tel.spans();
    let mut out = String::with_capacity(160 * spans.len() + 4096);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
    };

    for t in Track::all() {
        sep(&mut out);
        push_meta_event(&mut out, t.index(), t.name());
    }
    for s in &spans {
        sep(&mut out);
        push_span_event(&mut out, s);
    }
    for (track, trace) in power {
        let lane = format!("power:{} (W)", track.name());
        let idle = trace.idle_watts();
        let mut cursor = 0.0_f64;
        for seg in trace.segments() {
            if seg.start > cursor {
                // Idle gap before this segment.
                sep(&mut out);
                push_counter_event(&mut out, track.index(), &lane, cursor * US_PER_S, idle);
            }
            sep(&mut out);
            push_counter_event(&mut out, track.index(), &lane, seg.start * US_PER_S, seg.watts);
            cursor = seg.start + seg.duration;
            sep(&mut out);
            push_counter_event(&mut out, track.index(), &lane, cursor * US_PER_S, idle);
        }
    }
    out.push_str("],\"otherData\":{\"dropped_spans\":");
    let _ = write!(out, "{}", tel.dropped_spans());
    out.push_str(",\"counters\":{");
    for (i, (name, v)) in tel.counters().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, name);
        let _ = write!(out, "\":{v}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in tel.gauges().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, name);
        let _ = write!(out, "\":{v}");
    }
    out.push_str("}}}");
    out
}

// --------------------------------------------------------------------
// Minimal JSON parser (offline container: no serde). Only what the
// validator needs: null/bool/number/string/array/object.
// --------------------------------------------------------------------

/// A parsed JSON value (in-crate mini parser; see module docs).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as f64.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order not preserved).
    Obj(HashMap<String, Json>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array contents, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {}", self.pos, msg)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf8 in number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf8 in string"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("unterminated"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = HashMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a JSON document with the in-crate mini parser.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

/// What [`validate_chrome_trace`] found in a structurally valid export.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceSummary {
    /// `"X"` complete-span events.
    pub spans: usize,
    /// `"i"` instant events.
    pub instants: usize,
    /// `"C"` counter samples.
    pub counter_samples: usize,
    /// Latest `ts + dur` across span events, in seconds.
    pub max_end_s: f64,
}

/// Re-parses a Chrome trace export and checks the structural contract:
/// top-level `traceEvents` array, every event carries `name`/`ph` and a
/// finite non-negative `ts` (metadata excepted), span durations are
/// non-negative, and every span whose `args.parent` is present is
/// contained in its parent's interval on the same thread lane.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut summary = TraceSummary::default();
    // id -> (tid, ts, ts+dur) for parent containment checks.
    let mut by_id: HashMap<i64, (i64, f64, f64)> = HashMap::new();
    let mut child_links: Vec<(i64, i64, f64, f64, String)> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} ({name}): missing ph"))?;
        if ph == "M" {
            continue;
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i} ({name}): missing ts"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i} ({name}): bad ts {ts}"));
        }
        let tid = ev.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as i64;
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("span {i} ({name}): missing dur"))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("span {i} ({name}): bad dur {dur}"));
                }
                summary.spans += 1;
                summary.max_end_s = summary.max_end_s.max((ts + dur) / US_PER_S);
                if let Some(args) = ev.get("args") {
                    let id = args.get("id").and_then(Json::as_f64).map(|v| v as i64);
                    let parent = args.get("parent").and_then(Json::as_f64).map(|v| v as i64);
                    if let Some(id) = id {
                        by_id.insert(id, (tid, ts, ts + dur));
                        if let Some(p) = parent {
                            if p >= 0 {
                                child_links.push((id, p, ts, ts + dur, name.to_string()));
                            }
                        }
                    }
                }
            }
            "i" => summary.instants += 1,
            "C" => summary.counter_samples += 1,
            other => return Err(format!("event {i} ({name}): unknown ph '{other}'")),
        }
    }

    // Containment: a child span lies within its parent's interval, on the
    // same lane. Tolerance covers the 3-decimal µs rounding in the export.
    const TOL_US: f64 = 2e-3;
    for (id, parent, ts, end, name) in &child_links {
        let &(ptid, pts, pend) = by_id
            .get(parent)
            .ok_or_else(|| format!("span {name} (id {id}): parent {parent} not in trace"))?;
        let &(tid, _, _) = by_id.get(id).expect("child was inserted");
        if tid != ptid {
            return Err(format!("span {name} (id {id}): parent on different lane"));
        }
        if *ts + TOL_US < pts || *end > pend + TOL_US {
            return Err(format!(
                "span {name} (id {id}): [{ts}, {end}] escapes parent [{pts}, {pend}]"
            ));
        }
    }

    if summary.spans + summary.instants == 0 {
        return Err("trace contains no span or instant events".into());
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Track;

    #[test]
    fn export_round_trips_and_validates() {
        let t = Telemetry::new();
        t.begin(Track::Host, "step", 0.0);
        t.span(Track::Host, "corner_force", 0.0, 0.4);
        t.span(Track::Host, "cg_solver", 0.4, 0.3);
        t.end(Track::Host, 1.0);
        t.instant(Track::Host, "degrade_to_cpu", 0.9);
        t.counter_add("steps", 1);
        t.gauge_set("gpu_occupancy", 0.5);
        let json = chrome_trace(&t);
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.instants, 1);
        assert!((summary.max_end_s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn power_counters_cover_trace_extent() {
        let t = Telemetry::new();
        t.span(Track::Host, "p", 0.0, 1.0);
        let mut pt = PowerTrace::new(40.0);
        pt.push(0.0, 0.6, 90.0);
        pt.push(0.8, 0.2, 110.0);
        let json = chrome_trace_with_power(&t, &[(Track::Host, &pt)]);
        let summary = validate_chrome_trace(&json).expect("valid trace");
        // 2 samples per segment + 1 idle-gap sample before the second.
        assert_eq!(summary.counter_samples, 5);
        assert_eq!(summary.spans, 1);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{\"a\":").is_err());
        assert!(parse_json("[1,2,]").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": []}").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a": [1, -2.5e3, "x\nyA", true, null, {"b": false}]}"#)
            .expect("parses");
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("x\nyA"));
        assert_eq!(arr[5].get("b"), Some(&Json::Bool(false)));
    }

    #[test]
    fn child_escaping_parent_is_rejected() {
        // Hand-built trace where the child ends after its parent.
        let bad = r#"{"traceEvents":[
            {"name":"p","ph":"X","pid":0,"tid":0,"ts":0,"dur":10,"args":{"id":0,"parent":-1,"depth":0}},
            {"name":"c","ph":"X","pid":0,"tid":0,"ts":5,"dur":10,"args":{"id":1,"parent":0,"depth":1}}
        ]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("escapes parent"), "{err}");
    }
}
