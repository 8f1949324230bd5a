//! Trace exporters: Chrome trace-event JSON (loadable in `chrome://tracing`
//! / Perfetto) and CSV, for offline inspection of persisted telemetry.

use crate::span::SpanRecord;
use serde_json::{json, Map, Value};

/// Render spans as a Chrome trace-event JSON document. Each span becomes a
/// complete event (`ph: "X"`) with `pid`/`tid` set to the rank, so Perfetto
/// shows one track per rank; span events become instant events (`ph: "i"`).
/// Timestamps are microseconds on the shared process timeline.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.rank, s.start_us, s.id));
    let mut events: Vec<Value> = Vec::new();
    for span in ordered {
        let mut args = Map::new();
        args.insert("step".into(), json!(span.step));
        args.insert("span_id".into(), json!(span.id));
        if let Some(parent) = span.parent {
            args.insert("parent_id".into(), json!(parent));
        }
        if span.io_bytes > 0 {
            args.insert("io_bytes".into(), json!(span.io_bytes));
        }
        if let Some(path) = &span.path {
            args.insert("path".into(), json!(path));
        }
        for (k, v) in &span.attrs {
            args.insert(k.clone(), json!(v));
        }
        events.push(json!({
            "name": span.name,
            "cat": "bcp",
            "ph": "X",
            "ts": span.start_us,
            "dur": span.duration.as_micros() as u64,
            "pid": span.rank,
            "tid": span.rank,
            "args": Value::Object(args),
        }));
        for ev in &span.events {
            events.push(json!({
                "name": ev.name,
                "cat": "bcp",
                "ph": "i",
                "s": "t",
                "ts": ev.at_us,
                "pid": span.rank,
                "tid": span.rank,
            }));
        }
    }
    let doc = json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
    });
    serde_json::to_string_pretty(&doc).expect("serialize trace")
}

/// Minimal CSV field escaping: quote when a field contains a comma, quote,
/// or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Render the counted spans as flat CSV measurements: one row per phase
/// occurrence, without the tree columns of [`spans_csv`].
pub fn records_csv(spans: &[SpanRecord]) -> String {
    let mut out = String::from("name,rank,step,duration_s,io_bytes,path\n");
    for rec in spans.iter().filter(|s| s.counted) {
        out.push_str(&format!(
            "{},{},{},{:.6},{},{}\n",
            csv_field(&rec.name),
            rec.rank,
            rec.step,
            rec.duration.as_secs_f64(),
            rec.io_bytes,
            csv_field(rec.path.as_deref().unwrap_or("")),
        ));
    }
    out
}

/// Render spans as CSV (one row per span; attrs joined as `k=v` pairs).
pub fn spans_csv(spans: &[SpanRecord]) -> String {
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.rank, s.start_us, s.id));
    let mut out =
        String::from("id,parent,name,rank,step,start_us,duration_us,io_bytes,counted,path,attrs\n");
    for span in ordered {
        let attrs: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            span.id,
            span.parent.map(|p| p.to_string()).unwrap_or_default(),
            csv_field(&span.name),
            span.rank,
            span.step,
            span.start_us,
            span.duration.as_micros(),
            span.io_bytes,
            span.counted,
            csv_field(span.path.as_deref().unwrap_or("")),
            csv_field(&attrs.join(";")),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let span = SpanRecord {
            id: 1,
            parent: None,
            name: "save".into(),
            rank: 0,
            step: 1,
            start_us: 0,
            duration: Duration::from_micros(500),
            io_bytes: 0,
            path: None,
            attrs: Default::default(),
            events: vec![crate::span::SpanEvent { name: "tick".into(), at_us: 250 }],
            counted: false,
        };
        let doc: serde_json::Value = serde_json::from_str(&chrome_trace(&[span])).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2); // span + instant event
        assert_eq!(events[0]["ph"], "X");
        assert_eq!(events[0]["dur"], 500);
        assert_eq!(events[1]["ph"], "i");
    }
}
