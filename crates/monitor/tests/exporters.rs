//! Golden-file tests for the exporters: the Chrome trace-event JSON and the
//! CSVs produced for a fixed span set must match the checked-in goldens
//! (the flat CSV holds the counted spans only, so the root is absent). The trace is compared as parsed JSON (formatting-insensitive);
//! the CSVs byte-for-byte.

use bcp_monitor::export::{chrome_trace, records_csv, spans_csv};
use bcp_monitor::{SpanEvent, SpanRecord};
use std::collections::BTreeMap;
use std::time::Duration;

fn fixture_spans() -> Vec<SpanRecord> {
    let mut attrs_root = BTreeMap::new();
    attrs_root.insert("backend".to_string(), "disk".to_string());
    let mut attrs_barrier = BTreeMap::new();
    attrs_barrier.insert("collective".to_string(), "tree".to_string());
    vec![
        SpanRecord {
            id: 1,
            parent: None,
            name: "save".into(),
            rank: 0,
            step: 100,
            start_us: 0,
            duration: Duration::from_micros(5000),
            io_bytes: 0,
            path: None,
            attrs: attrs_root,
            events: vec![SpanEvent { name: "commit".into(), at_us: 4500 }],
            counted: false,
        },
        SpanRecord {
            id: 2,
            parent: Some(1),
            name: "save/upload".into(),
            rank: 0,
            step: 100,
            start_us: 1000,
            duration: Duration::from_micros(3000),
            io_bytes: 4096,
            path: Some("step_100/rank0.bin".into()),
            attrs: BTreeMap::new(),
            events: Vec::new(),
            counted: true,
        },
        SpanRecord {
            id: 3,
            parent: Some(1),
            name: "sync/save_barrier".into(),
            rank: 1,
            step: 100,
            start_us: 4000,
            duration: Duration::from_micros(800),
            io_bytes: 0,
            path: None,
            attrs: attrs_barrier,
            events: Vec::new(),
            counted: true,
        },
    ]
}

#[test]
fn chrome_trace_matches_golden() {
    let rendered = chrome_trace(&fixture_spans());
    let got: serde_json::Value = serde_json::from_str(&rendered).expect("exporter emits JSON");
    let want: serde_json::Value =
        serde_json::from_str(include_str!("golden/trace.json")).expect("golden is JSON");
    assert_eq!(got, want);
}

#[test]
fn records_csv_matches_golden() {
    assert_eq!(records_csv(&fixture_spans()), include_str!("golden/records.csv"));
}

#[test]
fn spans_csv_matches_golden() {
    assert_eq!(spans_csv(&fixture_spans()), include_str!("golden/spans.csv"));
}
