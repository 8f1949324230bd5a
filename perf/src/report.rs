//! What a run prints and leaves behind: the metric table, the driver's
//! result line, and a detail record under `perf/out/`.

use crate::stats::{summarize, Summary};
use crate::sys::Provenance;
use serde_json::{json, Map, Value};
use std::fmt::Write as _;
use std::path::Path;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The samples behind `value`, when it was sampled.
    pub detail: Option<Summary>,
    /// Shown beside the value in the table only (e.g. "41% of roofline").
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        assert!(value.is_finite(), "{name} is not a finite number: {value}");
        Metric { name, unit, value, detail: None, note: String::new() }
    }

    pub fn with_detail(mut self, detail: Summary) -> Metric {
        self.detail = Some(detail);
        self
    }

    /// The median of `samples`, with their summary as detail.
    pub fn median_of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let d = summarize(samples);
        Metric::new(name, unit, d.median).with_detail(d)
    }
}

pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    /// Saves and loads made, set-up included.
    pub attempted: u64,
    /// Of those, the ones that returned an error or a wrong state.
    pub failed: u64,
    /// Plain `key: value` lines (errors, the traced run's findings).
    pub lines: Vec<(String, String)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The table, then the result line the driver reads — last.
    pub fn print(&self) {
        println!(
            "# {} seed={} seconds={} trace={}",
            self.workload, self.seed, self.seconds, self.traced as u8
        );
        for m in &self.metrics {
            let mut line = format!("{:<48} {:>16.6} {:<8}", m.name, m.value, m.unit);
            if let Some(d) = &m.detail {
                write!(
                    line,
                    " n={} median={:.6} p25={:.6} p75={:.6} min={:.6} max={:.6}",
                    d.n, d.median, d.p25, d.p75, d.min, d.max
                )
                .expect("write to String");
            }
            if !m.note.is_empty() {
                write!(line, " [{}]", m.note).expect("write to String");
            }
            println!("{}", line.trim_end());
        }
        for (k, v) in &self.lines {
            println!("{k}: {v}");
        }
        let line = json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics_json(false),
        });
        println!("{line}");
    }

    /// Every metric as `name: {value, unit}`, with its samples' summary as
    /// measured where `detail` is asked for and there is one.
    fn metrics_json(&self, detail: bool) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            let v = match &m.detail {
                Some(d) if detail => json!({
                    "value": m.value, "unit": m.unit, "n": d.n, "median": d.median,
                    "p25": d.p25, "p75": d.p75, "min": d.min, "max": d.max,
                }),
                _ => json!({"value": m.value, "unit": m.unit}),
            };
            (m.name.to_string(), v)
        });
        Value::Object(metrics.collect::<Map<_, _>>())
    }

    /// One run's record: provenance header, every metric with its samples'
    /// summary, and the plain lines.
    pub fn write_json(&self, path: &Path, p: &Provenance) -> std::io::Result<()> {
        let lines = self.lines.iter().map(|(k, v)| (k.clone(), json!(v)));
        let record = json!({
            "header": {
                "git_rev": p.git_rev, "seed": self.seed, "seconds": self.seconds,
                "nproc": p.nproc, "cpu_model": p.cpu_model, "kernel": p.kernel,
                "rustc": p.rustc, "fs_type": p.fs_type,
            },
            "workload": self.workload,
            "trace": self.traced as u8,
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics_json(true),
            "lines": Value::Object(lines.collect::<Map<_, _>>()),
        });
        std::fs::write(path, format!("{record:#}\n"))
    }
}
