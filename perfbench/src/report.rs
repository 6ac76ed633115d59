//! Output: run metadata, one `# metric` line per metric with its unit,
//! failure reasons, and the final one-line JSON result.

use crate::rig::Workload;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The metrics of one run.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Metrics that go into the JSON result.
    reported: BTreeMap<String, (f64, &'static str)>,
    /// Reported metrics whose layer did not run in this workload; they
    /// carry the value 0 in the JSON so every workload reports the same
    /// set.
    absent: BTreeSet<String>,
    /// Printed only (not part of the JSON result).
    notes: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Records a reported metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.reported.insert(name.to_string(), (value, unit));
    }

    /// Records a reported metric that exists only where its layer ran.
    pub fn put_or_absent(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) => self.put(name, v, unit),
            None => {
                self.put(name, 0.0, unit);
                self.absent.insert(name.to_string());
            }
        }
    }

    /// Records a printed-only metric.
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.insert(name.to_string(), (value, unit));
    }

    /// Prints every metric as `# metric <name> <value> <unit>`.
    pub fn print(&self) {
        for (name, (v, unit)) in &self.reported {
            if self.absent.contains(name) {
                println!("# metric {name} absent {unit}");
            } else {
                println!("# metric {name} {v} {unit}");
            }
        }
        for (name, (v, unit)) in &self.notes {
            println!("# metric {name} {v} {unit} (report only)");
        }
    }
}

/// Escapes `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON, with every digit Rust's shortest
/// round-trip formatting gives.
fn json_num(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v:?}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

/// The last output line: `correct`, `attempted`, `failed`, `metrics`.
///
/// # Errors
///
/// A non-finite metric value.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    m: &Metrics,
) -> Result<String, String> {
    let mut body = Vec::with_capacity(m.reported.len());
    for (name, (v, unit)) in &m.reported {
        body.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(*v).map_err(|e| format!("{name}: {e}"))?,
            json_str(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// Prints the typed failure reasons with their counts.
pub fn print_failures(reasons: &BTreeMap<String, usize>) {
    let body: Vec<String> = reasons
        .iter()
        .map(|(r, n)| format!("{}: {n}", json_str(r)))
        .collect();
    println!("# failures {{{}}}", body.join(", "));
}

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// What ran, where, and how.
pub struct RunMeta {
    fields: Vec<(&'static str, String)>,
}

/// The checkout's commit, read from `.git` in the working directory
/// without leaving it; `unknown` outside a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.to_string()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

impl RunMeta {
    /// Metadata for a run of `w`.
    pub fn new(
        w: &Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        processes: usize,
        setup_reps: usize,
    ) -> Self {
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        let fields = vec![
            ("workload", w.name.to_string()),
            ("network", w.model_name()),
            ("n", w.params.degree().to_string()),
            ("l", w.params.levels().to_string()),
            (
                "device",
                w.device
                    .as_ref()
                    .map_or("none".into(), |d| d.name().to_string()),
            ),
            ("seed", seed.to_string()),
            ("load", "closed loop, 1 client".to_string()),
            ("deadline_s", format!("{}", w.deadline.as_secs_f64())),
            ("seconds", format!("{seconds}")),
            ("trace", u8::from(trace).to_string()),
            ("processes", processes.to_string()),
            ("setup_reps_per_process", setup_reps.to_string()),
            ("git_rev", git_rev()),
            ("nproc", nproc.to_string()),
            (
                "threads",
                fxhenn::math::par::effective_threads().to_string(),
            ),
            ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ];
        Self { fields }
    }

    /// Prints `# meta {...}`.
    pub fn print(&self) {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        println!("# meta {{{}}}", body.join(", "));
    }
}
