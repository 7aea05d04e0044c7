//! End-to-end and per-layer benchmark of the CURE cube engine.
//!
//! One command runs a named workload with a seed, checks every answer
//! against the reference oracle, and prints each metric by name and
//! unit. See `README.md` beside this crate for the workloads, the
//! metrics and what each per-layer metric should move.

pub mod host;
pub mod layers;
pub mod load;
pub mod metrics;
pub mod oracle;
pub mod procs;
pub mod run;
pub mod trace;

/// Errors are reported as text and end the run.
pub type Result<T> = std::result::Result<T, String>;

/// Attach what was being done to a program error.
pub trait Context<T> {
    /// Prefix the error with `what`.
    fn context(self, what: &str) -> Result<T>;
}

impl<T, E: std::fmt::Display> Context<T> for std::result::Result<T, E> {
    fn context(self, what: &str) -> Result<T> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit, as one JSON object.
pub fn result_line(o: &run::Outcome) -> String {
    use serde_json::Value;
    use std::collections::BTreeMap;
    let metrics: BTreeMap<String, Value> = o
        .metrics
        .iter()
        .map(|(m, v)| {
            let entry = BTreeMap::from([
                ("value".to_string(), Value::from(*v)),
                ("unit".to_string(), Value::from(m.unit)),
            ]);
            (m.name.to_string(), Value::Object(entry))
        })
        .collect();
    let line = BTreeMap::from([
        ("correct".to_string(), Value::from(o.correct)),
        ("attempted".to_string(), Value::from(o.attempted)),
        ("failed".to_string(), Value::from(o.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&Value::Object(line)).expect("finite metrics render")
}

/// The record line written before the result: host and run facts.
pub fn record_line(o: &run::Outcome) -> String {
    use serde_json::Value;
    use std::collections::BTreeMap;
    let rec: BTreeMap<String, Value> =
        o.record.iter().map(|(k, v)| (k.to_string(), Value::from(v.as_str()))).collect();
    let line = BTreeMap::from([("record".to_string(), Value::Object(rec))]);
    serde_json::to_string(&Value::Object(line)).expect("strings render")
}
