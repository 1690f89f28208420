//! Machine-readable benchmark reports.
//!
//! Every headline bench writes a human-readable markdown file under
//! `out/`; this module adds a machine-readable sibling,
//! `out/bench_<name>.json`, serialized through the vendored
//! [`isis_obs::Json`] codec so CI (and later sessions) can diff numbers
//! without scraping markdown.
//!
//! The schema (`isis-bench/1`) is deliberately flat:
//!
//! ```json
//! {
//!   "schema": "isis-bench/1",
//!   "name": "query_index",
//!   "git_rev": "0782f72",
//!   "timestamp_unix": 1770000000,
//!   "smoke": false,
//!   "params": {"n": 10000, "rounds": 200},
//!   "results": [
//!     {"id": "query_index/shared_maintained/1600", "mean_ns": 41000.0, "iters": 120000}
//!   ]
//! }
//! ```
//!
//! `results` carries one entry per measurement: criterion-harness runs are
//! imported wholesale from the vendored criterion's `Measurement` rows, and
//! report loops add their own aggregate rows. Under `--test` the `smoke`
//! flag is set so consumers know the numbers are one-shot placeholders.

use std::path::PathBuf;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use isis_obs::Json;

/// Builder for one `out/bench_<name>.json` report.
#[derive(Debug, Clone)]
pub struct BenchReport {
    name: String,
    smoke: bool,
    scale: Option<u64>,
    params: Vec<(String, Json)>,
    results: Vec<(String, f64, u64)>,
}

impl BenchReport {
    /// Start a report named `name` (the file becomes `out/bench_<name>.json`).
    pub fn new(name: impl Into<String>) -> Self {
        BenchReport {
            name: name.into(),
            smoke: false,
            scale: None,
            params: Vec::new(),
            results: Vec::new(),
        }
    }

    /// Mark the report as a `--test` smoke run (untrustworthy timings).
    pub fn smoke(mut self, smoke: bool) -> Self {
        self.smoke = smoke;
        self
    }

    /// Record the workload's entity scale for the run header (the largest
    /// entity count the run touched).
    pub fn scale(mut self, entities: u64) -> Self {
        self.scale = Some(entities);
        self
    }

    /// Record a workload parameter (entity count, rounds, ...).
    pub fn param(mut self, key: impl Into<String>, value: impl Into<Json>) -> Self {
        self.params.push((key.into(), value.into()));
        self
    }

    /// Record one measurement row.
    pub fn result(mut self, id: impl Into<String>, mean_ns: f64, iters: u64) -> Self {
        self.results.push((id.into(), mean_ns, iters));
        self
    }

    /// Record a batch of `(id, mean_ns, iters)` rows — the shape of the
    /// vendored criterion harness's `measurements()` output.
    pub fn results_from<I, S>(mut self, rows: I) -> Self
    where
        I: IntoIterator<Item = (S, f64, u64)>,
        S: Into<String>,
    {
        for (id, mean_ns, iters) in rows {
            self.results.push((id.into(), mean_ns, iters));
        }
        self
    }

    /// The report as a [`Json`] document (schema `isis-bench/1`).
    pub fn to_json(&self) -> Json {
        let params = Json::Obj(self.params.clone());
        let results = Json::Arr(
            self.results
                .iter()
                .map(|(id, mean_ns, iters)| {
                    Json::Obj(vec![
                        ("id".into(), Json::from(id.as_str())),
                        ("mean_ns".into(), Json::from(*mean_ns)),
                        ("iters".into(), Json::from(*iters)),
                    ])
                })
                .collect(),
        );
        // The run header: enough machine context to judge whether two
        // reports are comparable (same-ish host, same scale, real run vs
        // smoke) before diffing the numbers.
        let run = Json::Obj(vec![
            ("host_cores".into(), Json::from(host_cores())),
            ("smoke".into(), Json::from(self.smoke)),
            (
                "entity_scale".into(),
                self.scale.map_or(Json::Null, Json::from),
            ),
        ]);
        Json::Obj(vec![
            ("schema".into(), Json::from("isis-bench/1")),
            ("name".into(), Json::from(self.name.as_str())),
            ("git_rev".into(), Json::from(git_rev().as_str())),
            ("timestamp_unix".into(), Json::from(unix_timestamp())),
            ("smoke".into(), Json::from(self.smoke)),
            ("run".into(), run),
            ("params".into(), params),
            ("results".into(), results),
        ])
    }

    /// Write `out/bench_<name>.json` (creating `out/` if needed) and return
    /// the path written.
    pub fn write(&self) -> PathBuf {
        let out_dir = out_dir();
        std::fs::create_dir_all(&out_dir).expect("create out/");
        let path = out_dir.join(format!("bench_{}.json", self.name));
        let mut body = self.to_json().pretty();
        body.push('\n');
        std::fs::write(&path, body).expect("write bench json");
        path
    }
}

/// The workspace-level `out/` directory the markdown reports already use.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../out")
}

/// Short git revision of the working tree, or `"unknown"` outside a
/// checkout (benches must not fail because git is absent).
pub fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host's available parallelism, or 0 when the platform will not say.
pub fn host_cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(0)
}

/// Seconds since the Unix epoch at the time of the call.
pub fn unix_timestamp() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_round_trips_with_expected_fields() {
        let report = BenchReport::new("unit_test")
            .smoke(true)
            .scale(300)
            .param("n", 300usize)
            .result("unit_test/arm_a", 1234.5, 10)
            .results_from(vec![("unit_test/arm_b".to_string(), 99.0, 4)]);
        let doc = report.to_json();
        let text = doc.pretty();
        let parsed = Json::parse(&text).expect("report parses");
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some("isis-bench/1"));
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("unit_test"));
        assert_eq!(parsed.get("smoke").unwrap().as_bool(), Some(true));
        let run = parsed.get("run").expect("run header present");
        assert_eq!(run.get("smoke").unwrap().as_bool(), Some(true));
        assert_eq!(run.get("entity_scale").unwrap().as_f64(), Some(300.0));
        assert!(run.get("host_cores").unwrap().as_f64().is_some());
        assert_eq!(
            parsed.get("params").unwrap().get("n").unwrap().as_f64(),
            Some(300.0)
        );
        let results = parsed.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("id").unwrap().as_str(),
            Some("unit_test/arm_a")
        );
        assert_eq!(results[1].get("mean_ns").unwrap().as_f64(), Some(99.0));
        // git_rev is either a short hash or the sentinel — never empty.
        assert!(!parsed.get("git_rev").unwrap().as_str().unwrap().is_empty());
    }
}
