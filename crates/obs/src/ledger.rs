//! The versioned run ledger: one engine run, serialized to stable JSON.
//!
//! # Schema (version 1)
//!
//! A [`RunLedger`] object has exactly these keys:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "engine": "explore",
//!   "run_id": "e9-cap4",
//!   "counters": {"states": 11841, "arena_bytes": 4330168},
//!   "gauges": {"states_per_sec": 157000.0, "duration_micros": 75000.0},
//!   "histograms": {"frontier": {"count": 60, "sum": 11840, "min": 1,
//!                                "max": 900, "buckets": [[1, 3], [10, 57]]}},
//!   "spans": {"barrier": 1234567}
//! }
//! ```
//!
//! * `counters` are **deterministic**: a pure function of the run
//!   configuration, compared exactly by re-run tests.
//! * `gauges` are wall-clock-derived `f64`s; the regression gate applies
//!   suffix rules to them (`*_per_sec` floors, `*_micros` ceilings).
//! * `histograms` are sparse log2 snapshots ([`HistogramSnapshot`]).
//! * `spans` are accumulated nanosecond totals (zero unless the engines
//!   were built with the `obs` feature).
//!
//! A [`BenchFile`] wraps a list of ledgers with a `created` stamp — the
//! shape of `BENCH_<date>.json` and `bench/baseline.json`.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{Json, JsonError};
use crate::metrics::{Histogram, HistogramSnapshot};

/// Current ledger schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// The engines a ledger may come from.
pub const ENGINES: &[&str] = &[
    "explore",
    "sim",
    "fuzz",
    "impossibility",
    "fleet",
    "monitor",
    "stabilize",
    "crosscheck",
];

/// Metrics of one engine run, keyed for serialization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunLedger {
    /// Which engine produced the run (see [`ENGINES`]).
    pub engine: String,
    /// Stable identifier of the workload (e.g. `"e9-cap4"`).
    pub run_id: String,
    /// Deterministic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Wall-clock-derived values (throughputs, latencies).
    pub gauges: BTreeMap<String, f64>,
    /// Log2-bucket distributions.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Accumulated span nanoseconds (zero without the `obs` feature).
    pub spans: BTreeMap<String, u64>,
}

impl RunLedger {
    /// An empty ledger for `engine` / `run_id`.
    #[must_use]
    pub fn new(engine: &str, run_id: &str) -> Self {
        debug_assert!(ENGINES.contains(&engine), "unknown engine {engine:?}");
        RunLedger {
            engine: engine.to_string(),
            run_id: run_id.to_string(),
            ..RunLedger::default()
        }
    }

    /// Sets a deterministic counter.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Sets a wall-clock-derived gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Stores a histogram snapshot.
    pub fn histogram(&mut self, name: &str, histogram: &Histogram) {
        self.histograms
            .insert(name.to_string(), histogram.snapshot());
    }

    /// Sets a span's accumulated nanoseconds.
    pub fn span(&mut self, name: &str, nanos: u64) {
        self.spans.insert(name.to_string(), nanos);
    }

    /// The ledger as a JSON tree (schema version 1).
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::from(SCHEMA_VERSION)),
            ("engine".into(), Json::Str(self.engine.clone())),
            ("run_id".into(), Json::Str(self.run_id.clone())),
            ("counters".into(), Json::from_map(self.counters.clone())),
            ("gauges".into(), Json::from_map(self.gauges.clone())),
            (
                "histograms".into(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), snapshot_to_json(v)))
                        .collect(),
                ),
            ),
            ("spans".into(), Json::from_map(self.spans.clone())),
        ])
    }

    /// Serializes to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty()
    }

    /// Reads a ledger back from a JSON tree, validating the version.
    ///
    /// # Errors
    ///
    /// [`LedgerError`] on a missing/mistyped key or a version mismatch.
    pub fn from_json_value(value: &Json) -> Result<Self, LedgerError> {
        let version = value
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| LedgerError::key("schema_version"))?;
        if version != SCHEMA_VERSION {
            return Err(LedgerError {
                message: format!("unsupported schema_version {version} (want {SCHEMA_VERSION})"),
            });
        }
        let engine = value
            .get("engine")
            .and_then(Json::as_str)
            .ok_or_else(|| LedgerError::key("engine"))?;
        if !ENGINES.contains(&engine) {
            return Err(LedgerError {
                message: format!("unknown engine {engine:?}"),
            });
        }
        let run_id = value
            .get("run_id")
            .and_then(Json::as_str)
            .ok_or_else(|| LedgerError::key("run_id"))?;
        let mut ledger = RunLedger::new(engine, run_id);
        for (name, v) in obj(value, "counters")? {
            ledger
                .counters
                .insert(name.clone(), v.as_u64().ok_or_else(|| bad(name))?);
        }
        for (name, v) in obj(value, "gauges")? {
            ledger
                .gauges
                .insert(name.clone(), v.as_f64().ok_or_else(|| bad(name))?);
        }
        for (name, v) in obj(value, "histograms")? {
            ledger.histograms.insert(
                name.clone(),
                snapshot_from_json(v).ok_or_else(|| bad(name))?,
            );
        }
        for (name, v) in obj(value, "spans")? {
            ledger
                .spans
                .insert(name.clone(), v.as_u64().ok_or_else(|| bad(name))?);
        }
        Ok(ledger)
    }

    /// Parses one serialized ledger.
    ///
    /// # Errors
    ///
    /// [`LedgerError`] on malformed JSON or schema violations.
    pub fn from_json(text: &str) -> Result<Self, LedgerError> {
        Self::from_json_value(&Json::parse(text)?)
    }
}

fn obj<'a>(value: &'a Json, key: &str) -> Result<&'a [(String, Json)], LedgerError> {
    value
        .get(key)
        .and_then(Json::as_obj)
        .ok_or_else(|| LedgerError::key(key))
}

fn bad(name: &str) -> LedgerError {
    LedgerError {
        message: format!("mistyped metric {name:?}"),
    }
}

fn snapshot_to_json(s: &HistogramSnapshot) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::from(s.count)),
        ("sum".into(), Json::from(s.sum)),
        ("min".into(), Json::from(s.min)),
        ("max".into(), Json::from(s.max)),
        (
            "buckets".into(),
            Json::Arr(
                s.buckets
                    .iter()
                    .map(|(b, c)| Json::Arr(vec![Json::from(u64::from(*b)), Json::from(*c)]))
                    .collect(),
            ),
        ),
    ])
}

fn snapshot_from_json(value: &Json) -> Option<HistogramSnapshot> {
    let mut buckets = Vec::new();
    for pair in value.get("buckets")?.as_arr()? {
        let pair = pair.as_arr()?;
        if pair.len() != 2 {
            return None;
        }
        buckets.push((u8::try_from(pair[0].as_u64()?).ok()?, pair[1].as_u64()?));
    }
    Some(HistogramSnapshot {
        count: value.get("count")?.as_u64()?,
        sum: value.get("sum")?.as_u64()?,
        min: value.get("min")?.as_u64()?,
        max: value.get("max")?.as_u64()?,
        buckets,
    })
}

/// A ledger collection with provenance — the shape of `BENCH_<date>.json`
/// and `bench/baseline.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchFile {
    /// Free-form provenance stamp (a date or unix timestamp; never
    /// interpreted, only displayed).
    pub created: String,
    /// The runs, in emission order.
    pub runs: Vec<RunLedger>,
}

impl BenchFile {
    /// Looks a run up by engine and id.
    #[must_use]
    pub fn find(&self, engine: &str, run_id: &str) -> Option<&RunLedger> {
        self.runs
            .iter()
            .find(|r| r.engine == engine && r.run_id == run_id)
    }

    /// Serializes to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("schema_version".into(), Json::from(SCHEMA_VERSION)),
            ("created".into(), Json::Str(self.created.clone())),
            (
                "runs".into(),
                Json::Arr(self.runs.iter().map(RunLedger::to_json_value).collect()),
            ),
        ])
        .to_pretty()
    }

    /// Parses a serialized bench file.
    ///
    /// # Errors
    ///
    /// [`LedgerError`] on malformed JSON or schema violations.
    pub fn from_json(text: &str) -> Result<Self, LedgerError> {
        let value = Json::parse(text)?;
        let version = value
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| LedgerError::key("schema_version"))?;
        if version != SCHEMA_VERSION {
            return Err(LedgerError {
                message: format!("unsupported schema_version {version} (want {SCHEMA_VERSION})"),
            });
        }
        let created = value
            .get("created")
            .and_then(Json::as_str)
            .ok_or_else(|| LedgerError::key("created"))?
            .to_string();
        let mut runs = Vec::new();
        for run in value
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| LedgerError::key("runs"))?
        {
            runs.push(RunLedger::from_json_value(run)?);
        }
        Ok(BenchFile { created, runs })
    }
}

/// A schema or parse failure while reading a ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerError {
    /// What went wrong.
    pub message: String,
}

impl LedgerError {
    fn key(key: &str) -> Self {
        LedgerError {
            message: format!("missing or mistyped key {key:?}"),
        }
    }
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for LedgerError {}

impl From<JsonError> for LedgerError {
    fn from(e: JsonError) -> Self {
        LedgerError {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunLedger {
        let mut ledger = RunLedger::new("explore", "e9-cap2");
        ledger.counter("states", 594);
        ledger.counter("arena_bytes", 252_000);
        ledger.gauge("states_per_sec", 150_000.5);
        ledger.gauge("duration_micros", 2600.0);
        let mut h = Histogram::new();
        h.record(3);
        h.record(17);
        ledger.histogram("frontier", &h);
        ledger.span("barrier", 12_345);
        ledger
    }

    #[test]
    fn round_trips_through_json() {
        let ledger = sample();
        let text = ledger.to_json();
        let back = RunLedger::from_json(&text).unwrap();
        assert_eq!(back, ledger);
        // Stable writer: serialize → parse → serialize is a fixpoint.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn bench_file_round_trips() {
        let file = BenchFile {
            created: "2026-08-06".into(),
            runs: vec![sample()],
        };
        let back = BenchFile::from_json(&file.to_json()).unwrap();
        assert_eq!(back, file);
        assert!(back.find("explore", "e9-cap2").is_some());
        assert!(back.find("fuzz", "e9-cap2").is_none());
    }

    #[test]
    fn version_and_engine_are_validated() {
        let text = sample()
            .to_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 99");
        let err = RunLedger::from_json(&text).unwrap_err();
        assert!(err.message.contains("schema_version 99"), "{err}");

        let text = sample().to_json().replace("explore", "warp-drive");
        let err = RunLedger::from_json(&text).unwrap_err();
        assert!(err.message.contains("warp-drive"), "{err}");
    }

    #[test]
    fn missing_sections_are_rejected() {
        let full = sample().to_json();
        for key in ["counters", "gauges", "histograms", "spans", "run_id"] {
            let broken = full.replace(&format!("\"{key}\""), "\"nope\"");
            assert!(
                RunLedger::from_json(&broken).is_err(),
                "accepted ledger without {key}"
            );
        }
    }
}
