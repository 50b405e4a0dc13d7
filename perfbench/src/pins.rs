//! Expectations read from the committed `BENCH_*.json` artifacts.
//!
//! The benchmark only reads these files. Each part compares its
//! deterministic outputs against the rows that describe the same inputs;
//! a self-test plants a wrong value in the loaded expectation to show
//! that the comparison bites.

use std::path::PathBuf;

use sched_sim::report::Json;

/// The repository root (the benchmark package's parent directory).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Parses a committed JSONL artifact (`#` lines are comments).
///
/// # Errors
///
/// When the file is missing or a line is not JSON.
pub fn load(name: &str) -> Result<Vec<Json>, String> {
    let path = repo_root().join(name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| Json::parse(l).map_err(|e| format!("{name}: {e}")))
        .collect()
}

fn cell_str<'a>(row: &'a Json, key: &str) -> Option<&'a str> {
    row.get("cell")?.get(key)?.as_str()
}

fn cell_u64(row: &Json, key: &str) -> Option<u64> {
    row.get("cell")?.get(key)?.as_u64()
}

fn u64_of(row: &Json, key: &str) -> Option<u64> {
    row.get(key)?.as_u64()
}

/// The deterministic statistics of one explorer row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExplorePin {
    /// Executed steps.
    pub steps: u64,
    /// Quiescent states reached.
    pub terminals: u64,
    /// Steps into already-visited states.
    pub deduped: u64,
    /// Choices pruned by partial-order reduction.
    pub por_pruned: u64,
    /// Distinct visited states.
    pub visited: u64,
}

/// The `BENCH_explore.json` row of `workload` explored as `kind`.
pub fn explore_pin(rows: &[Json], workload: &str, kind: &str) -> Option<ExplorePin> {
    let row = rows.iter().find(|r| {
        r.get("kind").and_then(Json::as_str) == Some(kind)
            && cell_str(r, "workload") == Some(workload)
    })?;
    Some(ExplorePin {
        steps: u64_of(row, "steps")?,
        terminals: u64_of(row, "terminals")?,
        deduped: u64_of(row, "deduped")?,
        por_pruned: u64_of(row, "por_pruned")?,
        visited: u64_of(row, "visited")?,
    })
}

/// The deterministic summary of one service configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServicePin {
    /// Statements executed.
    pub steps: u64,
    /// Requests served.
    pub requests: u64,
    /// Statements per request, as the artifact rounds it.
    pub steps_per_request: f64,
    /// Latency percentiles in statements.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// The `BENCH_service.json` total of `(object, arrival)`.
pub fn service_pin(rows: &[Json], object: &str, arrival: &str) -> Option<ServicePin> {
    let row = rows.iter().find(|r| {
        r.get("kind").and_then(Json::as_str) == Some("service_total")
            && cell_str(r, "object") == Some(object)
            && cell_str(r, "arrival") == Some(arrival)
    })?;
    Some(ServicePin {
        steps: u64_of(row, "steps")?,
        requests: u64_of(row, "requests")?,
        steps_per_request: row.get("steps_per_request")?.as_f64()?,
        p50: u64_of(row, "p50")?,
        p90: u64_of(row, "p90")?,
        p99: u64_of(row, "p99")?,
    })
}

/// The churn cell of `BENCH_crash.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnPin {
    /// Statements executed.
    pub steps: u64,
    /// Requests served.
    pub requests: u64,
    /// Crashes fired.
    pub crashes: u64,
    /// Recoveries fired.
    pub recoveries: u64,
}

/// The `crash_churn` row of `BENCH_crash.json`.
pub fn churn_pin(rows: &[Json]) -> Option<ChurnPin> {
    let row = rows
        .iter()
        .find(|r| r.get("kind").and_then(Json::as_str) == Some("crash_churn"))?;
    Some(ChurnPin {
        steps: u64_of(row, "steps")?,
        requests: u64_of(row, "requests_served")?,
        crashes: u64_of(row, "crashes")?,
        recoveries: u64_of(row, "recoveries")?,
    })
}

/// One committed Table 1 probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbePin {
    /// Whether all adversary seeds passed.
    pub ok: bool,
    /// Statements over the seeds the artifact ran (it stops at the first
    /// failing seed).
    pub steps: u64,
    /// The first failing seed, for a violation.
    pub fail_seed: Option<u64>,
}

/// The `BENCH_table1.json` probe at `(p, c, q)`.
pub fn probe_pin(rows: &[Json], p: u32, c: u32, q: u32) -> Option<ProbePin> {
    let row = rows.iter().find(|r| {
        r.get("kind").and_then(Json::as_str) == Some("table1")
            && cell_u64(r, "p") == Some(u64::from(p))
            && cell_u64(r, "c") == Some(u64::from(c))
            && cell_u64(r, "q") == Some(u64::from(q))
    })?;
    Some(ProbePin {
        ok: row.get("verdict")?.as_str()? == "ok",
        steps: u64_of(row, "steps")?,
        fail_seed: row.get("fail_seed").and_then(Json::as_u64),
    })
}
