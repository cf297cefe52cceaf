//! The persistent spill behind the service's result cache.
//!
//! On shutdown the service writes one JSON file, `serve_cache.json`, into
//! its cache directory: every cached `(key, Report)` pair. On boot the file
//! is read back and pre-populates the result cache.
//!
//! Loading is deliberately forgiving: a missing, truncated, corrupt, or
//! version-mismatched file means the service **starts cold** — a warning on
//! stderr, never a panic (the spill is a cache, losing it loses only
//! warmth). Writing is atomic: the file is staged to `serve_cache.json.tmp`
//! and renamed into place, so a crash mid-write leaves the previous spill
//! intact rather than a truncated one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use npar_sim::Report;
use serde::{Deserialize, Serialize, Value};

/// Spill file name inside the cache directory.
pub const SPILL_FILE: &str = "serve_cache.json";

/// Spill-format version; bumped whenever the layout changes. A mismatch is
/// treated as corrupt (cold start), not migrated.
const SPILL_VERSION: u64 = 2;

/// Everything the service persists across restarts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Spill {
    /// Result cache: content key → served report (with host-observational
    /// `sim` stats already zeroed — see SERVING.md on determinism).
    pub results: Vec<(u64, Report)>,
}

impl Serialize for Spill {
    fn to_value(&self) -> Value {
        let results = self
            .results
            .iter()
            .map(|(key, report)| {
                Value::Object(vec![
                    ("key".into(), key.to_value()),
                    ("report".into(), report.to_value()),
                ])
            })
            .collect();
        Value::Object(vec![
            ("version".into(), SPILL_VERSION.to_value()),
            ("results".into(), Value::Array(results)),
        ])
    }
}

impl Deserialize for Spill {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let version = v
            .get("version")
            .ok_or_else(|| serde::Error("spill: missing version".into()))
            .and_then(u64::from_value)?;
        if version != SPILL_VERSION {
            return Err(serde::Error(format!(
                "spill: version {version} != supported {SPILL_VERSION}"
            )));
        }
        let records = match v.get("results") {
            Some(Value::Array(items)) => items,
            other => return Err(serde::Error(format!("spill: bad results: {other:?}"))),
        };
        let mut results = Vec::new();
        for rec in records {
            let key = rec
                .get("key")
                .ok_or_else(|| serde::Error("spill result: missing key".into()))
                .and_then(u64::from_value)?;
            let report = rec
                .get("report")
                .ok_or_else(|| serde::Error("spill result: missing report".into()))
                .and_then(Report::from_value)?;
            results.push((key, report));
        }
        Ok(Spill { results })
    }
}

/// Path of the spill file inside `dir`.
pub fn spill_path(dir: &Path) -> PathBuf {
    dir.join(SPILL_FILE)
}

/// Load the spill from `dir`. `None` means cold start: no file, unreadable
/// file, or a file that does not parse as a supported spill — the latter
/// two warn on stderr. Never panics.
pub fn load(dir: &Path) -> Option<Spill> {
    let path = spill_path(dir);
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
        Err(e) => {
            eprintln!(
                "npar-serve: unreadable spill {}: {e}; starting cold",
                path.display()
            );
            return None;
        }
    };
    match serde_json::from_str::<Spill>(&text) {
        Ok(spill) => Some(spill),
        Err(e) => {
            eprintln!(
                "npar-serve: corrupt spill {}: {e}; starting cold",
                path.display()
            );
            None
        }
    }
}

/// Atomically write the spill into `dir` (created if absent): stage to a
/// `.tmp` sibling, then rename over the final name.
pub fn save(dir: &Path, spill: &Spill) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let text = serde_json::to_string(spill)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let path = spill_path(dir);
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, &path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spill_roundtrips() {
        let spill = Spill::default();
        let back: Spill = serde_json::from_str(&serde_json::to_string(&spill).unwrap()).unwrap();
        assert_eq!(spill, back);
    }

    #[test]
    fn version_mismatch_is_an_error() {
        let v = Value::Object(vec![
            ("version".into(), Value::Int(99)),
            ("results".into(), Value::Array(vec![])),
        ]);
        assert!(Spill::from_value(&v).is_err());
    }

    #[test]
    fn missing_file_loads_cold() {
        assert!(load(Path::new("/nonexistent/npar-serve-test")).is_none());
    }
}
