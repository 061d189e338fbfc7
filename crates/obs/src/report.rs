//! The machine-readable report sink.
//!
//! Every bench binary assembles a [`Report`] and writes it to
//! `results/<name>.json` (relative to the working directory, or to
//! `$PUMI_RESULTS_DIR` when set). The JSON schema is flat and stable:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "name": "table2_balance",
//!   "unix_time": 1754550000,
//!   "spans": [ {"path", "count", "total_seconds", "max_rank_seconds"} ],
//!   "traffic": [ {"phase", "link", "msgs", "bytes"} ],
//!   "parma": [ <ParmaTrace objects> ],
//!   ... caller sections ...
//! }
//! ```
//!
//! Report writing is *not* gated on the `enabled` feature: with
//! observability off the hook-fed sections are simply empty, but a bench
//! run's own results (tables, parameters) are still emitted.

use crate::json::Json;
use crate::metrics::HistStat;
use crate::span::SpanStat;
use std::io::Write;
use std::path::PathBuf;

/// An assembling report: ordered `(key, value)` sections under a standard
/// header.
#[derive(Debug, Clone)]
pub struct Report {
    name: String,
    sections: Vec<(String, Json)>,
}

impl Report {
    /// Start a report named `name` (also the output file stem).
    pub fn new(name: &str) -> Report {
        Report {
            name: name.to_string(),
            sections: Vec::new(),
        }
    }

    /// Append a section (insertion order is preserved in the file).
    pub fn section(&mut self, key: &str, value: Json) -> &mut Report {
        self.sections.push((key.to_string(), value));
        self
    }

    /// Render the full report as a JSON object.
    pub fn to_json(&self) -> Json {
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut pairs = vec![
            ("schema".to_string(), Json::U64(1)),
            ("name".to_string(), Json::str(&self.name)),
            ("unix_time".to_string(), Json::U64(unix_time)),
            ("obs_enabled".to_string(), Json::Bool(crate::enabled())),
        ];
        pairs.extend(self.sections.iter().cloned());
        Json::Obj(pairs)
    }

    /// Write to `results/<name>.json`, creating the directory as needed.
    /// Returns the path written. The destination directory can be overridden
    /// with the `PUMI_RESULTS_DIR` environment variable — `cargo bench`
    /// runs its targets with the package directory as the working
    /// directory, so this is how their reports reach the workspace root.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        match std::env::var("PUMI_RESULTS_DIR") {
            Ok(dir) if !dir.is_empty() => self.write_under(&dir),
            _ => self.write_under("results"),
        }
    }

    /// Write to `<dir>/<name>.json`.
    pub fn write_under(&self, dir: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = PathBuf::from(dir).join(format!("{}.json", self.name));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().render().as_bytes())?;
        Ok(path)
    }

    /// [`Report::write`], degraded to a stderr warning on failure. A bench
    /// run's measurements matter more than its report file: an unwritable
    /// results directory must never abort the run.
    pub fn write_or_warn(&self) -> Option<PathBuf> {
        match self.write() {
            Ok(path) => Some(path),
            Err(e) => {
                eprintln!("warning: could not write report '{}': {e}", self.name);
                None
            }
        }
    }
}

/// Render thread-local span aggregates (from [`crate::span::take`]).
pub fn spans_to_json(spans: &[(String, SpanStat)]) -> Json {
    Json::arr(spans.iter().map(|(path, s)| {
        Json::obj([
            ("path", Json::str(path)),
            ("count", Json::U64(s.count)),
            ("total_seconds", Json::F64(s.nanos as f64 * 1e-9)),
        ])
    }))
}

/// Render drained histograms (from [`crate::metrics::take_hists`]).
pub fn hists_to_json(hists: &[(String, HistStat)]) -> Json {
    Json::arr(hists.iter().map(|(name, h)| {
        Json::obj([
            ("name", Json::str(name)),
            ("count", Json::U64(h.count)),
            ("sum", Json::F64(h.sum)),
            ("min", Json::F64(h.min)),
            ("max", Json::F64(h.max)),
            ("mean", Json::F64(h.mean())),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_header_and_sections() {
        let mut r = Report::new("unit");
        r.section("params", Json::obj([("n", Json::U64(4))]));
        let j = r.to_json().render();
        assert!(j.contains("\"schema\": 1"));
        assert!(j.contains("\"name\": \"unit\""));
        assert!(j.contains("\"params\""));
    }

    #[test]
    fn writes_to_disk() {
        let dir = std::env::temp_dir().join("pumi-obs-report-test");
        let Some(dir) = dir.to_str() else {
            panic!("temp dir is not UTF-8: {dir:?}");
        };
        let path = match Report::new("t").write_under(dir) {
            Ok(p) => p,
            Err(e) => panic!("write_under({dir}) failed: {e}"),
        };
        let body = match std::fs::read_to_string(&path) {
            Ok(b) => b,
            Err(e) => panic!("report at {} unreadable: {e}", path.display()),
        };
        assert!(body.starts_with('{'));
        assert!(body.ends_with("}\n"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn unwritable_destination_degrades_to_warning() {
        // A file where the directory should be → create_dir_all fails.
        let blocker = std::env::temp_dir().join("pumi-obs-report-blocker");
        std::fs::write(&blocker, b"not a directory").expect("set up blocker file");
        let dest = blocker.join("sub");
        let r = Report::new("degrade");
        assert!(r
            .write_under(dest.to_str().expect("utf-8 temp path"))
            .is_err());
        // write_or_warn on the same failure must swallow it.
        std::env::set_var("PUMI_RESULTS_DIR", dest.to_str().expect("utf-8 temp path"));
        assert_eq!(r.write_or_warn(), None);
        std::env::remove_var("PUMI_RESULTS_DIR");
        let _ = std::fs::remove_file(blocker);
    }

    #[test]
    fn spans_section_shape() {
        let spans = vec![(
            "migrate/pcu.exchange".to_string(),
            SpanStat {
                count: 3,
                nanos: 2_000_000_000,
            },
        )];
        let j = spans_to_json(&spans).render();
        assert!(j.contains("\"path\": \"migrate/pcu.exchange\""));
        assert!(j.contains("\"total_seconds\": 2.0"));
    }
}
