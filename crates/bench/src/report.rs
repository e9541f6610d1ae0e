//! Shared machine-readable reporting for the bench binaries.
//!
//! Every binary under `src/bin/` accepts `--json`: instead of (or in
//! addition to) the human tables, it prints one JSON document built with
//! `lmi-telemetry`'s hand-rolled encoder, so CI and plotting scripts can
//! consume the numbers without scraping text.

use lmi_telemetry::Json;

/// Command-line switches shared by all bench binaries.
#[derive(Debug, Clone, Default)]
pub struct ReportOpts {
    /// Emit a JSON document on stdout instead of the human tables.
    pub json: bool,
    /// Write a Chrome trace of the last simulation to this path.
    pub trace_path: Option<String>,
    /// Non-flag arguments, in order (e.g. a workload name).
    pub positional: Vec<String>,
}

impl ReportOpts {
    /// Parses `--json` and `--trace <path>` out of `std::env::args`;
    /// everything else lands in [`ReportOpts::positional`].
    pub fn from_env() -> Self {
        let mut opts = ReportOpts::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => opts.json = true,
                "--trace" => opts.trace_path = args.next(),
                _ => opts.positional.push(arg),
            }
        }
        opts
    }

    /// Writes `trace` (a Chrome trace document) to `--trace <path>`, if
    /// given. Errors are reported on stderr, not fatal — a failed trace
    /// write should not sink the measurement run.
    pub fn write_trace(&self, trace: &Json) {
        if let Some(path) = &self.trace_path {
            if let Err(e) = std::fs::write(path, trace.to_pretty()) {
                eprintln!("warning: could not write trace to {path}: {e}");
            } else {
                eprintln!("trace written to {path} (load in https://ui.perfetto.dev)");
            }
        }
    }
}

/// Standard envelope: every binary's JSON output carries the experiment
/// name so multi-document pipelines can tell reports apart.
pub fn envelope(experiment: &str, body: Json) -> Json {
    Json::obj().with("experiment", experiment).with("schema_version", 1u64).with("report", body)
}

/// Prints the document compactly on stdout (one line, easy to pipe).
pub fn emit(doc: &Json) {
    println!("{}", doc.to_compact());
}

/// Short git revision of the working tree (`-dirty` suffixed when the
/// tree has local changes), falling back to `GITHUB_SHA` then "unknown".
/// Stamped into the `profile --json` report for provenance.
pub fn git_rev() -> String {
    let out = std::process::Command::new("git").args(["rev-parse", "--short", "HEAD"]).output();
    if let Ok(out) = out {
        if out.status.success() {
            let mut rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
            let dirty = std::process::Command::new("git").args(["status", "--porcelain"]).output();
            if dirty.map(|d| !d.stdout.is_empty()).unwrap_or(false) {
                rev.push_str("-dirty");
            }
            return rev;
        }
    }
    match std::env::var("GITHUB_SHA") {
        Ok(sha) => sha.chars().take(12).collect(),
        Err(_) => "unknown".to_string(),
    }
}
