//! Metrics export: Prometheus text exposition and JSON snapshots.
//!
//! [`MetricsFrame`] is an owned snapshot of every counter scope, every
//! histogram, and every sampling profile a run produced. It is *diffable*
//! (all sources are monotonic, so `later.diff(&earlier)` is the activity
//! in between), comparable (`PartialEq`, for the determinism suite), and
//! renders two ways:
//!
//! * [`MetricsFrame::to_json`] — a nested document built on the crate's
//!   hand-rolled encoder, the machine-readable side of `--json` reports;
//! * [`MetricsFrame::to_prometheus`] — the Prometheus text exposition
//!   format (`# TYPE` families, `{label="value"}` samples, cumulative
//!   `_bucket`/`_sum`/`_count` for histograms), so a scrape endpoint or a
//!   file-based collector can ingest the same numbers.
//!
//! [`parse_prometheus`] is the minimal counterpart parser used by the
//! observability tests to prove the exposition round-trips: every sample
//! it yields must match the JSON snapshot, name for name, label for
//! label, value for value. Neither direction can ever emit or accept a
//! NaN or infinity — all sources are integers (plus finite derived
//! rates).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::profiler::{HistogramRegistry, KernelProfile, WARP_STATE_NAMES};
use crate::registry::{CounterRegistry, Scope};

/// Prefix of every exported metric family.
const METRIC_PREFIX: &str = "lmi_";

/// Maps a counter/histogram name to a valid Prometheus metric name:
/// `lmi_` + the name with every character outside `[a-zA-Z0-9_:]`
/// replaced by `_` (e.g. `stall.scoreboard` → `lmi_stall_scoreboard`).
pub fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(METRIC_PREFIX.len() + name.len());
    out.push_str(METRIC_PREFIX);
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn sample_line(out: &mut String, name: &str, labels: &[(&str, String)], value: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        }
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

/// One parsed exposition sample.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (family plus any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in appearance order.
    pub labels: Vec<(String, String)>,
    /// Sample value (always finite).
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Parses Prometheus text exposition into its samples. `#` comment/type
/// lines and blank lines are skipped; anything else must be
/// `name[{labels}] value`. Rejects non-finite values — our exporters
/// never produce them, so one appearing means a corrupted document.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |m: &str| format!("line {}: {m}: {line}", ln + 1);
        let (head, value_text) = match line.find('}') {
            Some(close) => {
                let v = line[close + 1..].trim();
                (&line[..close + 1], v)
            }
            None => {
                let sp = line.find(' ').ok_or_else(|| err("expected `name value`"))?;
                (&line[..sp], line[sp + 1..].trim())
            }
        };
        let (name, labels) = match head.find('{') {
            Some(open) => {
                let name = head[..open].to_string();
                let body = head[open + 1..].strip_suffix('}').ok_or_else(|| err("bad labels"))?;
                let mut labels = Vec::new();
                for pair in body.split(',').filter(|p| !p.is_empty()) {
                    let eq = pair.find('=').ok_or_else(|| err("label without `=`"))?;
                    let key = pair[..eq].trim().to_string();
                    let raw = pair[eq + 1..].trim();
                    let quoted = raw
                        .strip_prefix('"')
                        .and_then(|r| r.strip_suffix('"'))
                        .ok_or_else(|| err("unquoted label value"))?;
                    let mut val = String::new();
                    let mut escaped = false;
                    for c in quoted.chars() {
                        if escaped {
                            val.push(match c {
                                'n' => '\n',
                                other => other,
                            });
                            escaped = false;
                        } else if c == '\\' {
                            escaped = true;
                        } else {
                            val.push(c);
                        }
                    }
                    labels.push((key, val));
                }
                (name, labels)
            }
            None => (head.to_string(), Vec::new()),
        };
        if name.is_empty() {
            return Err(err("empty metric name"));
        }
        let value: f64 = value_text.parse().map_err(|_| err("bad value"))?;
        if !value.is_finite() {
            return Err(err("non-finite value"));
        }
        out.push(PromSample { name, labels, value });
    }
    Ok(out)
}

/// An owned, diffable snapshot of every counter, histogram and profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsFrame {
    /// Scoped counters.
    pub counters: CounterRegistry,
    /// Scoped latency histograms.
    pub histograms: HistogramRegistry,
    /// Sampling profiles, keyed by kernel (program) name.
    pub profiles: BTreeMap<String, KernelProfile>,
    /// Timeline records the bounded trace ring had to evict.
    pub dropped_trace_events: u64,
}

impl MetricsFrame {
    /// `true` if nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.profiles.is_empty()
            && self.dropped_trace_events == 0
    }

    /// The delta frame `self − earlier`: counters and histograms
    /// subtract source-wise (all are monotonic), profiles subtract
    /// per-SM, zero entries are dropped.
    pub fn diff(&self, earlier: &MetricsFrame) -> MetricsFrame {
        let mut counters = CounterRegistry::new();
        for (scope, name, v) in self.counters.iter() {
            let d = v.saturating_sub(earlier.counters.get(scope, name));
            if d > 0 {
                counters.add(scope, name, d);
            }
        }
        let mut profiles = BTreeMap::new();
        for (name, p) in &self.profiles {
            let d = match earlier.profiles.get(name) {
                Some(e) => p.diff(e),
                None => p.clone(),
            };
            if !d.is_empty() {
                profiles.insert(name.clone(), d);
            }
        }
        MetricsFrame {
            counters,
            histograms: self.histograms.diff(&earlier.histograms),
            profiles,
            dropped_trace_events: self
                .dropped_trace_events
                .saturating_sub(earlier.dropped_trace_events),
        }
    }

    /// JSON snapshot of the whole frame.
    pub fn to_json(&self) -> Json {
        let mut profiles = Json::obj();
        for (name, p) in &self.profiles {
            profiles.set(name, p.to_json());
        }
        Json::obj()
            .with("counters", self.counters.to_json())
            .with("histograms", self.histograms.to_json())
            .with("profiles", profiles)
            .with("dropped_trace_events", self.dropped_trace_events)
    }

    /// Prometheus text exposition of the whole frame. Counter scopes
    /// become a `scope` label carrying [`Scope::label`] (the same key the
    /// JSON snapshot groups by); histograms render cumulative
    /// `_bucket{le=...}` series plus `_sum`/`_count`/`_min`/`_max`;
    /// profiles render per-kernel sample/state/pc series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();

        // Counters, grouped into families so each gets one # TYPE line.
        let mut families: BTreeMap<String, Vec<(Scope, u64)>> = BTreeMap::new();
        for (scope, name, v) in self.counters.iter() {
            families.entry(metric_name(name)).or_default().push((scope, v));
        }
        for (family, samples) in &families {
            let _ = writeln!(out, "# TYPE {family} counter");
            for (scope, v) in samples {
                sample_line(&mut out, family, &[("scope", scope.label())], &v.to_string());
            }
        }

        // Histograms: one family per name, scopes as labels.
        let mut hist_families: BTreeMap<String, Vec<(Scope, &crate::profiler::Histogram)>> =
            BTreeMap::new();
        for (scope, name, h) in self.histograms.iter() {
            hist_families.entry(metric_name(name)).or_default().push((scope, h));
        }
        for (family, entries) in &hist_families {
            let _ = writeln!(out, "# TYPE {family} histogram");
            for (scope, h) in entries {
                let scope_label = scope.label();
                let mut cum = 0u64;
                for (_, hi, n) in h.nonzero_buckets() {
                    cum += n;
                    sample_line(
                        &mut out,
                        &format!("{family}_bucket"),
                        &[("scope", scope_label.clone()), ("le", hi.to_string())],
                        &cum.to_string(),
                    );
                }
                sample_line(
                    &mut out,
                    &format!("{family}_bucket"),
                    &[("scope", scope_label.clone()), ("le", "+Inf".to_string())],
                    &h.count().to_string(),
                );
                let scope_only = [("scope", scope_label)];
                sample_line(&mut out, &format!("{family}_sum"), &scope_only, &h.sum().to_string());
                sample_line(
                    &mut out,
                    &format!("{family}_count"),
                    &scope_only,
                    &h.count().to_string(),
                );
                sample_line(&mut out, &format!("{family}_min"), &scope_only, &h.min().to_string());
                sample_line(&mut out, &format!("{family}_max"), &scope_only, &h.max().to_string());
            }
        }

        // Profiles.
        if !self.profiles.is_empty() {
            let _ = writeln!(out, "# TYPE lmi_profile_samples counter");
            for (kernel, p) in &self.profiles {
                sample_line(
                    &mut out,
                    "lmi_profile_samples",
                    &[("kernel", kernel.clone())],
                    &p.samples().to_string(),
                );
            }
            let _ = writeln!(out, "# TYPE lmi_profile_warp_state counter");
            for (kernel, p) in &self.profiles {
                for (name, &n) in WARP_STATE_NAMES.iter().zip(&p.states()) {
                    sample_line(
                        &mut out,
                        "lmi_profile_warp_state",
                        &[("kernel", kernel.clone()), ("state", name.to_string())],
                        &n.to_string(),
                    );
                }
            }
            let _ = writeln!(out, "# TYPE lmi_profile_pc_samples counter");
            for (kernel, p) in &self.profiles {
                for (pc, n) in p.pcs().iter() {
                    sample_line(
                        &mut out,
                        "lmi_profile_pc_samples",
                        &[("kernel", kernel.clone()), ("pc", pc.to_string())],
                        &n.to_string(),
                    );
                }
            }
        }

        let _ = writeln!(out, "# TYPE lmi_trace_dropped_events counter");
        sample_line(
            &mut out,
            "lmi_trace_dropped_events",
            &[],
            &self.dropped_trace_events.to_string(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{SmProfile, WarpState};

    fn sample_frame() -> MetricsFrame {
        let mut frame = MetricsFrame::default();
        frame.counters.add(Scope::Gpu, "cycles", 100);
        frame.counters.add(Scope::Sm(0), "stall.scoreboard", 7);
        frame.counters.add(Scope::Tenant(1), "violations", 2);
        frame.histograms.record(Scope::Stream(0), "kernel_exec_cycles", 120);
        frame.histograms.record(Scope::Stream(0), "kernel_exec_cycles", 90);
        let mut s = SmProfile { samples: 1, ..SmProfile::default() };
        s.states[WarpState::Issued.index()] = 3;
        s.pcs.record(4, 2);
        let mut p = KernelProfile { period: 64, ..KernelProfile::default() };
        p.per_sm.insert(2, s);
        frame.profiles.insert("hotspot".to_string(), p);
        frame.dropped_trace_events = 5;
        frame
    }

    #[test]
    fn exposition_parses_and_matches_the_frame() {
        let frame = sample_frame();
        let samples = parse_prometheus(&frame.to_prometheus()).unwrap();
        let find = |name: &str, scope: Option<&str>| -> f64 {
            samples
                .iter()
                .find(|s| s.name == name && s.label("scope") == scope)
                .unwrap_or_else(|| panic!("{name} {scope:?} missing"))
                .value
        };
        assert_eq!(find("lmi_cycles", Some("gpu")), 100.0);
        assert_eq!(find("lmi_stall_scoreboard", Some("sm0")), 7.0);
        assert_eq!(find("lmi_kernel_exec_cycles_count", Some("stream0")), 2.0);
        assert_eq!(find("lmi_kernel_exec_cycles_sum", Some("stream0")), 210.0);
        assert_eq!(find("lmi_trace_dropped_events", None), 5.0);
        let state = samples
            .iter()
            .find(|s| {
                s.name == "lmi_profile_warp_state"
                    && s.label("kernel") == Some("hotspot")
                    && s.label("state") == Some("issued")
            })
            .unwrap();
        assert_eq!(state.value, 3.0);
        // The +Inf bucket equals the count (the exposition invariant).
        let inf = samples
            .iter()
            .find(|s| s.name == "lmi_kernel_exec_cycles_bucket" && s.label("le") == Some("+Inf"))
            .unwrap();
        assert_eq!(inf.value, 2.0);
    }

    #[test]
    fn parser_rejects_malformed_and_non_finite_lines() {
        assert!(parse_prometheus("lmi_x{scope=gpu} 1").is_err(), "unquoted label");
        assert!(parse_prometheus("lmi_x NaN").is_err(), "NaN value");
        assert!(parse_prometheus("lmi_x Inf").is_err(), "infinite value");
        assert!(parse_prometheus("justonetoken").is_err());
        assert!(parse_prometheus("# a comment\n\nlmi_ok 4").unwrap().len() == 1);
    }

    #[test]
    fn diff_is_the_activity_between_snapshots() {
        let early = sample_frame();
        let mut late = early.clone();
        late.counters.add(Scope::Gpu, "cycles", 50);
        late.histograms.record(Scope::Stream(0), "kernel_exec_cycles", 500);
        let d = late.diff(&early);
        assert_eq!(d.counters.get(Scope::Gpu, "cycles"), 50);
        assert_eq!(d.counters.get(Scope::Sm(0), "stall.scoreboard"), 0, "unchanged drops out");
        let h = d.histograms.get(Scope::Stream(0), "kernel_exec_cycles").unwrap();
        assert_eq!(h.count(), 1);
        assert!(d.profiles.is_empty(), "unchanged profile drops out");
        assert_eq!(d.dropped_trace_events, 0);
        // JSON and exposition of the delta stay well-formed.
        assert!(crate::json::parse(&d.to_json().to_compact()).is_ok());
        assert!(parse_prometheus(&d.to_prometheus()).is_ok());
    }

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(metric_name("stall.scoreboard"), "lmi_stall_scoreboard");
        assert_eq!(metric_name("l1.hits"), "lmi_l1_hits");
        assert_eq!(metric_name("kernel_exec_cycles"), "lmi_kernel_exec_cycles");
    }
}
