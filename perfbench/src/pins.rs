//! Pinned fidelity fingerprints.
//!
//! Simulated statistics are deterministic, so every op's output is checked
//! against the fingerprint pinned in `pins.txt` for its cell and launch
//! phase. A speed-only change must leave every pin intact; a change that
//! moves simulated cycles fails loudly as counted failed ops. Regenerate
//! the file with `--write-pins` only when the model is meant to change.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use lmi_sim::SimStats;

/// The committed pins, compiled into the binary.
const PINNED: &str = include_str!("../pins.txt");

/// Mismatches reported on stderr before going quiet.
const REPORT_LIMIT: usize = 5;
static REPORTED: AtomicUsize = AtomicUsize::new(0);

/// Named simulated statistics of one op.
pub type Fingerprint = Vec<(&'static str, u64)>;

/// The fingerprint of one kernel run: cycles, warp-instructions issued,
/// L2 hits and misses, DRAM transactions and violations.
pub fn of_stats(s: &SimStats) -> Fingerprint {
    vec![
        ("cycles", s.cycles),
        ("issued", s.issued),
        ("l2_hits", s.l2.hits),
        ("l2_misses", s.l2.misses),
        ("dram", s.dram_transactions),
        ("violations", s.violations.len() as u64),
    ]
}

/// The value of `name` in `fp` (0 when absent).
pub fn field(fp: &Fingerprint, name: &str) -> u64 {
    fp.iter().find(|(k, _)| *k == name).map_or(0, |&(_, v)| v)
}

/// Renders a fingerprint as `name=value` pairs.
pub fn render(fp: &Fingerprint) -> String {
    fp.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
}

/// Pin table: key (`<workload>/<cell>@<phase>`) → rendered fingerprint.
#[derive(Debug, Clone, Default)]
pub struct Pins(BTreeMap<String, String>);

impl Pins {
    /// The pins committed beside the benchmark.
    pub fn committed() -> Pins {
        Pins::parse(PINNED)
    }

    /// Parses `key name=value ...` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Pins {
        let map = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_string(), v.trim().to_string()))
            .collect();
        Pins(map)
    }

    /// Whether `fp` matches the pin for `key`. A missing pin is a
    /// mismatch. The first few mismatches are described on stderr.
    pub fn check(&self, key: &str, fp: &Fingerprint) -> bool {
        let got = render(fp);
        let want = self.0.get(key);
        let ok = want == Some(&got);
        if !ok && REPORTED.fetch_add(1, Ordering::Relaxed) < REPORT_LIMIT {
            eprintln!("pin mismatch {key}: pinned {:?}, got {got:?}", want.map(String::as_str));
        }
        ok
    }

    /// Replaces the pin for `key` (pin regeneration and self-tests).
    pub fn set(&mut self, key: &str, fp: &Fingerprint) {
        self.0.insert(key.to_string(), render(fp));
    }

    /// The table as `pins.txt` lines.
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "# Pinned simulated fingerprints, one per cell and launch phase.\n\
             # Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- --write-pins\n",
        );
        for (k, v) in &self.0 {
            out.push_str(&format!("{k} {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_rejects_a_changed_value() {
        let fp: Fingerprint = vec![("cycles", 10), ("issued", 20)];
        let mut pins = Pins::default();
        pins.set("w/c@0", &fp);
        let reparsed = Pins::parse(&pins.to_text());
        assert!(reparsed.check("w/c@0", &fp));
        assert!(!reparsed.check("w/c@0", &vec![("cycles", 11), ("issued", 20)]));
        assert!(!reparsed.check("w/missing@0", &fp));
    }
}
