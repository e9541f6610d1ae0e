//! A scoped counter registry.
//!
//! The simulator keeps each run's per-event statistics as dense totals —
//! each SM counts its own issues, the engine's leader its verdicts — and
//! folds them once per run into two outputs: `SimStats`, the handful of per-kernel headline
//! numbers every run needs, and this registry, which holds everything
//! finer-grained — per-SM cache behavior, per-warp issue counts,
//! per-mechanism check/poison/fault tallies, scheduler stall reasons —
//! keyed by [`Scope`] and a static counter name. The registry is a plain
//! sorted map, written at run granularity, so no ordered-map search sits
//! on the issue loop. Its JSON export groups counters by scope so reports
//! stay readable.

use std::collections::BTreeMap;

use crate::json::Json;

/// Where a counter was measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// Whole-GPU totals.
    Gpu,
    /// One streaming multiprocessor.
    Sm(usize),
    /// One warp on one SM.
    Warp {
        /// SM index.
        sm: usize,
        /// Warp index within the SM.
        warp: usize,
    },
    /// A memory-safety mechanism, by its reported name.
    Mechanism(&'static str),
    /// One host-runtime stream (`lmi-runtime`): kernels, copies and events
    /// submitted to the stream land here.
    Stream(usize),
    /// One runtime tenant: every stream owned by the tenant rolls up here,
    /// so cross-tenant attribution (who faulted, who moved the bytes)
    /// survives stream multiplexing.
    Tenant(usize),
}

impl Scope {
    /// A stable label for reports: `gpu`, `sm3`, `sm3/w12`, `mech:lmi`,
    /// `stream2`, `tenant1`.
    pub fn label(&self) -> String {
        match self {
            Scope::Gpu => "gpu".to_string(),
            Scope::Sm(sm) => format!("sm{sm}"),
            Scope::Warp { sm, warp } => format!("sm{sm}/w{warp}"),
            Scope::Mechanism(name) => format!("mech:{name}"),
            Scope::Stream(stream) => format!("stream{stream}"),
            Scope::Tenant(tenant) => format!("tenant{tenant}"),
        }
    }
}

/// The counter registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRegistry {
    counters: BTreeMap<(Scope, &'static str), u64>,
    enabled: bool,
}

impl Default for CounterRegistry {
    fn default() -> CounterRegistry {
        CounterRegistry::new()
    }
}

impl CounterRegistry {
    /// An empty, recording registry.
    pub fn new() -> CounterRegistry {
        CounterRegistry { counters: BTreeMap::new(), enabled: true }
    }

    /// A registry that ignores every write — lets untelemetered simulation
    /// paths share the instrumented code without paying the map updates.
    pub fn disabled() -> CounterRegistry {
        CounterRegistry { counters: BTreeMap::new(), enabled: false }
    }

    /// `true` if writes are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `delta` to a counter (creating it at zero).
    pub fn add(&mut self, scope: Scope, name: &'static str, delta: u64) {
        if !self.enabled {
            return;
        }
        *self.counters.entry((scope, name)).or_insert(0) += delta;
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, scope: Scope, name: &'static str) {
        self.add(scope, name, 1);
    }

    /// Reads a counter (zero if never written).
    pub fn get(&self, scope: Scope, name: &'static str) -> u64 {
        self.counters.get(&(scope, name)).copied().unwrap_or(0)
    }

    /// Sums `name` across every scope of any kind.
    pub fn sum(&self, name: &'static str) -> u64 {
        self.counters.iter().filter(|((_, n), _)| *n == name).map(|(_, v)| v).sum()
    }

    /// Sums `name` across all [`Scope::Sm`] scopes.
    pub fn sum_sms(&self, name: &'static str) -> u64 {
        self.counters
            .iter()
            .filter(|((s, n), _)| *n == name && matches!(s, Scope::Sm(_)))
            .map(|(_, v)| v)
            .sum()
    }

    /// All counters, sorted by scope then name.
    pub fn iter(&self) -> impl Iterator<Item = (Scope, &'static str, u64)> + '_ {
        self.counters.iter().map(|(&(s, n), &v)| (s, n, v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Folds another registry into this one (used when merging per-phase
    /// runs into a campaign total).
    pub fn merge(&mut self, other: &CounterRegistry) {
        for (&key, &v) in &other.counters {
            *self.counters.entry(key).or_insert(0) += v;
        }
    }

    /// JSON export: `{ "gpu": {...}, "sm0": {...}, "mech:lmi": {...} }`.
    pub fn to_json(&self) -> Json {
        let mut out = Json::obj();
        let mut current: Option<(Scope, Json)> = None;
        for (scope, name, value) in self.iter() {
            match &mut current {
                Some((s, obj)) if *s == scope => {
                    obj.set(name, value);
                }
                _ => {
                    if let Some((s, obj)) = current.take() {
                        out.set(&s.label(), obj);
                    }
                    current = Some((scope, Json::obj().with(name, value)));
                }
            }
        }
        if let Some((s, obj)) = current {
            out.set(&s.label(), obj);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_counters_are_independent() {
        let mut r = CounterRegistry::new();
        r.inc(Scope::Sm(0), "issued");
        r.add(Scope::Sm(1), "issued", 4);
        r.inc(Scope::Mechanism("lmi"), "poisoned");
        assert_eq!(r.get(Scope::Sm(0), "issued"), 1);
        assert_eq!(r.get(Scope::Sm(1), "issued"), 4);
        assert_eq!(r.sum_sms("issued"), 5);
        assert_eq!(r.sum("issued"), 5);
        assert_eq!(r.get(Scope::Gpu, "issued"), 0, "unwritten counter reads zero");
    }

    #[test]
    fn merge_adds_counterwise() {
        let mut a = CounterRegistry::new();
        a.add(Scope::Gpu, "cycles", 10);
        let mut b = CounterRegistry::new();
        b.add(Scope::Gpu, "cycles", 5);
        b.inc(Scope::Sm(2), "stall.scoreboard");
        a.merge(&b);
        assert_eq!(a.get(Scope::Gpu, "cycles"), 15);
        assert_eq!(a.get(Scope::Sm(2), "stall.scoreboard"), 1);
    }

    #[test]
    fn json_groups_by_scope() {
        let mut r = CounterRegistry::new();
        r.add(Scope::Gpu, "cycles", 7);
        r.add(Scope::Sm(0), "issued", 3);
        r.add(Scope::Sm(0), "stall.scoreboard", 2);
        let j = r.to_json();
        assert_eq!(j.get("gpu").and_then(|g| g.get("cycles")).and_then(Json::as_u64), Some(7));
        let sm0 = j.get("sm0").unwrap();
        assert_eq!(sm0.get("issued").and_then(Json::as_u64), Some(3));
        assert_eq!(sm0.get("stall.scoreboard").and_then(Json::as_u64), Some(2));
    }
}
