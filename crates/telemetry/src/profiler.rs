//! Deterministic sampling profiles and log-bucketed latency histograms.
//!
//! The counter registry answers "how much, in total"; this module answers
//! the two questions totals cannot: *where do cycles go* (hot PCs, warp
//! states, occupancy — [`SmProfile`] / [`KernelProfile`])
//! and *what does the tail look like* (latency distributions —
//! [`Histogram`]). Both are built from integers only and merge by plain
//! addition, so the simulator's determinism guarantee extends to them:
//! per-thread shards merged in canonical order are bit-identical to a
//! serial run, and no export can ever contain a NaN or infinity.
//!
//! # Bucket scheme
//!
//! [`Histogram`] uses log₂ buckets with [`HIST_SUB_BUCKETS`] linear
//! sub-buckets per octave (an HDR-style layout): values 0–7 land in exact
//! buckets, and every larger bucket spans at most 25% of its lower bound,
//! so reported quantiles overestimate the true value by < 25% while the
//! whole table stays a fixed 252-slot array. `count`, `sum`, `min` and
//! `max` are tracked exactly; merge is bucket-wise addition, which is
//! associative and order-independent by construction.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::registry::Scope;

/// Sub-bucket resolution bits per octave (4 linear sub-buckets).
const HIST_SUB_BITS: u32 = 2;

/// Linear sub-buckets per octave.
pub const HIST_SUB_BUCKETS: usize = 1 << HIST_SUB_BITS;

/// Total bucket count: 4 exact buckets for 0–3, then 4 sub-buckets for
/// each of the 62 remaining octaves of the `u64` range.
pub const HIST_BUCKETS: usize = 63 * HIST_SUB_BUCKETS;

/// Bucket index of a value (total order, no gaps).
fn bucket_of(v: u64) -> usize {
    if v < HIST_SUB_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = msb - HIST_SUB_BITS + 1;
    let sub = (v >> (msb - HIST_SUB_BITS)) & (HIST_SUB_BUCKETS as u64 - 1);
    octave as usize * HIST_SUB_BUCKETS + sub as usize
}

/// Inclusive `(low, high)` value range of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < HIST_SUB_BUCKETS {
        return (i as u64, i as u64);
    }
    let octave = (i / HIST_SUB_BUCKETS) as u32;
    let sub = (i % HIST_SUB_BUCKETS) as u64;
    let msb = octave + HIST_SUB_BITS - 1;
    let width = 1u64 << (msb - HIST_SUB_BITS);
    let low = (1u64 << msb) + sub * width;
    // `low + (width - 1)` — the top bucket ends exactly at `u64::MAX`,
    // so adding the full width first would overflow.
    (low, low + (width - 1))
}

/// A log-bucketed latency histogram with exact count/sum/min/max and
/// lossless merge (see the module docs for the bucket scheme).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (exact; 0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the rank-`⌈q·count⌉` observation, clamped to the
    /// exact `[min, max]` envelope (so `quantile(1.0)` is the exact max).
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(i).1.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds `other` into `self`. Bucket-wise addition: associative,
    /// commutative, and exactly equal to having recorded every
    /// observation into one histogram in any order.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The delta histogram `self − earlier` (for diffable snapshots taken
    /// from the same monotonically-growing source). Bucket counts
    /// subtract exactly; `min`/`max` of the delta are re-derived from the
    /// surviving bucket bounds, so they are bucket-resolution
    /// approximations rather than exact observations.
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (i, (&a, &b)) in self.buckets.iter().zip(&earlier.buckets).enumerate() {
            let d = a.saturating_sub(b);
            if d > 0 {
                out.buckets[i] = d;
                let (lo, hi) = bucket_bounds(i);
                out.min = out.min.min(lo);
                out.max = out.max.max(hi.min(self.max));
            }
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }

    /// Non-empty buckets as `(low, high, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &n)| n > 0).map(|(i, &n)| {
            let (lo, hi) = bucket_bounds(i);
            (lo, hi, n)
        })
    }

    /// JSON export: summary quantiles plus the non-empty buckets.
    pub fn to_json(&self) -> Json {
        let buckets = self
            .nonzero_buckets()
            .map(|(lo, _, n)| Json::Arr(vec![Json::UInt(lo), Json::UInt(n)]))
            .collect();
        Json::obj()
            .with("count", self.count)
            .with("sum", self.sum)
            .with("min", self.min())
            .with("max", self.max)
            .with("mean", self.mean())
            .with("p50", self.p50())
            .with("p95", self.p95())
            .with("p99", self.p99())
            .with("buckets", Json::Arr(buckets))
    }
}

/// Scoped histograms, mirroring [`crate::CounterRegistry`]'s keying.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramRegistry {
    hists: BTreeMap<(Scope, &'static str), Histogram>,
    enabled: bool,
}

impl Default for HistogramRegistry {
    fn default() -> HistogramRegistry {
        HistogramRegistry::new()
    }
}

impl HistogramRegistry {
    /// An empty, recording registry.
    pub fn new() -> HistogramRegistry {
        HistogramRegistry { hists: BTreeMap::new(), enabled: true }
    }

    /// A registry that ignores every write.
    pub fn disabled() -> HistogramRegistry {
        HistogramRegistry { hists: BTreeMap::new(), enabled: false }
    }

    /// `true` if writes are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one observation into the named histogram.
    pub fn record(&mut self, scope: Scope, name: &'static str, v: u64) {
        if !self.enabled {
            return;
        }
        self.hists.entry((scope, name)).or_default().record(v);
    }

    /// The named histogram, if anything was recorded there.
    pub fn get(&self, scope: Scope, name: &'static str) -> Option<&Histogram> {
        self.hists.get(&(scope, name))
    }

    /// All histograms, sorted by scope then name.
    pub fn iter(&self) -> impl Iterator<Item = (Scope, &'static str, &Histogram)> + '_ {
        self.hists.iter().map(|(&(s, n), h)| (s, n, h))
    }

    /// Number of distinct histograms.
    pub fn len(&self) -> usize {
        self.hists.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.hists.is_empty()
    }

    /// Folds another registry into this one, histogram-wise.
    pub fn merge(&mut self, other: &HistogramRegistry) {
        for (&key, h) in &other.hists {
            self.hists.entry(key).or_default().merge(h);
        }
    }

    /// The delta registry `self − earlier`, histogram-wise; histograms
    /// whose delta is empty are omitted.
    pub fn diff(&self, earlier: &HistogramRegistry) -> HistogramRegistry {
        let mut out = HistogramRegistry::new();
        for (&(scope, name), h) in &self.hists {
            let d = match earlier.hists.get(&(scope, name)) {
                Some(e) => h.diff(e),
                None => h.clone(),
            };
            if !d.is_empty() {
                out.hists.insert((scope, name), d);
            }
        }
        out
    }

    /// JSON export grouped by scope label, like the counter registry.
    pub fn to_json(&self) -> Json {
        let mut out = Json::obj();
        let mut current: Option<(Scope, Json)> = None;
        for (scope, name, h) in self.iter() {
            match &mut current {
                Some((s, obj)) if *s == scope => {
                    obj.set(name, h.to_json());
                }
                _ => {
                    if let Some((s, obj)) = current.take() {
                        out.set(&s.label(), obj);
                    }
                    current = Some((scope, Json::obj().with(name, h.to_json())));
                }
            }
        }
        if let Some((s, obj)) = current {
            out.set(&s.label(), obj);
        }
        out
    }
}

/// What a resident warp was doing when a sample fired. Feeds the
/// stall-breakdown rows of the `profile` report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// Issued an instruction this cycle.
    Issued,
    /// Eligible but lost scheduler arbitration.
    Ready,
    /// Waiting on an ALU-produced register or predicate.
    Scoreboard,
    /// Waiting on an in-flight memory result.
    LsuBusy,
    /// Waiting on a pending OCU verdict.
    OcuVerdict,
    /// In the launch/dispatch ramp (or past the program end, about to
    /// retire at its next issue slot).
    Ramp,
    /// Parked at a block barrier.
    Barrier,
    /// Retired.
    Retired,
}

/// Number of [`WarpState`] variants.
pub const WARP_STATES: usize = 8;

/// Display/metric names, indexed by [`WarpState::index`].
pub const WARP_STATE_NAMES: [&str; WARP_STATES] =
    ["issued", "ready", "scoreboard", "lsu_busy", "ocu_verdict", "ramp", "barrier", "retired"];

impl WarpState {
    /// Index into [`WARP_STATE_NAMES`] and the state-count arrays.
    pub fn index(self) -> usize {
        match self {
            WarpState::Issued => 0,
            WarpState::Ready => 1,
            WarpState::Scoreboard => 2,
            WarpState::LsuBusy => 3,
            WarpState::OcuVerdict => 4,
            WarpState::Ramp => 5,
            WarpState::Barrier => 6,
            WarpState::Retired => 7,
        }
    }

    /// Metric name.
    pub fn name(self) -> &'static str {
        WARP_STATE_NAMES[self.index()]
    }
}

/// A hot-PC table: samples per program counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PcProfile {
    counts: BTreeMap<u32, u64>,
}

impl PcProfile {
    /// Adds `n` samples at `pc`.
    pub fn record(&mut self, pc: u32, n: u64) {
        *self.counts.entry(pc).or_insert(0) += n;
    }

    /// Samples at one pc.
    pub fn get(&self, pc: u32) -> u64 {
        self.counts.get(&pc).copied().unwrap_or(0)
    }

    /// Total samples across all PCs.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// `true` if no pc was ever sampled.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// All `(pc, samples)` entries, ascending by pc.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().map(|(&pc, &n)| (pc, n))
    }

    /// The `k` hottest PCs, descending by sample count (ties by pc).
    pub fn top_k(&self, k: usize) -> Vec<(u32, u64)> {
        let mut all: Vec<(u32, u64)> = self.iter().collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Folds another table into this one.
    pub fn merge(&mut self, other: &PcProfile) {
        for (pc, n) in other.iter() {
            self.record(pc, n);
        }
    }

    /// The delta table `self − earlier` (zero entries omitted).
    pub fn diff(&self, earlier: &PcProfile) -> PcProfile {
        let mut out = PcProfile::default();
        for (pc, n) in self.iter() {
            let d = n.saturating_sub(earlier.get(pc));
            if d > 0 {
                out.record(pc, d);
            }
        }
        out
    }
}

/// Accumulated samples of one SM. The simulator's SM adds each census to
/// its own profile in place, so sampling allocates only when a new pc
/// enters the hot-PC table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SmProfile {
    /// Censuses taken.
    pub samples: u64,
    /// Warp-state sample counts, indexed by [`WarpState::index`].
    pub states: [u64; WARP_STATES],
    /// Hot-PC table of issued instructions.
    pub pcs: PcProfile,
}

impl SmProfile {
    /// Folds another SM profile into this one.
    pub fn merge(&mut self, other: &SmProfile) {
        self.samples += other.samples;
        for (s, &n) in self.states.iter_mut().zip(&other.states) {
            *s += n;
        }
        self.pcs.merge(&other.pcs);
    }

    /// Warp-state samples that were *live* (anything but retired).
    pub fn live_states(&self) -> u64 {
        self.states[..WarpState::Retired.index()].iter().sum()
    }

    /// Mean resident (non-retired) warps per sample — the occupancy the
    /// sampler observed.
    pub fn avg_occupancy(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.live_states() as f64 / self.samples as f64
        }
    }

    fn diff(&self, earlier: &SmProfile) -> SmProfile {
        let mut states = [0u64; WARP_STATES];
        for (d, (&a, &b)) in states.iter_mut().zip(self.states.iter().zip(&earlier.states)) {
            *d = a.saturating_sub(b);
        }
        SmProfile {
            samples: self.samples.saturating_sub(earlier.samples),
            states,
            pcs: self.pcs.diff(&earlier.pcs),
        }
    }

    fn to_json(&self) -> Json {
        let mut states = Json::obj();
        for (name, &n) in WARP_STATE_NAMES.iter().zip(&self.states) {
            states.set(name, n);
        }
        let pcs = self
            .pcs
            .iter()
            .map(|(pc, n)| Json::Arr(vec![Json::UInt(pc as u64), Json::UInt(n)]))
            .collect();
        Json::obj()
            .with("samples", self.samples)
            .with("avg_occupancy", self.avg_occupancy())
            .with("states", states)
            .with("pcs", Json::Arr(pcs))
    }
}

/// One kernel's whole sampling profile: per-SM shards keyed by SM index.
/// Lives in `SimStats`, so it inherits the determinism contract (and the
/// `PartialEq` the determinism suite compares with).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelProfile {
    /// Sampling period in cycles (0 = sampling was off).
    pub period: u64,
    /// Per-SM accumulated samples.
    pub per_sm: BTreeMap<usize, SmProfile>,
}

impl KernelProfile {
    /// `true` if no SM was ever sampled.
    pub fn is_empty(&self) -> bool {
        self.per_sm.is_empty()
    }

    /// Folds another profile into this one, SM-wise.
    pub fn merge(&mut self, other: &KernelProfile) {
        if self.period == 0 {
            self.period = other.period;
        }
        for (&sm, p) in &other.per_sm {
            self.per_sm.entry(sm).or_default().merge(p);
        }
    }

    /// Total samples across every SM.
    pub fn samples(&self) -> u64 {
        self.per_sm.values().map(|p| p.samples).sum()
    }

    /// Warp-state totals across every SM.
    pub fn states(&self) -> [u64; WARP_STATES] {
        let mut out = [0u64; WARP_STATES];
        for p in self.per_sm.values() {
            for (o, &n) in out.iter_mut().zip(&p.states) {
                *o += n;
            }
        }
        out
    }

    /// The hot-PC table aggregated across every SM.
    pub fn pcs(&self) -> PcProfile {
        let mut out = PcProfile::default();
        for p in self.per_sm.values() {
            out.merge(&p.pcs);
        }
        out
    }

    /// The `k` hottest PCs across every SM.
    pub fn top_pcs(&self, k: usize) -> Vec<(u32, u64)> {
        self.pcs().top_k(k)
    }

    /// Mean occupancy across sampled SMs (0.0 when empty).
    pub fn avg_occupancy(&self) -> f64 {
        let samples = self.samples();
        if samples == 0 {
            0.0
        } else {
            let live: u64 = self.per_sm.values().map(SmProfile::live_states).sum();
            live as f64 / samples as f64
        }
    }

    /// The delta profile `self − earlier` (empty SM shards omitted).
    pub fn diff(&self, earlier: &KernelProfile) -> KernelProfile {
        let mut out = KernelProfile { period: self.period, per_sm: BTreeMap::new() };
        for (&sm, p) in &self.per_sm {
            let d = match earlier.per_sm.get(&sm) {
                Some(e) => p.diff(e),
                None => p.clone(),
            };
            if d.samples > 0 {
                out.per_sm.insert(sm, d);
            }
        }
        out
    }

    /// JSON export: period, totals, and the per-SM shards.
    pub fn to_json(&self) -> Json {
        let mut states = Json::obj();
        for (name, &n) in WARP_STATE_NAMES.iter().zip(&self.states()) {
            states.set(name, n);
        }
        let top = self
            .top_pcs(usize::MAX)
            .into_iter()
            .map(|(pc, n)| Json::Arr(vec![Json::UInt(pc as u64), Json::UInt(n)]))
            .collect();
        let mut per_sm = Json::obj();
        for (&sm, p) in &self.per_sm {
            per_sm.set(&format!("sm{sm}"), p.to_json());
        }
        Json::obj()
            .with("period", self.period)
            .with("samples", self.samples())
            .with("avg_occupancy", self.avg_occupancy())
            .with("states", states)
            .with("pcs", Json::Arr(top))
            .with("per_sm", per_sm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::SplitMix64;

    #[test]
    fn buckets_are_contiguous_and_monotonic() {
        let mut last = 0;
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi, "bucket {i}");
            if i > 0 {
                assert_eq!(lo, last + 1, "bucket {i} starts where {} ended", i - 1);
            }
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
            last = hi;
        }
        assert_eq!(last, u64::MAX);
    }

    #[test]
    fn quantiles_bound_the_data_with_bucket_resolution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.quantile(1.0), 1000, "p100 is the exact max");
        let p50 = h.p50();
        assert!((500..=640).contains(&p50), "p50 {p50} within one bucket of 500");
        let p99 = h.p99();
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut rng = SplitMix64::new(0xB0C);
        let values: Vec<u64> = (0..500).map(|_| rng.below(100_000)).collect();
        let mut whole = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole, "merge is commutative");
    }

    #[test]
    fn diff_recovers_the_increment() {
        let mut early = Histogram::new();
        early.record(10);
        let mut late = early.clone();
        late.record(700);
        late.record(701);
        let d = late.diff(&early);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 1401);
        assert!(d.min() >= 640 && d.max() <= 767, "delta bounds at bucket resolution");
    }

    #[test]
    fn registry_scopes_are_independent_and_json_groups() {
        let mut r = HistogramRegistry::new();
        r.record(Scope::Stream(0), "kernel_exec_cycles", 100);
        r.record(Scope::Stream(0), "kernel_exec_cycles", 300);
        r.record(Scope::Tenant(1), "copy_cycles", 5);
        assert_eq!(r.get(Scope::Stream(0), "kernel_exec_cycles").unwrap().count(), 2);
        assert!(r.get(Scope::Stream(1), "kernel_exec_cycles").is_none());
        let j = r.to_json();
        let s0 = j.get("stream0").and_then(|s| s.get("kernel_exec_cycles")).unwrap();
        assert_eq!(s0.get("count").and_then(Json::as_u64), Some(2));
        assert!(j.get("tenant1").and_then(|t| t.get("copy_cycles")).is_some());
    }

    /// One census of three warps: two issued (at pcs 3 and 7), one
    /// retired.
    fn one_census() -> SmProfile {
        let mut p = SmProfile { samples: 1, ..SmProfile::default() };
        p.states[WarpState::Issued.index()] = 2;
        p.states[WarpState::Retired.index()] = 1;
        p.pcs.record(3, 1);
        p.pcs.record(7, 1);
        p
    }

    #[test]
    fn profile_merge_diff_and_top_pcs() {
        let mut sm0 = one_census();
        sm0.merge(&one_census());
        let mut a = KernelProfile { period: 32, ..KernelProfile::default() };
        a.per_sm.insert(0, sm0);
        a.per_sm.insert(1, one_census());
        assert_eq!(a.samples(), 3);
        assert_eq!(a.states()[WarpState::Issued.index()], 6);
        assert_eq!(a.avg_occupancy(), 2.0, "2 live of 3 resident per sample");
        let mut b = KernelProfile::default();
        b.per_sm.insert(1, one_census());
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.samples(), 4);
        assert_eq!(merged.period, 32);
        let top = merged.top_pcs(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0], (3, 4), "ties break toward the lower pc");
        let d = merged.diff(&a);
        assert_eq!(d.samples(), 1);
        assert_eq!(d.per_sm.len(), 1);
    }
}
