//! A fixed reference computation, timed between ops, that scales measured
//! host time to a steady host speed.
//!
//! The hosts this benchmark runs on share cores and caches with other
//! tenants and slow down by up to 1.6× for episodes of seconds to minutes
//! (see `NOTES.md`). Sorting a fixed 512 KiB array is slowed by the same
//! episodes, and it runs no code of the program under test, so a change to
//! the simulator leaves it alone. An op's scaled time is its measured time
//! × [`REFERENCE_MS`] ÷ the median reference time measured around it.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The reference time of a steady host, in ms; scaled times are what the
/// op would take on a host that sorts the keys in this long.
pub const REFERENCE_MS: f64 = 1.5;

/// Op time, in ms, that passes between two reference samples, so that
/// cheap ops do not each pay for one.
pub const SAMPLE_EVERY_MS: f64 = 25.0;

/// Keys sorted by one reference sample.
const KEYS: usize = 1 << 16;

/// Reference samples of one process.
pub struct Reference {
    keys: Vec<u64>,
    samples: Vec<f64>,
    spent_s: f64,
}

impl Reference {
    /// Fixed keys, the same in every run and process.
    pub fn new() -> Reference {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let keys = (0..KEYS)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x >> 11
            })
            .collect();
        Reference { keys, samples: Vec::new(), spent_s: t0.elapsed().as_secs_f64() }
    }

    /// Copies the keys into a fresh buffer and sorts it; records the time
    /// in ms.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let mut keys = self.keys.clone();
        keys.sort_unstable();
        black_box(&keys);
        let s = t0.elapsed().as_secs_f64();
        self.samples.push(s * 1e3);
        self.spent_s += s;
    }

    /// Samples taken so far.
    pub fn taken(&self) -> usize {
        self.samples.len()
    }

    /// Seconds this process spent on the reference, to leave out of
    /// set-up time.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// The median of every sample taken so far, in ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }

    /// The scale for work done after `taken` samples: [`REFERENCE_MS`] ÷
    /// the median of the samples just before and the two after it.
    pub fn scale_after(&self, taken: usize) -> f64 {
        let lo = taken.saturating_sub(1);
        let hi = (taken + 2).min(self.samples.len());
        REFERENCE_MS / median(&self.samples[lo..hi.max(lo + 1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_samples_around_the_op() {
        let mut r = Reference::new();
        r.samples = vec![1.0, 2.0, 6.0, 3.0, 9.0];
        // After two samples: median of 2.0 (before) and 6.0, 3.0 (after).
        assert_eq!(r.scale_after(2), REFERENCE_MS / 3.0);
        // The last op has one sample after it.
        assert_eq!(r.scale_after(4), REFERENCE_MS / 6.0);
        r.sample();
        assert_eq!(r.taken(), 6);
        assert!(r.samples[5] > 0.0);
    }
}
