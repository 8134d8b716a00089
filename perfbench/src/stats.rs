//! Order statistics over host-time samples.
//!
//! Percentiles use the repository's convention, `rio_det::stats::percentile`:
//! the floor of the inclusive index, so a reported value is always a sample
//! somebody measured. A timing is reported as its median plus a *tail*: the
//! highest percentile on the ladder that still has at least
//! [`TAIL_MIN_BEYOND`] samples above it.

use rio_det::stats::percentile;

/// Samples a tail percentile must have strictly above it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [(f64, &str); 4] = [
    (0.9999, "p99.99"),
    (0.999, "p99.9"),
    (0.99, "p99"),
    (0.9, "p90"),
];

/// Samples strictly above the floor-convention index of `frac` in a sample
/// of `n`.
pub fn beyond(n: usize, frac: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let idx = ((n - 1) as f64 * frac.clamp(0.0, 1.0)) as usize;
    n - 1 - idx
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it, or `None` when even p90 has too few.
pub fn tail_pick(n: usize) -> Option<(f64, &'static str)> {
    TAIL_LADDER
        .into_iter()
        .find(|&(frac, _)| beyond(n, frac) >= TAIL_MIN_BEYOND)
}

/// A sorted sample of host-time measurements in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<u64>,
}

impl Dist {
    /// Sorts `samples` into a distribution.
    pub fn new(mut samples: Vec<u64>) -> Dist {
        samples.sort_unstable();
        Dist { sorted: samples }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The `frac` percentile (floor convention); 0 when empty.
    pub fn pct(&self, frac: f64) -> u64 {
        percentile(&self.sorted, frac)
    }

    /// The median.
    pub fn p50(&self) -> u64 {
        self.pct(0.5)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sorted.iter().sum()
    }

    /// The tail percentile [`tail_pick`] chooses, with its label.
    pub fn tail(&self) -> Option<(&'static str, u64)> {
        tail_pick(self.len()).map(|(frac, label)| (label, self.pct(frac)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_the_floor_of_the_inclusive_index() {
        let d = Dist::new((1..=10).rev().collect());
        assert_eq!(d.p50(), 5, "even length: the lower middle element");
        assert_eq!(d.pct(0.0), 1);
        assert_eq!(d.pct(1.0), 10);
        assert_eq!(d.pct(0.99), 9, "floor(9 * 0.99) = 8 -> the 9th element");
        let odd = Dist::new(vec![30, 10, 20]);
        assert_eq!(odd.p50(), 20);
        assert_eq!(Dist::default().p50(), 0);
        for n in 1..200u64 {
            let v: Vec<u64> = (0..n).collect();
            for frac in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(Dist::new(v.clone()).pct(frac), percentile(&v, frac));
            }
        }
    }

    #[test]
    fn beyond_counts_samples_above_the_index() {
        assert_eq!(beyond(0, 0.5), 0);
        assert_eq!(beyond(1, 0.99), 0);
        assert_eq!(beyond(10, 0.5), 5, "index 4 of 0..=9");
        assert_eq!(beyond(1000, 0.99), 10, "index 989");
        assert_eq!(beyond(1001, 0.99), 10, "index 990");
    }

    #[test]
    fn tail_pick_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_pick(0), None);
        assert_eq!(tail_pick(10), None, "p90 of 10 has 1 beyond");
        assert_eq!(tail_pick(91), None, "p90 of 91: index 81, 9 beyond");
        assert_eq!(tail_pick(92).map(|t| t.1), Some("p90"));
        assert_eq!(tail_pick(901).map(|t| t.1), Some("p90"));
        assert_eq!(
            tail_pick(902).map(|t| t.1),
            Some("p99"),
            "index 891, 10 beyond"
        );
        assert_eq!(tail_pick(1000).map(|t| t.1), Some("p99"));
        assert_eq!(tail_pick(10_000).map(|t| t.1), Some("p99.9"));
        assert_eq!(tail_pick(100_000).map(|t| t.1), Some("p99.99"));
        for n in 0..30_000 {
            if let Some((frac, _)) = tail_pick(n) {
                assert!(beyond(n, frac) >= TAIL_MIN_BEYOND);
                // No higher ladder rung qualifies.
                for (higher, _) in TAIL_LADDER.iter().filter(|r| r.0 > frac) {
                    assert!(beyond(n, *higher) < TAIL_MIN_BEYOND);
                }
            }
        }
    }

    #[test]
    fn tail_reads_the_chosen_percentile() {
        let d = Dist::new((1..=1000).collect());
        assert_eq!(d.tail(), Some(("p99", 990)));
        assert_eq!(d.sum(), 500_500);
    }
}
