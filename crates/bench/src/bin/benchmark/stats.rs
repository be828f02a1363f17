//! Order statistics and the summary every reported number carries.
//!
//! End-to-end repetitions are host calibrated one by one (see `run.rs`) and
//! summarised by their median. Per-layer figures are raw wall clock, where
//! the host only ever slows a repetition down: a raw cost is summarised by
//! the 10th percentile of its repetitions and a raw throughput by the 90th —
//! the level the program reaches whenever the host lets it, which still
//! ignores a single lucky reading. The sample count, min, median and max are
//! printed beside the chosen value so no "best of n" hides inside a single
//! number.

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending slice, linearly interpolated
/// between the two nearest ranks (`h = (n - 1) q`). Empty input gives 0.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let h = (n - 1) as f64 * q.clamp(0.0, 1.0);
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
        }
    }
}

/// Sort a sample ascending (NaNs are a bug in the caller; they sort last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The `p`-th percentile (nearest rank, `ceil(p/100 · n)`) of an unsorted
/// latency sample, found by selection rather than a full sort. Empty input
/// gives 0.
pub fn percentile_ns(samples: &mut [u32], p: f64) -> u32 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    let index = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(index).1
}

/// Which order statistic of the repetitions stands for the metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// 10th percentile: raw times and costs (interference only adds).
    Low,
    /// 90th percentile: raw throughputs (interference only subtracts).
    High,
    /// Median: calibrated repetitions, and quantities with no one-sided
    /// noise model (counts).
    Median,
}

/// A reported number with its spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The value the metric reports.
    pub value: f64,
    /// Repetitions behind it.
    pub n: usize,
    /// Smallest repetition.
    pub min: f64,
    /// Median repetition.
    pub median: f64,
    /// Largest repetition.
    pub max: f64,
}

impl Summary {
    /// Summarise repetitions by the chosen order statistic.
    pub fn of(values: &[f64], pick: Pick) -> Summary {
        let s = sorted(values.to_vec());
        let q = match pick {
            Pick::Low => 0.10,
            Pick::High => 0.90,
            Pick::Median => 0.5,
        };
        Summary {
            value: quantile_sorted(&s, q),
            n: s.len(),
            min: s.first().copied().unwrap_or(0.0),
            median: quantile_sorted(&s, 0.5),
            max: s.last().copied().unwrap_or(0.0),
        }
    }

    /// A single exact reading (a count, or a quantity measured once).
    pub fn exact(value: f64) -> Summary {
        Summary {
            value,
            n: 1,
            min: value,
            median: value,
            max: value,
        }
    }

    /// The same summary in another unit (`k` times every figure).
    pub fn scaled(self, k: f64) -> Summary {
        Summary {
            value: self.value * k,
            min: self.min * k,
            median: self.median * k,
            max: self.max * k,
            n: self.n,
        }
    }

    /// Spread of the repetitions as a percentage of their median.
    pub fn spread_pct(&self) -> f64 {
        ratio((self.max - self.min) * 100.0, self.median.abs())
    }
}

/// An exact reading is a summary of itself.
impl From<f64> for Summary {
    fn from(value: f64) -> Summary {
        Summary::exact(value)
    }
}

/// `num / den`, or 0 where there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic generator so the oracle tests need no crate.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn quantiles_match_a_sorted_vector_oracle() {
        let mut state = 7;
        for n in [1usize, 2, 3, 4, 5, 8, 9, 100, 1001] {
            let values: Vec<f64> = (0..n).map(|_| (lcg(&mut state) % 10_000) as f64).collect();
            let s = sorted(values.clone());
            // Oracle: at q = k / (n - 1) the quantile is exactly the k-th
            // order statistic; between two such points it lies between them.
            for k in 0..n {
                let q = if n == 1 {
                    0.0
                } else {
                    k as f64 / (n - 1) as f64
                };
                let got = quantile_sorted(&s, q);
                assert!((got - s[k]).abs() < 1e-6, "n={n} k={k} got={got}");
            }
            let med = quantile_sorted(&s, 0.5);
            let expect = if n % 2 == 1 {
                s[n / 2]
            } else {
                (s[n / 2 - 1] + s[n / 2]) / 2.0
            };
            assert!((med - expect).abs() < 1e-9);
            let (q1, q3) = (quantile_sorted(&s, 0.25), quantile_sorted(&s, 0.75));
            assert!(s[0] <= q1 && q1 <= med && med <= q3 && q3 <= s[n - 1]);
        }
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_selection_matches_a_full_sort() {
        let mut state = 11;
        for n in [1usize, 2, 10, 99, 100, 101, 5000] {
            let samples: Vec<u32> = (0..n).map(|_| (lcg(&mut state) % 100_000) as u32).collect();
            let mut oracle = samples.clone();
            oracle.sort_unstable();
            for p in [1.0, 50.0, 90.0, 99.0, 100.0] {
                let rank = ((p / 100.0) * n as f64).ceil() as usize;
                let expect = oracle[rank.clamp(1, n) - 1];
                assert_eq!(
                    percentile_ns(&mut samples.clone(), p),
                    expect,
                    "n={n} p={p}"
                );
            }
        }
        assert_eq!(percentile_ns(&mut [], 50.0), 0);
    }

    #[test]
    fn summaries_pick_the_stated_percentile_and_keep_the_spread() {
        let reps: Vec<f64> = [
            15.0, 11.0, 19.0, 13.0, 17.0, 10.0, 20.0, 12.0, 18.0, 14.0, 16.0,
        ]
        .into();
        let high = Summary::of(&reps, Pick::High);
        let low = Summary::of(&reps, Pick::Low);
        assert_eq!((high.value, low.value), (19.0, 11.0));
        assert_eq!(Summary::of(&reps, Pick::Median).value, 15.0);
        assert_eq!(
            (high.n, high.min, high.median, high.max),
            (11, 10.0, 15.0, 20.0)
        );
        assert!((high.spread_pct() - 100.0 * 10.0 / 15.0).abs() < 1e-9);
        assert_eq!(Summary::from(3.0), Summary::exact(3.0));
        assert_eq!(Summary::of(&[], Pick::Low).n, 0);
        assert_eq!((ratio(6.0, 3.0), ratio(6.0, 0.0)), (2.0, 0.0));
        let doubled = high.scaled(2.0);
        assert_eq!(
            (doubled.value, doubled.min, doubled.max, doubled.n),
            (38.0, 20.0, 40.0, 11)
        );
    }
}
