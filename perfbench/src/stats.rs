//! Order statistics and the seeded generator the workloads draw from.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentiles the tail helper considers, in tenths of a percent, highest
/// first.
const TAIL_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(percentile, value)`.
///
/// The percentile is the nearest-rank one: the value at rank
/// `ceil(p/100 * n)` of the sorted samples, so `n - rank` samples lie beyond
/// it. `None` when even the median has fewer than ten samples beyond it.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_PERMILLE.iter().find_map(|&pm| {
        let rank = (pm * n).div_ceil(1000);
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then(|| (pm as f64 / 10.0, v[rank - 1]))
    })
}

/// SplitMix64: a small, seedable generator, so the request plans depend on
/// nothing but `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        Rng::new(7, 1).shuffle(&mut a);
        Rng::new(7, 1).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let ranks = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&ranks(19)), None);
        assert_eq!(tail_percentile(&ranks(20)), Some((50.0, 10.0)));
        assert_eq!(tail_percentile(&ranks(40)), Some((75.0, 30.0)));
        assert_eq!(tail_percentile(&ranks(100)), Some((90.0, 90.0)));
        assert_eq!(tail_percentile(&ranks(1000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&ranks(10_000)), Some((99.9, 9990.0)));
        // Order of the input does not matter.
        let mut shuffled = ranks(100);
        shuffled.reverse();
        assert_eq!(tail_percentile(&shuffled), Some((90.0, 90.0)));
        for n in [20, 57, 333, 4000] {
            let (p, v) = tail_percentile(&ranks(n)).unwrap();
            assert!(n - v as usize >= TAIL_MIN_BEYOND, "{p} at n={n}");
        }
    }
}
