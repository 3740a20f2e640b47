//! Small numeric helpers shared by the workloads and the report.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an FNV-1a 64-bit hash.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Fold a sequence of words into an FNV-1a hash.
pub fn fnv1a_words(h: u64, words: &[u64]) -> u64 {
    words.iter().fold(h, |h, w| fnv1a(h, &w.to_le_bytes()))
}

/// Exact nearest-rank percentile of an unsorted sample (0 when empty).
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    percentile_sorted(&v, p)
}

/// Exact nearest-rank percentile of a sorted sample (0 when empty).
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // The epsilon keeps float noise (99.9 % of 1000 = 999.0000000000001)
    // from skipping a rank.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile of samples observed on a grid of `quantum` ns (a sample
/// `v` stands for a true value in `(v - quantum, v]`): the nearest-rank
/// value, interpolated linearly across the samples tied at it, so the
/// estimate moves with the sample instead of sticking to the grid.
pub fn percentile_quantized(samples: &[u64], p: f64, quantum: u64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let at = percentile_sorted(&v, p);
    let below = v.partition_point(|&x| x < at);
    let tied = v.partition_point(|&x| x <= at) - below;
    let pos = (p / 100.0) * v.len() as f64 - below as f64;
    let frac = (pos / tied as f64).clamp(0.0, 1.0);
    at as f64 - quantum as f64 * (1.0 - frac)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, with its value: `(percentile, value)`.
pub fn tail(samples: &[u64]) -> (f64, u64) {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let n = v.len() as f64;
    let p = [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (p, percentile_sorted(&v, p))
}

/// Median of a float sample (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.9), 999);
        assert_eq!(tail(&v), (99.0, 990));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        // 10 samples at 5 µs and 10 at 6 µs on a 1 µs grid: the median
        // sits at the top of the first step, p75 halfway up the second.
        let q: Vec<u64> = [5_000; 10].into_iter().chain([6_000; 10]).collect();
        assert_eq!(percentile_quantized(&q, 50.0, 1_000), 5_000.0);
        assert_eq!(percentile_quantized(&q, 75.0, 1_000), 5_500.0);
    }
}
