//! Order statistics: nearest-rank percentiles and the tail rule.

/// The percentiles a tail may be reported at, lowest first: the usual
/// reporting points, so a tail lands on one of them rather than on a
/// percentile a few samples from the top.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples needed beyond a percentile before it may be reported as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (to a tenth) among `n` samples,
/// in integer arithmetic so that `p99.9` of 10,000 is rank 9,990 exactly.
#[must_use]
pub fn rank(p: f64, n: usize) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Percentile `p` of `samples` by nearest rank (`None` when empty).
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// The median of `samples` by nearest rank.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The tail rule: the highest percentile of [`TAIL_LADDER`] that leaves at
/// least [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond its rank, or
/// `None` when even the median does not.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n >= rank(p, n) + TAIL_MIN_BEYOND)
}

/// Arithmetic mean (`0.0` when empty).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}
