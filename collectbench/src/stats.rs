//! Order statistics for per-round samples.

/// The median (mean of the middle pair for even counts); NaN when empty.
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

/// Percentiles the tail is chosen from, highest first. p95 and p99 are
/// left out so that the reported percentile stays the same across large
/// speed changes (p99 would need 1000 rounds per run), and because on a
/// shared VM they mostly measure CPU taken by other tenants.
const TAIL_GRID: [u32; 2] = [90, 75];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_BEYOND: usize = 10;

/// The highest grid percentile with at least ten samples beyond it
/// (nearest-rank), as `(percentile, value, samples beyond)`; falls back
/// to the median when even p75 is unsupported.
pub fn tail(xs: &[f64]) -> (u32, f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in TAIL_GRID {
        let rank = (p as usize * n).div_ceil(100).max(1);
        if n - rank >= TAIL_BEYOND {
            return (p, v[rank - 1], n - rank);
        }
    }
    (50, median(&v), n / 2)
}

/// The least-squares slope of `y` on `x`; 0 when `x` does not vary.
pub fn slope(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    if sxx > 0.0 {
        sxy / sxx
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), (75, 30.0, 10));
        let xs: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail(&xs), (90, 360.0, 40));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn slope_fits_a_line_and_ignores_a_constant_regressor() {
        assert_eq!(slope(&[0.0, 1.0, 2.0, 3.0], &[1.0, 3.0, 5.0, 7.0]), 2.0);
        assert_eq!(slope(&[0.0, 0.0, 0.0], &[1.0, 5.0, 2.0]), 0.0);
    }
}
