//! The benchmark's own arithmetic: percentiles with the tail rule,
//! ratios that carry their base, and metric-name validation.

use std::fmt;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of `samples` (`q` in `(0, 1]`): the smallest
/// sample with at least `q · n` samples at or below it. `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} out of (0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `q`
/// percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The smallest sample count that leaves [`MIN_TAIL`] samples beyond
/// the `q` percentile.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, q) >= MIN_TAIL)
        .expect("some sample count satisfies the tail rule")
}

/// The median, over consecutive windows of `samples` (in time order),
/// of each window's nearest-rank `q` percentile. Every window holds at
/// least `window` samples (the last absorbs the remainder), so a
/// percentile that needs a tail keeps it in every window. A stall that
/// hits a minority of windows moves the result little. `None` when
/// there are fewer than `window` samples.
pub fn windowed_percentile(samples: &[f64], q: f64, window: usize) -> Option<f64> {
    assert!(window > 0, "empty window");
    let windows = samples.len() / window;
    if windows == 0 {
        return None;
    }
    let per_window: Vec<f64> = (0..windows)
        .map(|i| {
            let end = if i + 1 == windows {
                samples.len()
            } else {
                (i + 1) * window
            };
            percentile(&samples[i * window..end], q).expect("window is not empty")
        })
        .collect();
    percentile(&per_window, 0.5)
}

/// A derived quantity divided by the count it is "per": keeps the base
/// so every printed ratio says what it was measured over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// The numerator total.
    pub total: f64,
    /// How many base units the total was spread over.
    pub base: u64,
    /// What the base counts (`tasks`, `steps`, ...).
    pub base_unit: &'static str,
}

impl Ratio {
    /// `total` per `base` `base_unit`.
    pub fn per(total: f64, base: u64, base_unit: &'static str) -> Self {
        Ratio {
            total,
            base,
            base_unit,
        }
    }

    /// The ratio; 0 over an empty base (nothing was measured, so
    /// nothing happened per unit).
    pub fn value(&self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.total / self.base as f64
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} ({} over {} {})",
            self.value(),
            self.total,
            self.base,
            self.base_unit
        )
    }
}

/// Whether `name` is a valid metric name: starts with a letter or a
/// digit and is at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(allowed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.95), Some(95.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.001), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        assert_eq!(percentile(&[3.0, 1.0], 0.5), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_rule_counts_samples_strictly_beyond() {
        assert_eq!(samples_beyond(100, 0.95), 5);
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(0, 0.95), 0);
        assert_eq!(min_samples_for(0.95), 200);
        assert_eq!(min_samples_for(0.5), 20);
        assert!(samples_beyond(min_samples_for(0.95), 0.95) >= MIN_TAIL);
        assert!(samples_beyond(min_samples_for(0.95) - 1, 0.95) < MIN_TAIL);
    }

    #[test]
    fn windowed_percentiles_take_the_median_window() {
        // Four windows of 200: three quiet, one stalled.
        let mut xs: Vec<f64> = Vec::new();
        for w in 0..4 {
            let stall = if w == 2 { 100.0 } else { 0.0 };
            xs.extend((1..=200).map(|i| f64::from(i) + stall));
        }
        assert_eq!(windowed_percentile(&xs, 0.95, 200), Some(190.0));
        assert_eq!(windowed_percentile(&xs, 0.5, 200), Some(100.0));
        // The remainder joins the last window instead of forming a
        // short one.
        assert_eq!(windowed_percentile(&xs[..399], 0.95, 200), Some(190.0));
        assert_eq!(windowed_percentile(&xs[..250], 0.95, 200), Some(188.0));
        assert_eq!(windowed_percentile(&xs[..199], 0.95, 200), None);
    }

    #[test]
    fn ratios_keep_their_base() {
        let r = Ratio::per(45.0, 3, "tasks");
        assert_eq!(r.value(), 15.0);
        let shown = r.to_string();
        assert!(shown.contains("over 3 tasks"), "{shown}");
        let empty = Ratio::per(12.0, 0, "steps");
        assert_eq!(empty.value(), 0.0);
        assert!(empty.to_string().contains("over 0 steps"));
    }

    #[test]
    fn metric_names() {
        for ok in [
            "setup_s",
            "step_ms.p95",
            "analysis.viz-hybrid.insitu_ms.p50",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "brace{x}",
            "slash/x",
            "ümlaut",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }
}
