//! The one percentile helper every timing in the benchmark goes through.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, always with the
//! sample count, so a tail figure never rests on one or two outliers and
//! no value is truncated to a whole unit.

/// Samples that must lie beyond a reported tail percentile.
pub(crate) const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down.
const TAIL_LADDER: [f64; 5] = [0.9999, 0.999, 0.99, 0.9, 0.5];

/// Median, tail and count of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (`None` for an empty set).
    pub p50: Option<f64>,
    /// The highest percentile of [`TAIL_LADDER`] with at least
    /// [`MIN_BEYOND`] samples beyond it, as `(quantile, value)`; `None`
    /// when the set is too small for any.
    pub tail: Option<(f64, f64)>,
}

/// Value at quantile `q` of `sorted` by nearest rank (`None` if empty).
fn rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    Some(sorted[idx])
}

/// Samples strictly beyond the nearest-rank position of `q`.
fn beyond(n: usize, q: f64) -> usize {
    let idx = ((n as f64 * q).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(idx)
}

/// Sort `samples` in place and summarize them.
pub(crate) fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    let tail = TAIL_LADDER
        .iter()
        .find(|&&q| n > 0 && beyond(n, q) >= MIN_BEYOND)
        .and_then(|&q| rank(samples, q).map(|v| (q, v)));
    Summary {
        n,
        p50: rank(samples, 0.5),
        tail,
    }
}

/// The value at quantile `q`, only when at least [`MIN_BEYOND`] samples
/// lie beyond it; sorts `samples` in place.
pub(crate) fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    samples.sort_unstable_by(f64::total_cmp);
    if beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    rank(samples, q)
}

/// Median of `samples` (`None` if empty); sorts in place.
pub(crate) fn median(samples: &mut [f64]) -> Option<f64> {
    samples.sort_unstable_by(f64::total_cmp);
    rank(samples, 0.5)
}

/// Where in a run's windows or repetitions a figure is read: the
/// quietest tenth. The host's neighbours slow every CPU-bound step in
/// stretches of seconds to minutes, and such noise only ever adds time,
/// so the quiet end of a run is the part that repeats from run to run.
pub(crate) const QUIET: f64 = 0.1;

/// The quiet end of `samples` (sorts in place): the [`QUIET`] quantile
/// of durations, the `1 − QUIET` quantile of rates; with five or fewer
/// samples, the fastest.
pub(crate) fn quiet(samples: &mut [f64], rate: bool) -> Option<f64> {
    samples.sort_unstable_by(f64::total_cmp);
    if rate {
        samples.reverse();
    }
    rank(samples, QUIET)
}

/// The quiet end ([`quiet`]) over `windows` of each window's quantile
/// `q`; windows too small to carry [`MIN_BEYOND`] samples beyond `q` are
/// left out. Returns `(value, windows used)`.
pub(crate) fn windowed(
    windows: impl IntoIterator<Item = Vec<f64>>,
    q: f64,
) -> Option<(f64, usize)> {
    let mut per: Vec<f64> = windows
        .into_iter()
        .filter_map(|mut w| percentile(&mut w, q))
        .collect();
    let used = per.len();
    quiet(&mut per, false).map(|m| (m, used))
}

impl Summary {
    /// `p50 12.3 | p99.9 45.6 | n 5000`, with the unit after each value.
    pub(crate) fn describe(&self, unit: &str) -> String {
        let p50 = self
            .p50
            .map_or("-".to_string(), |v| format!("{v:.3} {unit}"));
        let tail = self.tail.map_or("tail -".to_string(), |(q, v)| {
            format!("p{} {v:.3} {unit}", format_quantile(q))
        });
        format!("p50 {p50} | {tail} | n {}", self.n)
    }
}

/// `0.999` → `99.9`.
fn format_quantile(q: f64) -> String {
    let s = format!("{:.2}", q * 100.0);
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_figures() {
        let s = summarize(&mut []);
        assert_eq!(
            s,
            Summary {
                n: 0,
                p50: None,
                tail: None
            }
        );
        assert_eq!(percentile(&mut [], 0.99), None);
        assert_eq!(median(&mut []), None);
        assert!(s.describe("us").contains("n 0"));
    }

    #[test]
    fn tiny_samples_report_a_median_but_no_tail() {
        let mut v = vec![3.0, 1.0, 2.0];
        let s = summarize(&mut v);
        assert_eq!(s.n, 3);
        assert_eq!(s.p50, Some(2.0));
        assert_eq!(s.tail, None, "3 samples cannot carry 10 beyond any tail");
        assert_eq!(percentile(&mut v, 0.5), None);
        let mut one = vec![7.5];
        assert_eq!(median(&mut one), Some(7.5));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 20 samples: p50 has 10 beyond, p90 only 2.
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = summarize(&mut v);
        assert_eq!(s.tail, Some((0.5, 10.0)));
        // 1000 samples: p99 has exactly 10 beyond, p99.9 only 1.
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&mut v);
        assert_eq!(s.tail, Some((0.99, 990.0)));
        assert_eq!(percentile(&mut v, 0.99), Some(990.0));
        assert_eq!(percentile(&mut v, 0.999), None);
        assert_eq!(s.p50, Some(500.0));
    }

    #[test]
    fn ties_and_sub_unit_values_survive() {
        // Identical sub-microsecond values must not read as 0.
        let mut v = vec![0.25; 50];
        let s = summarize(&mut v);
        assert_eq!(s.p50, Some(0.25));
        assert_eq!(s.tail, Some((0.5, 0.25)));
        // A tie block straddling the median.
        let mut v = vec![1.0, 5.0, 5.0, 5.0, 9.0];
        assert_eq!(median(&mut v), Some(5.0));
    }

    #[test]
    fn windowed_reads_the_quiet_end_of_window_quantiles() {
        // Twenty windows of 20, medians 10, 110, …, 1910: the quietest
        // tenth ends at the second window.
        let windows = (0..20).map(|k| {
            (1..=20)
                .map(|i| f64::from(i) + 100.0 * f64::from(k))
                .collect()
        });
        assert_eq!(windowed(windows, 0.5), Some((110.0, 20)));
        // A window too small for the tail is left out, not counted as 0.
        let windows = vec![(1..=1000).map(f64::from).collect(), vec![5.0; 50]];
        assert_eq!(windowed(windows, 0.99), Some((990.0, 1)));
        assert_eq!(windowed(Vec::<Vec<f64>>::new(), 0.5), None);
    }

    #[test]
    fn quiet_is_the_fast_end_for_durations_and_rates() {
        let mut durations: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quiet(&mut durations, false), Some(2.0));
        let mut rates: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quiet(&mut rates, true), Some(19.0));
        // Five or fewer repetitions: the fastest.
        assert_eq!(quiet(&mut [3.0, 1.5, 2.0], false), Some(1.5));
        assert_eq!(quiet(&mut [3.0, 1.5, 2.0], true), Some(3.0));
        assert_eq!(quiet(&mut [], false), None);
    }

    #[test]
    fn describe_names_the_tail_and_count() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let text = summarize(&mut v).describe("us");
        assert!(text.contains("p99 990.000 us"), "{text}");
        assert!(text.contains("n 1000"), "{text}");
    }
}
