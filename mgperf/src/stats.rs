//! Order statistics for the report: medians, minima, the tail
//! percentile, and the geometric mean.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Smallest of `xs`; `0.0` for an empty slice.
///
/// Host times of repeated, identical work are reported through this:
/// load from outside the process only ever lengthens a unit of work, and
/// on a shared host it comes in phases of seconds, so the fastest of a
/// unit's repetitions is its own cost, where a median follows whichever
/// phase held the larger share of the window.
pub fn min(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Element-wise [`min`] over repetitions that time the same units in
/// the same order; an empty list gives an empty result.
pub fn fastest(reps: &[Vec<f64>]) -> Vec<f64> {
    let n = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..n).map(|i| min(&reps.iter().map(|r| r[i]).collect::<Vec<_>>())).collect()
}

/// One repetition of a whole at its fastest: every unit at its fastest
/// repetition (see [`fastest`]), plus the least time a repetition spent
/// outside its units. `walls[i]` is repetition `i`'s wall time and
/// `units[i]` its units' times. Returns the total and the units' times.
pub fn fastest_whole(walls: &[f64], units: &[Vec<f64>]) -> (f64, Vec<f64>) {
    let each = fastest(units);
    let around: Vec<f64> =
        walls.iter().zip(units).map(|(w, u)| w - u.iter().sum::<f64>()).collect();
    (each.iter().sum::<f64>() + min(&around), each)
}

/// Geometric mean of positive values; `0.0` for an empty slice.
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A tail latency: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in `[0, 100)`.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the `TAIL_BEYOND + 1`-th largest sample, at percentile
/// `100 * (n - TAIL_BEYOND) / n`. With too few samples for any such
/// rank, the median stands in and `beyond` says how many samples lie
/// above it.
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return Tail { pct: 50.0, value: median(xs), samples: n, beyond: n / 2 };
    }
    let rank = n - TAIL_BEYOND; // 1-based rank of the reported sample
    Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: s[rank - 1],
        samples: n,
        beyond: TAIL_BEYOND,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.samples, 100);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_is_the_highest_such_percentile() {
        // One more sample moves the rank up, not past the ten-beyond line.
        let xs: Vec<f64> = (1..=37).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 27.0);
        assert_eq!(t.samples, 37);
        assert!((t.pct - 100.0 * 27.0 / 37.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        // The next sample up leaves only nine beyond it.
        assert_eq!(xs.iter().filter(|&&x| x > 28.0).count(), 9);
    }

    #[test]
    fn tail_with_too_few_samples_falls_back_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.samples, t.beyond), (50.0, 5.5, 10, 5));
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn min_and_fastest_take_each_unit_alone() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(min(&[]), 0.0);
        // Each unit keeps its own fastest repetition, even when no single
        // repetition was fastest everywhere.
        let reps = vec![vec![1.0, 5.0, 3.0], vec![2.0, 4.0, 3.5], vec![1.5, 6.0, 2.5]];
        assert_eq!(fastest(&reps), vec![1.0, 4.0, 2.5]);
        assert!(fastest(&[]).is_empty());
        // The whole adds the least time spent outside the units: 0.5
        // in the first repetition, 1.0 in the second.
        let walls = [9.5, 8.0];
        let units = vec![vec![1.0, 8.0], vec![2.0, 5.0]];
        assert_eq!(fastest_whole(&walls, &units), (1.0 + 5.0 + 0.5, vec![1.0, 5.0]));
    }

    #[test]
    fn gmean_of_equal_values_is_the_value() {
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
