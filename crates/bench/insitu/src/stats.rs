//! Order statistics over per-operation samples.

/// Percentiles a tail may be reported at, highest first. The steps are
/// coarse so that run-to-run changes in the sample count rarely move the
/// tail to another percentile. The ladder stops at p90: on the 2-core
/// reference host the slowest 1% of microsecond-scale feasd queries is set
/// by host stalls of up to a 4 ms scheduler tick, whose number per run
/// varies tenfold (p99 is still printed beside it).
const TAIL_LADDER: [f64; 3] = [90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as the tail.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// One metric's raw samples, kept so the median and tail come from the
/// same population.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Linear-interpolated percentile `p` in `[0, 100]` (0 when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        let rank = (p / 100.0) * (v.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
    }

    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Mean of the values between the first and third quartiles.
    pub fn interquartile_mean(&self) -> f64 {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        let (lo, hi) = (v.len() / 4, v.len() - v.len() / 4);
        let mid = &v[lo..hi];
        if mid.is_empty() {
            0.0
        } else {
            mid.iter().sum::<f64>() / mid.len() as f64
        }
    }

    /// The highest ladder percentile with at least ten samples beyond it,
    /// as `(percentile, value)`.
    pub fn tail(&self) -> (f64, f64) {
        let p = tail_percentile(self.values.len());
        (p, self.percentile(p))
    }
}

fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Samples split into consecutive windows of a run. A statistic is taken
/// per window and the interquartile mean across windows reported: a stall
/// of the shared host moves one window's figure rather than the run's, and
/// the host's seconds-long speed regimes shift the figure smoothly instead
/// of flipping a median between them.
#[derive(Debug, Clone, Default)]
pub struct Windowed {
    windows: Vec<Samples>,
}

impl Windowed {
    pub fn push(&mut self, window: usize, v: f64) {
        if self.windows.len() <= window {
            self.windows.resize(window + 1, Samples::default());
        }
        self.windows[window].push(v);
    }

    /// Samples across all windows.
    pub fn len(&self) -> usize {
        self.windows.iter().map(Samples::len).sum()
    }

    fn across(&self, f: impl Fn(&Samples) -> f64) -> f64 {
        let mut per = Samples::default();
        for w in self.windows.iter().filter(|w| !w.is_empty()) {
            per.push(f(w));
        }
        per.interquartile_mean()
    }

    /// Interquartile mean over windows of each window's median.
    pub fn p50(&self) -> f64 {
        self.across(Samples::p50)
    }

    /// Interquartile mean over windows of each window's `p` percentile.
    pub fn across_percentile(&self, p: f64) -> f64 {
        self.across(|w| w.percentile(p))
    }

    /// Interquartile mean over windows of each window's tail, as
    /// `(percentile, value)`. The percentile is the ladder's choice for the
    /// median window; windows too small to support it (a run's last,
    /// partial window) are left out.
    pub fn tail(&self) -> (f64, f64) {
        let mut sizes: Vec<usize> =
            self.windows.iter().map(Samples::len).filter(|&n| n > 0).collect();
        sizes.sort_unstable();
        let p = tail_percentile(sizes.get(sizes.len() / 2).copied().unwrap_or(0));
        let mut per = Samples::default();
        for w in self.windows.iter().filter(|w| tail_percentile(w.len()) >= p) {
            per.push(w.percentile(p));
        }
        (p, per.interquartile_mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.p50(), 2.5);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 4.0);
        assert_eq!(of(&[100.0, 2.0, 3.0, 0.0]).interquartile_mean(), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(of(&hundred).tail().0, 90.0);
        assert_eq!(of(&hundred[..99]).tail().0, 75.0);
        assert_eq!(of(&[1.0, 2.0]).tail().0, 50.0);
    }

    #[test]
    fn windowed_tail_leaves_out_a_short_last_window() {
        let mut w = Windowed::default();
        for i in 0..100 {
            w.push(0, f64::from(i));
            w.push(1, f64::from(i));
        }
        w.push(2, 1000.0);
        let (p, v) = w.tail();
        assert_eq!(p, 90.0);
        assert!((v - 89.1).abs() < 1e-9);
    }
}
