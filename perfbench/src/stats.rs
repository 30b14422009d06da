//! Sample statistics: medians and the reported tail percentile.

/// A growable set of measurements.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    /// The median of the first and of the last tenth of the samples, in order.
    pub fn tenths(&self) -> (f64, f64) {
        let tenth = (self.values.len() / 10).max(1);
        let n = self.values.len();
        (
            median(&self.values[..tenth.min(n)]),
            median(&self.values[n.saturating_sub(tenth)..]),
        )
    }

    /// The highest percentile, at most the 99th, that keeps at least ten samples
    /// beyond it (nearest rank): `(value, percentile)`.  With ten samples or fewer
    /// no percentile qualifies, and the maximum is reported as the 100th.
    pub fn tail(&self) -> (f64, f64) {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        if n <= 10 {
            return (sorted[n - 1], 100.0);
        }
        let p99 = (0.99 * n as f64).ceil() as usize - 1;
        let index = p99.min(n - 11);
        (sorted[index], 100.0 * (index + 1) as f64 / n as f64)
    }

    /// `"n=…, p50=…, pXX.X=…"` for the run record.
    pub fn describe(&self) -> String {
        let (tail, pct) = self.tail();
        format!(
            "n={}, p50={:.6}, p{:.1}={:.6}",
            self.len(),
            self.median(),
            pct,
            tail
        )
    }
}

/// The timings of one window of consecutive epochs.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub epoch_ms: Samples,
    pub poll_ms: Samples,
    pub register_ms: Samples,
    /// Epochs in the first and in the last tenth of their round.
    pub first_tenth: Samples,
    pub last_tenth: Samples,
    /// Time spent in engine calls.
    pub busy_s: f64,
    pub epochs: u64,
    pub attempted: u64,
}

/// The quiet windows of a run: for each position in the cycle, the window with
/// the lowest median epoch over the cycles.
///
/// Every cycle repeats the same work, so window `k` of cycle `c` (index
/// `c * per_cycle + k`) does the same epochs as window `k` of every other cycle,
/// and the fastest of them ran when the host was quietest.  Taking one window
/// per position keeps the mix of work the same as in a whole cycle.
pub fn quiet(windows: &[Window], per_cycle: usize) -> Vec<usize> {
    let per_cycle = per_cycle.max(1);
    let mut chosen: Vec<usize> = (0..per_cycle)
        .filter_map(|k| {
            (k..windows.len())
                .step_by(per_cycle)
                .filter(|&i| windows[i].epochs > 0)
                .min_by(|&a, &b| {
                    let (a_ms, b_ms) = (windows[a].epoch_ms.median(), windows[b].epoch_ms.median());
                    a_ms.total_cmp(&b_ms).then(a.cmp(&b))
                })
        })
        .collect();
    chosen.sort_unstable();
    chosen
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push(i as f64);
        }
        // 100 samples: p99 would leave one beyond it, so the tail is p90.
        assert_eq!(s.tail(), (90.0, 90.0));
        for i in 101..=2000 {
            s.push(i as f64);
        }
        assert_eq!(s.tail(), (1980.0, 99.0));
        assert_eq!(s.median(), 1000.5);
    }

    #[test]
    fn tenths_split_the_run() {
        let mut s = Samples::default();
        for i in 0..100 {
            s.push(if i < 50 { 1.0 } else { 3.0 });
        }
        assert_eq!(s.tenths(), (1.0, 3.0));
    }

    #[test]
    fn quiet_windows_take_the_fastest_of_each_position() {
        // Two positions per cycle: position 1 does twice the work of position 0.
        // Cycle 1 ran in a slow phase of the host, so its windows are 1.6x slower;
        // cycle 2 was slow only for position 0.
        let windows: Vec<Window> = [1.0, 2.0, 1.6, 3.2, 1.6, 2.1]
            .into_iter()
            .map(|ms| {
                let mut w = Window {
                    epochs: 1,
                    ..Window::default()
                };
                w.epoch_ms.push(ms);
                w
            })
            .collect();
        assert_eq!(quiet(&windows, 2), vec![0, 1]);
        assert_eq!(quiet(&windows[2..], 2), vec![0, 3]);
    }
}
