//! Wall-clock measurement helpers.

use std::time::{Duration, Instant};

/// Runs `f`, returning its result and the elapsed wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Online mean accumulator for latencies and sizes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mean {
    sum: f64,
    count: usize,
}

impl Mean {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn add(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
    }

    /// Adds a duration observation, in seconds.
    pub fn add_duration(&mut self, d: Duration) {
        self.add(d.as_secs_f64());
    }

    /// Current mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_something_positive() {
        let (value, elapsed) = timed(|| (0..10_000).sum::<u64>());
        assert_eq!(value, 49_995_000);
        assert!(elapsed.as_nanos() > 0);
    }

    #[test]
    fn mean_accumulates() {
        let mut m = Mean::new();
        assert_eq!(m.mean(), 0.0);
        m.add(2.0);
        m.add(4.0);
        m.add_duration(Duration::from_secs(3));
        assert_eq!(m.count(), 3);
        assert!((m.mean() - 3.0).abs() < 1e-12);
        assert!((m.sum() - 9.0).abs() < 1e-12);
    }
}
