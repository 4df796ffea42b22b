//! Latency samples and the percentiles the report prints.

/// Wall-clock samples of one verb, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

/// A tail percentile as reported: which one, its value and how many
/// samples it was taken from.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub label: &'static str,
    /// The percentile as a fraction (1.0 for the maximum).
    pub p: f64,
    pub us: f64,
    pub samples: usize,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v = self.ns.clone();
        v.sort_unstable();
        v
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 1), in microseconds.
    pub fn percentile_us(&self, p: f64) -> Option<f64> {
        let v = self.sorted();
        rank(v.len(), p).map(|r| v[r] as f64 / 1_000.0)
    }

    pub fn p50_us(&self) -> Option<f64> {
        self.percentile_us(0.5)
    }

    /// The highest of p99 and p90 that has at least ten samples beyond
    /// it; with fewer than 100 samples, the maximum.
    pub fn tail(&self) -> Option<Tail> {
        let v = self.sorted();
        let n = v.len();
        if n == 0 {
            return None;
        }
        for (label, p) in [("p99", 0.99), ("p90", 0.90)] {
            let r = rank(n, p)?;
            if n - 1 - r >= 10 {
                return Some(Tail { label, p, us: v[r] as f64 / 1_000.0, samples: n });
            }
        }
        Some(Tail { label: "max", p: 1.0, us: v[n - 1] as f64 / 1_000.0, samples: n })
    }
}

fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let r = (p * n as f64).ceil() as usize;
    Some(r.clamp(1, n) - 1)
}

/// Median of a slice of values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 1..=1000 {
            s.push(i * 1_000);
        }
        let t = s.tail().unwrap();
        assert_eq!(t.label, "p99");
        assert_eq!(t.us, 990.0);

        let mut s = Samples::default();
        for i in 1..=200 {
            s.push(i * 1_000);
        }
        assert_eq!(s.tail().unwrap().label, "p90");
        assert_eq!(s.p50_us(), Some(100.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
