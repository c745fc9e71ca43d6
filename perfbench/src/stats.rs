//! Order statistics for reporting timings: median, quartiles, and the
//! highest percentile that still has enough samples beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [usize; 5] = [99, 95, 90, 75, 50];

/// Median of `xs`, or `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    quartiles(xs).map(|q| q[1])
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method). A single sample is its own three quartiles; `None` when
/// empty.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let ld = s.len();
    match ld {
        0 => None,
        1 => Some([s[0]; 3]),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            Some([q(1), q(2), q(3)])
        }
    }
}

/// The highest of p99, p95, p90, p75 and p50 that has at least
/// [`TAIL_SAMPLES`] samples strictly above its nearest-rank position,
/// as `(percentile, value)`; `None` when even the median has fewer.
pub fn tail_percentile(xs: &[f64]) -> Option<(usize, f64)> {
    let s = sorted(xs);
    let n = s.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let rank = (p * n).div_ceil(100);
        (rank >= 1 && n - rank >= TAIL_SAMPLES).then(|| (p, s[rank - 1]))
    })
}

/// One timing's report: sample count, quartiles and tail percentile.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// `[q1, median, q3]`.
    pub quartiles: [f64; 3],
    /// See [`tail_percentile`].
    pub tail: Option<(usize, f64)>,
}

impl Summary {
    /// Summarises `xs`; `None` when empty.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        Some(Summary {
            n: xs.len(),
            quartiles: quartiles(xs)?,
            tail: tail_percentile(xs),
        })
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quartiles[1]
    }

    /// One human-readable line: median, quartiles, tail and `n`.
    pub fn describe(&self, unit: &str) -> String {
        let [q1, q2, q3] = self.quartiles;
        let tail = match self.tail {
            Some((p, v)) => format!("p{p} {v:.6e}"),
            None => format!("no percentile with {TAIL_SAMPLES} samples beyond"),
        };
        format!(
            "median {q2:.6e} {unit} (q1 {q1:.6e}, q3 {q3:.6e}; {tail}; n={})",
            self.n
        )
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
