//! The benchmark's own statistics: percentiles that carry their sample
//! count, client-side request accounting (TTFT from the due time, not
//! the send time) and the SLO share.

/// A percentile of a sample, with the sample it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the percentile (nearest rank).
    pub value: f64,
    /// Samples in the whole set.
    pub n: usize,
    /// Samples strictly beyond the chosen rank.
    pub beyond: usize,
}

/// Fewest samples that must lie beyond a percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1]`) of `samples`, whatever the
/// support. `None` for an empty sample.
#[must_use]
pub fn percentile_any(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Percentile `q` of `samples`, reported only when at least
/// [`MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    percentile_any(samples, q).filter(|p| p.beyond >= MIN_BEYOND)
}

/// Median of a sample (mean of the two middle values for even sizes).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// How a request ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ending {
    /// Never reached a terminal status.
    Unfinished,
    /// Finished with every requested token.
    Completed,
    /// Finished in any other terminal status.
    Failed,
}

/// One request as the client saw it. Times are ms on the benchmark's
/// clock.
#[derive(Debug, Clone)]
pub struct ClientRequest {
    /// When the request was due to be sent (its scheduled arrival in an
    /// open loop; the moment the client sent it in a closed loop).
    pub due_ms: f64,
    /// When the generator actually sent it (later than `due_ms` if the
    /// generator ran late).
    pub sent_ms: f64,
    /// When the client received each token.
    pub recv_ms: Vec<f64>,
    /// How the request ended.
    pub ending: Ending,
    /// The received stream.
    pub tokens: Vec<u32>,
}

impl ClientRequest {
    /// A request that is due, and sent, at `due_ms`.
    #[must_use]
    pub fn new(due_ms: f64) -> Self {
        ClientRequest {
            due_ms,
            sent_ms: due_ms,
            recv_ms: Vec::new(),
            ending: Ending::Unfinished,
            tokens: Vec::new(),
        }
    }

    /// Time to first token, measured from the due time: a generator
    /// that stalls before sending inflates TTFT instead of hiding the
    /// stall. `None` if no token arrived.
    #[must_use]
    pub fn ttft_ms(&self) -> Option<f64> {
        self.recv_ms.first().map(|t| t - self.due_ms)
    }

    /// Gaps between successive received tokens.
    pub fn gaps_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.recv_ms.windows(2).map(|w| w[1] - w[0])
    }

    /// How late the generator sent this request.
    #[must_use]
    pub fn late_ms(&self) -> f64 {
        (self.sent_ms - self.due_ms).max(0.0)
    }
}

/// Latency limits a request must meet to count towards the SLO.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    /// Limit on time to first token, ms.
    pub ttft_ms: f64,
    /// Limit on every gap between tokens, ms.
    pub gap_ms: f64,
}

/// Share of sent requests that completed within both limits. Failed
/// and never-finished requests count as misses.
#[must_use]
pub fn slo_ok_frac(requests: &[ClientRequest], slo: Slo) -> f64 {
    if requests.is_empty() {
        return 0.0;
    }
    let ok = requests
        .iter()
        .filter(|r| {
            r.ending == Ending::Completed
                && r.ttft_ms().is_some_and(|t| t <= slo.ttft_ms)
                && r.gaps_ms().all(|g| g <= slo.gap_ms)
        })
        .count();
    ok as f64 / requests.len() as f64
}

/// Spearman rank correlation of two equally long samples (average ranks
/// for ties). `0.0` when either side is constant or too short.
#[must_use]
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() || a.len() < 2 {
        return 0.0;
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = ra.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va * vb).sqrt()
    }
}

fn ranks(v: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
    let mut out = vec![0.0; v.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_exact_sorted_samples_and_counts_support() {
        // 1..=100 shuffled: the nearest-rank p50 is 50, p90 is 90, p99
        // is 99, with 50, 10 and 1 samples beyond.
        let samples: Vec<f64> = (1..=100).map(|i| f64::from((i * 37) % 100 + 1)).collect();
        let p50 = percentile(&samples, 0.50).expect("50 beyond");
        assert_eq!((p50.value, p50.n, p50.beyond), (50.0, 100, 50));
        let p90 = percentile(&samples, 0.90).expect("10 beyond");
        assert_eq!((p90.value, p90.n, p90.beyond), (90.0, 100, 10));
        assert_eq!(percentile(&samples, 0.99), None, "1 beyond is too few");
        let p99 = percentile_any(&samples, 0.99).expect("non-empty");
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let nineteen: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(percentile(&nineteen, 0.5), None, "9 beyond the median");
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        let p = percentile(&twenty, 0.5).expect("10 beyond the median");
        assert_eq!((p.value, p.beyond), (9.0, 10));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn ttft_counts_from_the_due_time_so_a_stalled_generator_shows() {
        let mut on_time = ClientRequest::new(100.0);
        on_time.recv_ms = vec![110.0, 115.0];
        assert_eq!(on_time.ttft_ms(), Some(10.0));
        assert_eq!(on_time.late_ms(), 0.0);

        // The generator stalled 50 ms before sending: the server answered
        // 10 ms after the send, but the user waited 60 ms.
        let mut stalled = ClientRequest::new(100.0);
        stalled.sent_ms = 150.0;
        stalled.recv_ms = vec![160.0, 165.0];
        assert_eq!(stalled.ttft_ms(), Some(60.0));
        assert_eq!(stalled.late_ms(), 50.0);
        assert_eq!(stalled.gaps_ms().collect::<Vec<_>>(), vec![5.0]);
    }

    #[test]
    fn slo_counts_failed_and_unfinished_requests_as_misses() {
        let slo = Slo {
            ttft_ms: 20.0,
            gap_ms: 10.0,
        };
        let mut good = ClientRequest::new(0.0);
        good.recv_ms = vec![10.0, 15.0];
        good.ending = Ending::Completed;
        let mut slow_gap = good.clone();
        slow_gap.recv_ms = vec![10.0, 30.0];
        let mut failed = good.clone();
        failed.ending = Ending::Failed;
        let mut unfinished = ClientRequest::new(0.0);
        unfinished.recv_ms = vec![5.0];
        assert_eq!(slo_ok_frac(&[good.clone()], slo), 1.0);
        assert_eq!(
            slo_ok_frac(&[good, slow_gap, failed, unfinished], slo),
            0.25,
            "only the completed, in-limit request counts"
        );
        assert_eq!(slo_ok_frac(&[], slo), 0.0);
    }

    #[test]
    fn spearman_is_rank_based() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert!((spearman(&a, &[10.0, 20.0, 30.0, 1000.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&a, &[4.0, 3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(spearman(&a, &[1.0, 1.0, 1.0, 1.0]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
